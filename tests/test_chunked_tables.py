"""Chunking equivalence harness for the columnar passes.

The chunking contract (``docs/INVARIANTS.md``): a ``max_table_bytes``
cap makes candidate scoring and the trace/pipeline simulators stream
their tables in row chunks with carried reductions, and every chunked
pass must be **bit-identical** to the unchunked pass and the scalar
oracle.  These tests pin that contract:

* hypothesis properties compare the scalar simulator walks against the
  columnar passes, unchunked and chunked, on random strided/dilated
  dataflows, plus a deterministic dilated case in many tiny chunks;
* chunked-vs-unchunked scoring identity, including a forced multi-chunk
  tie-break (the first-min rule must survive chunk boundaries) and a
  ``max_table_bytes`` smaller than one table row (clean ``ValueError``);
* an allocation-tracking test that the streamed slices actually respect
  the cap on a batch whose full table exceeds it;
* ``repro.clear_cache()`` resets the chunk plans;
* strict ``$REPRO_MAX_TABLE_BYTES`` parsing (errors name the variable
  and the offending value) and the session > environment > built-in
  resolution chain.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.arch.accelerator import eyeriss_like, morph, morph_base
from repro.core import batch as batch_mod
from repro.core.batch import CandidateBatch
from repro.core.dataflow import Dataflow, Parallelism
from repro.core.dims import ALL_DIMS
from repro.core.evaluate import CapacityError, evaluate
from repro.core.layer import ConvLayer
from repro.core.loopnest import LoopOrder, all_loop_orders
from repro.core.tiling import TileHierarchy, TileShape
from repro.optimizer.search import OBJECTIVES, OptimizerOptions
from repro.sim.pipeline_sim import simulate_pipeline
from repro.sim.trace import trace_dataflow

ARCHES = {"morph": morph, "morph_base": morph_base, "eyeriss": eyeriss_like}

SMALL_OPTIONS = OptimizerOptions(
    max_l2_candidates=4,
    keep_allocations=2,
    keep_per_level=2,
    max_parallelism_candidates=2,
)

ORDERS = [LoopOrder.parse(s) for s in
          ("WHCKF", "KWHCF", "WFKHC", "FWHCK", "CKWHF", "KCFWH")]


@st.composite
def layers(draw) -> ConvLayer:
    """Random (possibly strided/dilated) 3D conv layers."""
    r = draw(st.integers(1, 3))
    s = draw(st.integers(1, 3))
    t = draw(st.integers(1, 2))
    dil_h = draw(st.integers(1, 3))
    dil_w = draw(st.integers(1, 2))
    span_h = (r - 1) * dil_h + 1
    span_w = (s - 1) * dil_w + 1
    return ConvLayer(
        "prop",
        h=draw(st.integers(span_h, 20)),
        w=draw(st.integers(span_w, 20)),
        c=draw(st.integers(1, 32)),
        f=draw(st.integers(t, 8)),
        k=draw(st.integers(1, 48)),
        r=r, s=s, t=t,
        stride_h=draw(st.integers(1, 2)),
        stride_w=draw(st.integers(1, 2)),
        stride_f=draw(st.integers(1, 2)),
        pad_h=draw(st.integers(0, 2)),
        pad_w=draw(st.integers(0, 1)),
        pad_f=draw(st.integers(0, 1)),
        dilation_h=dil_h,
        dilation_w=dil_w,
    )


def _random_tile(draw, full: TileShape) -> TileShape:
    return TileShape(
        w=draw(st.integers(1, full.w)),
        h=draw(st.integers(1, full.h)),
        c=draw(st.integers(1, full.c)),
        k=draw(st.integers(1, full.k)),
        f=draw(st.integers(1, full.f)),
    )


@st.composite
def batch_cases(draw):
    """A populated :class:`CandidateBatch` (plus its row meanings)."""
    layer = draw(layers())
    arch = ARCHES[draw(st.sampled_from(sorted(ARCHES)))]()
    full = TileShape.full(layer)
    hierarchies = [
        tuple(_random_tile(draw, full) for _ in range(arch.num_levels))
        for _ in range(draw(st.integers(1, 3)))
    ]
    order_pool = list(all_loop_orders())
    orders = tuple(
        draw(st.sampled_from(order_pool)) for _ in range(draw(st.integers(1, 2)))
    )
    parallelisms = (Parallelism(), Parallelism(k=arch.clusters))[
        : draw(st.integers(1, 2))
    ]
    rows = [
        (hi, oi, ii, pi)
        for hi in range(len(hierarchies))
        for oi in range(len(orders))
        for ii in range(len(orders))
        for pi in range(len(parallelisms))
    ]
    n = len(rows)
    tiles = np.empty((arch.num_levels, 5, n), dtype=np.int64)
    outer = np.empty(n, dtype=np.int64)
    inner = np.empty(n, dtype=np.int64)
    par = np.empty(n, dtype=np.int64)
    for i, (hi, oi, ii, pi) in enumerate(rows):
        for lvl, tile in enumerate(hierarchies[hi]):
            tiles[lvl, :, i] = (tile.w, tile.h, tile.c, tile.k, tile.f)
        outer[i], inner[i], par[i] = oi, ii, pi
    batch = CandidateBatch(
        layer, arch, orders, parallelisms, tiles, outer, inner, par
    )
    return batch, rows, hierarchies


@st.composite
def sim_dataflows(draw) -> Dataflow:
    """Small random dataflows for the simulator counter checks."""
    r = draw(st.sampled_from([1, 3]))
    s = draw(st.sampled_from([1, 3]))
    t = draw(st.sampled_from([1, 2]))
    dil_h = draw(st.integers(1, 2))
    span_h = (r - 1) * dil_h + 1
    layer = ConvLayer(
        "sim",
        h=draw(st.integers(max(4, span_h), 12)),
        w=draw(st.integers(max(4, s), 12)),
        c=draw(st.integers(1, 6)),
        f=draw(st.integers(t, 6)),
        k=draw(st.integers(1, 8)),
        r=r, s=s, t=t,
        stride_h=draw(st.integers(1, 2)),
        stride_w=draw(st.integers(1, 2)),
        pad_h=draw(st.integers(0, 1)),
        pad_w=draw(st.integers(0, 1)),
        dilation_h=dil_h,
    )
    parent = TileShape.full(layer)
    tiles = []
    for _ in range(draw(st.integers(1, 3))):
        tile = TileShape.from_mapping(
            {d: draw(st.integers(1, parent.extent(d))) for d in ALL_DIMS}
        ).clipped(parent)
        tiles.append(tile)
        parent = tile
    return Dataflow(
        draw(st.sampled_from(ORDERS)),
        draw(st.sampled_from(ORDERS)),
        TileHierarchy(layer, tuple(tiles)),
        draw(st.sampled_from([Parallelism(), Parallelism(k=6, h=4, w=4)])),
    )


def assert_trace_reports_identical(a, b) -> None:
    from repro.core.dims import ALL_DATA_TYPES

    assert len(a.boundaries) == len(b.boundaries)
    for i, (ba, bb) in enumerate(zip(a.boundaries, b.boundaries)):
        for dt in ALL_DATA_TYPES:
            assert ba.fills[dt] == bb.fills[dt], (i, dt)
            assert ba.fill_bytes[dt] == bb.fill_bytes[dt], (i, dt)
        assert ba.psum_load_bytes == bb.psum_load_bytes, i
        assert ba.psum_writeback_bytes == bb.psum_writeback_bytes, i
    assert a.dram_psum_writeback_bytes() == b.dram_psum_writeback_bytes()


# ----------------------------------------------------------------------
# Simulators: scalar walk vs columnar pass vs chunked columnar pass
# ----------------------------------------------------------------------
class TestSimulatorChunking:
    """Trace/pipeline counters identical through every path + chunking."""

    @given(dataflow=sim_dataflows())
    @settings(max_examples=20, deadline=None)
    def test_trace_counters_identical(self, dataflow):
        scalar = trace_dataflow(dataflow, vectorize=False)
        for max_table_bytes in (None, 40_000):
            columnar = trace_dataflow(
                dataflow, vectorize=True, max_table_bytes=max_table_bytes
            )
            assert_trace_reports_identical(scalar, columnar)

    @given(dataflow=sim_dataflows())
    @settings(max_examples=20, deadline=None)
    def test_pipeline_report_identical(self, dataflow):
        arch = morph()
        scalar = simulate_pipeline(dataflow, arch, vectorize=False)
        for max_table_bytes in (None, 60_000):
            columnar = simulate_pipeline(
                dataflow, arch, vectorize=True, max_table_bytes=max_table_bytes
            )
            # Frozen dataclass ==: every field, float cycles included.
            assert scalar == columnar

    def test_dilated_case_tiny_chunks(self):
        """Deterministic dilated/strided case streamed in many chunks."""
        layer = ConvLayer(
            "dil", h=13, w=11, c=5, f=6, k=7, r=3, s=3, t=2,
            stride_h=2, stride_w=2, pad_h=2, pad_w=2,
            dilation_h=2, dilation_w=2,
        )
        dataflow = Dataflow(
            LoopOrder.parse("WHCKF"), LoopOrder.parse("CFWHK"),
            TileHierarchy(
                layer,
                (TileShape(w=3, h=4, c=3, k=4, f=3),
                 TileShape(w=3, h=2, c=2, k=2, f=2)),
            ),
        )
        arch = morph()
        assert_trace_reports_identical(
            trace_dataflow(dataflow, vectorize=False),
            trace_dataflow(dataflow, vectorize=True, max_table_bytes=2_000),
        )
        assert simulate_pipeline(dataflow, arch, vectorize=False) == (
            simulate_pipeline(
                dataflow, arch, vectorize=True, max_table_bytes=2_000
            )
        )


# ----------------------------------------------------------------------
# Chunked streaming: identity, tie-breaks, caps
# ----------------------------------------------------------------------
class TestChunkedEvaluation:
    @given(case=batch_cases(), objective=st.sampled_from(sorted(OBJECTIVES)))
    @settings(max_examples=20, deadline=None)
    def test_chunked_scores_and_best_identical(self, case, objective):
        batch, _, _ = case
        full_scores = batch.scores(objective)
        full_best = batch.best(objective)
        # A cap of two rows' worth forces ceil(n/2) chunks.
        cap = 2 * batch._row_bytes()
        assert np.array_equal(
            full_scores, batch.scores(objective, max_table_bytes=cap)
        )
        assert full_best == batch.best(objective, max_table_bytes=cap)
        # The first-min winner of the chunked sweep is argmin of the
        # full score column, and that column matches the scalar oracle.
        assert full_best[0] == int(np.argmin(full_scores))
        assert full_best[2] == int(np.isfinite(full_scores).sum())
        for i in range(len(batch)):
            try:
                expected = OBJECTIVES[objective](
                    evaluate(batch.dataflow(i), batch.arch)
                )
            except CapacityError:
                assert math.isinf(full_scores[i]), i
                continue
            assert full_scores[i] == expected, i

    def _uniform_batch(self, copies: int) -> CandidateBatch:
        """``copies`` identical candidate rows — every score ties."""
        layer = ConvLayer("tie", h=8, w=8, c=4, f=2, k=8, r=3, s=3, t=1,
                          pad_h=1, pad_w=1)
        arch = morph()
        tile = TileShape(w=4, h=4, c=4, k=4, f=1)
        tiles = np.empty((arch.num_levels, 5, copies), dtype=np.int64)
        for lvl in range(arch.num_levels):
            tiles[lvl, :, :] = np.array(
                [tile.w, tile.h, tile.c, tile.k, tile.f]
            )[:, None]
        zeros = np.zeros(copies, dtype=np.int64)
        return CandidateBatch(
            layer, arch, (LoopOrder.parse("WHCKF"),), (Parallelism(),),
            tiles, zeros, zeros.copy(), zeros.copy(),
        )

    def test_multi_chunk_tie_break_keeps_first_min(self):
        """Equal scores across a chunk boundary: the lowest row index
        (the lowest legacy candidate rank) must win, exactly as a global
        ``np.argmin`` would pick it."""
        batch = self._uniform_batch(7)
        cap = 2 * batch._row_bytes()  # rows land in chunks of 2
        scores = batch.scores("energy")
        assert np.all(scores == scores[0]) and np.isfinite(scores[0])
        for max_table_bytes in (None, cap):
            index, score, finite = batch.best(
                "energy", max_table_bytes=max_table_bytes
            )
            assert index == 0
            assert score == float(scores[0])
            assert finite == len(batch)

    def test_cap_smaller_than_one_row_raises(self):
        batch = self._uniform_batch(3)
        with pytest.raises(ValueError, match="smaller than a single table row"):
            batch.scores("energy", max_table_bytes=1)
        with pytest.raises(ValueError, match="smaller than a single table row"):
            batch_mod.plan_chunk_rows(row_bytes=64, max_table_bytes=63)
        with pytest.raises(ValueError, match="row_bytes must be positive"):
            batch_mod.plan_chunk_rows(row_bytes=0, max_table_bytes=1024)

    def test_chunks_respect_the_byte_cap(self, monkeypatch):
        """Allocation tracking: every streamed slice stays under the cap
        while the full table would blow past it."""
        batch = self._uniform_batch(64)
        row_bytes = batch._row_bytes()
        cap = 8 * row_bytes
        assert len(batch) * row_bytes > cap  # the full table exceeds the cap

        slices: list[int] = []
        original = CandidateBatch._scores_slice

        def tracking(self, objective, sl):
            slices.append(sl.stop - sl.start)
            return original(self, objective, sl)

        monkeypatch.setattr(CandidateBatch, "_scores_slice", tracking)
        chunked = batch.scores("energy", max_table_bytes=cap)
        assert sum(slices) == len(batch)
        assert all(rows * row_bytes <= cap for rows in slices)
        assert len(slices) == math.ceil(len(batch) / 8)

        slices.clear()
        full = batch.scores("energy")
        assert slices == [len(batch)]
        assert np.array_equal(full, chunked)

    def test_tile_table_search_identical_under_tiny_cap(self, monkeypatch):
        """A search whose per-tile score passes stream two rows at a time
        picks the uncapped search's winner, score and counters."""
        from repro.optimizer.search import LayerOptimizer

        layer = ConvLayer(
            "tile", h=14, w=14, c=32, f=4, k=48, r=3, s=3, t=3,
            pad_h=1, pad_w=1, pad_f=1,
        )
        arch = morph()
        options = SMALL_OPTIONS.with_(vectorize=True)
        plain = LayerOptimizer(arch, options).optimize(layer)

        slices: list[int] = []
        original = CandidateBatch._scores_slice

        def tracking(self, objective, sl):
            slices.append(sl.stop - sl.start)
            return original(self, objective, sl)

        monkeypatch.setattr(CandidateBatch, "_scores_slice", tracking)
        cap = 2 * 8 * (arch.num_levels * 5 + batch_mod._WORKSPACE_COLUMNS)
        capped = LayerOptimizer(
            arch, options.with_(max_table_bytes=cap)
        ).optimize(layer)
        assert max(slices) == 2 and len(slices) > 2
        assert capped.best.dataflow == plain.best.dataflow
        assert capped.score == plain.score
        for counter in ("evaluated", "pruned", "first_block_won"):
            assert getattr(capped, counter) == getattr(plain, counter)

    def test_plan_chunk_rows_memoized(self):
        rows = batch_mod.plan_chunk_rows(100, 1000)
        assert rows == 10
        assert batch_mod._CHUNK_PLANS[(100, 1000)] == 10
        assert batch_mod.plan_chunk_rows(100, 1000) == 10

    def test_resolve_max_table_bytes(self):
        assert batch_mod.resolve_max_table_bytes(None) is None
        assert batch_mod.resolve_max_table_bytes(4096) == 4096
        with pytest.raises(ValueError, match="positive byte count"):
            batch_mod.resolve_max_table_bytes(0)


class TestClearCache:
    def test_clear_cache_resets_chunk_plans(self):
        """``repro.clear_cache()`` empties the chunk-plan memo."""
        batch_mod.plan_chunk_rows(128, 4096)
        assert batch_mod._CHUNK_PLANS
        repro.clear_cache()
        assert not batch_mod._CHUNK_PLANS


# ----------------------------------------------------------------------
# Knob plumbing: options, signatures, env, session scoping
# ----------------------------------------------------------------------
class TestKnobPlumbing:
    def test_options_validate(self):
        with pytest.raises(ValueError, match="max_table_bytes"):
            OptimizerOptions(max_table_bytes=0)
        options = OptimizerOptions(max_table_bytes=1 << 20)
        assert options.max_table_bytes == 1 << 20

    def test_signature_excludes_speed_knobs(self):
        """The cap is a pure speed knob: bit-identical results, so cached
        configurations stay valid across it."""
        from repro.optimizer.engine import search_signature

        layer = ConvLayer("sig", h=8, w=8, c=4, f=2, k=8, r=3, s=3, t=1,
                          pad_h=1, pad_w=1)
        arch = morph()
        plain = search_signature(layer, arch, OptimizerOptions())
        knobbed = search_signature(
            layer, arch, OptimizerOptions(max_table_bytes=1 << 16)
        )
        assert plain == knobbed

    def test_session_config_validates(self):
        from repro.api import SessionConfig

        assert SessionConfig(max_table_bytes="65536").max_table_bytes == 65536
        with pytest.raises(ValueError, match="max_table_bytes"):
            SessionConfig(max_table_bytes=0)

    @pytest.mark.parametrize(
        ("variable", "value", "match"),
        [
            ("REPRO_MAX_TABLE_BYTES", "lots",
             r"REPRO_MAX_TABLE_BYTES must be an integer byte count, got 'lots'"),
            ("REPRO_MAX_TABLE_BYTES", "0",
             r"REPRO_MAX_TABLE_BYTES must be >= 1 \(bytes\), got '0'"),
            ("REPRO_MAX_TABLE_BYTES", "-2048",
             r"REPRO_MAX_TABLE_BYTES must be >= 1 \(bytes\), got '-2048'"),
        ],
    )
    def test_env_bad_value_raises_naming_it(
        self, monkeypatch, variable, value, match
    ):
        from repro.optimizer.engine import default_max_table_bytes

        monkeypatch.setenv(variable, value)
        with pytest.raises(ValueError, match=match):
            default_max_table_bytes()

    def test_env_bad_value_fails_session_materialisation(self, monkeypatch):
        from repro.api import SessionConfig

        monkeypatch.setenv("REPRO_MAX_TABLE_BYTES", "lots")
        with pytest.raises(
            ValueError,
            match=r"REPRO_MAX_TABLE_BYTES must be an integer byte count, got 'lots'",
        ):
            SessionConfig.from_env()

    def test_env_good_values_parse(self, monkeypatch):
        from repro.api import SessionConfig
        from repro.optimizer.engine import default_max_table_bytes

        monkeypatch.setenv("REPRO_MAX_TABLE_BYTES", "65536")
        assert default_max_table_bytes() == 65536
        assert SessionConfig.from_env().max_table_bytes == 65536

        monkeypatch.setenv("REPRO_MAX_TABLE_BYTES", " ")
        assert default_max_table_bytes() is None  # blank means unset
        assert SessionConfig.from_env().max_table_bytes is None

    def test_session_scopes_the_knobs(self):
        """An active session's cap reaches the resolvers — and
        evaporates when the session closes."""
        from repro.api import Session, SessionConfig
        from repro.optimizer.engine import default_max_table_bytes

        with Session(SessionConfig(max_table_bytes=8192)):
            assert default_max_table_bytes() == 8192
            assert batch_mod.resolve_max_table_bytes(None) == 8192
        assert default_max_table_bytes() is None
        assert batch_mod.resolve_max_table_bytes(None) is None

    def test_engine_end_to_end_identical(self):
        """optimize_layer under a cap == the plain run, bit for bit."""
        from repro.optimizer.engine import optimize_layer

        layer = ConvLayer(
            "net", h=12, w=12, c=16, f=4, k=24, r=3, s=3, t=3,
            pad_h=1, pad_w=1, pad_f=1,
        )
        arch = morph()
        base = optimize_layer(
            layer, arch, SMALL_OPTIONS, use_cache=False, vectorize=True
        )
        knobbed = optimize_layer(
            layer, arch, SMALL_OPTIONS, use_cache=False, vectorize=True,
            max_table_bytes=100_000,
        )
        assert knobbed.best.dataflow == base.best.dataflow
        assert knobbed.score == base.score
        assert knobbed.evaluated == base.evaluated
