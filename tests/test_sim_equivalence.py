"""Scalar-vs-columnar equivalence harness for the simulation engine.

The columnar trace and pipeline passes must be semantic-preserving
rewrites of the scalar walks: same shared kernels, **bit-identical**
per-level fill/writeback/slide counters and cycle totals.  Mirroring
``test_batch_equivalence.py``, a hypothesis property suite drives random
layers (strides, dilations, ragged tile edges), hierarchies, loop orders
and parallelisms through both paths and asserts exact equality — plus
unit tests pinning the coordinate-table lowering to the scalar
enumeration and the ``vectorize`` knob plumbing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.accelerator import morph
from repro.core.dataflow import Dataflow, Parallelism
from repro.core.dims import ALL_DATA_TYPES, ALL_DIMS, Dim
from repro.core.layer import ConvLayer
from repro.core.loopnest import LoopOrder, all_loop_orders
from repro.core.tiling import TileHierarchy, TileShape, tile_positions, tile_positions_array
from repro.sim.pipeline_sim import simulate_pipeline
from repro.sim.tiled_executor import TileCoord, iter_tiles, schedule_tables, tile_table
from repro.sim.trace import trace_dataflow

ORDERS = [LoopOrder.parse(s) for s in
          ("WHCKF", "KWHCF", "WFKHC", "FWHCK", "CKWHF", "KCFWH", "CFWHK")]


@st.composite
def sim_layers(draw) -> ConvLayer:
    """Random small layers: strides, dilations and non-dividing shapes.

    Small enough that the scalar reference walk stays fast — the columnar
    path is exercised on full-size layers by the slow-tier network sweep.
    """
    r = draw(st.sampled_from([1, 3]))
    s = draw(st.sampled_from([1, 3]))
    t = draw(st.sampled_from([1, 2, 3]))
    dil_h = draw(st.integers(1, 2))
    dil_w = draw(st.integers(1, 2))
    span_h = (r - 1) * dil_h + 1
    span_w = (s - 1) * dil_w + 1
    return ConvLayer(
        "prop",
        h=draw(st.integers(max(4, span_h), 14)),
        w=draw(st.integers(max(4, span_w), 14)),
        c=draw(st.integers(1, 8)),
        f=draw(st.integers(t, 7)),
        k=draw(st.integers(1, 8)),
        r=r, s=s, t=t,
        stride_h=draw(st.integers(1, 2)),
        stride_w=draw(st.integers(1, 2)),
        stride_f=draw(st.integers(1, 2)),
        pad_h=draw(st.integers(0, 1)),
        pad_w=draw(st.integers(0, 1)),
        pad_f=draw(st.integers(0, 1)),
        dilation_h=dil_h,
        dilation_w=dil_w,
    )


@st.composite
def sim_dataflows(draw) -> Dataflow:
    layer = draw(sim_layers())
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
    assert len(a.boundaries) == len(b.boundaries)
    for i, (ba, bb) in enumerate(zip(a.boundaries, b.boundaries)):
        for dt in ALL_DATA_TYPES:
            assert ba.fills[dt] == bb.fills[dt], (i, dt)
            assert ba.fill_bytes[dt] == bb.fill_bytes[dt], (i, dt)
        assert ba.psum_load_bytes == bb.psum_load_bytes, i
        assert ba.psum_writeback_bytes == bb.psum_writeback_bytes, i
    assert a.dram_psum_writeback_bytes() == b.dram_psum_writeback_bytes()


class TestTraceEquivalence:
    """Columnar trace pass == scalar residency walk, counter for counter."""

    @given(dataflow=sim_dataflows())
    @settings(max_examples=40)
    def test_counters_bitwise_equal(self, dataflow):
        scalar = trace_dataflow(dataflow, vectorize=False)
        columnar = trace_dataflow(dataflow, vectorize=True)
        assert_trace_reports_identical(scalar, columnar)

    def test_dilated_strided_case(self):
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
        assert_trace_reports_identical(
            trace_dataflow(dataflow, vectorize=False),
            trace_dataflow(dataflow, vectorize=True),
        )


class TestPipelineEquivalence:
    """Columnar pipeline pass == scalar walk, cycles bit for bit."""

    @given(dataflow=sim_dataflows())
    @settings(max_examples=40)
    def test_reports_bitwise_equal(self, dataflow):
        arch = morph()
        scalar = simulate_pipeline(dataflow, arch, vectorize=False)
        columnar = simulate_pipeline(dataflow, arch, vectorize=True)
        # PipelineReport is a frozen dataclass: == compares every field,
        # the float cycle totals included — bit-identity, not tolerance.
        assert scalar == columnar

    def test_classification_fields(self, morph_arch):
        layer = ConvLayer("p", h=12, w=12, c=8, f=6, k=8, r=3, s=3, t=3)
        dataflow = Dataflow(
            LoopOrder.parse("KWHCF"), LoopOrder.parse("CFWHK"),
            TileHierarchy(
                layer,
                (TileShape(w=5, h=5, c=4, k=4, f=2),
                 TileShape(w=5, h=5, c=2, k=2, f=2)),
            ),
        )
        scalar = simulate_pipeline(dataflow, morph_arch, vectorize=False)
        columnar = simulate_pipeline(dataflow, morph_arch, vectorize=True)
        assert scalar.bound_by == columnar.bound_by
        assert scalar.tiles == columnar.tiles
        assert (
            scalar.load_bound_tiles + scalar.compute_bound_tiles
            == scalar.tiles
        )


class TestTileTableLowering:
    """The coordinate tables reproduce the scalar enumeration exactly."""

    @given(dataflow=sim_dataflows())
    @settings(max_examples=25)
    def test_tables_match_scalar_recursion(self, dataflow):
        layer = dataflow.layer
        levels = dataflow.hierarchy.levels
        visits: list[list[tuple[TileCoord, bool]]] = [[] for _ in range(levels)]

        def recurse(level: int, region: TileCoord) -> None:
            tile = dataflow.hierarchy.tiles[level]
            order = dataflow.order_for_boundary(level)
            for index, coord in enumerate(
                iter_tiles(region.origin, region.extent, tile, order)
            ):
                visits[level].append((coord, index == 0))
                if level + 1 < levels:
                    recurse(level + 1, coord)

        full = TileShape.full(layer)
        recurse(
            0,
            TileCoord(
                origin={d: 0 for d in Dim},
                extent={d: full.extent(d) for d in ALL_DIMS},
            ),
        )
        for level, table in enumerate(schedule_tables(dataflow)):
            assert len(table) == len(visits[level]), level
            for row, (coord, first) in enumerate(visits[level]):
                got = table.coord(row)
                assert got.origin == coord.origin, (level, row)
                assert got.extent == coord.extent, (level, row)
                assert bool(table.first_child[row]) == first, (level, row)

    def test_single_parent_matches_iter_tiles(self):
        origin = np.zeros((5, 1), dtype=np.int64)
        extent = np.array([[7], [5], [3], [2], [4]], dtype=np.int64)
        tile = TileShape(w=3, h=2, c=3, k=1, f=3)
        order = LoopOrder.parse("WHCKF")
        table = tile_table(origin, extent, tile, order)
        scalar = list(
            iter_tiles(
                {d: 0 for d in Dim},
                {Dim.W: 7, Dim.H: 5, Dim.C: 3, Dim.K: 2, Dim.F: 4},
                tile, order,
            )
        )
        assert len(table) == len(scalar)
        for row, coord in enumerate(scalar):
            assert table.coord(row).origin == coord.origin
            assert table.coord(row).extent == coord.extent
        assert int(table.parent.max()) == 0

    def test_tile_positions_array_matches_list(self):
        for total in (1, 5, 7, 12, 56):
            for tile in (1, 2, 3, 5, 7, 56):
                assert tile_positions_array(total, tile).tolist() == (
                    tile_positions(total, tile)
                )
        with pytest.raises(ValueError):
            tile_positions_array(8, 0)


class TestVectorizeKnob:
    """The sim knob follows the engine default and REPRO_VECTORIZE."""

    def test_env_escape_hatch(self, monkeypatch):
        from repro.sim.trace import _resolve_vectorize

        monkeypatch.setenv("REPRO_VECTORIZE", "0")
        assert _resolve_vectorize(None) is False
        monkeypatch.setenv("REPRO_VECTORIZE", "1")
        assert _resolve_vectorize(None) is True
        # Explicit argument wins over the environment.
        monkeypatch.setenv("REPRO_VECTORIZE", "0")
        assert _resolve_vectorize(True) is True
        assert _resolve_vectorize(False) is False

    def test_engine_defaults_respected(self):
        from repro.api import Session, SessionConfig
        from repro.sim.trace import _resolve_vectorize

        with Session(SessionConfig(vectorize=False)):
            assert _resolve_vectorize(None) is False
        assert _resolve_vectorize(None) is True

    def test_default_runs_columnar_identically(self, small_layer):
        dataflow = Dataflow(
            LoopOrder.parse("WHCKF"), LoopOrder.parse("CFWHK"),
            TileHierarchy(
                small_layer,
                (TileShape(w=5, h=10, c=4, k=4, f=2),
                 TileShape(w=5, h=5, c=2, k=2, f=2)),
            ),
        )
        assert_trace_reports_identical(
            trace_dataflow(dataflow),
            trace_dataflow(dataflow, vectorize=False),
        )
