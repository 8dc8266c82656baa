"""Scalar-vs-batch equivalence harness for the columnar model core.

The batch pipeline (:mod:`repro.core.batch`) must be a semantic-preserving
rewrite of the scalar analytic models: same equations, same chosen
configurations, bit-identical scores.  These tests pin that contract:

* a property test over random layers (shapes, strides, dilations),
  random tile hierarchies, loop orders and parallelisms compares
  ``CandidateBatch.scores`` against per-candidate scalar evaluations;
* a property test over random layers, parent tiles, caps and loop
  orders compares the allocator (``candidate_sub_tiles``,
  ``allocate_level``, ``allocate_hierarchy``) under its scalar and
  columnar hooks, with and without the candidate memo;
* property tests over random strided, dilated and (2+1)D layers pin the
  multi-order, multi-parallelism beam: entry ``[p][i]`` of one
  ``allocate_hierarchy`` call over several parallelisms and inner orders
  equals the call for parallelism ``p`` and order ``i`` alone, every
  candidate fits within its parent, and ``boundary_fill_bytes_sum`` with
  per-row orders equals its per-order calls bit for bit;
* a property test over random layers and all four objectives compares
  the full vectorized search against the scalar reference search, and a
  forced score mismatch must fall back to the scalar search;
* a per-registered-network sweep (slow tier) asserts every layer of every
  workload chooses the identical configuration either way.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.accelerator import eyeriss_like, morph, morph_base
from repro.core.batch import CandidateBatch, boundary_fill_bytes_sum
from repro.core.dataflow import Dataflow, Parallelism
from repro.core.dims import Dim
from repro.core.evaluate import CapacityError, evaluate
from repro.core.layer import ConvLayer
from repro.core.loopnest import LoopOrder, all_loop_orders
from repro.core.performance_model import parallel_level_degrees
from repro.core.tiling import TileHierarchy, TileShape
from repro.optimizer import allocation, search
from repro.optimizer.allocation import (
    allocate_hierarchy,
    allocate_level,
    candidate_sub_tiles,
    parallel_caps,
)
from repro.optimizer.search import (
    OBJECTIVES,
    LayerOptimizer,
    OptimizerOptions,
    optimize_network,
)
from repro.workloads import build_network, network_names

ARCHES = {"morph": morph, "morph_base": morph_base, "eyeriss": eyeriss_like}

SMALL_OPTIONS = OptimizerOptions(
    max_l2_candidates=4,
    keep_allocations=2,
    keep_per_level=2,
    max_parallelism_candidates=2,
)


@st.composite
def layers(draw) -> ConvLayer:
    """Random (possibly strided/dilated) 3D conv layers."""
    r = draw(st.integers(1, 3))
    s = draw(st.integers(1, 3))
    t = draw(st.integers(1, 3))
    dil_h = draw(st.integers(1, 3))
    dil_w = draw(st.integers(1, 3))
    dil_f = draw(st.integers(1, 2))
    span_h = (r - 1) * dil_h + 1
    span_w = (s - 1) * dil_w + 1
    span_f = (t - 1) * dil_f + 1
    h = draw(st.integers(span_h, 24))
    w = draw(st.integers(span_w, 24))
    f = draw(st.integers(span_f, 8))
    return ConvLayer(
        "prop",
        h=h,
        w=w,
        c=draw(st.integers(1, 48)),
        f=f,
        k=draw(st.integers(1, 64)),
        r=r,
        s=s,
        t=t,
        stride_h=draw(st.integers(1, 2)),
        stride_w=draw(st.integers(1, 2)),
        stride_f=draw(st.integers(1, 2)),
        pad_h=draw(st.integers(0, 2)),
        pad_w=draw(st.integers(0, 2)),
        pad_f=draw(st.integers(0, 1)),
        dilation_h=dil_h,
        dilation_w=dil_w,
        dilation_f=dil_f,
    )


@st.composite
def factorised_layers(draw) -> ConvLayer:
    """Random (2+1)D halves: a spatial 1xSxR or a temporal Tx1x1 conv."""
    temporal = draw(st.booleans())
    r, s = (1, 1) if temporal else (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    t = draw(st.integers(2, 3)) if temporal else 1
    return ConvLayer(
        "prop21d",
        h=draw(st.integers(r, 24)),
        w=draw(st.integers(s, 24)),
        c=draw(st.integers(1, 48)),
        f=draw(st.integers(t, 8)),
        k=draw(st.integers(1, 64)),
        r=r,
        s=s,
        t=t,
        stride_h=draw(st.integers(1, 2)),
        stride_w=draw(st.integers(1, 2)),
        stride_f=draw(st.integers(1, 2)),
        pad_h=r // 2,
        pad_w=s // 2,
        pad_f=t // 2,
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
def evaluation_cases(draw):
    """(layer, arch, hierarchies, orders, parallelisms) for score checks."""
    layer = draw(layers())
    arch_name = draw(st.sampled_from(sorted(ARCHES)))
    arch = ARCHES[arch_name]()
    full = TileShape.full(layer)
    hierarchies = [
        tuple(_random_tile(draw, full) for _ in range(arch.num_levels))
        for _ in range(draw(st.integers(1, 3)))
    ]
    order_pool = list(all_loop_orders())
    orders = tuple(
        draw(st.sampled_from(order_pool)) for _ in range(draw(st.integers(1, 3)))
    )
    par_pool = [
        Parallelism(),
        Parallelism(k=arch.clusters, h=arch.pes_per_cluster),
        Parallelism(h=min(4, arch.total_pes)),
    ]
    parallelisms = tuple(par_pool[: draw(st.integers(1, 3))])
    return layer, arch, hierarchies, orders, parallelisms


class TestBatchScoresMatchScalar:
    """CandidateBatch.scores == per-candidate scalar evaluation, bitwise."""

    @given(case=evaluation_cases(), objective=st.sampled_from(sorted(OBJECTIVES)))
    @settings(max_examples=40)
    def test_scores_bitwise_equal(self, case, objective):
        layer, arch, hierarchies, orders, parallelisms = case
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
        scores = batch.scores(objective)

        for i, (hi, oi, ii, pi) in enumerate(rows):
            dataflow = Dataflow(
                orders[oi],
                orders[ii],
                TileHierarchy(layer, hierarchies[hi]),
                parallelisms[pi],
            )
            try:
                expected = OBJECTIVES[objective](evaluate(dataflow, arch))
            except CapacityError:
                assert math.isinf(scores[i]), (i, rows[i])
                continue
            assert scores[i] == expected, (i, rows[i], scores[i], expected)

    @given(case=evaluation_cases())
    @settings(max_examples=20)
    def test_materialized_row_matches_scalar(self, case):
        layer, arch, hierarchies, orders, parallelisms = case
        tiles = np.empty((arch.num_levels, 5, 1), dtype=np.int64)
        for lvl, tile in enumerate(hierarchies[0]):
            tiles[lvl, :, 0] = (tile.w, tile.h, tile.c, tile.k, tile.f)
        batch = CandidateBatch(
            layer, arch, orders, parallelisms, tiles,
            np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
        )
        dataflow = batch.dataflow(0)
        assert dataflow.hierarchy == TileHierarchy(layer, hierarchies[0])
        assert dataflow.outer_order == orders[0]
        assert dataflow.parallelism == parallelisms[0]


@st.composite
def allocation_cases(draw):
    """(layer, arch, parent tile, inner order, parallelism) for allocator
    checks; the parent is a random tile of the layer, the parallelism one
    of the search's typical arrangements (or none)."""
    layer = draw(layers())
    arch = ARCHES[draw(st.sampled_from(sorted(ARCHES)))]()
    parent = _random_tile(draw, TileShape.full(layer))
    inner = draw(st.sampled_from(list(all_loop_orders())))
    parallelism = draw(st.sampled_from([
        None,
        Parallelism(k=arch.clusters, h=arch.pes_per_cluster),
        Parallelism(w=min(4, arch.total_pes)),
    ]))
    return layer, arch, parent, inner, parallelism


class TestAllocatorEquivalence:
    """Scalar and columnar allocator hooks give identical lists, in order."""

    @given(case=allocation_cases(), use_cap=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_candidate_sub_tiles_and_allocate_level(self, case, use_cap):
        layer, arch, parent, inner, parallelism = case
        degrees = {Dim.K: 2, Dim.H: 3} if parallelism is None else (
            parallel_level_degrees(
                arch.num_levels, arch.clusters, arch.pes_per_cluster, parallelism
            )[-1]
        )
        cap = parallel_caps(parent, degrees) if use_cap else None
        for level in range(1, arch.num_levels):
            scalar = candidate_sub_tiles(
                layer, arch, level, parent, cap=cap, vectorize=False
            )
            for vectorize in (True, False):
                memo: dict = {}
                for _ in range(2):  # cold, then recalled from the memo
                    assert candidate_sub_tiles(
                        layer, arch, level, parent, cap=cap,
                        vectorize=vectorize, memo=memo,
                    ) == scalar
            assert candidate_sub_tiles(
                layer, arch, level, parent, cap=cap, vectorize=True
            ) == scalar
            if not scalar:
                for vectorize in (True, False):
                    with pytest.raises(ValueError):
                        allocate_level(
                            layer, arch, level, parent, inner, cap=cap,
                            vectorize=vectorize,
                        )
                continue
            expected = allocate_level(
                layer, arch, level, parent, inner, keep=3, cap=cap
            )
            assert allocate_level(
                layer, arch, level, parent, inner, keep=3, cap=cap,
                vectorize=True, memo={},
            ) == expected

    @given(case=allocation_cases(), keep=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_allocate_hierarchy(self, case, keep):
        layer, arch, parent, inner, parallelism = case
        level_degrees = None if parallelism is None else parallel_level_degrees(
            arch.num_levels, arch.clusters, arch.pes_per_cluster, parallelism
        )

        def allocate(vectorize, memo):
            return allocate_hierarchy(
                layer, arch, parent, (inner,), keep_per_level=keep,
                level_degrees=level_degrees, vectorize=vectorize,
                candidate_memo=memo,
            )

        expected = allocate(False, None)
        for vectorize in (True, False):
            memo: dict = {}
            assert allocate(vectorize, None) == expected
            assert allocate(vectorize, memo) == expected
            assert allocate(vectorize, memo) == expected  # memo warm

    @given(case=allocation_cases(), keep=st.integers(1, 4), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_allocate_hierarchy_parallelism_axis(self, case, keep, data):
        """A multi-parallelism call gives the same beams under both hooks,
        with and without the candidate memo."""
        layer, arch, parent, inner, _ = case
        per_parallelism = data.draw(parallelism_degree_sets(arch, layer))

        def allocate(vectorize, memo):
            return allocate_hierarchy(
                layer, arch, parent, (inner,), keep_per_level=keep,
                per_parallelism=per_parallelism, vectorize=vectorize,
                candidate_memo=memo,
            )

        expected = allocate(False, None)
        assert len(expected) == len(per_parallelism)
        for vectorize in (True, False):
            memo: dict = {}
            assert allocate(vectorize, None) == expected
            assert allocate(vectorize, memo) == expected
            assert allocate(vectorize, memo) == expected  # memo warm


def parallelism_degree_sets(arch, layer):
    """1-3 distinct per-level degree splits: no split, or the level
    degrees of parallelisms the search would try for ``layer``."""
    from repro.optimizer.space import parallelism_candidates

    splits = [None] + [
        parallel_level_degrees(
            arch.num_levels, arch.clusters, arch.pes_per_cluster, parallelism
        )
        for parallelism in parallelism_candidates(arch, layer, max_candidates=4)
    ]
    return st.lists(
        st.sampled_from(range(len(splits))), min_size=1, max_size=3, unique=True
    ).map(lambda picks: [splits[i] for i in picks])


@st.composite
def multi_order_cases(draw):
    """(layer, arch, L2 tile, level degrees or None, inner orders): a
    random strided/dilated or (2+1)D layer and a random subset of the
    120 loop orders in random sequence."""
    layer = draw(st.one_of(layers(), factorised_layers()))
    arch = ARCHES[draw(st.sampled_from(sorted(ARCHES)))]()
    parent = _random_tile(draw, TileShape.full(layer))
    parallelism = draw(st.sampled_from([
        None,
        Parallelism(k=arch.clusters, h=arch.pes_per_cluster),
        Parallelism(w=min(4, arch.total_pes)),
    ]))
    level_degrees = None if parallelism is None else parallel_level_degrees(
        arch.num_levels, arch.clusters, arch.pes_per_cluster, parallelism
    )
    orders = draw(st.lists(
        st.sampled_from(list(all_loop_orders())), min_size=1, max_size=5,
        unique=True,
    ))
    return layer, arch, parent, level_degrees, tuple(orders)


class TestMultiOrderAllocation:
    """One level-synchronous beam over many inner orders == one beam per
    order: the orders never interact inside the allocator."""

    @given(case=multi_order_cases(), keep=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_entry_equals_single_order_call(self, case, keep):
        layer, arch, parent, level_degrees, orders = case

        def allocate(orders, vectorize, memo):
            return allocate_hierarchy(
                layer, arch, parent, orders, keep_per_level=keep,
                level_degrees=level_degrees, vectorize=vectorize,
                candidate_memo=memo,
            )

        expected = [allocate((order,), False, None)[0] for order in orders]
        for vectorize in (False, True):
            memo: dict = {}
            for memo_or_none in (None, memo, memo):  # cold, then memo warm
                assert allocate(orders, vectorize, memo_or_none) == expected
            assert allocate(orders[::-1], vectorize, memo) == expected[::-1]

    @given(case=multi_order_cases(), keep=st.integers(1, 4), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_entry_equals_single_pair_call(self, case, keep, data):
        """Entry ``[p][i]`` of a call over several parallelisms and orders
        equals the call with parallelism ``p`` and order ``i`` alone."""
        layer, arch, parent, _, orders = case
        per_parallelism = data.draw(parallelism_degree_sets(arch, layer))

        def allocate(per_parallelism, orders, vectorize, memo):
            return allocate_hierarchy(
                layer, arch, parent, orders, keep_per_level=keep,
                per_parallelism=per_parallelism, vectorize=vectorize,
                candidate_memo=memo,
            )

        expected = [
            [
                allocate_hierarchy(
                    layer, arch, parent, (order,), keep_per_level=keep,
                    level_degrees=degrees,
                )[0]
                for order in orders
            ]
            for degrees in per_parallelism
        ]
        for vectorize in (False, True):
            memo: dict = {}
            for memo_or_none in (None, memo, memo):  # cold, then memo warm
                assert allocate(
                    per_parallelism, orders, vectorize, memo_or_none
                ) == expected
            assert allocate(
                per_parallelism[::-1], orders, vectorize, memo
            ) == expected[::-1]

    @given(case=multi_order_cases(), keep=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_beams_nest_without_clipping(self, case, keep):
        """Every sub-tile the allocator proposes fits within its parent,
        so beams nest as generated (no clip to the parent is needed)."""
        layer, arch, parent, level_degrees, orders = case
        for level in range(1, arch.num_levels):
            cap = None
            if level_degrees is not None and level_degrees[level]:
                cap = parallel_caps(parent, level_degrees[level])
            for vectorize in (False, True):
                for tile in candidate_sub_tiles(
                    layer, arch, level, parent, cap=cap, vectorize=vectorize
                ):
                    assert tile.fits_within(parent), (tile, parent)
                    assert cap is None or tile.fits_within(cap), (tile, cap)
        for beams in allocate_hierarchy(
            layer, arch, parent, orders, keep_per_level=keep,
            level_degrees=level_degrees, vectorize=True,
        ):
            for beam in beams or ():
                assert beam[0] == parent
                for outer, inner in zip(beam, beam[1:]):
                    assert inner.fits_within(outer), (inner, outer)

    def test_order_without_allocation_is_marked_alone(self, monkeypatch):
        """Entry ``i`` still equals the single-order call when one order
        loses every level-2 candidate while another survives.  Every real
        candidate set holds the minimum tile, so level-2 feasibility is
        the same for every parent; the dead parent is injected."""
        layer = ConvLayer(
            "split", h=19, w=38, c=120, f=6, k=241, r=3, s=3, t=3,
            pad_h=1, pad_w=1, pad_f=1,
        )
        arch = morph()
        l2 = TileShape(w=35, h=18, c=61, k=102, f=6)
        dies, lives = LoopOrder.parse("WHCKF"), LoopOrder.parse("KWFCH")
        real = allocation._entries
        level2_uppers: dict[LoopOrder, set] = {}

        def allocate(orders, vectorize=False, memo=None):
            return allocate_hierarchy(
                layer, arch, l2, orders, keep_per_level=1,
                vectorize=vectorize, candidate_memo=memo,
            )

        for order in (dies, lives):
            seen = level2_uppers[order] = set()

            def spy(layer, arch, level_index, uppers, *rest, seen=seen):
                if level_index == 2:
                    seen.update(uppers)
                return real(layer, arch, level_index, uppers, *rest)

            monkeypatch.setattr(allocation, "_entries", spy)
            allocate((order,))
        killed = level2_uppers[dies]
        assert killed and not killed & level2_uppers[lives]

        def no_candidates_below_killed(layer, arch, level_index, uppers, *rest):
            entries = real(layer, arch, level_index, uppers, *rest)
            if level_index != 2:
                return entries
            return [
                allocation._Candidates([]) if upper in killed else entry
                for upper, entry in zip(uppers, entries)
            ]

        monkeypatch.setattr(allocation, "_entries", no_candidates_below_killed)
        [survivor] = allocate((lives,))
        assert survivor and allocate((dies,)) == [None]
        for vectorize in (False, True):
            for memo in (None, {}):
                assert allocate((dies, lives), vectorize, memo) == [None, survivor]
                assert allocate((lives, dies), vectorize, memo) == [survivor, None]

    @given(
        layer=st.one_of(layers(), factorised_layers()),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_boundary_fill_bytes_per_row_orders(self, layer, data):
        """Per-row orders give each row the single-order call's bytes."""
        full = TileShape.full(layer)
        n = data.draw(st.integers(1, 12))
        parents = [_random_tile(data.draw, full) for _ in range(n)]
        children = [_random_tile(data.draw, parent) for parent in parents]
        orders = tuple(data.draw(st.lists(
            st.sampled_from(list(all_loop_orders())), min_size=1, max_size=4,
            unique=True,
        )))
        index = np.array(
            data.draw(st.lists(
                st.integers(0, len(orders) - 1), min_size=n, max_size=n
            )),
            dtype=np.intp,
        )

        def columns(tiles):
            return np.array(
                [(t.w, t.h, t.c, t.k, t.f) for t in tiles], dtype=np.int64
            ).T

        precision = morph().precision
        mixed = boundary_fill_bytes_sum(
            layer, precision, columns(parents), columns(children), orders, index
        )
        for o, order in enumerate(orders):
            rows = np.flatnonzero(index == o)
            single = boundary_fill_bytes_sum(
                layer, precision, columns(parents), columns(children), order
            )
            assert mixed[rows].tolist() == single[rows].tolist()


class TestSearchEquivalence:
    """Vectorized LayerOptimizer == scalar LayerOptimizer, end to end."""

    @given(
        layer=layers(),
        objective=st.sampled_from(sorted(OBJECTIVES)),
        arch_name=st.sampled_from(sorted(ARCHES)),
    )
    @settings(max_examples=10, deadline=None)
    def test_same_choice_and_score(self, layer, objective, arch_name):
        arch = ARCHES[arch_name]()
        options = SMALL_OPTIONS.with_(objective=objective)
        try:
            scalar = LayerOptimizer(
                arch, options.with_(vectorize=False)
            ).optimize(layer)
        except CapacityError:
            with pytest.raises(CapacityError):
                LayerOptimizer(arch, options.with_(vectorize=True)).optimize(layer)
            return
        batch = LayerOptimizer(arch, options.with_(vectorize=True)).optimize(layer)
        assert batch.best.dataflow == scalar.best.dataflow
        assert batch.score == scalar.score  # bit-identical, stronger than 1e-9
        assert batch.score == pytest.approx(scalar.score, rel=1e-9)

    def test_dilated_layer_equivalence(self):
        layer = ConvLayer(
            "dil", h=14, w=14, c=64, f=4, k=96, r=3, s=3, t=3,
            pad_h=2, pad_w=2, pad_f=2,
            dilation_h=2, dilation_w=2, dilation_f=2,
        )
        for arch_factory in ARCHES.values():
            arch = arch_factory()
            options = OptimizerOptions.fast()
            scalar = LayerOptimizer(
                arch, options.with_(vectorize=False)
            ).optimize(layer)
            batch = LayerOptimizer(
                arch, options.with_(vectorize=True)
            ).optimize(layer)
            assert batch.best.dataflow == scalar.best.dataflow
            assert batch.score == scalar.score


    def test_materialisation_mismatch_falls_back_to_scalar(self, monkeypatch):
        """A columnar score that the scalar re-evaluation of its winner
        does not reproduce must not be returned: the search reruns on the
        scalar evaluator and returns exactly its result."""
        layer = ConvLayer(
            "fallback", h=14, w=14, c=32, f=4, k=48, r=3, s=3, t=3,
            pad_h=1, pad_w=1, pad_f=1,
        )
        options = SMALL_OPTIONS
        scalar = LayerOptimizer(
            morph(), options.with_(vectorize=False)
        ).optimize(layer)

        best = CandidateBatch.best

        def skewed_best(self, *args, **kwargs):
            winner, score, finite = best(self, *args, **kwargs)
            return winner, math.nextafter(score, -math.inf), finite

        scalar_evaluations = 0

        def counting_evaluate(*args, **kwargs):
            nonlocal scalar_evaluations
            scalar_evaluations += 1
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(CandidateBatch, "best", skewed_best)
        monkeypatch.setattr(search, "evaluate", counting_evaluate)
        fallback = LayerOptimizer(
            morph(), options.with_(vectorize=True)
        ).optimize(layer)
        assert scalar_evaluations > 0
        assert fallback == scalar


class TestEngineKnob:
    """The vectorize knob changes speed only — never results or keys."""

    def test_signature_excludes_vectorize(self):
        from repro.optimizer.engine import search_signature

        layer = ConvLayer("sig", h=8, w=8, c=4, f=2, k=8, r=3, s=3, t=1,
                          pad_h=1, pad_w=1)
        arch = morph()
        on = search_signature(layer, arch, OptimizerOptions(vectorize=True))
        off = search_signature(layer, arch, OptimizerOptions(vectorize=False))
        assert on == off

    def test_env_escape_hatch(self, monkeypatch):
        from repro.optimizer import engine

        monkeypatch.setenv("REPRO_VECTORIZE", "0")
        assert engine.default_vectorize() is False
        monkeypatch.setenv("REPRO_VECTORIZE", "1")
        assert engine.default_vectorize() is True
        monkeypatch.delenv("REPRO_VECTORIZE")
        assert engine.default_vectorize() is True  # numpy is available

    def test_session_default_round_trip(self):
        from repro.api import Session, SessionConfig
        from repro.optimizer import engine

        with Session(SessionConfig(vectorize=False)):
            assert engine.default_vectorize() is False
            opt = LayerOptimizer(morph(), OptimizerOptions())
            assert opt.vectorize is False
        assert engine.default_vectorize() is True  # numpy is available

    def test_optimize_network_knob_identical(self):
        layer = ConvLayer(
            "net", h=12, w=12, c=16, f=4, k=24, r=3, s=3, t=3,
            pad_h=1, pad_w=1, pad_f=1,
        )
        options = SMALL_OPTIONS
        scalar = optimize_network(
            (layer,), morph(), options, use_cache=False, parallelism=1,
            vectorize=False,
        )
        batch = optimize_network(
            (layer,), morph(), options, use_cache=False, parallelism=1,
            vectorize=True,
        )
        assert scalar.layers[0].best.dataflow == batch.layers[0].best.dataflow
        assert scalar.total_energy_pj == batch.total_energy_pj


@pytest.mark.slow
class TestRegisteredNetworkEquivalence:
    """Acceptance gate: identical choices on every registered network."""

    @pytest.mark.parametrize("name", network_names())
    def test_network_identical(self, name):
        network = build_network(name)
        options = OptimizerOptions.fast()
        arch = morph()
        scalar = optimize_network(
            network.layers, arch, options, network_name=network.name,
            use_cache=False, parallelism=1, vectorize=False,
        )
        batch = optimize_network(
            network.layers, arch, options, network_name=network.name,
            use_cache=False, parallelism=1, vectorize=True,
        )
        for a, b in zip(scalar.layers, batch.layers):
            assert a.best.dataflow == b.best.dataflow, a.layer.name
            assert a.score == b.score, a.layer.name
        assert scalar.total_energy_pj == batch.total_energy_pj
        assert scalar.total_cycles == batch.total_cycles
