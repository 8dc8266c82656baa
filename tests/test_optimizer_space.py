"""Tests for configuration-space enumeration (paper Section V-A)."""

import pytest

from repro.core.dims import DataType, Dim
from repro.core.layer import ConvLayer
from repro.core.loopnest import all_loop_orders
from repro.core.tiling import TileShape
from repro.optimizer.space import (
    REPRESENTATIVE_INNER_ORDERS,
    REPRESENTATIVE_OUTER_ORDERS,
    dedupe_orders_by_signature,
    halving_ladder,
    last_level_tile_candidates,
    loop_order_candidates,
    parallelism_candidates,
)

LAYER = ConvLayer(
    "c3d2", h=56, w=56, c=64, f=16, k=128, r=3, s=3, t=3,
    pad_h=1, pad_w=1, pad_f=1,
)


class TestHalvingLadder:
    def test_descends_to_one(self):
        assert halving_ladder(16) == [16, 8, 4, 2, 1]

    def test_ceil_halving(self):
        assert halving_ladder(7) == [7, 4, 2, 1]

    def test_one(self):
        assert halving_ladder(1) == [1]

    def test_always_includes_extremes(self):
        for n in (3, 100, 250):
            ladder = halving_ladder(n)
            assert ladder[0] == n
            assert ladder[-1] == 1


class TestTileCandidates:
    def test_all_candidates_fit(self, morph_arch):
        for tile in last_level_tile_candidates(LAYER, morph_arch):
            assert morph_arch.tile_fits(0, LAYER, tile)

    def test_candidate_count_bounded(self, morph_arch):
        tiles = last_level_tile_candidates(LAYER, morph_arch, max_candidates=10)
        assert 0 < len(tiles) <= 10

    def test_includes_data_type_pinning(self, morph_arch):
        """Figure 4b: the best configs pin one data type entirely."""
        tiles = last_level_tile_candidates(LAYER, morph_arch, max_candidates=24)
        full = TileShape.full(LAYER)
        assert any(
            t.c == full.c and t.k == full.k for t in tiles
        ), "no candidate keeps all weights resident"

    def test_static_partitions_change_candidates(self, morph_base_arch, morph_arch):
        base = last_level_tile_candidates(LAYER, morph_base_arch)
        for tile in base:
            assert morph_base_arch.tile_fits(0, LAYER, tile)

    def test_raises_when_nothing_fits(self, morph_arch):
        """R/S/T are never tiled (Section II-D), so a kernel bigger than
        the whole buffer makes even the minimum tile infeasible."""
        monster = ConvLayer("m", h=1200, w=1200, c=1, f=1, k=1, r=1100, s=1100, t=1)
        with pytest.raises(ValueError, match="no feasible"):
            last_level_tile_candidates(monster, morph_arch)


class TestLoopOrderCandidates:
    def test_exhaustive_is_120(self):
        orders = loop_order_candidates(
            exhaustive=True, representative=REPRESENTATIVE_OUTER_ORDERS
        )
        assert len(orders) == 120

    def test_representative_sets_parse(self):
        for spec in REPRESENTATIVE_OUTER_ORDERS + REPRESENTATIVE_INNER_ORDERS:
            orders = loop_order_candidates(exhaustive=False, representative=[spec])
            assert len(orders) == 1

    def test_representative_covers_paper_orders(self):
        """Figure 4's orders must be in the fast search space."""
        for spec in ("KWHCF", "WFHCK", "WHCKF"):
            assert spec in REPRESENTATIVE_OUTER_ORDERS
        for spec in ("KFWHC", "WHKFC", "CFWHK"):
            assert spec in REPRESENTATIVE_INNER_ORDERS

    def test_dedupe_collapses_classes(self):
        parent = TileShape.full(LAYER)
        child = TileShape(w=28, h=14, c=64, k=16, f=8)
        deduped = dedupe_orders_by_signature(all_loop_orders(), parent, child)
        assert 1 < len(deduped) < 120

    def test_dedupe_keeps_everything_distinct_signatures(self):
        """With all trips > 1 the classes are more numerous."""
        parent = TileShape.full(LAYER)
        child = TileShape(w=7, h=7, c=8, k=8, f=2)
        few = dedupe_orders_by_signature(all_loop_orders(), parent, child)
        degenerate_child = TileShape.full(LAYER)
        one = dedupe_orders_by_signature(
            all_loop_orders(), parent, degenerate_child
        )
        assert len(one) == 1  # everything degenerate: single class
        assert len(few) > len(one)


class TestParallelismCandidates:
    def test_full_machine_factorisations(self, morph_arch):
        for par in parallelism_candidates(morph_arch, LAYER):
            assert par.degree == morph_arch.total_pes

    def test_candidates_prefer_low_slack(self, morph_arch):
        """Degrees exceeding the layer extent rank late."""
        small = ConvLayer("small", h=9, w=9, c=256, f=3, k=512, r=3, s=3, t=3,
                          pad_h=1, pad_w=1, pad_f=1)
        best = parallelism_candidates(morph_arch, small)[0]
        assert best.of(Dim.W) <= small.out_w
        assert best.of(Dim.H) <= small.out_h

    def test_count_bounded(self, morph_arch):
        assert len(parallelism_candidates(morph_arch, LAYER, max_candidates=5)) <= 5

    @pytest.mark.parametrize(
        "clusters,pes_per_cluster", [(6, 16), (4, 16), (3, 9), (1, 7)]
    )
    def test_matches_brute_force_product(self, clusters, pes_per_cluster):
        """Solving for ``f`` yields the grid^4 product's factorisations in
        its order, so the stable slack sort ranks them identically (7 PEs
        has no grid factorisation and falls back to no parallelism)."""
        import itertools

        from repro.arch.accelerator import morph
        from repro.core.dataflow import Parallelism
        from repro.optimizer.space import _PARALLEL_DEGREE_GRID

        arch = morph(clusters=clusters, pes_per_cluster=pes_per_cluster)
        total = arch.total_pes
        grid = [d for d in _PARALLEL_DEGREE_GRID if d <= total]
        brute = [
            Parallelism(k=k, h=h, w=w, f=f)
            for k, h, w, f in itertools.product(grid, repeat=4)
            if k * h * w * f == total
        ]
        caps = {Dim.K: LAYER.k, Dim.H: LAYER.out_h, Dim.W: LAYER.out_w,
                Dim.F: LAYER.out_f}

        def slack(par):
            penalty = 1.0
            for dim, cap in caps.items():
                penalty *= max(1.0, par.of(dim) / max(cap, 1))
            return penalty

        brute.sort(key=lambda p: (slack(p), p.replication(DataType.INPUTS)
                                  + p.replication(DataType.WEIGHTS)))
        expected = brute or [Parallelism.none()]
        assert parallelism_candidates(
            arch, LAYER, max_candidates=len(grid) ** 4
        ) == expected

    def test_replication_tie_break(self, morph_arch):
        """Among zero-slack candidates, low replication ranks first."""
        candidates = parallelism_candidates(morph_arch, LAYER, max_candidates=12)
        reps = [
            c.replication(DataType.INPUTS) + c.replication(DataType.WEIGHTS)
            for c in candidates
        ]
        assert reps[0] <= max(reps)
