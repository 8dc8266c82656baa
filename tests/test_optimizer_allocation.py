"""Tests for the allocate/f_reuse sub-tile heuristic (paper Section V-C)."""

import pytest

from repro.core.dims import ALL_DIMS, Dim
from repro.core.layer import ConvLayer
from repro.core.loopnest import LoopOrder
from repro.core.tiling import TileShape
from repro.optimizer.allocation import (
    allocate_hierarchy,
    allocate_level,
    candidate_sub_tiles,
    f_reuse,
    parallel_caps,
)

LAYER = ConvLayer(
    "c3d3a", h=28, w=28, c=128, f=8, k=256, r=3, s=3, t=3,
    pad_h=1, pad_w=1, pad_f=1,
)
INNER = LoopOrder.parse("CFWHK")


class TestCandidates:
    def test_all_fit_capacity(self, morph_arch):
        parent = TileShape(w=28, h=14, c=64, k=16, f=8)
        for tile in candidate_sub_tiles(LAYER, morph_arch, 1, parent):
            assert morph_arch.tile_fits(1, LAYER, tile)
            assert tile.fits_within(parent)  # beams nest without a clip

    def test_includes_minimum_corner(self, morph_arch):
        parent = TileShape(w=8, h=8, c=16, k=8, f=4)
        tiles = candidate_sub_tiles(LAYER, morph_arch, 2, parent)
        assert TileShape.minimum() in tiles

    def test_cap_respected(self, morph_arch):
        parent = TileShape(w=28, h=14, c=64, k=16, f=8)
        cap = TileShape(w=7, h=14, c=64, k=4, f=8)
        for tile in candidate_sub_tiles(LAYER, morph_arch, 1, parent, cap=cap):
            assert tile.w <= 7 and tile.k <= 4

    def test_nonempty_even_under_tight_cap(self, morph_arch):
        parent = TileShape(w=28, h=14, c=64, k=16, f=8)
        cap = TileShape(w=1, h=1, c=1, k=1, f=1)
        tiles = candidate_sub_tiles(LAYER, morph_arch, 2, parent, cap=cap)
        assert tiles == [TileShape.minimum()]


class TestFReuse:
    def test_bigger_tiles_reuse_more(self, morph_arch):
        """More of the parent resident per fill => fewer refills per MACC."""
        parent = TileShape(w=28, h=14, c=64, k=16, f=8)
        small = TileShape(w=2, h=2, c=2, k=2, f=1)
        big = TileShape(w=14, h=14, c=32, k=16, f=4)
        assert f_reuse(LAYER, parent, big, INNER, morph_arch) > f_reuse(
            LAYER, parent, small, INNER, morph_arch
        )

    def test_positive(self, morph_arch):
        parent = TileShape(w=28, h=14, c=64, k=16, f=8)
        assert f_reuse(LAYER, parent, TileShape.minimum(), INNER, morph_arch) > 0


class TestAllocateLevel:
    def test_returns_requested_count(self, morph_arch):
        parent = TileShape(w=28, h=14, c=64, k=16, f=8)
        tiles = allocate_level(LAYER, morph_arch, 1, parent, INNER, keep=4)
        assert 0 < len(tiles) <= 4

    def test_sorted_by_reuse(self, morph_arch):
        parent = TileShape(w=28, h=14, c=64, k=16, f=8)
        tiles = allocate_level(LAYER, morph_arch, 1, parent, INNER, keep=6)
        scores = [f_reuse(LAYER, parent, t, INNER, morph_arch) for t in tiles]
        assert scores == sorted(scores, reverse=True)


class TestParallelCaps:
    def test_caps_divide_parent(self):
        parent = TileShape(w=28, h=14, c=64, k=16, f=8)
        caps = parallel_caps(parent, {Dim.K: 4, Dim.H: 2})
        assert caps.k == 4 and caps.h == 7
        assert caps.w == 28  # unconstrained dims untouched

    def test_caps_never_below_one(self):
        parent = TileShape(w=2, h=2, c=2, k=2, f=2)
        caps = parallel_caps(parent, {Dim.K: 16})
        assert caps.k == 1


class TestAllocateHierarchy:
    def test_nesting_and_capacity(self, morph_arch):
        l2 = TileShape(w=28, h=14, c=64, k=8, f=8)
        [beams] = allocate_hierarchy(LAYER, morph_arch, l2, (INNER,))
        for beam in beams:
            assert len(beam) == morph_arch.num_levels
            for parent, child in zip(beam, beam[1:]):
                assert child.fits_within(parent)
            for level, tile in enumerate(beam):
                assert morph_arch.tile_fits(level, LAYER, tile)

    def test_caps_guarantee_enough_subtiles(self, morph_arch):
        """The cap makes trip counts >= min(degree, parent extent): every
        worker gets a sub-tile whenever the parent has enough extent."""
        l2 = TileShape(w=28, h=7, c=64, k=48, f=4)
        degrees = ({}, {Dim.K: 6}, {Dim.H: 8})
        [beams] = allocate_hierarchy(
            LAYER, morph_arch, l2, (INNER,), level_degrees=degrees
        )
        for beam in beams:
            # 6 clusters each need a K-subtile of the L2 tile.
            assert -(-beam[0].k // beam[1].k) >= min(6, beam[0].k)
            # 8 PEs need H-subtiles of the L1 tile.
            assert -(-beam[1].h // beam[2].h) >= min(8, beam[1].h)

    def test_two_level_machine(self, eyeriss_arch):
        frame = LAYER.as_2d_frame()
        l2 = TileShape(w=26, h=26, c=128, k=8, f=1)
        [beams] = allocate_hierarchy(frame, eyeriss_arch, l2, (INNER,))
        assert beams and all(len(beam) == 2 for beam in beams)

    def test_impossible_allocation_is_marked(self, morph_arch):
        """A kernel bigger than the L0 cannot be tiled down (R/S untiled):
        every order gets the no-allocation marker, and one level alone
        raises."""
        wide = ConvLayer("wide", h=200, w=200, c=1, f=1, k=1, r=150, s=150, t=1)
        l2 = TileShape(w=1, h=1, c=1, k=1, f=1)
        orders = (INNER, LoopOrder.parse("WHCKF"))
        for vectorize in (False, True):
            assert allocate_hierarchy(
                wide, morph_arch, l2, orders, vectorize=vectorize
            ) == [None, None]
        with pytest.raises(ValueError):
            allocate_level(wide, morph_arch, 2, l2, INNER)
