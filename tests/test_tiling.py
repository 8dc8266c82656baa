"""Unit and property tests for the tiling model (halos, extents, bytes)."""

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.dims import DataType, Dim
from repro.core.layer import ConvLayer
from repro.core.tiling import (
    Precision,
    TileHierarchy,
    TileShape,
    halo_overlap,
    input_extent,
    kernel_and_stride,
    sum_input_extents,
    tile_positions,
    union_input_extent,
)


class TestInputExtents:
    def test_input_extent_stride1(self, small_layer):
        """5 output columns with a 3-wide kernel need 7 input columns."""
        assert input_extent(small_layer, Dim.W, 5) == 7

    def test_input_extent_strided(self):
        layer = ConvLayer("s", h=20, w=20, c=1, f=1, k=1, r=3, s=3, t=1,
                          stride_h=2, stride_w=2)
        assert input_extent(layer, Dim.W, 4) == 9  # 3*2 + 3

    def test_input_extent_channels_identity(self, small_layer):
        assert input_extent(small_layer, Dim.C, 5) == 5

    def test_kernel_and_stride_mapping(self, small_layer):
        assert kernel_and_stride(small_layer, Dim.W) == (3, 1)
        assert kernel_and_stride(small_layer, Dim.H) == (3, 1)
        assert kernel_and_stride(small_layer, Dim.F) == (3, 1)

    def test_kernel_and_stride_rejects_channels(self, small_layer):
        with pytest.raises(ValueError, match="not a sliding"):
            kernel_and_stride(small_layer, Dim.C)

    def test_halo_overlap(self, small_layer):
        """Stride-1 3-tap kernels overlap by 2 (Figure 3: halo = R-1)."""
        assert halo_overlap(small_layer, Dim.H) == 2

    def test_halo_vanishes_at_large_stride(self):
        layer = ConvLayer("s", h=20, w=20, c=1, f=1, k=1, r=3, s=3, t=1,
                          stride_h=4, stride_w=4)
        assert halo_overlap(layer, Dim.H) == 0


class TestTilePositions:
    def test_even_split(self):
        assert tile_positions(10, 5) == [5, 5]

    def test_ragged_tail(self):
        assert tile_positions(10, 4) == [4, 4, 2]

    def test_single_tile(self):
        assert tile_positions(7, 100) == [7]

    def test_rejects_bad_tile(self):
        with pytest.raises(ValueError):
            tile_positions(10, 0)

    @given(total=st.integers(1, 300), tile=st.integers(1, 64))
    def test_positions_partition_exactly(self, total, tile):
        """Property: tiles cover the extent exactly once."""
        positions = tile_positions(total, tile)
        assert sum(positions) == total
        assert all(0 < p <= tile for p in positions)
        assert len(positions) == math.ceil(total / tile)


class TestSumInputExtents:
    @given(total=st.integers(1, 100), tile=st.integers(1, 32))
    def test_closed_form_matches_explicit_sum(self, total, tile, small_layer):
        explicit = sum(
            input_extent(small_layer, Dim.H, e) for e in tile_positions(total, tile)
        )
        assert sum_input_extents(small_layer, Dim.H, total, tile) == explicit

    def test_union_is_single_tile_extent(self, small_layer):
        assert union_input_extent(small_layer, Dim.H, 10) == input_extent(
            small_layer, Dim.H, 10
        )

    def test_slide_reuse_saves_halo(self, small_layer):
        """Union < sum when there is more than one tile: the halo saving."""
        total, tile = 10, 5
        assert union_input_extent(small_layer, Dim.H, total) < sum_input_extents(
            small_layer, Dim.H, total, tile
        )

    def test_channel_sum_is_total(self, small_layer):
        assert sum_input_extents(small_layer, Dim.C, 8, 3) == 8


class TestTileShape:
    def test_rejects_zero_extent(self):
        with pytest.raises(ValueError):
            TileShape(w=0, h=1, c=1, k=1, f=1)

    def test_full_covers_layer(self, small_layer):
        full = TileShape.full(small_layer)
        assert full.w == small_layer.out_w
        assert full.c == small_layer.c
        assert full.k == small_layer.k

    def test_minimum_is_all_ones(self):
        tile = TileShape.minimum()
        assert (tile.w, tile.h, tile.c, tile.k, tile.f) == (1, 1, 1, 1, 1)

    def test_mapping_roundtrip(self):
        tile = TileShape(w=3, h=4, c=5, k=6, f=7)
        assert TileShape.from_mapping(tile.as_mapping()) == tile

    def test_clipped_elementwise_min(self):
        a = TileShape(w=10, h=2, c=9, k=1, f=5)
        b = TileShape(w=3, h=8, c=9, k=4, f=2)
        clipped = a.clipped(b)
        assert (clipped.w, clipped.h, clipped.c, clipped.k, clipped.f) == (
            3, 2, 9, 1, 2,
        )

    def test_fits_within(self):
        small = TileShape(w=1, h=1, c=1, k=1, f=1)
        big = TileShape(w=2, h=2, c=2, k=2, f=2)
        assert small.fits_within(big)
        assert not big.fits_within(small)

    def test_trip_counts_ceil(self):
        parent = TileShape(w=10, h=9, c=8, k=7, f=6)
        child = TileShape(w=4, h=3, c=8, k=2, f=5)
        trips = parent.trip_counts(child)
        assert trips[Dim.W] == 3
        assert trips[Dim.H] == 3
        assert trips[Dim.C] == 1
        assert trips[Dim.K] == 4
        assert trips[Dim.F] == 2

    def test_input_elements_include_halo(self, small_layer):
        tile = TileShape(w=5, h=5, c=8, k=1, f=2)
        assert tile.input_elements(small_layer) == 7 * 7 * 4 * 8

    def test_weight_elements(self, small_layer):
        tile = TileShape(w=1, h=1, c=4, k=2, f=1)
        assert tile.weight_elements(small_layer) == 2 * 4 * 27

    def test_psum_elements(self):
        tile = TileShape(w=3, h=4, c=99, k=2, f=5)
        assert tile.psum_elements() == 3 * 4 * 5 * 2  # C-independent

    def test_bytes_use_precision(self, small_layer):
        tile = TileShape(w=2, h=2, c=2, k=2, f=2)
        p = Precision(activation_bytes=2, weight_bytes=1, psum_bytes=4)
        assert tile.bytes_of(DataType.INPUTS, small_layer, p) == (
            tile.input_elements(small_layer) * 2
        )
        assert tile.bytes_of(DataType.PSUMS, small_layer, p) == (
            tile.psum_elements() * 4
        )

    def test_total_bytes_sums_types(self, small_layer):
        tile = TileShape(w=2, h=2, c=2, k=2, f=2)
        assert tile.total_bytes(small_layer) == sum(
            tile.bytes_of(dt, small_layer) for dt in DataType
        )

    def test_maccs_of_full_tile_is_layer_maccs(self, small_layer):
        assert TileShape.full(small_layer).maccs(small_layer) == small_layer.maccs

    def test_describe_mentions_input_space(self, small_layer):
        text = TileShape(w=5, h=5, c=8, k=2, f=2).describe(small_layer)
        assert "input 7x7" in text


class TestTileHierarchy:
    def test_normalises_to_monotone(self, small_layer):
        """Sub-tiles must nest (Section V-C: Tn <= Tn+1)."""
        hierarchy = TileHierarchy(
            small_layer,
            (
                TileShape(w=4, h=4, c=4, k=4, f=2),
                TileShape(w=8, h=2, c=8, k=2, f=4),  # w, c, f exceed parent
            ),
        )
        inner = hierarchy.innermost
        assert inner.fits_within(hierarchy.outermost)
        assert (inner.w, inner.h, inner.c, inner.k, inner.f) == (4, 2, 4, 2, 2)

    def test_clips_to_layer(self, small_layer):
        hierarchy = TileHierarchy(
            small_layer, (TileShape(w=999, h=999, c=999, k=999, f=999),)
        )
        assert hierarchy.outermost == TileShape.full(small_layer)

    def test_parent_of_level0_is_layer(self, small_layer):
        hierarchy = TileHierarchy(small_layer, (TileShape(w=2, h=2, c=2, k=2, f=2),))
        assert hierarchy.parent_of(0) == TileShape.full(small_layer)

    def test_requires_at_least_one_level(self, small_layer):
        with pytest.raises(ValueError):
            TileHierarchy(small_layer, ())

    def test_levels_count(self, small_layer):
        tile = TileShape(w=2, h=2, c=2, k=2, f=2)
        assert TileHierarchy(small_layer, (tile, tile, tile)).levels == 3

    def test_normalised_tiles_survive_replace(self, small_layer):
        """A normalised hierarchy keeps its very tuple through
        ``dataclasses.replace`` (the engine's relabel and record decode
        paths), also when the layer is swapped for a same-shape one."""
        hierarchy = TileHierarchy(
            small_layer,
            (
                TileShape(w=999, h=999, c=999, k=999, f=999),
                TileShape(w=8, h=2, c=8, k=2, f=4),
            ),
        )
        renamed = dataclasses.replace(small_layer, name="renamed")
        for again in (
            dataclasses.replace(hierarchy),
            dataclasses.replace(hierarchy, layer=renamed),
        ):
            assert again.tiles is hierarchy.tiles


def _clip_chain(layer, tiles):
    """The reference normalisation: clip each level to the layer and to
    the level above it."""
    bound = TileShape.full(layer)
    normalised = []
    for tile in tiles:
        bound = tile.clipped(bound)
        normalised.append(bound)
    return tuple(normalised)


@given(data=st.data())
def test_hierarchy_normalisation_is_the_clip_chain(data, small_layer):
    """Kept as given or normalised, a hierarchy's tiles always equal the
    clip chain, and a monotone in-layer tuple is kept as is."""
    extent = st.integers(1, 14)
    tiles = tuple(
        TileShape(*(data.draw(extent) for _ in range(5)))
        for _ in range(data.draw(st.integers(1, 3)))
    )
    hierarchy = TileHierarchy(small_layer, tiles)
    expected = _clip_chain(small_layer, tiles)
    assert hierarchy.tiles == expected
    if expected == tiles:
        assert hierarchy.tiles is tiles
    assert TileHierarchy(small_layer, list(tiles)).tiles == expected


@given(
    w=st.integers(1, 16), h=st.integers(1, 16), c=st.integers(1, 16),
    k=st.integers(1, 16), f=st.integers(1, 8),
)
def test_tile_bytes_monotone_in_every_dim(w, h, c, k, f, small_layer):
    """Capacity pruning in the optimizer relies on footprint monotonicity."""
    tile = TileShape(w=w, h=h, c=c, k=k, f=f)
    for dim in Dim:
        grown = TileShape.from_mapping(
            {d: tile.extent(d) + (1 if d is dim else 0) for d in Dim}
        )
        assert grown.total_bytes(small_layer) >= tile.total_bytes(small_layer)
