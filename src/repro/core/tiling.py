"""Multi-level tiling of 3D convolution (paper Section II-D).

Tiles are expressed in **output space** for the sliding dims ``W``/``H``/``F``
and in element space for ``C``/``K``.  An output-space tile of extent ``e``
along a sliding dim needs an input-space extent of ``(e - 1) * stride +
kernel`` — consecutive tiles therefore overlap by ``kernel - stride`` input
positions, the *halo* of Figure 3.  The paper reports input-space tile sizes
(e.g. ``Ht = 114`` for C3D layer 1 = 112 input rows + 2 padding); helpers
here convert both ways.

Only ``W``, ``H``, ``C``, ``K``, ``F`` are tiled; ``R``, ``S``, ``T`` are
small (1–11) and never tiled (Section II-D).

The closed-form extent formulas are split into ``*_kernel`` functions that
use only arithmetic valid for Python ints *and* NumPy arrays, so the scalar
model path and the columnar batch path (:mod:`repro.core.batch`) evaluate
the very same equations.
"""

from __future__ import annotations

import dataclasses
import math

from repro.core.dims import ALL_DIMS, DataType, Dim, Num
from repro.core.layer import ConvLayer


# ----------------------------------------------------------------------
# Scalar/array-agnostic formula kernels
# ----------------------------------------------------------------------
def ceil_div(a: Num, b: Num) -> Num:
    """``ceil(a / b)`` for positive ints; works elementwise on arrays."""
    return -(-a // b)


def input_extent_kernel(out_extent: Num, span: Num, stride: Num) -> Num:
    """Input positions covered by ``out_extent`` outputs of one filter of
    input-space ``span`` sliding by ``stride`` (halo included)."""
    return (out_extent - 1) * stride + span


def sum_input_extents_kernel(
    total: Num, tile: Num, span: Num, stride: Num
) -> Num:
    """Sum of per-tile input footprints along one sliding dim.

    Closed form of ``sum(input_extent_kernel(e) for e in tile_positions())``
    with ``n = ceil(total / tile)`` tiles: ``stride * total + n * (span -
    stride)`` — each tile re-fetches its halo.
    """
    return stride * total + ceil_div(total, tile) * (span - stride)


def minimum_kernel(a: Num, b: Num) -> Num:
    """Elementwise ``min`` for Python ints and NumPy arrays alike."""
    return b + (a - b) * (a < b)


def tile_extent_at_kernel(index: Num, total: Num, tile: Num) -> Num:
    """Output extent of tile ``index`` covering ``total``: ``tile`` except a
    possibly short final tile — ``min(tile, total - index * tile)``."""
    return minimum_kernel(tile, total - index * tile)


@dataclasses.dataclass(frozen=True)
class Precision:
    """Datum widths in bytes for the three data types.

    The paper assumes 8-bit activations/weights (Section III remark) and
    psums of ``2P + log2(R*S*T*C)`` bits, which we round to 4 bytes
    (Section IV-B1).
    """

    activation_bytes: int = 1
    weight_bytes: int = 1
    psum_bytes: int = 4

    def bytes_of(self, data_type: DataType) -> int:
        if data_type is DataType.INPUTS:
            return self.activation_bytes
        if data_type is DataType.WEIGHTS:
            return self.weight_bytes
        return self.psum_bytes


DEFAULT_PRECISION = Precision()


def kernel_and_stride(layer: ConvLayer, dim: Dim) -> tuple[int, int]:
    """Input-space filter span and stride along a sliding dim (W, H or F).

    The span is dilation-aware: a dilated filter touches the same number of
    taps spread over ``(taps - 1) * dilation + 1`` input positions, so all
    halo/footprint math downstream handles dilated convolution for free.
    """
    if dim is Dim.W:
        return layer.dilated_s, layer.stride_w
    if dim is Dim.H:
        return layer.dilated_r, layer.stride_h
    if dim is Dim.F:
        return layer.dilated_t, layer.stride_f
    raise ValueError(f"{dim} is not a sliding dimension")


def input_extent(layer: ConvLayer, dim: Dim, out_extent: int) -> int:
    """Input-space footprint of ``out_extent`` output positions along ``dim``.

    For sliding dims this includes the halo; for ``C`` the input extent is
    the channel count itself.  ``K`` has no input-space meaning.
    """
    if dim is Dim.C:
        return out_extent
    kernel, stride = kernel_and_stride(layer, dim)
    return input_extent_kernel(out_extent, kernel, stride)


def halo_overlap(layer: ConvLayer, dim: Dim) -> int:
    """Input positions shared by consecutive tiles along a sliding dim."""
    kernel, stride = kernel_and_stride(layer, dim)
    return max(0, kernel - stride)


@dataclasses.dataclass(frozen=True)
class TileShape:
    """Per-dimension tile extents (output space for W/H/F)."""

    w: int
    h: int
    c: int
    k: int
    f: int

    def __post_init__(self) -> None:
        for field in ("w", "h", "c", "k", "f"):
            if getattr(self, field) < 1:
                raise ValueError(f"tile extent {field} must be >= 1")

    # ------------------------------------------------------------------
    @classmethod
    def full(cls, layer: ConvLayer) -> "TileShape":
        """The degenerate single tile covering the whole layer."""
        return cls(w=layer.out_w, h=layer.out_h, c=layer.c, k=layer.k, f=layer.out_f)

    @classmethod
    def minimum(cls) -> "TileShape":
        """The smallest legal tile: one output point of one filter/channel.

        Its input footprint is ``R x S x T x 1`` — the paper's minimum tile
        ``R*S*Ct*T`` with ``Ct = 1`` (Section II-D).
        """
        return cls(w=1, h=1, c=1, k=1, f=1)

    @classmethod
    def from_mapping(cls, extents: dict[Dim, int]) -> "TileShape":
        return cls(
            w=extents[Dim.W],
            h=extents[Dim.H],
            c=extents[Dim.C],
            k=extents[Dim.K],
            f=extents[Dim.F],
        )

    def extent(self, dim: Dim) -> int:
        # Identity chain instead of a dict: this is the hottest call in the
        # optimizer's search loop.
        if dim is Dim.W:
            return self.w
        if dim is Dim.H:
            return self.h
        if dim is Dim.C:
            return self.c
        if dim is Dim.K:
            return self.k
        return self.f

    def as_mapping(self) -> dict[Dim, int]:
        return {dim: self.extent(dim) for dim in ALL_DIMS}

    # ------------------------------------------------------------------
    def clipped(self, bound: "TileShape") -> "TileShape":
        """Elementwise ``min`` against an enclosing tile or the layer."""
        return TileShape(
            w=min(self.w, bound.w),
            h=min(self.h, bound.h),
            c=min(self.c, bound.c),
            k=min(self.k, bound.k),
            f=min(self.f, bound.f),
        )

    def fits_within(self, bound: "TileShape") -> bool:
        return all(self.extent(d) <= bound.extent(d) for d in ALL_DIMS)

    def trip_counts(self, child: "TileShape") -> dict[Dim, int]:
        """Tiles of ``child`` needed to cover this tile, per dim (ceil)."""
        return {
            Dim.W: -(-self.w // child.w),
            Dim.H: -(-self.h // child.h),
            Dim.C: -(-self.c // child.c),
            Dim.K: -(-self.k // child.k),
            Dim.F: -(-self.f // child.f),
        }

    # ------------------------------------------------------------------
    # Footprints
    # ------------------------------------------------------------------
    def input_elements(self, layer: ConvLayer) -> int:
        """Input-space element count, halos included (dilation-aware)."""
        return (
            input_extent_kernel(self.w, layer.dilated_s, layer.stride_w)
            * input_extent_kernel(self.h, layer.dilated_r, layer.stride_h)
            * input_extent_kernel(self.f, layer.dilated_t, layer.stride_f)
            * self.c
        )

    def weight_elements(self, layer: ConvLayer) -> int:
        return self.k * self.c * layer.r * layer.s * layer.t

    def psum_elements(self) -> int:
        return self.w * self.h * self.f * self.k

    def elements_of(self, data_type: DataType, layer: ConvLayer) -> int:
        if data_type is DataType.INPUTS:
            return self.input_elements(layer)
        if data_type is DataType.WEIGHTS:
            return self.weight_elements(layer)
        return self.psum_elements()

    def bytes_of(
        self,
        data_type: DataType,
        layer: ConvLayer,
        precision: Precision = DEFAULT_PRECISION,
    ) -> int:
        return self.elements_of(data_type, layer) * precision.bytes_of(data_type)

    def total_bytes(
        self, layer: ConvLayer, precision: Precision = DEFAULT_PRECISION
    ) -> int:
        """Sum of all three data-type footprints (shared-buffer occupancy)."""
        return sum(self.bytes_of(dt, layer, precision) for dt in DataType)

    def maccs(self, layer: ConvLayer) -> int:
        """MAC operations to fully process this tile once."""
        return (
            self.w * self.h * self.f * self.k * self.c * layer.r * layer.s * layer.t
        )

    # ------------------------------------------------------------------
    def describe(self, layer: ConvLayer | None = None) -> str:
        base = f"W{self.w} H{self.h} C{self.c} K{self.k} F{self.f}"
        if layer is not None:
            base += (
                f" (input {input_extent(layer, Dim.H, self.h)}"
                f"x{input_extent(layer, Dim.W, self.w)}"
                f"x{input_extent(layer, Dim.F, self.f)}f)"
            )
        return base


def tile_positions(total: int, tile: int) -> list[int]:
    """Output extents of the tiles covering ``total``; the last may be short."""
    if tile < 1:
        raise ValueError("tile extent must be >= 1")
    count = math.ceil(total / tile)
    return [tile_extent_at_kernel(index, total, tile) for index in range(count)]


def tile_positions_array(total: int, tile: int) -> Num:
    """Vectorized :func:`tile_positions`: one int64 array instead of a list.

    Same closed form (:func:`tile_extent_at_kernel`) evaluated over
    ``arange(ceil(total / tile))`` — the building block the columnar
    simulators (:mod:`repro.sim`) use to materialise whole tile schedules
    as coordinate tables.
    """
    import numpy as np

    if tile < 1:
        raise ValueError("tile extent must be >= 1")
    count = ceil_div(total, tile)
    return tile_extent_at_kernel(
        np.arange(count, dtype=np.int64), np.int64(total), np.int64(tile)
    )


def sum_input_extents(layer: ConvLayer, dim: Dim, total: int, tile: int) -> int:
    """Sum of input-space footprints of all tiles along one sliding dim.

    Closed form of ``sum(input_extent(e) for e in tile_positions())``:
    with n tiles, kernel ``ker`` and stride ``st`` this is
    ``st * total + n * (ker - st)`` — each tile re-fetches its halo.
    """
    if dim is Dim.C:
        return total
    kernel, stride = kernel_and_stride(layer, dim)
    return sum_input_extents_kernel(total, tile, kernel, stride)


def union_input_extent(layer: ConvLayer, dim: Dim, total: int) -> int:
    """Input-space footprint of the union of all tiles along a sliding dim.

    This is what slide reuse achieves (Section II-E): sliding along the
    major dim, overlapped halo regions are fetched once, so the byte total
    telescopes to the extent of the union.
    """
    return input_extent(layer, dim, total)


@dataclasses.dataclass(frozen=True)
class TileHierarchy:
    """Tile shapes for each on-chip level, outermost (last-level) first.

    For the paper's three-level hierarchy this is ``(L2, L1, L0)``.  Shapes
    are normalised on construction: clipped to the layer and made
    monotonically non-increasing (sub-tiles fit in tiles, Section V-C).
    """

    layer: ConvLayer
    tiles: tuple[TileShape, ...]

    def __post_init__(self) -> None:
        if not self.tiles:
            raise ValueError("at least one tile level required")
        layer = self.layer
        if isinstance(self.tiles, tuple):
            # Already normalised (every dataclasses.replace of a hierarchy,
            # every decoded record): keep the given tuple.
            w, h, c, k, f = (
                layer.out_w, layer.out_h, layer.c, layer.k, layer.out_f
            )
            for tile in self.tiles:
                if (
                    tile.w > w or tile.h > h or tile.c > c
                    or tile.k > k or tile.f > f
                ):
                    break
                w, h, c, k, f = tile.w, tile.h, tile.c, tile.k, tile.f
            else:
                return
        bound = TileShape.full(layer)
        normalised = []
        for tile in self.tiles:
            bound = tile.clipped(bound)
            normalised.append(bound)
        object.__setattr__(self, "tiles", tuple(normalised))

    @property
    def levels(self) -> int:
        return len(self.tiles)

    @property
    def outermost(self) -> TileShape:
        return self.tiles[0]

    @property
    def innermost(self) -> TileShape:
        return self.tiles[-1]

    def parent_of(self, level_index: int) -> TileShape:
        """Enclosing region of the tile at ``level_index`` (layer for 0)."""
        if level_index == 0:
            return TileShape.full(self.layer)
        return self.tiles[level_index - 1]
