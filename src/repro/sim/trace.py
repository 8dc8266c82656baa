"""Residency-tracking trace simulator for validating the analytic model.

Walks the *complete* multi-level tile schedule of a dataflow (every loop
iteration at every boundary) maintaining, per buffer level and data type,
which global tile region is currently resident.  A mismatch between needed
and resident region is a fill; evicting a dirty psum region is a writeback;
slide reuse is credited when the new input region differs from the resident
one along exactly one axis with overlap (the paper's "do not re-fetch the
overlapped region in the major dimension").

Columnar event pipeline
-----------------------
The simulator has two interchangeable execution paths:

* the **scalar walk** (``vectorize=False``) — the original recursive
  tile-by-tile reference, assumption-free and dependency-free;
* the **columnar pass** (``vectorize=True``, the default when NumPy
  imports) — the full schedule is lowered into per-level coordinate
  tables (:func:`repro.sim.tiled_executor.schedule_tables`) and every
  residency decision becomes an array expression: region intervals are
  computed for all visits at once, fills are found by diffing consecutive
  rows with shifted-array comparisons, slide credits by the per-axis
  overlap kernel, and psum revisit loads by a first-occurrence scan over
  packed region identities.

Both paths evaluate the *same* region/byte/slide formulas — the shared
scalar/array-agnostic ``*_kernel`` helpers below — so they are provably
one simulator, not a fork, and their per-level fill/writeback/slide
counters are **bit-identical** (pinned by ``tests/test_sim_equivalence.py``
and the equivalence suites).  The columnar pass is what makes validating
full registered networks feasible; the scalar walk stays as the reference
and escape hatch.  Select per call (``vectorize=``), per scope (the
active :class:`repro.api.Session`'s ``vectorize``) or via the
``REPRO_VECTORIZE`` environment variable.

This is exponentially slower than :func:`repro.core.access_model.
compute_traffic` but assumption-free: the test suite asserts exact
agreement on evenly-dividing shapes and close agreement elsewhere (the
analytic model approximates ragged-edge trip counts).
"""

from __future__ import annotations

import dataclasses

from repro.core.batch import plan_chunk_rows, resolve_max_table_bytes
from repro.core.dataflow import Dataflow
from repro.core.dims import ALL_DATA_TYPES, DataType, Dim
from repro.core.layer import ConvLayer
from repro.core.tiling import (
    DEFAULT_PRECISION,
    Precision,
    kernel_and_stride,
    minimum_kernel,
)
from repro.sim.tiled_executor import TileCoord, iter_tiles

#: Axes of each data type's storage region, in a fixed order.
_REGION_DIMS: dict[DataType, tuple[Dim, ...]] = {
    DataType.INPUTS: (Dim.W, Dim.H, Dim.C, Dim.F),
    DataType.WEIGHTS: (Dim.C, Dim.K),
    DataType.PSUMS: (Dim.W, Dim.H, Dim.K, Dim.F),
}


# ----------------------------------------------------------------------
# Scalar/array-agnostic formula kernels (shared by both execution paths)
# ----------------------------------------------------------------------
def interval_kernel(origin, extent, span, stride):
    """Half-open storage interval ``(lo, hi)`` along one region axis.

    Sliding input dims pass their input-space filter ``span`` and
    ``stride``; element-space axes (channels, filters, psum dims) pass
    ``span = stride = 1``, collapsing to ``(origin, origin + extent)``.
    """
    lo = origin * stride
    return lo, lo + (extent - 1) * stride + span


def region_bytes_kernel(elem, per_point, *axis_lengths):
    """Byte size of a region: ``elem * per_point * prod(axis lengths)``.

    ``per_point`` carries the untiled ``R*S*T`` taps for weight regions.
    """
    size = elem * per_point
    for length in axis_lengths:
        size = size * length
    return size


def slide_reuse_kernel(new_lo, new_hi, old_lo, old_hi):
    """Overlap length credited for a slide along one axis.

    Reuse applies only to a *forward* slide (the paper's major-dimension
    slide): a backward wrap refetches in full because the overlapped rows
    were overwritten by later tiles.  Returns 0 for backward, in-place or
    disjoint moves — pure arithmetic, so it evaluates identically for
    Python ints and NumPy columns.
    """
    overlap = minimum_kernel(new_hi, old_hi) - (
        old_lo + (new_lo - old_lo) * (new_lo > old_lo)  # max(new_lo, old_lo)
    )
    overlap = overlap * (overlap > 0)
    return overlap * (new_lo > old_lo)


def _span_stride(
    layer: ConvLayer, data_type: DataType, dim: Dim
) -> tuple[int, int]:
    """(span, stride) feeding :func:`interval_kernel` for one region axis:
    the dilated filter span for sliding input dims, identity otherwise."""
    if data_type is DataType.INPUTS and dim in (Dim.W, Dim.H, Dim.F):
        return kernel_and_stride(layer, dim)
    return (1, 1)


def _interval(
    layer: ConvLayer, data_type: DataType, dim: Dim, origin: int, extent: int
) -> tuple[int, int]:
    """Half-open storage interval along one axis (input space for sliding
    dims of inputs, element space otherwise)."""
    span, stride = _span_stride(layer, data_type, dim)
    return interval_kernel(origin, extent, span, stride)


def _region(
    layer: ConvLayer, data_type: DataType, coord: TileCoord
) -> tuple[tuple[int, int], ...]:
    return tuple(
        _interval(layer, data_type, dim, coord.origin[dim], coord.extent[dim])
        for dim in _REGION_DIMS[data_type]
    )


def _region_bytes(
    region: tuple[tuple[int, int], ...], elem_bytes: int, per_point: int = 1
) -> int:
    return region_bytes_kernel(
        elem_bytes, per_point, *(hi - lo for lo, hi in region)
    )


def _fetch_bytes_with_slide(
    new: tuple[tuple[int, int], ...],
    old: tuple[tuple[int, int], ...] | None,
    elem_bytes: int,
) -> int:
    """Bytes to load ``new`` given ``old`` resident, with slide reuse.

    Reuse is credited only for a *forward* slide along exactly one axis
    (see :func:`slide_reuse_kernel`); any other move refetches in full.
    """
    full = _region_bytes(new, elem_bytes)
    if old is None:
        return full
    differing = [i for i, (n, o) in enumerate(zip(new, old)) if n != o]
    if len(differing) != 1:
        return full
    axis = differing[0]
    reused = elem_bytes * slide_reuse_kernel(*new[axis], *old[axis])
    for i, (lo, hi) in enumerate(new):
        if i != axis:
            reused *= hi - lo
    return full - reused


@dataclasses.dataclass
class TraceBoundary:
    """Observed traffic at one boundary (child-level fills/evictions)."""

    fills: dict[DataType, int]
    fill_bytes: dict[DataType, int]
    psum_load_bytes: int = 0
    psum_writeback_bytes: int = 0


@dataclasses.dataclass
class TraceReport:
    """Trace-simulator counterpart of :class:`TrafficReport`."""

    layer: ConvLayer
    boundaries: list[TraceBoundary]
    precision: Precision

    def dram_psum_writeback_bytes(self) -> int:
        """With the final-output width adjustment the analytic model uses:
        spills at psum width, final outputs at activation width."""
        raw = self.boundaries[0].psum_writeback_bytes
        out_psum = self.layer.output_elements * self.precision.psum_bytes
        out_act = self.layer.output_elements * self.precision.activation_bytes
        return raw - out_psum + out_act


class _LevelState:
    def __init__(self) -> None:
        self.resident: dict[DataType, tuple | None] = {
            dt: None for dt in ALL_DATA_TYPES
        }
        self.visited_psums: set[tuple] = set()


def _empty_boundaries(levels: int) -> list[TraceBoundary]:
    return [
        TraceBoundary(
            fills={dt: 0 for dt in ALL_DATA_TYPES},
            fill_bytes={dt: 0 for dt in ALL_DATA_TYPES},
        )
        for _ in range(levels)
    ]


def _resolve_vectorize(vectorize: bool | None) -> bool:
    """Resolve the knob like the optimizer engine: explicit argument,
    else :func:`~repro.optimizer.engine.default_vectorize` (honouring
    the active session and ``REPRO_VECTORIZE``); either way the columnar
    path needs NumPy."""
    from repro.core import batch

    if vectorize is None:
        from repro.optimizer.engine import default_vectorize

        return default_vectorize() and batch.available
    return bool(vectorize) and batch.available


def trace_dataflow(
    dataflow: Dataflow,
    precision: Precision = DEFAULT_PRECISION,
    *,
    vectorize: bool | None = None,
    max_table_bytes: int | None = None,
) -> TraceReport:
    """Simulate the full schedule and return observed per-boundary traffic.

    ``vectorize`` selects the columnar pass (default: on when NumPy is
    available, following the engine's knob and ``REPRO_VECTORIZE``); the
    scalar walk is the reference path.  ``max_table_bytes`` caps the
    columnar pass's peak table memory by streaming the schedule in
    chunks with carried residency state (``None`` defers to the scoped
    default).  Counters are bit-identical across every path and
    chunking.
    """
    if _resolve_vectorize(vectorize):
        cap = resolve_max_table_bytes(max_table_bytes)
        if cap is not None:
            return _trace_columnar_chunked(dataflow, precision, cap)
        return _trace_columnar(dataflow, precision)
    return _trace_scalar(dataflow, precision)


# ----------------------------------------------------------------------
# Scalar reference walk
# ----------------------------------------------------------------------
def _trace_scalar(dataflow: Dataflow, precision: Precision) -> TraceReport:
    layer = dataflow.layer
    levels = dataflow.hierarchy.levels
    states = [_LevelState() for _ in range(levels)]
    boundaries = _empty_boundaries(levels)

    weight_taps = layer.r * layer.s * layer.t

    def visit(level_index: int, region_coord: TileCoord) -> None:
        tile = dataflow.hierarchy.tiles[level_index]
        order = dataflow.order_for_boundary(level_index)
        state = states[level_index]
        boundary = boundaries[level_index]
        for index, coord in enumerate(
            iter_tiles(region_coord.origin, region_coord.extent, tile, order)
        ):
            run_start = index == 0
            for data_type in ALL_DATA_TYPES:
                needed = _region(layer, data_type, coord)
                resident = state.resident[data_type]
                if needed == resident:
                    continue
                elem = precision.bytes_of(data_type)
                if data_type is DataType.PSUMS:
                    if resident is not None:
                        boundary.psum_writeback_bytes += _region_bytes(
                            resident, elem
                        )
                    boundary.fills[data_type] += 1
                    boundary.fill_bytes[data_type] += _region_bytes(needed, elem)
                    if needed in state.visited_psums:
                        boundary.psum_load_bytes += _region_bytes(needed, elem)
                    state.visited_psums.add(needed)
                elif data_type is DataType.INPUTS:
                    boundary.fills[data_type] += 1
                    # Slide reuse only applies within one execution of this
                    # boundary's loop nest: a fill triggered by the parent
                    # tile changing lands in a freshly swapped double
                    # buffer and cannot reuse stale rows.
                    boundary.fill_bytes[data_type] += (
                        _region_bytes(needed, elem)
                        if run_start
                        else _fetch_bytes_with_slide(needed, resident, elem)
                    )
                else:
                    boundary.fills[data_type] += 1
                    boundary.fill_bytes[data_type] += _region_bytes(
                        needed, elem, weight_taps
                    )
                state.resident[data_type] = needed
            if level_index + 1 < levels:
                visit(level_index + 1, coord)

    root = TileCoord(
        origin={d: 0 for d in Dim},
        extent={
            Dim.W: layer.out_w,
            Dim.H: layer.out_h,
            Dim.C: layer.c,
            Dim.K: layer.k,
            Dim.F: layer.out_f,
        },
    )
    visit(0, root)

    # End-of-layer flush: resident dirty psums drain up the hierarchy.
    psum_bytes = precision.bytes_of(DataType.PSUMS)
    for state, boundary in zip(states, boundaries):
        resident = state.resident[DataType.PSUMS]
        if resident is not None:
            boundary.psum_writeback_bytes += _region_bytes(resident, psum_bytes)

    return TraceReport(layer=layer, boundaries=boundaries, precision=precision)


# ----------------------------------------------------------------------
# Columnar pass
# ----------------------------------------------------------------------
def _trace_columnar(dataflow: Dataflow, precision: Precision) -> TraceReport:
    """Array-pass re-expression of the scalar walk, level by level.

    Per boundary, the full visit sequence is one coordinate table; the
    scalar walk's residency question "does this visit's region differ from
    the resident one?" becomes a shifted-array comparison, because the
    resident region at row ``i`` is always row ``i - 1``'s region.
    """
    import numpy as np

    from repro.sim.tiled_executor import schedule_tables

    layer = dataflow.layer
    levels = dataflow.hierarchy.levels
    boundaries = _empty_boundaries(levels)
    weight_taps = layer.r * layer.s * layer.t
    psum_elem = precision.bytes_of(DataType.PSUMS)

    for boundary, table in zip(boundaries, schedule_tables(dataflow)):
        for data_type in ALL_DATA_TYPES:
            elem = precision.bytes_of(data_type)
            per_point = weight_taps if data_type is DataType.WEIGHTS else 1
            lo, hi = _interval_columns(layer, data_type, table)
            lengths = hi - lo
            sizes = region_bytes_kernel(elem, per_point, *lengths)
            # resident(row i) == region(row i - 1): a fill happens exactly
            # where some axis differs from the previous row.
            axis_differs = (lo[:, 1:] != lo[:, :-1]) | (hi[:, 1:] != hi[:, :-1])
            changed = np.empty(len(table), dtype=bool)
            changed[0] = True
            np.any(axis_differs, axis=0, out=changed[1:])

            boundary.fills[data_type] = int(changed.sum())
            if data_type is DataType.INPUTS:
                boundary.fill_bytes[data_type] = int(
                    sizes[changed].sum()
                    - _slide_credits(
                        lo, hi, lengths, axis_differs, changed,
                        table.first_child, elem,
                    )
                )
            elif data_type is DataType.WEIGHTS:
                boundary.fill_bytes[data_type] = int(sizes[changed].sum())
            else:
                boundary.fill_bytes[data_type] = int(sizes[changed].sum())
                changed_rows = np.flatnonzero(changed)
                # Evicting row i's resident writes back row i-1's region;
                # the end-of-layer flush drains the final resident region.
                boundary.psum_writeback_bytes = int(
                    sizes[changed_rows[1:] - 1].sum() + sizes[-1]
                )
                boundary.psum_load_bytes = int(
                    sizes[changed_rows[_psum_revisits(lo, hi, changed_rows)]].sum()
                )

    return TraceReport(layer=layer, boundaries=boundaries, precision=precision)


#: Working bytes per schedule row in the chunked trace pass: the widest
#: region (4 axes) carries int64 lo/hi interval columns plus size and
#: mask columns alongside the row's coordinates.
_TRACE_ROW_WORKSPACE = 96


class _ChunkTraceState:
    """Carried residency state of one (boundary, data type) row stream."""

    def __init__(self) -> None:
        self.prev_lo = None  #: (axes,) previous row's interval lows
        self.prev_hi = None  #: (axes,) previous row's interval highs
        self.prev_size = 0  #: previous row's region bytes
        self.fills = 0
        self.fill_bytes = 0
        self.writeback = 0
        self.load = 0
        self.seen: set[bytes] = set()  #: packed psum region identities


def _trace_columnar_chunked(
    dataflow: Dataflow,
    precision: Precision,
    max_table_bytes: int,
) -> TraceReport:
    """The columnar pass streamed in row chunks under a memory cap.

    Schedule tables are regenerated chunk by chunk
    (:func:`~repro.sim.tiled_executor.iter_boundary_chunks`) and every
    reduction carries across chunk boundaries: the residency diff of a
    chunk's first row compares against the carried previous row, so
    fills, slide credits, psum writebacks and revisit loads are
    bit-identical to the unchunked pass.  The very first row of each
    stream compares against a synthetic region that differs on every
    axis with zero resident bytes — it fills (like the unchunked
    ``changed[0] = True``), earns no slide credit (multi-axis diff) and
    writes nothing back, with no first-row special case downstream.
    """
    import numpy as np

    from repro.sim.tiled_executor import TABLE_ROW_BYTES, iter_boundary_chunks

    layer = dataflow.layer
    levels = dataflow.hierarchy.levels
    boundaries = _empty_boundaries(levels)
    weight_taps = layer.r * layer.s * layer.t

    for index in range(levels):
        # Streaming boundary ``index`` keeps one bounded chunk alive per
        # ancestor level, plus this pass's per-row interval workspace.
        max_rows = plan_chunk_rows(
            (index + 1) * TABLE_ROW_BYTES + _TRACE_ROW_WORKSPACE,
            max_table_bytes,
        )
        states = {dt: _ChunkTraceState() for dt in ALL_DATA_TYPES}
        for chunk in iter_boundary_chunks(dataflow, index, max_rows):
            for data_type in ALL_DATA_TYPES:
                state = states[data_type]
                elem = precision.bytes_of(data_type)
                per_point = weight_taps if data_type is DataType.WEIGHTS else 1
                lo, hi = _interval_columns(layer, data_type, chunk)
                lengths = hi - lo
                sizes = region_bytes_kernel(elem, per_point, *lengths)
                if state.prev_lo is None:
                    state.prev_lo = lo[:, 0] - 1
                    state.prev_hi = hi[:, 0].copy()
                lo_ext = np.concatenate([state.prev_lo[:, None], lo], axis=1)
                hi_ext = np.concatenate([state.prev_hi[:, None], hi], axis=1)
                # axis_differs[:, r] compares chunk row r to its
                # predecessor (the carry for r == 0).
                axis_differs = (lo_ext[:, 1:] != lo_ext[:, :-1]) | (
                    hi_ext[:, 1:] != hi_ext[:, :-1]
                )
                changed = np.any(axis_differs, axis=0)
                state.fills += int(changed.sum())
                filled = int(sizes[changed].sum())
                if data_type is DataType.INPUTS:
                    eligible = (
                        changed
                        & ~chunk.first_child
                        & (axis_differs.sum(axis=0) == 1)
                    )
                    rows = np.flatnonzero(eligible)
                    if rows.size:
                        axis = np.argmax(axis_differs[:, rows], axis=0)
                        overlap = slide_reuse_kernel(
                            lo[axis, rows], hi[axis, rows],
                            lo_ext[axis, rows], hi_ext[axis, rows],
                        )
                        cross = region_bytes_kernel(elem, 1, *lengths[:, rows])
                        cross //= lengths[axis, rows]
                        filled -= int((overlap * cross).sum())
                state.fill_bytes += filled
                if data_type is DataType.PSUMS:
                    # Evicting a changed row writes back its predecessor's
                    # region; the synthetic first carry is zero bytes.
                    prev_sizes = np.concatenate(
                        [[state.prev_size], sizes[:-1]]
                    )
                    state.writeback += int(prev_sizes[changed].sum())
                    for row in np.flatnonzero(changed):
                        key = lo[:, row].tobytes() + hi[:, row].tobytes()
                        if key in state.seen:
                            state.load += int(sizes[row])
                        else:
                            state.seen.add(key)
                state.prev_lo = lo[:, -1].copy()
                state.prev_hi = hi[:, -1].copy()
                state.prev_size = int(sizes[-1])
        boundary = boundaries[index]
        for data_type in ALL_DATA_TYPES:
            boundary.fills[data_type] = states[data_type].fills
            boundary.fill_bytes[data_type] = states[data_type].fill_bytes
        # End-of-layer flush: the final resident psum region drains.
        psums = states[DataType.PSUMS]
        boundary.psum_writeback_bytes = psums.writeback + psums.prev_size
        boundary.psum_load_bytes = psums.load

    return TraceReport(layer=layer, boundaries=boundaries, precision=precision)


def _interval_columns(layer: ConvLayer, data_type: DataType, table):
    """``(lo, hi)`` ``(axes, N)`` interval columns of every visit's region."""
    import numpy as np

    from repro.core.batch import DIM_INDEX

    los, his = [], []
    for dim in _REGION_DIMS[data_type]:
        span, stride = _span_stride(layer, data_type, dim)
        lo, hi = interval_kernel(
            table.origin[DIM_INDEX[dim]], table.extent[DIM_INDEX[dim]],
            span, stride,
        )
        los.append(lo)
        his.append(hi)
    return np.stack(los), np.stack(his)


def _slide_credits(
    lo, hi, lengths, axis_differs, changed, first_child, elem: int
) -> int:
    """Total bytes saved by forward single-axis slides, summed over fills.

    The scalar rule: a non-run-start fill whose region differs from the
    resident one along exactly one axis earns the overlap credit of
    :func:`slide_reuse_kernel` times the other axes' extents.  Here the
    per-row differing-axis count and the credited overlap are computed for
    all rows at once; rows with zero credit contribute nothing, exactly
    like the kernel's zero return in the scalar path.
    """
    import numpy as np

    eligible = changed[1:] & ~first_child[1:] & (axis_differs.sum(axis=0) == 1)
    rows = np.flatnonzero(eligible) + 1  # row index into the full table
    if rows.size == 0:
        return 0
    axis = np.argmax(axis_differs[:, rows - 1], axis=0)
    overlap = slide_reuse_kernel(
        lo[axis, rows], hi[axis, rows], lo[axis, rows - 1], hi[axis, rows - 1]
    )
    # sizes = elem * prod(lengths); dividing out the slide axis leaves the
    # cross-section the overlap is multiplied by (exact: lengths >= 1).
    cross_section = region_bytes_kernel(elem, 1, *lengths[:, rows])
    cross_section //= lengths[axis, rows]
    return int((overlap * cross_section).sum())


def _psum_revisits(lo, hi, changed_rows):
    """Mask over ``changed_rows``: fills whose region already appeared at
    an earlier fill (the scalar ``visited_psums`` membership test).

    Region identities are packed into single int64 keys (positional
    encoding over the per-axis value ranges) so first-occurrence detection
    is one stable sort; regions too large to pack — far beyond any real
    layer — fall back to a row-wise :func:`numpy.unique`.
    """
    import numpy as np

    fields = np.concatenate(
        [lo[:, changed_rows], hi[:, changed_rows]]
    )  # (2 * axes, fills)
    bases = [int(row.max()) + 1 for row in fields]
    width = 1
    for base in bases:
        width *= base
    if width < 2**62:
        keys = np.zeros(fields.shape[-1], dtype=np.int64)
        for row, base in zip(fields, bases):
            keys *= base
            keys += row
        # Stable sort keeps equal keys in fill order: the first element of
        # each run is the earliest fill of that region, every later one a
        # revisit.
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        first = np.empty(len(ranked), dtype=bool)
        first[:1] = True
        first[1:] = ranked[1:] != ranked[:-1]
        revisit = np.empty(len(ranked), dtype=bool)
        revisit[order] = ~first
        return revisit
    # Reachable only for regions beyond any real layer's coordinate range.
    _, first_seen, inverse = np.unique(  # pragma: no cover
        fields.T, axis=0, return_index=True, return_inverse=True
    )
    return first_seen[inverse] != np.arange(len(changed_rows))  # pragma: no cover
