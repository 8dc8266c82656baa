"""Double-buffered pipeline timing simulator.

The analytic performance model (Section V-D) computes cycles from peak
throughput, utilisation factors and aggregate bus bandwidths.  This
simulator cross-checks it the way the trace simulator cross-checks the
traffic model: it walks the *actual* outer tile schedule, timing each
tile's bus transfers and compute, with the double buffering all Morph
buffers implement ("to remove dead time between processing tiles",
Section IV-A2) — the next tile's fills overlap the current tile's
compute, so steady-state cycles are ``max(load, compute)`` per tile plus
a pipeline prologue/epilogue.

Like the trace simulator, the walk has two interchangeable paths sharing
one set of ``*_kernel`` formulas: the scalar tile-by-tile reference and a
**columnar pass** (``vectorize=True``, the default when NumPy imports)
that lowers the outer schedule into one coordinate table, detects tensor
movement with shifted-array comparisons, and reduces the double-buffered
step recurrence with a sequential ``cumsum`` — so cycle totals, tile
classifications and the prologue are **bit-identical** between the paths
(pinned by ``tests/test_sim_equivalence.py``).  ``vectorize=`` /
the active :class:`repro.api.Session` / ``REPRO_VECTORIZE`` select the
path.

Fidelity notes: the inner levels' traffic is folded into per-L2-tile
aggregate transfer times (their buses run concurrently with compute the
same way); utilisation inside one tile's compute uses the analytic
utilisation factor; input windows use the dilation-aware filter span
(:func:`~repro.core.tiling.kernel_and_stride`), matching the analytic
footprint math.  Tests assert agreement with the analytic cycle count
within tolerance and identical compute/bandwidth-bound classification.
"""

from __future__ import annotations

import dataclasses

from repro.arch.accelerator import AcceleratorConfig
from repro.core.access_model import compute_traffic
from repro.core.batch import plan_chunk_rows, resolve_max_table_bytes
from repro.core.dataflow import Dataflow
from repro.core.dims import DataType, Dim
from repro.core.performance_model import (
    compute_utilization,
    parallel_level_degrees,
)
from repro.core.tiling import input_extent_kernel, kernel_and_stride
from repro.sim.tiled_executor import TileCoord, iter_tiles


@dataclasses.dataclass(frozen=True)
class TileTiming:
    """One outer tile's pass through the pipeline."""

    load_cycles: float  #: DRAM -> L2 transfer for this tile's new data
    compute_cycles: float  #: PE-array time, inner transfers overlapped
    drain_cycles: float  #: psum writeback to DRAM, if any


@dataclasses.dataclass(frozen=True)
class PipelineReport:
    """Simulated execution timeline of one layer."""

    tiles: int
    cycles: float
    load_bound_tiles: int
    compute_bound_tiles: int
    prologue_cycles: float

    @property
    def bound_by(self) -> str:
        return (
            "compute"
            if self.compute_bound_tiles >= self.load_bound_tiles
            else "DRAM->L2"
        )


# ----------------------------------------------------------------------
# Scalar/array-agnostic formula kernels (shared by both execution paths)
# ----------------------------------------------------------------------
def input_tile_elements_kernel(layer, w, h, c, f):
    """Input-window elements of an output tile (dilated halos included)."""
    return (
        input_extent_kernel(w, *kernel_and_stride(layer, Dim.W))
        * input_extent_kernel(h, *kernel_and_stride(layer, Dim.H))
        * input_extent_kernel(f, *kernel_and_stride(layer, Dim.F))
        * c
    )


def weight_tile_elements_kernel(layer, c, k):
    return k * c * (layer.r * layer.s * layer.t)


def psum_tile_elements_kernel(w, h, k, f):
    return w * h * k * f


def _tile_io_bytes(
    layer, coord: TileCoord, previous: TileCoord | None, precision
) -> tuple[float, float]:
    """(load bytes, drain bytes) for one outer tile.

    Inputs/weights reload when their coordinates move (slide reuse along a
    single stepped axis is approximated by skipping reloads of unchanged
    tensors); psums drain when the tile's output coordinates change.
    """
    def moved(dims) -> bool:
        if previous is None:
            return True
        return any(
            coord.origin[d] != previous.origin[d]
            or coord.extent[d] != previous.extent[d]
            for d in dims
        )

    load = 0.0
    if moved((Dim.W, Dim.H, Dim.C, Dim.F)):
        load += input_tile_elements_kernel(
            layer,
            coord.extent[Dim.W], coord.extent[Dim.H],
            coord.extent[Dim.C], coord.extent[Dim.F],
        ) * precision.activation_bytes
    if moved((Dim.C, Dim.K)):
        load += weight_tile_elements_kernel(
            layer, coord.extent[Dim.C], coord.extent[Dim.K]
        ) * precision.weight_bytes
    drain = 0.0
    if moved((Dim.W, Dim.H, Dim.K, Dim.F)):
        drain = psum_tile_elements_kernel(
            coord.extent[Dim.W], coord.extent[Dim.H],
            coord.extent[Dim.K], coord.extent[Dim.F],
        ) * precision.activation_bytes
    return load, drain


def _inner_bus_cycles(dataflow: Dataflow, arch: AcceleratorConfig) -> float:
    """Aggregate inner-boundary transfer cycles (the slowest inner bus)."""
    level_degrees = parallel_level_degrees(
        arch.num_levels, arch.clusters, arch.pes_per_cluster, dataflow.parallelism
    )
    traffic = compute_traffic(dataflow, arch.precision, level_degrees)
    inner_bus_cycles_total = 0.0
    for index, boundary in enumerate(traffic.boundaries):
        if index == 0:
            continue
        bytes_crossing = 0.0
        for dt in DataType:
            t = boundary.of(dt)
            if dt is DataType.PSUMS:
                bytes_crossing += t.load_bytes + t.writeback_bytes
            else:
                bytes_crossing += t.fill_bytes
        bw = arch.noc.boundary_bandwidth_bytes_per_cycle(index)
        inner_bus_cycles_total = max(inner_bus_cycles_total, bytes_crossing / bw)
    return inner_bus_cycles_total


def simulate_pipeline(
    dataflow: Dataflow,
    arch: AcceleratorConfig,
    *,
    vectorize: bool | None = None,
    max_table_bytes: int | None = None,
) -> PipelineReport:
    """Walk the outer tile schedule with double-buffered overlap.

    ``vectorize`` selects the columnar pass over the scalar reference
    walk (default: the engine knob / ``REPRO_VECTORIZE``);
    ``max_table_bytes`` streams the outer schedule in bounded chunks
    with a carried pipeline state (``None`` defers to the scoped
    default).  Reports are bit-identical across every path and
    chunking.
    """
    from repro.sim.trace import _resolve_vectorize

    layer = dataflow.layer
    precision = arch.precision
    hierarchy = dataflow.hierarchy
    util = compute_utilization(hierarchy, arch, dataflow.parallelism)
    peak = arch.peak_maccs_per_cycle * util

    # Inner-boundary traffic runs concurrently with compute on the L2->L1
    # and L1->L0 buses; a tile's effective compute time is the max of its
    # MACC time and its share of inner-bus transfer time.
    inner_bus_cycles_total = _inner_bus_cycles(dataflow, arch)
    dram_bw = arch.noc.boundary_bandwidth_bytes_per_cycle(0)

    if _resolve_vectorize(vectorize):
        cap = resolve_max_table_bytes(max_table_bytes)
        if cap is not None:
            return _simulate_columnar_chunked(
                dataflow, arch, peak, inner_bus_cycles_total, dram_bw, cap
            )
        return _simulate_columnar(
            dataflow, arch, peak, inner_bus_cycles_total, dram_bw
        )
    return _simulate_scalar(
        dataflow, arch, peak, inner_bus_cycles_total, dram_bw
    )


def _root_coord(layer) -> TileCoord:
    return TileCoord(
        origin={d: 0 for d in Dim},
        extent={
            Dim.W: layer.out_w,
            Dim.H: layer.out_h,
            Dim.C: layer.c,
            Dim.K: layer.k,
            Dim.F: layer.out_f,
        },
    )


# ----------------------------------------------------------------------
# Scalar reference walk
# ----------------------------------------------------------------------
def _simulate_scalar(
    dataflow: Dataflow,
    arch: AcceleratorConfig,
    peak: float,
    inner_bus_cycles_total: float,
    dram_bw: float,
) -> PipelineReport:
    layer = dataflow.layer
    precision = arch.precision
    root = _root_coord(layer)
    coords = list(
        iter_tiles(
            root.origin, root.extent,
            dataflow.hierarchy.outermost, dataflow.outer_order,
        )
    )
    total_maccs = layer.maccs
    total_tile_maccs = sum(
        c.extent[Dim.W] * c.extent[Dim.H] * c.extent[Dim.F]
        * c.extent[Dim.K] * c.extent[Dim.C]
        for c in coords
    ) * layer.r * layer.s * layer.t
    assert total_tile_maccs == total_maccs, "schedule must cover the layer"

    inner_share = inner_bus_cycles_total / len(coords)

    timings = []
    previous = None
    for coord in coords:
        load_bytes, drain_bytes = _tile_io_bytes(layer, coord, previous, precision)
        maccs = (
            coord.extent[Dim.W] * coord.extent[Dim.H] * coord.extent[Dim.F]
            * coord.extent[Dim.K] * coord.extent[Dim.C]
            * layer.r * layer.s * layer.t
        )
        timings.append(
            TileTiming(
                load_cycles=load_bytes / dram_bw,
                compute_cycles=max(maccs / peak, inner_share),
                drain_cycles=drain_bytes / dram_bw,
            )
        )
        previous = coord

    # Double-buffered schedule: tile i computes while tile i+1 loads and
    # tile i-1 drains; each step advances by the slowest of the three.
    cycles = timings[0].load_cycles  # prologue: first fill cannot overlap
    load_bound = compute_bound = 0
    for i, timing in enumerate(timings):
        next_load = timings[i + 1].load_cycles if i + 1 < len(timings) else 0.0
        prev_drain = timings[i - 1].drain_cycles if i > 0 else 0.0
        step = max(timing.compute_cycles, next_load, prev_drain)
        if next_load > timing.compute_cycles:
            load_bound += 1
        else:
            compute_bound += 1
        cycles += step
    cycles += timings[-1].drain_cycles  # epilogue

    return PipelineReport(
        tiles=len(coords),
        cycles=cycles,
        load_bound_tiles=load_bound,
        compute_bound_tiles=compute_bound,
        prologue_cycles=timings[0].load_cycles,
    )


# ----------------------------------------------------------------------
# Columnar pass
# ----------------------------------------------------------------------
def _simulate_columnar(
    dataflow: Dataflow,
    arch: AcceleratorConfig,
    peak: float,
    inner_bus_cycles_total: float,
    dram_bw: float,
) -> PipelineReport:
    """One-table re-expression of the scalar walk over the outer schedule.

    Tensor movement between consecutive tiles is a shifted-array
    comparison over the tensor's relevant dims; the double-buffered step
    recurrence ``cycles += max(compute, next load, prev drain)`` reduces
    with a sequential ``cumsum`` over ``[prologue, steps..., epilogue]``,
    reproducing the scalar left-to-right float accumulation bit for bit.
    """
    import numpy as np

    from repro.core.batch import DIM_INDEX
    from repro.sim.tiled_executor import schedule_tables

    layer = dataflow.layer
    precision = arch.precision
    table = schedule_tables(dataflow, levels=1)[0]
    n = len(table)
    ext = table.extent
    w, h, c, k, f = (ext[DIM_INDEX[d]] for d in (Dim.W, Dim.H, Dim.C, Dim.K, Dim.F))

    maccs = (w * h * f * k * c) * (layer.r * layer.s * layer.t)
    assert int(maccs.sum()) == layer.maccs, "schedule must cover the layer"

    def moved(dims) -> np.ndarray:
        rows = [DIM_INDEX[d] for d in dims]
        flags = np.empty(n, dtype=bool)
        flags[0] = True
        flags[1:] = (
            (table.origin[rows, 1:] != table.origin[rows, :-1])
            | (ext[rows, 1:] != ext[rows, :-1])
        ).any(axis=0)
        return flags

    in_bytes = input_tile_elements_kernel(layer, w, h, c, f) * precision.activation_bytes
    wt_bytes = weight_tile_elements_kernel(layer, c, k) * precision.weight_bytes
    ps_bytes = psum_tile_elements_kernel(w, h, k, f) * precision.activation_bytes

    load_bytes = (
        moved((Dim.W, Dim.H, Dim.C, Dim.F)) * in_bytes
        + moved((Dim.C, Dim.K)) * wt_bytes
    ).astype(np.float64)
    drain_bytes = (moved((Dim.W, Dim.H, Dim.K, Dim.F)) * ps_bytes).astype(
        np.float64
    )

    load_cycles = load_bytes / dram_bw
    drain_cycles = drain_bytes / dram_bw
    inner_share = inner_bus_cycles_total / n
    compute_cycles = np.maximum(maccs / peak, inner_share)

    next_load = np.concatenate([load_cycles[1:], [0.0]])
    prev_drain = np.concatenate([[0.0], drain_cycles[:-1]])
    steps = np.maximum(np.maximum(compute_cycles, next_load), prev_drain)
    load_bound = int((next_load > compute_cycles).sum())

    # cumsum is the sequential left-to-right accumulation the scalar loop
    # performs — same association order, bit-identical total.
    timeline = np.concatenate(
        [load_cycles[:1], steps, drain_cycles[-1:]]
    )
    cycles = float(np.cumsum(timeline)[-1])

    return PipelineReport(
        tiles=n,
        cycles=cycles,
        load_bound_tiles=load_bound,
        compute_bound_tiles=n - load_bound,
        prologue_cycles=float(load_cycles[0]),
    )


#: Working bytes per outer-schedule row in the chunked pipeline pass:
#: stacked origin/extent columns plus byte, mask and cycle columns.
_PIPE_ROW_WORKSPACE = 256


def _simulate_columnar_chunked(
    dataflow: Dataflow,
    arch: AcceleratorConfig,
    peak: float,
    inner_bus_cycles_total: float,
    dram_bw: float,
    max_table_bytes: int,
) -> PipelineReport:
    """The columnar pass streamed in row chunks under a memory cap.

    The double-buffered step of a tile needs the *next* tile's load
    time, so the last row of each chunk is held pending until the next
    chunk (or the end of the schedule) supplies its successor.  Cycle
    totals accumulate with a carried ``cumsum`` — the running total is
    prepended to each chunk's step column — which reproduces the scalar
    loop's left-to-right float association exactly, so the report is
    bit-identical to the unchunked pass.
    """
    import numpy as np

    from repro.core.batch import DIM_INDEX, full_extents
    from repro.sim.tiled_executor import (
        TABLE_ROW_BYTES,
        child_counts,
        iter_boundary_chunks,
    )

    layer = dataflow.layer
    precision = arch.precision

    n = int(
        child_counts(
            full_extents(layer)[:, None],
            dataflow.hierarchy.outermost,
            dataflow.outer_order,
        ).sum()
    )
    inner_share = inner_bus_cycles_total / n
    max_rows = plan_chunk_rows(
        TABLE_ROW_BYTES + _PIPE_ROW_WORKSPACE, max_table_bytes
    )

    in_rows = [DIM_INDEX[d] for d in (Dim.W, Dim.H, Dim.C, Dim.F)]
    wt_rows = [DIM_INDEX[d] for d in (Dim.C, Dim.K)]
    ps_rows = [DIM_INDEX[d] for d in (Dim.W, Dim.H, Dim.K, Dim.F)]

    cycles = 0.0
    prologue = 0.0
    load_bound = 0
    total_maccs = 0
    prev_col = None  #: (10, 1) carried origin+extent of the previous row
    pending = None  #: (compute, drain, prev_drain) of the previous row
    for chunk in iter_boundary_chunks(dataflow, 0, max_rows):
        rows_n = len(chunk)
        ext = chunk.extent
        w, h, c, k, f = (
            ext[DIM_INDEX[d]] for d in (Dim.W, Dim.H, Dim.C, Dim.K, Dim.F)
        )
        maccs = (w * h * f * k * c) * (layer.r * layer.s * layer.t)
        total_maccs += int(maccs.sum())
        coords = np.concatenate([chunk.origin, ext])  # (10, rows_n)
        if prev_col is None:
            prev_col = coords[:, :1] - 1  # synthetic: every tensor moves
        shifted = np.concatenate([prev_col, coords[:, :-1]], axis=1)

        def moved(dim_rows, coords=coords, shifted=shifted):
            both = dim_rows + [r + 5 for r in dim_rows]
            return (coords[both] != shifted[both]).any(axis=0)

        in_bytes = input_tile_elements_kernel(layer, w, h, c, f) * precision.activation_bytes
        wt_bytes = weight_tile_elements_kernel(layer, c, k) * precision.weight_bytes
        ps_bytes = psum_tile_elements_kernel(w, h, k, f) * precision.activation_bytes
        load_cycles = (
            moved(in_rows) * in_bytes + moved(wt_rows) * wt_bytes
        ).astype(np.float64) / dram_bw
        drain_cycles = (moved(ps_rows) * ps_bytes).astype(np.float64) / dram_bw
        compute_cycles = np.maximum(maccs / peak, inner_share)

        if pending is None:
            # Prologue: the global first fill cannot overlap anything.
            cycles = prologue = float(load_cycles[0])
            head = np.empty(0, dtype=np.float64)
            prev_drain0 = 0.0
        else:
            p_compute, p_drain, p_prev_drain = pending
            head_load = float(load_cycles[0])
            head = np.array(
                [max(p_compute, head_load, p_prev_drain)], dtype=np.float64
            )
            load_bound += head_load > p_compute
            prev_drain0 = p_drain
        # Steps of chunk rows 0..rows_n-2; the last row goes pending.
        next_load = load_cycles[1:]
        prev_drain = np.concatenate([[prev_drain0], drain_cycles[: rows_n - 2]])
        steps = np.maximum(
            np.maximum(compute_cycles[: rows_n - 1], next_load),
            prev_drain[: rows_n - 1],
        )
        load_bound += int((next_load > compute_cycles[: rows_n - 1]).sum())
        cycles = float(np.cumsum(np.concatenate([[cycles], head, steps]))[-1])
        pending = (
            float(compute_cycles[-1]),
            float(drain_cycles[-1]),
            float(drain_cycles[-2]) if rows_n >= 2 else prev_drain0,
        )
        prev_col = coords[:, -1:].copy()

    assert total_maccs == layer.maccs, "schedule must cover the layer"
    assert pending is not None
    # The global last tile: no successor load, then the epilogue drain.
    p_compute, p_drain, p_prev_drain = pending
    last_step = max(p_compute, p_prev_drain)
    cycles = float(np.cumsum(np.array([cycles, last_step, p_drain]))[-1])

    return PipelineReport(
        tiles=n,
        cycles=cycles,
        load_bound_tiles=load_bound,
        compute_bound_tiles=n - load_bound,
        prologue_cycles=prologue,
    )
