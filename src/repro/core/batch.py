"""Columnar batch evaluation of the analytic models (the vectorized core).

The scalar path (:func:`repro.core.evaluate.evaluate`) walks one candidate
configuration at a time, building a ``TrafficReport``/``EnergyBreakdown``
object pile per candidate.  This module lowers a whole candidate set into
NumPy columns — tile extents per level, loop-order indices, parallelism
indices — and computes traffic, cycles, energy and the objective for *all*
candidates in a handful of array expressions.  ``Evaluation`` objects are
materialised lazily, only for chosen winners, by re-running the scalar
path on that single candidate.

Equivalence contract
--------------------
The batch pipeline is a semantic-preserving rewrite, not a second model:

* every arithmetic formula is imported from the scalar modules' shared
  ``*_kernel`` functions (:mod:`repro.core.tiling`,
  :mod:`repro.core.access_model`, :mod:`repro.core.performance_model`,
  :mod:`repro.core.energy_model`, :mod:`repro.core.evaluate`), which accept
  scalars and arrays alike;
* byte counts stay integral (int64 columns mirroring the scalar path's
  Python ints) until the same points where the scalar path converts to
  float, and float reductions follow the same association order,
  so scores are bit-identical to the scalar path.  int64 is the one
  envelope the scalar path's arbitrary-precision ints do not have; the
  search guards it by re-evaluating the chosen winner through the scalar
  path and falling back to the scalar search on any score mismatch;
* the structural loop-nest rules (degenerate-loop dropping, innermost
  relevant loop, slide reuse, full residency) are re-expressed as suffix
  masks over loop positions; ``tests/test_batch_equivalence.py`` pins them
  to the scalar implementation across random layers, strides, dilations
  and objectives.

The loop-position algebra
-------------------------
For a candidate the non-degenerate loop order drops trip-count-1 loops.
Rather than materialising per-candidate orders, each of the five loop
positions gets a boolean column ``active[i]`` ("relevant to the data type
and non-degenerate").  The scalar rule "multiply every loop at or outside
the innermost relevant one" becomes the inclusive suffix-or of ``active``;
degenerate or broadcast loops contribute factor 1 exactly as in the scalar
model, so including them in the masked product is harmless.  Slide reuse
picks, per input dim, the candidates where that dim is the innermost
active relevant loop (no active relevant loop strictly inside it).
"""

from __future__ import annotations

import dataclasses
import functools

try:  # numpy is the only dependency; the scalar path runs without it.
    import numpy as np
except ImportError:  # pragma: no cover - exercised via REPRO_VECTORIZE=0
    np = None

from repro.arch.accelerator import AcceleratorConfig
from repro.arch.buffers import FlexiblePartition, StaticPartition
from repro.core.access_model import (
    alu_read_bytes,
    dram_psum_writeback_kernel,
    psum_spill_bytes_kernel,
)
from repro.core.dataflow import Dataflow, Parallelism
from repro.core.dims import ALL_DATA_TYPES, ALL_DIMS, DataType, Dim, relevant_dims
from repro.core.energy_model import (
    _level_replications,
    energy_accumulation_kernel,
    energy_cost_tables,
    static_pj_per_cycle,
)
from repro.core.evaluate import Evaluation, edp_kernel, evaluate, perf_per_watt_kernel
from repro.core.layer import ConvLayer
from repro.core.loopnest import LoopOrder
from repro.core.performance_model import (
    boundary_bus_bytes_kernel,
    compute_cycles_kernel,
    parallel_level_degrees,
    split_parallelism,
    utilization_kernel,
)
from repro.core.tiling import (
    Precision,
    TileHierarchy,
    TileShape,
    ceil_div,
    input_extent_kernel,
    kernel_and_stride,
    sum_input_extents_kernel,
)

available = np is not None

#: Column index of each tiled dim (W, H, C, K, F order, as ALL_DIMS).
DIM_INDEX: dict[Dim, int] = {dim: i for i, dim in enumerate(ALL_DIMS)}
_PAR_DIMS = (Dim.W, Dim.H, Dim.K, Dim.F)

#: Working-set estimate for chunk planning: intermediate columns the
#: score pipeline holds live per candidate besides its tile slice.
_WORKSPACE_COLUMNS = 16

#: Chunk plans: ``(row_bytes, max_table_bytes)`` -> rows per chunk.
_CHUNK_PLANS: dict[tuple[int, int], int] = {}


def _require_numpy() -> None:
    if np is None:  # pragma: no cover
        raise RuntimeError(
            "repro.core.batch needs numpy; set REPRO_VECTORIZE=0 or install it"
        )


def clear_constant_caches() -> None:
    """Reset the constant-table memos (layer extents, order tables,
    parallelism tables, relevance vectors) and the chunk plans, for
    callers that mutate layer or machine descriptions in place; wired
    into :func:`repro.clear_cache`.
    """
    full_extents.cache_clear()
    _order_tables.cache_clear()
    parallelism_tables.cache_clear()
    _rel_vector_cached.cache_clear()
    _CHUNK_PLANS.clear()


# ----------------------------------------------------------------------
# Streaming under a table-memory cap
# ----------------------------------------------------------------------
def resolve_max_table_bytes(value: int | None = None) -> int | None:
    """Resolve an explicit memory cap (or the scoped default).

    ``None`` defers to
    :func:`repro.optimizer.engine.default_max_table_bytes` (session,
    then ``$REPRO_MAX_TABLE_BYTES``); it returns ``None`` when no cap is
    configured anywhere, and columnar passes then materialize full
    tables.  A cap makes schedule/candidate tables that outgrow it
    stream in row blocks with carried reductions — bit-identical to the
    uncapped pass.
    """
    if value is None:
        from repro.optimizer.engine import default_max_table_bytes

        return default_max_table_bytes()
    value = int(value)
    if value < 1:
        raise ValueError(
            f"max_table_bytes must be a positive byte count, got {value}"
        )
    return value


def plan_chunk_rows(row_bytes: int, max_table_bytes: int) -> int:
    """Rows per chunk so one chunk's table stays under the byte cap.

    Raises ``ValueError`` when the cap cannot hold even a single row —
    a cap that small is a configuration error, not a request for an
    empty table.
    """
    key = (int(row_bytes), int(max_table_bytes))
    if key not in _CHUNK_PLANS:
        rows, cap = key
        if rows <= 0:
            raise ValueError(f"row_bytes must be positive, got {rows}")
        per_chunk = cap // rows
        if per_chunk < 1:
            raise ValueError(
                f"max_table_bytes={cap} is smaller than a single table "
                f"row ({rows} bytes); raise the cap"
            )
        _CHUNK_PLANS[key] = per_chunk
    return _CHUNK_PLANS[key]


# ----------------------------------------------------------------------
# Constant tables (per layer / order set / parallelism set)
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=1024)
def full_extents(layer: ConvLayer) -> "np.ndarray":
    """(5,) int64 output-space extents of the whole layer, ALL_DIMS order.

    Cached (and frozen) because every block of a layer's search asks for
    it; callers only broadcast and index.
    """
    full = TileShape.full(layer)
    extents = np.array([full.extent(d) for d in ALL_DIMS], dtype=np.int64)
    extents.setflags(write=False)
    return extents


@functools.lru_cache(maxsize=512)
def _order_tables(orders: tuple[LoopOrder, ...]):
    """``(dim_at, pos_of)`` lookup tables for a tuple of loop orders.

    ``dim_at[o, i]`` is the dim code at position ``i`` (outermost first) of
    order ``o``; ``pos_of[o, d]`` is the position of dim code ``d``.
    """
    n = len(orders)
    dim_at = np.empty((n, 5), dtype=np.int64)
    pos_of = np.empty((n, 5), dtype=np.int64)
    for o, order in enumerate(orders):
        for i, dim in enumerate(order.dims):
            code = DIM_INDEX[dim]
            dim_at[o, i] = code
            pos_of[o, code] = i
    return dim_at, pos_of


@dataclasses.dataclass(frozen=True)
class ParallelismTables:
    """Per-parallelism constants, indexed by position in the input tuple."""

    degrees: "np.ndarray"  #: (n_par, levels, 5) per-level split degrees
    replication: "np.ndarray"  #: (n_par, levels, 3) per-data-type copies
    cluster_deg: "np.ndarray"  #: (n_par, 5) cluster-level split degrees
    pe_deg: "np.ndarray"  #: (n_par, 5) PE-level split degrees
    total_degree: "np.ndarray"  #: (n_par,) PEs kept busy


@functools.lru_cache(maxsize=256)
def parallelism_tables(
    parallelisms: tuple[Parallelism, ...], arch: AcceleratorConfig
) -> ParallelismTables:
    """Cached per (parallelism set, machine) — constant across the many
    candidate blocks of one search; consumers only read."""
    n, levels = len(parallelisms), arch.num_levels
    degrees = np.ones((n, levels, 5), dtype=np.int64)
    replication = np.ones((n, levels, 3), dtype=np.int64)
    cluster_deg = np.ones((n, 5), dtype=np.int64)
    pe_deg = np.ones((n, 5), dtype=np.int64)
    total = np.empty(n, dtype=np.int64)
    for p, par in enumerate(parallelisms):
        level_degrees = parallel_level_degrees(
            levels, arch.clusters, arch.pes_per_cluster, par
        )
        for lvl, dd in enumerate(level_degrees):
            for dim, deg in dd.items():
                degrees[p, lvl, DIM_INDEX[dim]] = deg
        cluster_par, pe_par = split_parallelism(
            par, arch.clusters, arch.pes_per_cluster
        )
        repl = _level_replications(levels, cluster_par, pe_par)
        for lvl in range(levels):
            for t, dt in enumerate(ALL_DATA_TYPES):
                replication[p, lvl, t] = repl[lvl][dt]
        for dim in _PAR_DIMS:
            cluster_deg[p, DIM_INDEX[dim]] = cluster_par.of(dim)
            pe_deg[p, DIM_INDEX[dim]] = pe_par.of(dim)
        total[p] = par.degree
    for table in (degrees, replication, cluster_deg, pe_deg, total):
        table.setflags(write=False)
    return ParallelismTables(degrees, replication, cluster_deg, pe_deg, total)


# ----------------------------------------------------------------------
# Vectorized capacity checks
# ----------------------------------------------------------------------
def tile_bytes_columns(
    layer: ConvLayer, precision: Precision, tiles: "np.ndarray"
) -> dict[DataType, "np.ndarray"]:
    """Per-data-type byte footprints of tile columns ``tiles`` ((5, N))."""
    w, h, c, k, f = tiles  # rows in ALL_DIMS order
    input_elems = (
        input_extent_kernel(w, *kernel_and_stride(layer, Dim.W))
        * input_extent_kernel(h, *kernel_and_stride(layer, Dim.H))
        * input_extent_kernel(f, *kernel_and_stride(layer, Dim.F))
        * c
    )
    weight_elems = k * c * (layer.r * layer.s * layer.t)
    psum_elems = w * h * f * k
    return {
        DataType.INPUTS: input_elems * precision.activation_bytes,
        DataType.WEIGHTS: weight_elems * precision.weight_bytes,
        DataType.PSUMS: psum_elems * precision.psum_bytes,
    }


def tile_fits_mask(
    arch: AcceleratorConfig,
    level_index: int,
    layer: ConvLayer,
    tiles: "np.ndarray",
) -> "np.ndarray":
    """Vectorized :meth:`AcceleratorConfig.tile_fits` over tile columns."""
    _require_numpy()
    tiles = np.asarray(tiles, dtype=np.int64)
    bytes_by_type = tile_bytes_columns(layer, arch.precision, tiles)
    policy = arch.partitions[level_index]
    level = arch.levels[level_index]
    if isinstance(policy, FlexiblePartition):
        banks = sum(
            ceil_div(bytes_by_type[dt], level.bank_bytes) for dt in ALL_DATA_TYPES
        )
        return banks <= level.usable_banks
    if isinstance(policy, StaticPartition):
        mask = np.ones(tiles.shape[-1], dtype=bool)
        for dt in ALL_DATA_TYPES:
            mask &= bytes_by_type[dt] <= policy.capacity_for(level, dt)
        return mask
    # Unknown policy: fall back to the scalar check per candidate.
    return np.array(
        [
            arch.tile_fits(
                level_index,
                layer,
                TileShape(*(int(tiles[DIM_INDEX[d], i]) for d in ALL_DIMS)),
            )
            for i in range(tiles.shape[-1])
        ],
        dtype=bool,
    )


def normalize_tiles(layer: ConvLayer, tiles: "np.ndarray") -> "np.ndarray":
    """Apply :class:`TileHierarchy`'s normalisation to tile columns.

    ``tiles`` is ``(levels, 5, N)``; each level is clipped to the layer and
    to its parent (monotone non-increasing), exactly as the scalar
    ``TileHierarchy.__post_init__`` clip chain does.
    """
    tiles = np.asarray(tiles, dtype=np.int64)
    bound = full_extents(layer)[None, :, None]
    return np.minimum.accumulate(np.minimum(tiles, bound), axis=0)


def hierarchy_fits_mask(
    arch: AcceleratorConfig, layer: ConvLayer, tiles: "np.ndarray"
) -> "np.ndarray":
    """Vectorized :meth:`AcceleratorConfig.hierarchy_fits` over columns."""
    mask = tile_fits_mask(arch, 0, layer, tiles[0])
    for level_index in range(1, arch.num_levels):
        mask = mask & tile_fits_mask(arch, level_index, layer, tiles[level_index])
    return mask


# ----------------------------------------------------------------------
# Vectorized boundary traffic
# ----------------------------------------------------------------------
def _rel_vector(data_type: DataType) -> "np.ndarray":
    return np.array([d in relevant_dims(data_type) for d in ALL_DIMS])


@functools.lru_cache(maxsize=8)
def _rel_vector_cached(data_type: DataType):
    return _rel_vector(data_type)


def _boundary_fill_columns(
    layer: ConvLayer,
    precision: Precision,
    parent,  #: (5, N) parent tile extents
    child,  #: (5, N) child tile extents
    trips,  #: (5, N) ceil trip counts
    seq_trips,  #: (5, N) sequential rounds (trips / parallel degree)
    dim_at,  #: (N, 5) dim code at each loop position, outermost first
    pos_of,  #: (N, 5) loop position of each dim code
    fetches: bool = True,
) -> dict[DataType, tuple["np.ndarray", "np.ndarray", "np.ndarray"]]:
    """Per data type: ``(has_relevant_loop, run_fetches, run_bytes)``.

    Columnar re-expression of ``_run_fill_bytes_inputs`` /
    ``_run_fill_bytes_dense`` plus the fetch-multiplicity rule, for ONE
    execution of the boundary nest.  Degenerate loops are dropped via the
    suffix masks described in the module docstring.  ``fetches=False``
    skips the fetch multiplicity (``run_fetches`` is then ``None``) for
    callers that need the bytes alone.
    """
    n = parent.shape[-1]
    cand = np.arange(n)
    trips_at = trips[dim_at.T, cand]  # (5 positions, N)
    seq_at = seq_trips[dim_at.T, cand] if fetches else None

    out: dict[DataType, tuple] = {}
    for data_type in ALL_DATA_TYPES:
        relv = _rel_vector_cached(data_type)
        rel_at = relv[dim_at.T]  # (5, N): position holds a relevant dim
        active_at = rel_at & (trips_at > 1)

        # suffix_incl[i]: any active relevant loop at or inside position i
        # == "position i is outside (or at) the innermost relevant loop".
        suffix_incl = np.empty((5, n), dtype=bool)
        suffix_strict = np.empty((5, n), dtype=bool)
        running = np.zeros(n, dtype=bool)
        for i in range(4, -1, -1):
            suffix_strict[i] = running
            running = running | active_at[i]
            suffix_incl[i] = running
        has_rel = suffix_incl[0]

        # Fetch multiplicity: product of trip counts (sequential rounds for
        # irrelevant dims) over every loop at or outside the innermost
        # relevant one.  Degenerate loops multiply by 1 exactly as if
        # dropped from the order.
        run_fetches = None
        if fetches:
            factors = np.where(rel_at, trips_at, seq_at)
            run_fetches = np.where(suffix_incl, factors, 1).prod(axis=0)

        elem = precision.bytes_of(data_type)
        if data_type is DataType.INPUTS:
            run_bytes = np.full(n, elem, dtype=np.int64)
            for dim in (Dim.W, Dim.H, Dim.C, Dim.F):
                d = DIM_INDEX[dim]
                total = parent[d]
                if dim is Dim.C:
                    run_bytes *= total
                    continue
                span, stride = kernel_and_stride(layer, dim)
                halo_sum = sum_input_extents_kernel(total, child[d], span, stride)
                # Slide reuse: this dim occupies the innermost relevant
                # non-degenerate loop, so halos telescope to the union.
                is_slide = (trips[d] > 1) & ~suffix_strict[pos_of[:, d], cand]
                run_bytes *= np.where(
                    is_slide, input_extent_kernel(total, span, stride), halo_sum
                )
            irrelevant = (Dim.K,)
        elif data_type is DataType.WEIGHTS:
            run_bytes = (
                np.full(n, elem * layer.r * layer.s * layer.t, dtype=np.int64)
                * parent[DIM_INDEX[Dim.C]]
                * parent[DIM_INDEX[Dim.K]]
            )
            irrelevant = (Dim.W, Dim.H, Dim.F)
        else:
            run_bytes = (
                np.full(n, elem, dtype=np.int64)
                * parent[DIM_INDEX[Dim.W]]
                * parent[DIM_INDEX[Dim.H]]
                * parent[DIM_INDEX[Dim.K]]
                * parent[DIM_INDEX[Dim.F]]
            )
            irrelevant = (Dim.C,)
        # Irrelevant loops outside the innermost relevant one multiply the
        # per-run bytes by their sequential (non-broadcast) rounds.
        for dim in irrelevant:
            d = DIM_INDEX[dim]
            outside = suffix_incl[pos_of[:, d], cand]
            run_bytes *= np.where(outside, seq_trips[d], 1)

        out[data_type] = (has_rel, run_fetches, run_bytes)
    return out


def _region_bytes_columns(
    layer: ConvLayer, precision: Precision, parent
) -> dict[DataType, "np.ndarray"]:
    """Whole-region footprints of parent tile columns (full residency)."""
    return tile_bytes_columns(layer, precision, parent)


def boundary_fill_bytes_sum(
    layer: ConvLayer,
    precision: Precision,
    parent: "np.ndarray",  #: (5,) or (5, N) parent extents
    child: "np.ndarray",  #: (5, N) child tile extents
    orders: LoopOrder | tuple[LoopOrder, ...],
    order_index: "np.ndarray | None" = None,  #: (N,) row -> index into orders
) -> "np.ndarray":
    """Summed per-execution fill bytes across the three data types.

    Columnar counterpart of summing ``boundary_fill_profile`` byte entries
    — the denominator of the allocator's ``f_reuse`` score — for many
    (parent, child) rows.  ``orders`` is one loop order for every row, or
    a tuple of orders with ``order_index`` naming each row's; either way
    a row's bytes equal the single-order call's bit for bit.
    """
    _require_numpy()
    child = np.asarray(child, dtype=np.int64)
    n = child.shape[-1]
    parent = np.broadcast_to(
        np.asarray(parent, dtype=np.int64).reshape(5, -1), (5, n)
    )
    trips = ceil_div(parent, child)
    if order_index is None:
        orders, order_index = (orders,), np.zeros(n, dtype=np.intp)
    dim_tbl, pos_tbl = _order_tables(tuple(orders))
    dim_at = np.take(dim_tbl, order_index, axis=0)
    pos_of = np.take(pos_tbl, order_index, axis=0)
    profile = _boundary_fill_columns(
        layer, precision, parent, child, trips, trips, dim_at, pos_of,
        fetches=False,
    )
    region = _region_bytes_columns(layer, precision, parent)
    total = np.zeros(n, dtype=np.int64)
    for data_type in ALL_DATA_TYPES:
        has_rel, _, run_bytes = profile[data_type]
        total += np.where(has_rel, run_bytes, region[data_type])
    return total


# ----------------------------------------------------------------------
# The batch evaluator
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CandidateBatch:
    """A columnar table of candidate configurations for one layer.

    ``tiles`` holds output-space tile extents as ``(levels, 5, N)`` int64
    (ALL_DIMS order); ``outer``/``inner`` index into ``orders`` and ``par``
    into ``parallelisms``.  Construction normalises the hierarchy exactly
    like :class:`TileHierarchy` does.
    """

    layer: ConvLayer
    arch: AcceleratorConfig
    orders: tuple[LoopOrder, ...]
    parallelisms: tuple[Parallelism, ...]
    tiles: "np.ndarray"
    outer: "np.ndarray"
    inner: "np.ndarray"
    par: "np.ndarray"
    #: Objective -> full score column, kept for :meth:`best` ``rows=``.
    _score_columns: dict = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        _require_numpy()
        self.tiles = normalize_tiles(self.layer, self.tiles)
        self.outer = np.asarray(self.outer, dtype=np.int64)
        self.inner = np.asarray(self.inner, dtype=np.int64)
        self.par = np.asarray(self.par, dtype=np.int64)

    def __len__(self) -> int:
        return self.tiles.shape[-1]

    # ------------------------------------------------------------------
    def dataflow(self, index: int) -> Dataflow:
        """Materialise one candidate row as a scalar :class:`Dataflow`."""
        tiles = tuple(
            TileShape(*(int(self.tiles[lvl, d, index]) for d in range(5)))
            for lvl in range(self.tiles.shape[0])
        )
        return Dataflow(
            outer_order=self.orders[int(self.outer[index])],
            inner_order=self.orders[int(self.inner[index])],
            hierarchy=TileHierarchy(self.layer, tiles),
            parallelism=self.parallelisms[int(self.par[index])],
        )

    def evaluate_row(self, index: int) -> Evaluation:
        """Scalar evaluation of one row (winner materialisation)."""
        return evaluate(self.dataflow(index), self.arch)

    # ------------------------------------------------------------------
    def _row_bytes(self) -> int:
        """Estimated peak working bytes per candidate column.

        One candidate carries its ``(levels, 5)`` int64 tile slice plus
        roughly :data:`_WORKSPACE_COLUMNS` equally sized intermediate
        columns (trips, masks, fills, spills, energies) through the
        score pipeline; the chunk planner divides ``max_table_bytes``
        by this estimate.
        """
        levels = self.tiles.shape[0]
        return 8 * (levels * 5 + _WORKSPACE_COLUMNS)

    def scores(
        self, objective: str, *, max_table_bytes: int | None = None
    ) -> "np.ndarray":
        """Objective column (lower is better); +inf marks infeasible rows.

        Bit-identical to scoring each row's scalar :class:`Evaluation`
        under :data:`repro.optimizer.search.OBJECTIVES`, for any
        ``max_table_bytes`` chunking: every column op in the pipeline is
        elementwise per candidate, so evaluating a slice of columns is
        the same arithmetic on a smaller array.  ``None`` defers to the
        scoped default (:func:`resolve_max_table_bytes`).
        """
        n = len(self)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        cap = resolve_max_table_bytes(max_table_bytes)
        if cap is None:
            return self._scores_slice(objective, slice(0, n))
        rows = plan_chunk_rows(self._row_bytes(), cap)
        out = np.empty(n, dtype=np.float64)
        for start in range(0, n, rows):
            sl = slice(start, min(start + rows, n))
            out[sl] = self._scores_slice(objective, sl)
        return out

    def best(
        self,
        objective: str,
        *,
        rows: "np.ndarray | None" = None,
        max_table_bytes: int | None = None,
    ) -> tuple[int, float, int]:
        """First-min winner among ``rows``: ``(index, score,
        finite_count)``.

        ``rows`` (ascending row indices, all rows by default) restricts
        the winner and ``finite_count`` to those rows.  ``np.argmin``
        over :meth:`scores`, so ties break to the lowest row index, i.e.
        the lowest legacy candidate rank; ``index`` is ``-1`` only when
        no row is picked.  The score column is computed once per
        objective, by :meth:`scores` under ``max_table_bytes``, and
        kept, so one table serves many row subsets: a row's score does
        not depend on which rows share its table.
        """
        column = self._score_columns.get(objective)
        if column is None:
            column = self.scores(objective, max_table_bytes=max_table_bytes)
            self._score_columns[objective] = column
        picked = column if rows is None else column[rows]
        if not len(picked):
            return -1, float("inf"), 0
        local = int(np.argmin(picked))
        index = local if rows is None else int(rows[local])
        return index, float(picked[local]), int(np.isfinite(picked).sum())

    def _scores_slice(self, objective: str, sl: slice) -> "np.ndarray":
        """The score pipeline over one contiguous slice of columns."""
        tiles = self.tiles[:, :, sl]
        outer = self.outer[sl]
        inner = self.inner[sl]
        par = self.par[sl]
        n = tiles.shape[-1]
        layer, arch = self.layer, self.arch
        precision = arch.precision
        levels = arch.num_levels
        if tiles.shape[0] != levels:
            raise ValueError(
                f"{arch.name} has {levels} levels, got {tiles.shape[0]}"
            )
        dim_tbl, pos_tbl = _order_tables(self.orders)
        par_tbl = parallelism_tables(self.parallelisms, arch)
        full = np.broadcast_to(full_extents(layer)[:, None], (5, n))

        # --- traffic ---------------------------------------------------
        out_psum_bytes = layer.output_elements * precision.psum_bytes
        execs = np.ones(n, dtype=np.int64)
        parent_fills = {dt: np.ones(n, dtype=np.int64) for dt in ALL_DATA_TYPES}
        fill_bytes: list[dict[DataType, "np.ndarray"]] = []
        psum_load: list["np.ndarray"] = []
        psum_writeback: list["np.ndarray"] = []

        for level_index in range(levels):
            parent = full if level_index == 0 else tiles[level_index - 1]
            child = tiles[level_index]
            order_idx = outer if level_index == 0 else inner
            trips = ceil_div(parent, child)
            degrees = par_tbl.degrees[par, level_index].T  # (5, N)
            seq_trips = ceil_div(trips, degrees)
            profile = _boundary_fill_columns(
                layer, precision, parent, child, trips, seq_trips,
                dim_tbl[order_idx], pos_tbl[order_idx],
            )
            region = _region_bytes_columns(layer, precision, parent)

            level_fill: dict[DataType, "np.ndarray"] = {}
            for data_type in ALL_DATA_TYPES:
                has_rel, run_fetches, run_bytes = profile[data_type]
                fills = np.where(
                    has_rel, execs * run_fetches, parent_fills[data_type]
                )
                level_fill[data_type] = np.where(
                    has_rel,
                    execs * run_bytes,
                    parent_fills[data_type] * region[data_type],
                )
                parent_fills[data_type] = fills
            fill_bytes.append(level_fill)

            spill = psum_spill_bytes_kernel(
                level_fill[DataType.PSUMS], out_psum_bytes
            )
            psum_load.append(spill)
            if level_index == 0:
                psum_writeback.append(
                    dram_psum_writeback_kernel(
                        spill,
                        layer.output_elements * precision.activation_bytes,
                    )
                )
            else:
                psum_writeback.append(level_fill[DataType.PSUMS])
            execs = execs * trips.prod(axis=0)

        # --- performance ----------------------------------------------
        mid_index = max(levels - 2, 0)
        mid_tile = tiles[mid_index]
        inner_tile = tiles[-1]
        cluster_parent = full if mid_index == 0 else tiles[mid_index - 1]
        pe_parent = full if levels == 1 else tiles[levels - 2]
        c_deg = par_tbl.cluster_deg[par].T  # (5, N)
        p_deg = par_tbl.pe_deg[par].T
        dim_factors = [
            (
                c_deg[DIM_INDEX[dim]],
                ceil_div(cluster_parent[DIM_INDEX[dim]], mid_tile[DIM_INDEX[dim]]),
                p_deg[DIM_INDEX[dim]],
                ceil_div(pe_parent[DIM_INDEX[dim]], inner_tile[DIM_INDEX[dim]]),
            )
            for dim in _PAR_DIMS
        ]
        util = utilization_kernel(
            par_tbl.total_degree[par],
            arch.total_pes,
            arch.vector_width,
            inner_tile[DIM_INDEX[Dim.K]],
            dim_factors,
        )
        maccs = layer.maccs
        cycles = compute_cycles_kernel(
            maccs, arch.peak_maccs_per_cycle, util
        )
        for index in range(levels):
            crossing = boundary_bus_bytes_kernel(
                fill_bytes[index][DataType.INPUTS],
                fill_bytes[index][DataType.WEIGHTS],
                psum_load[index],
                psum_writeback[index],
            )
            bw = arch.noc.boundary_bandwidth_bytes_per_cycle(index)
            cycles = np.maximum(cycles, crossing / bw)

        # --- energy ----------------------------------------------------
        read_pj, write_pj, bus_length_mm = energy_cost_tables(arch)
        repl_cols = [
            {
                dt: par_tbl.replication[par, lvl, t]
                for t, dt in enumerate(ALL_DATA_TYPES)
            }
            for lvl in range(levels)
        ]
        alu_inputs, alu_weights = alu_read_bytes(
            maccs, arch.vector_width, precision
        )
        tech = arch.technology
        (
            dram_pj, _reads, _writes, level_energy, noc_pj, compute_pj,
            static_pj,
        ) = energy_accumulation_kernel(
            num_levels=levels,
            fill_bytes=fill_bytes,
            psum_load_bytes=psum_load,
            psum_writeback_bytes=psum_writeback,
            alu_input_read_bytes=alu_inputs,
            alu_weight_read_bytes=alu_weights,
            alu_psum_read_bytes=psum_load[-1],
            alu_psum_write_bytes=fill_bytes[-1][DataType.PSUMS],
            repl=repl_cols,
            read_pj=read_pj,
            write_pj=write_pj,
            noc_pj_per_byte_mm=tech.noc_pj_per_byte_mm,
            bus_length_mm=bus_length_mm,
            dram_pj_per_byte=tech.dram_pj_per_byte,
            macc_pj=tech.macc_pj,
            maccs=maccs,
            static_pj_per_cycle=static_pj_per_cycle(arch),
            cycles=cycles,
        )
        # Same association as EnergyBreakdown.total_pj.
        total_pj = dram_pj + sum(level_energy) + noc_pj + compute_pj + static_pj

        # --- objective -------------------------------------------------
        if objective == "energy":
            scores = total_pj
        elif objective == "latency":
            scores = cycles + 0.0
        elif objective == "edp":
            scores = edp_kernel(total_pj, cycles, tech.clock_hz)
        elif objective == "perf_per_watt":
            scores = -perf_per_watt_kernel(maccs, total_pj)
        else:
            raise ValueError(f"unknown objective {objective!r}")

        feasible = hierarchy_fits_mask(arch, layer, tiles)
        return np.where(feasible, scores, np.inf)
