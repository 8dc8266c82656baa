"""Per-layer configuration search (paper Section V).

For every layer the optimizer enumerates [outer order, inner order, last-
level tile, sub-tile allocation, parallelism] configurations, evaluates each
with the analytic models and returns the best under the chosen objective
("it is straightforward to optimize for power or performance or
performance/power", Section V-E).

One block loop (:meth:`LayerOptimizer._search`) drives the search; the
block evaluator plugged into it decides how candidates are scored — per
candidate through the scalar reference models (the oracle, and the only
path without NumPy), or per L2 tile through one columnar table.

Inflexible machines reuse the same search with their dataflow pinned:
Morph-base fixes loop orders, static partitions and parallelism but still
sizes tiles per layer (its FSMs are fixed-function *per dataflow*, not per
shape); Eyeriss additionally has only two buffer levels.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Iterable

from repro.arch.accelerator import AcceleratorConfig
from repro.core.access_model import boundary_fill_profile
from repro.core.dataflow import Dataflow, Parallelism
from repro.core.dims import DataType, Dim
from repro.core.evaluate import CapacityError, Evaluation, evaluate
from repro.core.layer import ConvLayer
from repro.core.loopnest import LoopOrder
from repro.core.performance_model import parallel_level_degrees, split_parallelism
from repro.core.tiling import TileHierarchy, TileShape
from repro.optimizer.allocation import allocate_hierarchy
from repro.optimizer.clock import current_clock
from repro.optimizer.space import (
    REPRESENTATIVE_INNER_ORDERS,
    REPRESENTATIVE_OUTER_ORDERS,
    candidate_blocks,
    dedupe_orders_by_signature,
    last_level_tile_candidates,
    loop_order_candidates,
    parallelism_candidates,
)

#: Objective -> scalar score (lower is better).
OBJECTIVES: dict[str, Callable[[Evaluation], float]] = {
    "energy": lambda ev: ev.total_energy_pj,
    "latency": lambda ev: ev.cycles,
    "edp": lambda ev: ev.edp,
    "perf_per_watt": lambda ev: -ev.perf_per_watt,
}


@dataclasses.dataclass(frozen=True)
class OptimizerOptions:
    """Search-effort knobs (the paper's space discretisation)."""

    objective: str = "energy"
    exhaustive_orders: bool = False
    max_l2_candidates: int = 16
    keep_allocations: int = 3
    keep_per_level: int = 4
    max_parallelism_candidates: int = 4
    #: Overrides for motivation-style sweeps (Figure 4 fixes one order and
    #: sweeps everything else).
    fixed_outer_order: LoopOrder | None = None
    fixed_inner_order: LoopOrder | None = None
    fixed_parallelism: Parallelism | None = None
    #: Columnar batch evaluation of candidates (results are identical to
    #: the scalar path; this is purely a speed knob, so it is excluded from
    #: search signatures and cache keys).  ``None`` defers to the engine
    #: default (:func:`repro.optimizer.engine.default_vectorize`, i.e. on
    #: when NumPy is available unless ``REPRO_VECTORIZE=0``).
    vectorize: bool | None = dataclasses.field(
        default=None, repr=False, compare=False
    )
    #: Test hook: visit order of the (parallelism, L2-tile) candidate
    #: blocks.  ``"best_first"`` sorts blocks by ascending objective lower
    #: bound so the early-prune incumbent tightens as fast as possible;
    #: ``"legacy"`` keeps the historical enumeration order as an A/B
    #: reference.  **Ordering guarantee:** the chosen configuration and
    #: score are bit-identical either way — equal-score ties are broken
    #: by candidate identity (legacy enumeration rank), never by visit
    #: order — so it is excluded from search signatures and cache keys.
    search_order: str = dataclasses.field(
        default="best_first", repr=False, compare=False
    )
    #: Anytime search budget in milliseconds (``None`` = run to
    #: exhaustion; ``None`` in options also defers to the engine default
    #: — the active session / ``REPRO_BUDGET_MS``).  The clock is polled
    #: only at (parallelism, L2-tile) block boundaries, and the first
    #: block always completes, so a budgeted result is an exact *prefix*
    #: of the unbudgeted search: **bit-identical whenever the budget is
    #: not hit**, and carrying :attr:`LayerResult.bound_gap` /
    #: :attr:`LayerResult.budget_exhausted` when it is.  Excluded from
    #: search signatures and cache keys — sound because budget-exhausted
    #: results are never cached (memo or disk), and a cached unbudgeted
    #: result recalled for a budgeted request is exactly the anytime
    #: contract's best case (full quality within any budget).
    budget_ms: float | None = dataclasses.field(
        default=None, repr=False, compare=False
    )
    #: Test hook: parallelism-aware lower-bound floors (utilization
    #: ceiling + replication energy floor) that differentiate
    #: same-L2-tile blocks.  The floors are provable lower bounds, so the
    #: chosen configuration and score are bit-identical either way —
    #: ``False`` restores the parallelism-blind bound as an A/B reference.
    parallel_floors: bool = dataclasses.field(
        default=True, repr=False, compare=False
    )
    #: Memory cap (bytes) on any one columnar candidate/schedule table.
    #: When set, batch scoring streams candidates in row chunks with
    #: carried first-min reductions — bit-identical to the unchunked
    #: sweep, so huge search spaces never fall back to the scalar path.
    #: ``None`` defers to the engine default
    #: (:func:`repro.optimizer.engine.default_max_table_bytes` — the
    #: active session / ``REPRO_MAX_TABLE_BYTES`` / uncapped).  A pure
    #: speed/memory knob, excluded from search signatures and cache keys.
    max_table_bytes: int | None = dataclasses.field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; "
                f"choose from {sorted(OBJECTIVES)}"
            )
        # A beam or candidate list of zero (or a negative slice) has no
        # meaning; without this check 0 surfaces as a misleading
        # CapacityError and -1 silently drops the last beam entry.
        for field in ("max_l2_candidates", "keep_allocations", "keep_per_level"):
            value = getattr(self, field)
            if value < 1:
                raise ValueError(f"{field} must be >= 1, got {value!r}")
        if self.search_order not in ("best_first", "legacy"):
            raise ValueError(
                f"unknown search_order {self.search_order!r}; "
                "choose 'best_first' or 'legacy'"
            )
        if self.budget_ms is not None and self.budget_ms < 0:
            raise ValueError(
                f"budget_ms must be >= 0 (milliseconds), got {self.budget_ms!r}"
            )
        if self.max_table_bytes is not None and self.max_table_bytes < 1:
            raise ValueError(
                "max_table_bytes must be a positive byte count, "
                f"got {self.max_table_bytes!r}"
            )

    @classmethod
    def fast(cls, **overrides) -> "OptimizerOptions":
        """Coarser discretisation for benchmarks and CI."""
        defaults = dict(
            max_l2_candidates=8,
            keep_allocations=2,
            keep_per_level=3,
            max_parallelism_candidates=2,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def thorough(cls, **overrides) -> "OptimizerOptions":
        defaults = dict(
            max_l2_candidates=32,
            keep_allocations=4,
            keep_per_level=5,
            max_parallelism_candidates=6,
            exhaustive_orders=True,
        )
        defaults.update(overrides)
        return cls(**defaults)

    def with_(self, **overrides) -> "OptimizerOptions":
        return dataclasses.replace(self, **overrides)


@dataclasses.dataclass(frozen=True)
class LayerResult:
    """Best configuration found for one layer.

    ``evaluated`` counts full model evaluations; ``pruned`` counts
    candidates discarded by the cheap objective lower bound before
    evaluation (see :meth:`LayerOptimizer.optimize`).  ``objective`` is the
    objective the search ran under, so :attr:`score` reports the quantity
    the optimizer actually minimised.
    """

    layer: ConvLayer
    best: Evaluation
    evaluated: int
    objective: str = "energy"
    #: Candidates (or whole L2-tile branches, counted per outer order)
    #: discarded by the lower bound without a model evaluation.
    pruned: int = 0
    #: Bound-quality telemetry: did the *first-visited* (parallelism,
    #: L2-tile) block contain the eventual winner?  Under best-first
    #: ordering this measures how often the cheap objective lower bound
    #: ranks the winning block first (the prune's best case).  Tri-state:
    #: results recalled from the persistent cache carry the original
    #: search's value when the record has one, and ``None`` for records
    #: predating the telemetry (the absence is preserved, never coerced).
    first_block_won: bool | None = None
    #: Anytime-search telemetry: upper bound on how far :attr:`score` sits
    #: above the true optimum, computed from the unvisited blocks' lower
    #: bounds when the budget ran out.  ``0.0`` for a budgeted search that
    #: completed; ``None`` when no budget applied (including recalls).
    bound_gap: float | None = None
    #: Did the search stop early because ``options.budget_ms`` ran out?
    #: Exhausted results are best-so-far prefixes and are never cached.
    budget_exhausted: bool = False
    #: Ranked parallelism candidates displaced (not merely truncated) to
    #: keep the canonical default arrangement in the search — see
    #: :meth:`LayerOptimizer._parallelisms`.  Accumulated into
    #: :class:`repro.optimizer.engine.EngineStats`.
    parallelism_displaced: int = 0

    @property
    def score(self) -> float:
        return OBJECTIVES[self.objective](self.best)

    @property
    def considered(self) -> int:
        """Total candidates ranked: evaluated plus bound-pruned."""
        return self.evaluated + self.pruned


def layer_cost_floors(
    layer: ConvLayer, arch: AcceleratorConfig
) -> tuple[float, float, float]:
    """Candidate-independent cost floors of one layer on one machine.

    Returns ``(energy_floor_pj, cycles_floor, static_pj_per_cycle)``:
    every configuration pays the full MACC energy, the unconditional
    ALU-side L0 reads (one input byte per vector round, one weight byte
    per MAC — Section IV-A2), at least ``maccs / peak`` cycles, and the
    machine's leakage for every cycle it runs.  The formulas are shared
    with the real models (:func:`alu_read_bytes`,
    :func:`repro.core.energy_model.static_pj_per_cycle`) so bound and
    model cannot drift apart.
    """
    from repro.core.access_model import alu_read_bytes
    from repro.core.energy_model import static_pj_per_cycle

    maccs = layer.maccs
    inner = arch.num_levels - 1
    input_reads, weight_reads = alu_read_bytes(
        maccs, arch.vector_width, arch.precision
    )
    alu_read_pj = (
        input_reads * arch.read_pj_per_byte(inner, DataType.INPUTS)
        + weight_reads * arch.read_pj_per_byte(inner, DataType.WEIGHTS)
    )
    energy_floor = arch.technology.macc_energy_pj(maccs) + alu_read_pj
    cycles_floor = maccs / arch.peak_maccs_per_cycle
    return energy_floor, cycles_floor, static_pj_per_cycle(arch)


def boundary_dram_bytes(
    layer: ConvLayer,
    arch: AcceleratorConfig,
    l2_tile: TileShape,
    outer_order: LoopOrder,
) -> tuple[float, float]:
    """DRAM ``(read_bytes, write_bytes)`` every candidate sharing this
    last-level tile and outer order must move (the parallelism-independent
    part of :func:`objective_lower_bound`, split out so the search can
    memoise the one expensive traffic-model call per (tile, order) and
    recombine it cheaply with per-parallelism floors)."""
    precision = arch.precision
    profile = boundary_fill_profile(
        layer, TileShape.full(layer), l2_tile, outer_order, precision
    )
    out_psum_bytes = layer.output_elements * precision.psum_bytes
    psum_fill = profile[DataType.PSUMS][1]
    spill = max(0, psum_fill - out_psum_bytes)
    read_bytes = (
        profile[DataType.INPUTS][1]
        + profile[DataType.WEIGHTS][1]
        + spill  # psum re-loads mirror spills
    )
    write_bytes = spill + layer.output_elements * precision.activation_bytes
    return read_bytes, write_bytes


def parallelism_utilization_ceiling(
    arch: AcceleratorConfig,
    parallelism: Parallelism,
    l2_tile: TileShape,
) -> float:
    """Upper bound on the utilization any candidate in one
    (parallelism, L2-tile) block can sustain.

    The real model (:func:`repro.core.performance_model.compute_utilization`)
    multiplies ``degree / total_pes`` by per-dim load-imbalance factors
    ``imbalance(tiles, degree) = tiles / (ceil(tiles/degree) * degree)``
    at the cluster and PE levels, and a vector-lane factor on the
    innermost K tile.  Each factor is bounded above by what the L2 tile
    extents allow:

    * on 3+-level machines the cluster-level tile count is at most the L2
      extent (mid tiles are clipped to their parent), so the cluster
      factor is at most ``min(1, extent / cluster_degree)``; likewise the
      PE-level count is at most the mid-tile extent <= L2 extent.  On
      2-level machines the cluster "parent" is the whole layer, so only
      the PE-level factor (whose parent *is* the L2 tile) is bounded.
    * ``imbalance(t, g) <= min(1, t/g)`` for every ``t``, and the
      vector-lane factor is at most ``min(1, K_extent / Vw)``.

    Maximising each factor independently can only overestimate, so the
    product is a true ceiling: a small tile spread across a high degree
    provably idles PEs no matter how sub-tiles are allocated.  This is
    what differentiates blocks that share an L2 tile but not a
    parallelism — the PR 4 bound could not tell them apart.
    """
    cluster_par, pe_par = split_parallelism(
        parallelism, arch.clusters, arch.pes_per_cluster
    )
    ceiling = parallelism.degree / arch.total_pes
    bound_clusters = arch.num_levels >= 3
    for dim in (Dim.W, Dim.H, Dim.K, Dim.F):
        extent = l2_tile.extent(dim)
        if bound_clusters:
            ceiling *= min(1.0, extent / cluster_par.of(dim))
        ceiling *= min(1.0, extent / pe_par.of(dim))
    ceiling *= min(1.0, l2_tile.extent(Dim.K) / arch.vector_width)
    return ceiling


def parallelism_replication_floor_pj(
    layer: ConvLayer, arch: AcceleratorConfig, parallelism: Parallelism
) -> float:
    """Replication energy every candidate under one parallelism must pay.

    The energy model charges innermost-buffer *writes* at ``fill_bytes *
    replication`` (:func:`repro.core.energy_model.energy_accumulation_kernel`:
    ``dest_bytes = fills * repl[child]``), and every weight element is
    installed into the innermost buffers at least once — weights have no
    halo or stride subtleties, so the total fill can never undercut the
    region.  Spreading parallelism across weight-irrelevant dims (W, H,
    F) therefore multiplies a floor of ``weight_bytes *
    replication(WEIGHTS)`` L0 writes, charged at that level's write cost.
    No other term of the bound counts L0 writes, so the floor is purely
    additive tightening.
    """
    inner = arch.num_levels - 1
    weight_bytes = layer.weight_bytes(arch.precision.weight_bytes)
    return (
        weight_bytes
        * parallelism.replication(DataType.WEIGHTS)
        * arch.write_pj_per_byte(inner, DataType.WEIGHTS)
    )


def bound_from_terms(
    layer: ConvLayer,
    arch: AcceleratorConfig,
    objective: str,
    floors: tuple[float, float, float],
    read_bytes: float,
    write_bytes: float,
    utilization_ceiling: float = 1.0,
    replication_floor_pj: float = 0.0,
) -> float:
    """Combine memoised bound ingredients into one objective lower bound
    (the cheap tail of :func:`objective_lower_bound`)."""
    energy_floor, cycles_floor, static_pj_per_cycle = floors
    tech = arch.technology
    cycles_lb = max(
        cycles_floor / utilization_ceiling,
        (read_bytes + write_bytes)
        / arch.noc.boundary_bandwidth_bytes_per_cycle(0),
    )
    if objective == "latency":
        return cycles_lb
    energy_lb = (
        tech.dram_energy_pj(read_bytes + write_bytes)
        + energy_floor
        + replication_floor_pj
        + static_pj_per_cycle * cycles_lb
    )
    if objective == "energy":
        return energy_lb
    if objective == "edp":
        return energy_lb * 1e-12 * cycles_lb / tech.clock_hz
    if objective == "perf_per_watt":
        return -layer.maccs / (energy_lb * 1e-12)
    raise ValueError(f"no lower bound for objective {objective!r}")


def objective_lower_bound(
    layer: ConvLayer,
    arch: AcceleratorConfig,
    l2_tile: TileShape,
    outer_order: LoopOrder,
    objective: str,
    floors: tuple[float, float, float] | None = None,
    parallelism: Parallelism | None = None,
) -> float:
    """Cheap lower bound on an objective for one (L2 tile, outer order)
    — and, when ``parallelism`` is given, one candidate block.

    Every candidate sharing the last-level tile and outer loop order moves
    at least the DRAM traffic implied by that boundary (parallelism never
    splits the DRAM boundary's loops — clusters and PEs divide the inner
    levels), and additionally pays the candidate-independent floors of
    :func:`layer_cost_floors`:

    * ``energy >= dram_pj + macc_pj + alu_l0_pj + repl_pj + leakage * cycles_lb``,
    * ``cycles >= max(maccs / (peak * util_ceiling), dram_bytes / dram_bandwidth)``,

    with the edp / perf-per-watt bounds derived from those.  The
    parallelism-aware terms — ``util_ceiling`` from
    :func:`parallelism_utilization_ceiling` and ``repl_pj`` from
    :func:`parallelism_replication_floor_pj` — differentiate blocks that
    share an L2 tile but split the machine differently; with
    ``parallelism=None`` they degrade to 1 and 0 and the bound is the
    parallelism-blind PR 4 one.  Only one boundary of the traffic model
    runs — no sub-tile allocation, performance or energy model — so the
    optimizer can discard whole branches of the candidate space without
    evaluating them.
    """
    if floors is None:
        floors = layer_cost_floors(layer, arch)
    read_bytes, write_bytes = boundary_dram_bytes(
        layer, arch, l2_tile, outer_order
    )
    utilization_ceiling = 1.0
    replication_floor = 0.0
    if parallelism is not None:
        utilization_ceiling = parallelism_utilization_ceiling(
            arch, parallelism, l2_tile
        )
        replication_floor = parallelism_replication_floor_pj(
            layer, arch, parallelism
        )
    return bound_from_terms(
        layer, arch, objective, floors, read_bytes, write_bytes,
        utilization_ceiling, replication_floor,
    )


def _beam_pairs(beams, keep: int):
    """A block's ``(inner index, beam index)`` pairs in legacy-rank
    order: each inner order's first ``keep`` beams, skipping orders with
    no allocation (``None``).  A block's rows are these pairs times its
    outer orders, the outer order varying fastest."""
    for i, order_beams in enumerate(beams):
        if order_beams is not None:
            yield from ((i, b) for b in range(min(len(order_beams), keep)))


class LayerOptimizer:
    """Searches configurations for single layers on one accelerator."""

    def __init__(
        self,
        arch: AcceleratorConfig,
        options: OptimizerOptions | None = None,
    ) -> None:
        from repro.optimizer import engine

        self.arch = arch
        self.options = options or OptimizerOptions()
        self._score = OBJECTIVES[self.options.objective]

        def resolve(field: str):
            """The option's value, or its engine default when ``None``."""
            value = getattr(self.options, field)
            if value is None:
                return getattr(engine, f"default_{field}")()
            return value

        self.vectorize = resolve("vectorize")
        if self.vectorize:
            from repro.core import batch

            self.vectorize = batch.available
        self.budget_ms = resolve("budget_ms")
        self.max_table_bytes = resolve("max_table_bytes")

    # ------------------------------------------------------------------
    def _outer_orders(self, layer: ConvLayer, l2_tile: TileShape) -> list[LoopOrder]:
        fixed = self.options.fixed_outer_order or self.arch.fixed_outer_order
        if fixed is not None:
            return [fixed]
        orders = loop_order_candidates(
            exhaustive=self.options.exhaustive_orders,
            representative=REPRESENTATIVE_OUTER_ORDERS,
        )
        return dedupe_orders_by_signature(orders, TileShape.full(layer), l2_tile)

    def _inner_orders(self) -> list[LoopOrder]:
        fixed = self.options.fixed_inner_order or self.arch.fixed_inner_order
        if fixed is not None:
            return [fixed]
        return loop_order_candidates(
            exhaustive=self.options.exhaustive_orders,
            representative=REPRESENTATIVE_INNER_ORDERS,
        )

    def _parallelisms(self, layer: ConvLayer) -> tuple[list[Parallelism], int]:
        """Parallelism candidates plus the displacement count.

        The second element counts ranked candidates *displaced* (not merely
        truncated) so the canonical default could take the last kept slot —
        surfaced as :attr:`LayerResult.parallelism_displaced` and rolled up
        into engine stats, so a too-small ``max_parallelism_candidates``
        shows up in telemetry instead of silently shrinking the search.
        """
        fixed = self.options.fixed_parallelism or self.arch.fixed_parallelism
        if fixed is not None:
            return [fixed], 0
        candidates = parallelism_candidates(self.arch, layer)
        # Always keep the canonical arrangement (K across clusters, H
        # across PEs — Morph-base's choice) in the search so a flexible
        # machine can never do worse than the inflexible default.  Append
        # it *before* truncating so the candidate list never exceeds
        # ``max_parallelism_candidates``; if truncation would drop it, it
        # takes the last kept slot (with a budget of 1 that means the
        # default is the whole search — the cap wins over ranking).
        default = Parallelism(k=self.arch.clusters, h=self.arch.pes_per_cluster)
        if default not in candidates:
            candidates = [*candidates, default]
        chosen = candidates[: self.options.max_parallelism_candidates]
        if not chosen:
            return [default], 0
        displaced = 0
        if default not in chosen:
            chosen[-1] = default
            displaced = 1
        assert len(set(chosen)) == len(chosen), (
            f"duplicate parallelism candidates for {layer.name}: {chosen}"
        )
        return chosen, displaced

    def _bound_closures(
        self,
        layer: ConvLayer,
        floors: tuple[float, float, float],
        parallelisms: list[Parallelism] | tuple[Parallelism, ...],
        l2_tiles: list[TileShape],
    ):
        """Memoised lower-bound closures of one search.

        Returns ``(outers_for, bound_for, block_bound)``: the deduped
        outer orders of an L2 tile, the objective lower bound of one
        (parallelism, L2-tile, outer-order) branch, and the bound of a
        whole (parallelism, L2-tile) block (its minimum over the tile's
        outer orders).  The expensive traffic-model term is memoised per
        (tile, outer order); the parallelism-aware floors per
        (parallelism, tile) and per parallelism — so tightening the bound
        with :attr:`OptimizerOptions.parallel_floors` costs arithmetic,
        not extra traffic-model runs.
        """
        objective = self.options.objective
        use_floors = self.options.parallel_floors

        @functools.cache
        def outers_for(l2_tile: TileShape) -> list[LoopOrder]:
            return self._outer_orders(layer, l2_tile)

        @functools.cache
        def dram_bytes(l2_tile: TileShape, outer: LoopOrder):
            return boundary_dram_bytes(layer, self.arch, l2_tile, outer)

        @functools.cache
        def utilization_ceiling(p_idx: int, t_idx: int) -> float:
            return parallelism_utilization_ceiling(
                self.arch, parallelisms[p_idx], l2_tiles[t_idx]
            )

        @functools.cache
        def replication_floor(p_idx: int) -> float:
            return parallelism_replication_floor_pj(
                layer, self.arch, parallelisms[p_idx]
            )

        @functools.cache
        def bound_for(p_idx: int, t_idx: int, outer: LoopOrder) -> float:
            parallel_terms = (1.0, 0.0)
            if use_floors:
                parallel_terms = (
                    utilization_ceiling(p_idx, t_idx), replication_floor(p_idx)
                )
            return bound_from_terms(
                layer, self.arch, objective, floors,
                *dram_bytes(l2_tiles[t_idx], outer), *parallel_terms,
            )

        def block_bound(p_idx: int, t_idx: int) -> float:
            return min(
                bound_for(p_idx, t_idx, outer)
                for outer in outers_for(l2_tiles[t_idx])
            )

        return outers_for, bound_for, block_bound

    # ------------------------------------------------------------------
    def optimize(self, layer: ConvLayer) -> LayerResult:
        """Find the best configuration for ``layer`` under the objective.

        A cheap per-(L2 tile, outer order) lower bound on the objective
        (:func:`objective_lower_bound`) prunes candidates that provably
        cannot beat the incumbent before the full analytic models run;
        the returned best configuration is identical to an unpruned sweep.

        By default the (parallelism, L2-tile) candidate blocks are visited
        best-first — ascending by each block's objective lower bound
        (:func:`repro.optimizer.space.candidate_blocks`) — so the
        incumbent reaches near-optimal almost immediately and the prune
        discards most of the space.  **The chosen configuration and score
        are bit-identical to the legacy visit order** (and to an unpruned
        sweep): candidates are ranked lexicographically by
        ``(score, legacy enumeration rank)``, so equal-score ties resolve
        by candidate identity no matter when each candidate is visited,
        and the bound only discards candidates that provably lose that
        comparison.  ``options.search_order="legacy"`` restores the
        historical order (for A/B measurement; results are identical).

        One block loop (:meth:`_search`) runs the search with a pluggable
        block evaluator.  With vectorization on (the default) it is the
        columnar evaluator: each L2 tile's candidates are lowered into one
        table and scored by :mod:`repro.core.batch` — same equations, same
        chosen configuration and score, a fraction of the time.  Without
        it (or without NumPy) the scalar evaluator runs :func:`evaluate`
        per candidate: the reference oracle.  ``evaluated``/``pruned``
        counters can differ slightly between the two because the columnar
        evaluator offers its block winner to the incumbent once per block
        rather than once per candidate.
        """
        if self.vectorize:
            return self._search(layer, _ColumnarBlocks)
        return self._search(layer, _ScalarBlocks)

    def _search(self, layer: ConvLayer, evaluator_type) -> LayerResult:
        """The block loop, shared by every evaluator.

        Per ``(parallelism, L2 tile)`` block it polls the budget, prunes
        the whole branch when no outer order's bound can displace the
        incumbent, and otherwise yields the block's rows lazily — [inner
        order x allocation x outer order], each with its legacy rank, the
        allocations (and the evaluator's tile table) coming from one
        allocator call per L2 tile — skipping (and counting) rows whose
        bound cannot win at the moment they are pulled.  The evaluator
        drains those rows and offers scores back; offers displace the
        incumbent under the ``(score, legacy rank)`` order.  When the winner is materialised its scalar
        re-evaluation must reproduce the offered score bit for bit;
        otherwise (e.g. the columnar int64 arithmetic left the scalar
        path's exact-integer envelope on a pathological layer) the search
        reruns on the scalar evaluator rather than return a silently
        mis-ranked configuration.
        """
        floors = layer_cost_floors(layer, self.arch)
        l2_tiles = last_level_tile_candidates(
            layer,
            self.arch,
            max_candidates=self.options.max_l2_candidates,
            vectorize=evaluator_type.vectorize,
        )
        inner_orders = tuple(self._inner_orders())
        parallelisms, displaced = self._parallelisms(layer)
        evaluator = evaluator_type(self, layer, parallelisms, inner_orders)
        outers_for, bound_for, block_bound = self._bound_closures(
            layer, floors, parallelisms, l2_tiles
        )
        #: (level, upper extents) -> sub-tile candidates, shared across
        #: the allocations of the search (candidates depend on nothing
        #: else, in particular not on the inner order).
        candidate_memo: dict = {}
        #: L2-tile index -> (parallelism index -> per-inner-order beams,
        #: the evaluator's tile table, parallelisms still to visit).  A
        #: tile opens at its first unpruned block visit, with one
        #: allocator call and one table covering every parallelism whose
        #: block can still beat the incumbent then: the incumbent only
        #: improves, so no later block of the tile needs one left out
        #: (docs/INVARIANTS.md).  It closes once its last such block has
        #: been visited.  A budgeted search may stop at any block, so it
        #: opens a tile for the visited block alone.
        open_tiles: dict[int, tuple[dict[int, list], object, set[int]]] = {}

        best = None  # the evaluator's handle on the incumbent
        best_score = float("inf")
        #: Legacy-enumeration rank (block index, row index) of the
        #: incumbent: equal-score ties resolve to the candidate the legacy
        #: order would have met first, independent of visit order.
        best_rank = (float("inf"), float("inf"))
        pruned = 0

        def can_beat(value: float, block_idx: int, row_idx) -> bool:
            """Could a candidate with lower bound (or score) ``value`` at
            legacy rank ``(block_idx, row_idx)`` displace the incumbent
            under the (score, rank) lexicographic comparison?"""
            if value < best_score:
                return True
            return value == best_score and (block_idx, row_idx) < best_rank

        def admits(p_idx: int, t_idx: int, outer: LoopOrder) -> bool:
            """Can some row of the branch still beat the incumbent?"""
            return can_beat(
                bound_for(p_idx, t_idx, outer), legacy_index[p_idx, t_idx], -1
            )

        def block_live(p_idx: int, t_idx: int) -> bool:
            """Can some outer order of the block still beat the incumbent?"""
            return any(
                admits(p_idx, t_idx, o) for o in outers_for(l2_tiles[t_idx])
            )

        def open_tile(p_idx: int, t_idx: int):
            """Allocate the tile for its live parallelisms and lower the
            rows of their live branches into one table (see
            ``open_tiles``)."""
            arch = self.arch
            live = [p_idx]
            if self.budget_ms is None:
                live = [
                    q for q in range(len(parallelisms)) if block_live(q, t_idx)
                ]
            found = allocate_hierarchy(
                layer,
                arch,
                l2_tiles[t_idx],
                inner_orders,
                keep_per_level=self.options.keep_per_level,
                per_parallelism=[
                    parallel_level_degrees(
                        arch.num_levels, arch.clusters,
                        arch.pes_per_cluster, parallelisms[q],
                    )
                    for q in live
                ],
                vectorize=evaluator.vectorize,
                candidate_memo=candidate_memo,
            )
            beams = dict(zip(live, found))
            outer_orders = outers_for(l2_tiles[t_idx])
            table = evaluator.tile(outer_orders, {
                q: (beams[q], [
                    o for o, outer in enumerate(outer_orders)
                    if admits(q, t_idx, outer)
                ])
                for q in live
            })
            return beams, table, set(live)

        def rows(block_idx, p_idx, t_idx, outer_orders, beams):
            """The block's unpruned rows ``(rank, inner index, beam index,
            outer index)``, indexing ``inner_orders``, ``beams[i]`` and
            ``outer_orders``; each row's prune sees the incumbent as of
            its pull."""
            nonlocal pruned
            bounds = [bound_for(p_idx, t_idx, outer) for outer in outer_orders]
            row = -1
            for i, b in _beam_pairs(beams, keep_allocations):
                for q, bound in enumerate(bounds):
                    row += 1
                    if not can_beat(bound, block_idx, row):
                        pruned += 1
                        continue
                    yield row, i, b, q

        best_first = self.options.search_order == "best_first"
        blocks = candidate_blocks(
            parallelisms, l2_tiles, best_first=best_first,
            block_bound=block_bound if best_first else None,
        )
        legacy_index = {(p_idx, t_idx): b for b, p_idx, t_idx in blocks}
        keep_allocations = self.options.keep_allocations

        budget_ms = self.budget_ms
        clock = current_clock() if budget_ms is not None else None
        start = clock() if clock is not None else 0.0
        budget_exhausted = False
        remaining: list[tuple[int, int, int]] = []

        for pos, (block_idx, p_idx, t_idx) in enumerate(blocks):
            # Budget poll — only at block boundaries, and never before a
            # feasible block has completed, so a budgeted result is always
            # a valid best-so-far and an exact *prefix* of the unbudgeted
            # search (bit-identical whenever the budget is not hit).
            if (
                clock is not None
                and best is not None
                and clock() - start >= budget_ms
            ):
                budget_exhausted = True
                remaining = blocks[pos:]
                break
            outer_orders = outers_for(l2_tiles[t_idx])
            # Branch-level prune: if no outer order of this block can
            # displace the incumbent, skip the whole sub-tile allocation.
            if block_live(p_idx, t_idx):
                tile = open_tiles.get(t_idx)
                if tile is None:
                    tile = open_tiles[t_idx] = open_tile(p_idx, t_idx)
                beams, table = tile[0][p_idx], tile[1]
                block_rows = rows(block_idx, p_idx, t_idx, outer_orders, beams)
                offers = evaluator.offers(
                    table, p_idx, outer_orders, beams, block_rows
                )
                for score, row, handle in offers:
                    if can_beat(score, block_idx, row):
                        best, best_score = handle, score
                        best_rank = (block_idx, row)
            else:
                pruned += len(outer_orders)
            tile = open_tiles.get(t_idx)
            if tile is not None:
                tile[2].discard(p_idx)
                if not tile[2]:  # the tile's last live block: drop it
                    del open_tiles[t_idx]

        if best is None:
            raise CapacityError(
                f"no feasible configuration for {layer.name} on {self.arch.name}"
            )
        best = evaluator.materialize(best)
        if self._score(best) != best_score:
            return self._search(layer, _ScalarBlocks)
        bound_gap: float | None = None
        if budget_ms is not None:
            # Optimality-gap certificate: how far the best-so-far score
            # could sit above the true optimum, from the unvisited blocks'
            # lower bounds (0.0 when none could win, or none were skipped).
            lowest = min(
                (block_bound(p_idx, t_idx) for _, p_idx, t_idx in remaining),
                default=best_score,
            )
            bound_gap = max(0.0, best_score - lowest)
        return LayerResult(
            layer=layer,
            best=best,
            evaluated=evaluator.evaluated,
            objective=self.options.objective,
            pruned=pruned,
            first_block_won=bool(blocks) and best_rank[0] == blocks[0][0],
            bound_gap=bound_gap,
            budget_exhausted=budget_exhausted,
            parallelism_displaced=displaced,
        )


class _ScalarBlocks:
    """Block evaluator running the reference models per candidate.

    Each pulled row is evaluated and offered before the next is pulled,
    so the loop's per-row prune sees the live incumbent.  Handles are the
    :class:`Evaluation` itself.
    """

    vectorize = False

    def __init__(
        self,
        optimizer: LayerOptimizer,
        layer: ConvLayer,
        parallelisms: list[Parallelism],
        inner_orders: tuple[LoopOrder, ...],
    ) -> None:
        self.layer = layer
        self.arch = optimizer.arch
        self.score = optimizer._score
        self.parallelisms = parallelisms
        self.inner_orders = inner_orders
        self.evaluated = 0

    @staticmethod
    def tile(outer_orders, live) -> None:
        return None

    def offers(self, table, p_idx: int, outer_orders, beams, rows):
        par = self.parallelisms[p_idx]
        for row, i, b, q in rows:
            hierarchy = TileHierarchy(self.layer, beams[i][b])
            dataflow = Dataflow(
                outer_orders[q], self.inner_orders[i], hierarchy, par
            )
            try:
                ev = evaluate(dataflow, self.arch)
            except CapacityError:
                continue
            self.evaluated += 1
            yield self.score(ev), row, ev

    @staticmethod
    def materialize(handle: Evaluation) -> Evaluation:
        return handle


class _ColumnarBlocks:
    """Block evaluator scoring each L2 tile as one candidate table.

    :meth:`tile` lowers the rows of every live branch of a tile's live
    blocks into one :class:`repro.core.batch.CandidateBatch`, block by
    block in legacy-rank order.  A block's visit drains its rows before
    scoring, so the loop's per-row prune sees the block-start incumbent,
    then offers the first-minimum of the drained rows
    (:meth:`~repro.core.batch.CandidateBatch.best` with ``rows=``), whose
    score column is computed once per table.  Among equal scores the
    first minimum is also the lowest rank.  Handles are ``(batch, row)``
    pairs, materialised through the scalar models.
    """

    vectorize = True

    def __init__(
        self,
        optimizer: LayerOptimizer,
        layer: ConvLayer,
        parallelisms: list[Parallelism],
        inner_orders: tuple[LoopOrder, ...],
    ) -> None:
        self.layer = layer
        self.arch = optimizer.arch
        self.objective = optimizer.options.objective
        self.max_table_bytes = optimizer.max_table_bytes
        self.keep_allocations = optimizer.options.keep_allocations
        self.parallelisms = tuple(parallelisms)
        #: Stable order registry shared by outer and inner columns.
        self.order_index: dict[LoopOrder, int] = {}
        self.inner_ids = [self._index_of(order) for order in inner_orders]
        self.evaluated = 0

    def _index_of(self, order: LoopOrder) -> int:
        return self.order_index.setdefault(order, len(self.order_index))

    def tile(self, outer_orders, live):
        """One L2 tile's table: ``(batch, row_of, rank)``.

        ``live`` maps each live parallelism to its beams and the indices
        of its outer orders that can still win; only rows under those
        orders enter, block by block in legacy-rank order.
        ``row_of[p]`` maps block ``p``'s legacy ranks to table rows
        (``-1`` for rows left out) and ``rank`` maps table rows back.
        """
        import numpy as np

        from repro.core.batch import CandidateBatch

        outer_ids = np.array(
            [self._index_of(order) for order in outer_orders], dtype=np.int64
        )
        #: Per (inner order, beam) pair: its extents, inner id and copies
        #: (one per admitted outer order).
        extents, inner, copies = [], [], []
        outer, par, ranks = [], [], []
        row_of: dict[int, "np.ndarray"] = {}
        start = 0
        for p_idx, (beams, admitted) in live.items():
            pairs = list(_beam_pairs(beams, self.keep_allocations))
            kept = np.zeros(len(outer_orders), dtype=bool)
            kept[admitted] = True
            kept = np.tile(kept, len(pairs))
            n = len(admitted) * len(pairs)
            row_of[p_idx] = np.full(kept.size, -1, dtype=np.int64)
            row_of[p_idx][kept] = np.arange(start, start + n)
            start += n
            # The allocator's per-level extents, lowered without TileShapes.
            extents.extend(beams[i].extents[b] for i, b in pairs)
            inner.extend(self.inner_ids[i] for i, _ in pairs)
            copies.extend([len(admitted)] * len(pairs))
            outer.append(np.tile(outer_ids[admitted], len(pairs)))
            par.append(np.full(n, p_idx, dtype=np.int64))
            ranks.append(np.flatnonzero(kept))
        if not start:
            return None
        batch = CandidateBatch(
            self.layer,
            self.arch,
            tuple(self.order_index),
            self.parallelisms,
            # (pairs, levels, dims) -> (levels, dims, rows)
            np.repeat(
                np.array(extents, dtype=np.int64).transpose(1, 2, 0),
                copies, axis=2,
            ),
            np.concatenate(outer),
            np.repeat(np.array(inner, dtype=np.int64), copies),
            np.concatenate(par),
        )
        return batch, row_of, np.concatenate(ranks)

    def offers(self, table, p_idx: int, outer_orders, beams, rows):
        import numpy as np

        drained = [row for row, _, _, _ in rows]
        if not drained:
            return
        batch, row_of, rank = table
        picked = row_of[p_idx][drained]
        # The table holds every row a block can drain (docs/INVARIANTS.md).
        assert picked.min() >= 0, "drained a row its tile table left out"
        # First minimum of the block's rows (in legacy-rank order) wins;
        # a ``max_table_bytes`` cap chunks the table's score pass, which
        # is bit-identical to the unchunked one.
        winner, score, finite = batch.best(
            self.objective, rows=picked, max_table_bytes=self.max_table_bytes
        )
        self.evaluated += finite
        # An all-infeasible block (score inf) is never offered: it could
        # tie the initial incumbent through the rank rule.
        if np.isfinite(score):
            yield score, int(rank[winner]), (batch, winner)

    @staticmethod
    def materialize(handle) -> Evaluation:
        batch, row = handle
        return batch.evaluate_row(row)


# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class NetworkResult:
    """Per-layer best configurations plus network-level aggregates."""

    network_name: str
    arch_name: str
    layers: tuple[LayerResult, ...]

    @property
    def total_energy_pj(self) -> float:
        return sum(r.best.total_energy_pj for r in self.layers)

    @property
    def total_cycles(self) -> float:
        return sum(r.best.cycles for r in self.layers)

    @property
    def total_maccs(self) -> int:
        return sum(r.best.traffic.maccs for r in self.layers)

    @property
    def perf_per_watt(self) -> float:
        """Network MACs per joule (energy includes runtime-static)."""
        return self.total_maccs / (self.total_energy_pj * 1e-12)

    def energy_components_pj(self) -> dict[str, float]:
        """Summed Figure 9 components across layers."""
        totals: dict[str, float] = {}
        for result in self.layers:
            for name, pj in result.best.energy.figure9_components().items():
                totals[name] = totals.get(name, 0.0) + pj
        return totals

    def layer_result(self, layer_name: str) -> LayerResult:
        for result in self.layers:
            if result.layer.name == layer_name:
                return result
        raise KeyError(layer_name)


def optimize_network(
    layers: Iterable[ConvLayer],
    arch: AcceleratorConfig,
    options: OptimizerOptions | None = None,
    *,
    network_name: str = "network",
    use_cache: bool | None = None,
    parallelism: int | None = None,
    parallelism_mode: str | None = None,
    cache_dir=None,
    cache_backend=None,
    vectorize: bool | None = None,
    budget_ms: float | None = None,
    max_table_bytes: int | None = None,
) -> NetworkResult:
    """Optimize each layer of a network through the optimizer engine.

    The paper notes these optimizations "need only be performed once per
    CNN" with the configuration saved and recalled (Section V) — the
    engine (:mod:`repro.optimizer.engine`) plays that role: unique layer
    shapes are searched once (duplicates fan the result back out), results
    are memoised in-process keyed on *content* (layers + arch + options,
    never the network name), and, when a cache directory is configured,
    recalled from versioned on-disk configuration files across runs.

    ``parallelism`` > 1 fans unique-layer searches out across worker
    processes — or threads with ``parallelism_mode="thread"`` (the right
    executor on free-threaded builds); ``None`` defers to the active
    session / ``REPRO_PARALLELISM`` / ``REPRO_PARALLELISM_MODE``.  ``cache_dir``
    likewise defaults to ``REPRO_CACHE_DIR`` when unset, and
    ``cache_backend`` selects the config-store layout — ``"local"``
    (flat directory), ``"sharded"`` (two-level fan-out for cluster-shared
    mounts), ``"memory"`` (in-process), or any
    :class:`~repro.optimizer.config_store.ConfigStore` instance —
    defaulting to ``REPRO_CACHE_BACKEND`` / ``"local"``.
    ``use_cache=False`` disables both the in-process memo and the
    persistent cache (deduplication still applies — it never changes
    results).  ``vectorize`` selects the columnar batch evaluator
    (``None`` defers to the engine default / ``REPRO_VECTORIZE``; results
    are identical either way).  ``budget_ms`` bounds each layer search's
    wall-clock (anytime mode; ``None`` defers to the session /
    ``REPRO_BUDGET_MS`` default — see
    :attr:`OptimizerOptions.budget_ms` for the prefix/bit-identity
    contract).  ``max_table_bytes`` caps columnar table memory via
    chunked streaming — a pure speed knob with bit-identical results,
    deferring to ``REPRO_MAX_TABLE_BYTES`` when ``None`` (see
    :attr:`OptimizerOptions.max_table_bytes`).

    This function is a compatibility shim over :mod:`repro.api`: the call
    runs through the currently scoped session (or the process default
    session when none is active), so ``with repro.Session(...):`` blocks
    configure it and results are bit-identical to
    :meth:`repro.api.Session.optimize_network`.
    """
    from repro.api import current_session

    return current_session().optimize_network(
        layers,
        arch,
        options,
        network_name=network_name,
        parallelism=parallelism,
        parallelism_mode=parallelism_mode,
        cache_dir=cache_dir,
        cache_backend=cache_backend,
        use_cache=use_cache,
        vectorize=vectorize,
        budget_ms=budget_ms,
        max_table_bytes=max_table_bytes,
    )


def clear_cache() -> None:
    """Drop every in-process memo (the persistent config store survives).

    Beyond the engine's layer/network memos and the Eyeriss baseline
    cache, this also resets the model-constant memos added for the
    columnar pipeline — the :func:`split_parallelism` divisor search, the
    per-machine energy cost tables, the batch pipeline's constant columns
    and its chunk plans.
    """
    from repro.baselines import eyeriss
    from repro.core import batch, energy_model, performance_model
    from repro.optimizer import engine

    engine.clear_memory_caches()
    eyeriss.clear_cache()
    performance_model.clear_memos()
    energy_model.clear_memos()
    batch.clear_constant_caches()
