"""Configuration-space enumeration (paper Section V-A).

The optimizer's parameter list is the cartesian product of loop orders,
last-level tile sizes and parallelisation parameters.  Taken literally that
space is enormous, and the paper notes it "can be discretized" to reduce
search time.  This module provides the discretisations:

* per-dimension tile extents on a halving ladder (full, 1/2, 1/4, ... 1),
  pruned by buffer capacity, which is monotone in every extent;
* loop orders either exhaustively (all 120 permutations, deduplicated by
  the cost-equivalence signature of :func:`loop_order_signature`) or from a
  curated representative set for fast runs;
* PE parallelisations as factorisations of the PE count over H/W/K/F.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from repro.arch.accelerator import AcceleratorConfig
from repro.core.dims import ALL_DIMS, DataType, Dim
from repro.core.dataflow import Parallelism
from repro.core.layer import ConvLayer
from repro.core.loopnest import LoopOrder, all_loop_orders
from repro.core.tiling import TileShape

#: Curated loop orders covering the distinct reuse regimes: which data type
#: is kept stationary at the boundary and which dim provides slide reuse.
#: Includes every order the paper reports (Figure 4, Table III).
REPRESENTATIVE_OUTER_ORDERS = (
    "KWHCF", "KWFHC", "WFHCK", "WHCKF", "WFKHC", "FWHCK",
    "KCWHF", "WHFCK", "FKWHC", "CWHKF", "WHCFK", "CKWHF",
)
REPRESENTATIVE_INNER_ORDERS = (
    "CFWHK", "CWHFK", "KCFWH", "WHCKF", "WHKFC", "KFWHC",
    "FWHCK", "KWHCF", "WFKHC", "CKWHF", "FKCWH", "WFHCK",
)


def pins_data_type_kernel(w, h, c, k, f, full: TileShape):
    """Does a last-level tile keep one whole data type resident?

    Figure 4b shows the best configurations pin a whole data type in the
    L2 whenever possible, so such candidates are always retained.  Written
    with bitwise ops so one rule serves scalars and candidate columns.
    """
    return (
        ((c == full.c) & (k == full.k))  # all weights resident
        | ((w == full.w) & (h == full.h) & (c == full.c) & (f == full.f))  # inputs
        | ((w == full.w) & (h == full.h) & (k == full.k) & (f == full.f))  # outputs
    )


def _select_l2_candidates(items, pinned_flags, maccs_key, max_candidates: int):
    """Shared rank/truncate: pinned first (largest-reuse), then the rest.

    ``items`` may be tiles (scalar path) or column indices (vectorized
    path); ``maccs_key`` maps an item to its MAC count.  Sorts are stable,
    so ties keep enumeration order in both paths.
    """
    pinned_flags = list(pinned_flags)  # consumed twice below
    pinned = [item for item, p in zip(items, pinned_flags) if p]
    rest = [item for item, p in zip(items, pinned_flags) if not p]
    pinned.sort(key=maccs_key, reverse=True)
    rest.sort(key=maccs_key, reverse=True)
    take_pinned = pinned[: max(max_candidates // 3, 4)]
    result = take_pinned + rest[: max_candidates - len(take_pinned)]
    return result[:max_candidates]


def halving_ladder(extent: int, *, max_steps: int = 8) -> list[int]:
    """Candidate tile extents: full size repeatedly halved, down to 1."""
    values: list[int] = []
    current = extent
    for _ in range(max_steps):
        if current not in values:
            values.append(current)
        if current == 1:
            break
        current = math.ceil(current / 2)
    if 1 not in values:
        values.append(1)
    return values


def last_level_tile_candidates(
    layer: ConvLayer,
    arch: AcceleratorConfig,
    *,
    max_candidates: int = 24,
    level_index: int = 0,
    vectorize: bool = False,
) -> list[TileShape]:
    """Feasible last-level (L2) tile shapes, largest-reuse first.

    Walks the per-dimension halving ladders depth-first, pruning branches
    whose *smallest* completion already exceeds capacity (footprints are
    monotone in every extent).  Candidates that keep one data type fully
    resident are always retained — Figure 4b shows the best configurations
    pin a whole data type in the L2 whenever possible.

    ``vectorize=True`` evaluates the whole ladder grid through one columnar
    capacity check (:func:`repro.core.batch.tile_fits_mask`) instead of the
    per-tile recursion; the candidate list is identical, in the same order.
    """
    full = TileShape.full(layer)
    ladders = {dim: halving_ladder(full.extent(dim)) for dim in ALL_DIMS}
    feasible: list[TileShape] = []
    order = list(ALL_DIMS)

    if vectorize:
        import numpy as np

        from repro.core.batch import tile_fits_mask

        # Cartesian product in the recursion's DFS order: same feasible
        # set, same sequence.  Ranking happens on columns; TileShape
        # objects are materialised only for the returned candidates.
        grid = np.array(
            list(itertools.product(*(ladders[dim] for dim in order))),
            dtype=np.int64,
        ).T
        fits = tile_fits_mask(arch, level_index, layer, grid)
        if not fits.any():
            raise ValueError(
                f"no feasible last-level tile for {layer.name} on {arch.name}"
            )
        w, h, c, k, f = grid
        maccs = w * h * f * k * c * (layer.r * layer.s * layer.t)
        pins = pins_data_type_kernel(w, h, c, k, f, full)
        feasible_idx = [int(i) for i in np.flatnonzero(fits)]
        chosen = _select_l2_candidates(
            feasible_idx, (pins[i] for i in feasible_idx),
            maccs.__getitem__, max_candidates,
        )
        return [
            TileShape.from_mapping(dict(zip(order, map(int, grid[:, i]))))
            for i in chosen
        ]
    else:

        def recurse(index: int, chosen: dict[Dim, int]) -> None:
            if index == len(order):
                tile = TileShape.from_mapping(chosen)
                if arch.tile_fits(level_index, layer, tile):
                    feasible.append(tile)
                return
            dim = order[index]
            for value in ladders[dim]:
                probe = dict(chosen)
                probe[dim] = value
                for rest in order[index + 1:]:
                    probe[rest] = 1
                if not arch.tile_fits(
                    level_index, layer, TileShape.from_mapping(probe)
                ):
                    continue  # even the minimal completion is too big
                chosen[dim] = value
                recurse(index + 1, chosen)
            chosen.pop(dim, None)

        recurse(0, {})
    if not feasible:
        raise ValueError(
            f"no feasible last-level tile for {layer.name} on {arch.name}"
        )

    flags = [
        bool(pins_data_type_kernel(t.w, t.h, t.c, t.k, t.f, full))
        for t in feasible
    ]
    return _select_l2_candidates(
        feasible, flags, lambda t: t.maccs(layer), max_candidates
    )


def loop_order_candidates(
    *, exhaustive: bool, representative: Sequence[str]
) -> list[LoopOrder]:
    if exhaustive:
        return list(all_loop_orders())
    return [LoopOrder.parse(spec) for spec in representative]


_PARALLEL_DEGREE_GRID = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 768)


def parallelism_candidates(
    arch: AcceleratorConfig,
    layer: ConvLayer,
    *,
    max_candidates: int = 12,
) -> list[Parallelism]:
    """Factorisations of the PE count over the parallelisable dims.

    Full-machine factorisations are preferred (idle PEs never help); each
    dim's degree is capped by the layer's extent along it, since more
    workers than work guarantees idling.
    """
    total = arch.total_pes
    caps = {
        Dim.K: layer.k,
        Dim.H: layer.out_h,
        Dim.W: layer.out_w,
        Dim.F: layer.out_f,
    }
    grid = [d for d in _PARALLEL_DEGREE_GRID if d <= total]
    on_grid = set(grid)
    results: list[Parallelism] = []
    # ``f`` is fixed by the other three degrees, so this walks grid^3
    # (not grid^4) in the same lexicographic (k, h, w, f) order.
    for k, h, w in itertools.product(grid, repeat=3):
        f, remainder = divmod(total, k * h * w)
        if remainder == 0 and f in on_grid:
            results.append(Parallelism(k=k, h=h, w=w, f=f))

    def slack(par: Parallelism) -> float:
        """How badly the degrees overshoot the available work (lower is
        better): product of per-dim overshoot ratios."""
        penalty = 1.0
        for dim, cap in caps.items():
            penalty *= max(1.0, par.of(dim) / max(cap, 1))
        return penalty

    results.sort(key=lambda p: (slack(p), p.replication(DataType.INPUTS)
                                + p.replication(DataType.WEIGHTS)))
    if not results:
        results = [Parallelism.none()]
    return results[:max_candidates]


def candidate_blocks(
    parallelisms: Sequence,
    l2_tiles: Sequence[TileShape],
    *,
    best_first: bool = False,
    block_bound=None,
) -> list[tuple[int, int, int]]:
    """Visit order for the search's (parallelism, L2-tile) blocks.

    Returns ``(legacy_index, parallelism_index, l2_tile_index)`` triples.
    Legacy order is the historical nesting — parallelism-major, L2-tile
    minor — and ``legacy_index`` numbers the blocks in that order; it is a
    pure function of candidate identity, never of visit order, so the
    search can break equal-score ties exactly as the legacy enumeration
    would regardless of how blocks are visited.

    With ``best_first=True``, blocks are sorted by ascending
    ``block_bound(parallelism_index, l2_tile_index)`` — the cheap
    objective lower bound of the block's best outer order
    (:func:`~repro.optimizer.search.objective_lower_bound`) — so the
    blocks most likely to contain the optimum are evaluated first and the
    incumbent-based prune bites as early as possible.  The bound's
    parallelism-aware floors (utilization ceiling, replication energy)
    differentiate blocks sharing an L2 tile; remaining ties fall back to
    legacy order, keeping the visit sequence deterministic.
    """
    blocks = [
        (p_idx * len(l2_tiles) + t_idx, p_idx, t_idx)
        for p_idx in range(len(parallelisms))
        for t_idx in range(len(l2_tiles))
    ]
    if best_first:
        bounds = {
            (p_idx, t_idx): block_bound(p_idx, t_idx)
            for _, p_idx, t_idx in blocks
        }
        blocks.sort(key=lambda block: (bounds[block[1:]], block[0]))
    return blocks


def dedupe_orders_by_signature(
    orders: Iterator[LoopOrder] | Sequence[LoopOrder],
    parent: TileShape,
    child: TileShape,
) -> list[LoopOrder]:
    """One representative per cost-equivalence class (see
    :func:`repro.core.access_model.loop_order_signature`)."""
    from repro.core.access_model import loop_order_signature

    seen: set[tuple] = set()
    result: list[LoopOrder] = []
    for order in orders:
        sig = loop_order_signature(parent, child, order)
        if sig not in seen:
            seen.add(sig)
            result.append(order)
    return result
