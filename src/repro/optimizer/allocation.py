"""Sub-tile memory allocation heuristic (paper Section V-C).

Given a level-``n+1`` tile, ``allocate`` finds level-``n`` sub-tile shapes
such that ``Tmin <= Tn <= Tn+1``, the summed footprints respect the buffer
(policy-aware: static partitions or bank-granular sharing), and ``f_reuse``
— the ratio of compute per byte filled across the boundary — is maximised.

The candidate generator follows the paper: for a D-dimensional tile it
proposes the ``2^D`` corners where each dimension is at its minimum or
maximum, which we extend with geometric midpoints and a greedy
"halve-the-biggest-footprint" ladder so that layers whose corners are all
infeasible still allocate well.

There is one halving-ladder loop (:func:`candidate_sub_tiles`) and one
beam loop (:func:`allocate_hierarchy`).  Each takes its scoring and
fitting from a hook chosen by ``vectorize``: the scalar hook calls the
reference kernels (:func:`f_reuse`, ``_footprint_gradient``,
``AcceleratorConfig.tile_fits``) per tile, and the columnar hook answers
the same questions with batched NumPy passes (bit-identical scores and
masks).  NumPy is imported only inside the columnar hook, so the scalar
path runs without it.
"""

from __future__ import annotations

import itertools
import math

from repro.arch.accelerator import AcceleratorConfig
from repro.core.access_model import boundary_fill_profile
from repro.core.dims import ALL_DIMS, Dim
from repro.core.layer import ConvLayer
from repro.core.loopnest import LoopOrder
from repro.core.tiling import TileShape


def f_reuse(
    layer: ConvLayer,
    parent: TileShape,
    child: TileShape,
    inner_order: LoopOrder,
    arch: AcceleratorConfig,
) -> float:
    """Compute per fill-byte across the boundary (higher is better).

    The paper's ``freuse`` "calculates the ratio of buffer fills (from a
    higher level buffer) to reads and updates (from lower levels)"; we score
    the equivalent compute-per-byte so bigger parents aren't penalised.
    """
    profile = boundary_fill_profile(layer, parent, child, inner_order, arch.precision)
    fill_bytes = sum(bytes_ for _, bytes_ in profile.values())
    return parent.maccs(layer) / max(fill_bytes, 1)


def _mid(lo: int, hi: int) -> int:
    """Geometric midpoint, biased up, clamped to [lo, hi]."""
    return max(lo, min(hi, round(math.sqrt(lo * hi))))


def _seed_candidates(
    parent: TileShape, cap: TileShape | None
) -> tuple[dict[Dim, tuple[int, int]], set[tuple[int, ...]]]:
    """Per-dim (min, max) bounds plus the corner/midpoint candidate seed.

    Its insertion sequence, extended only by the halving ladder of
    :func:`candidate_sub_tiles`, fixes the set's iteration order and so
    the downstream tie-break order; both allocator hooks see the same
    sequence because the ladder loop itself is shared.
    """
    dims = list(ALL_DIMS)
    bounds = {
        dim: (
            1,
            min(parent.extent(dim), cap.extent(dim) if cap else parent.extent(dim)),
        )
        for dim in dims
    }
    candidates: set[tuple[int, ...]] = set()

    # 2^D corners (Section V-C).
    for mask in itertools.product((0, 1), repeat=len(dims)):
        candidates.add(tuple(bounds[dim][bit] for dim, bit in zip(dims, mask)))

    # Geometric midpoints: all-mid, and each dim at max with others mid.
    mid = tuple(_mid(*bounds[dim]) for dim in dims)
    candidates.add(mid)
    for i, dim in enumerate(dims):
        boosted = list(mid)
        boosted[i] = bounds[dim][1]
        candidates.add(tuple(boosted))
    return bounds, candidates


def _tile_columns(tiles: list[TileShape]):
    """(5, N) int64 columns of a tile list (ALL_DIMS order)."""
    import numpy as np

    return np.array(
        [
            [tile.w for tile in tiles],
            [tile.h for tile in tiles],
            [tile.c for tile in tiles],
            [tile.k for tile in tiles],
            [tile.f for tile in tiles],
        ],
        dtype=np.int64,
    )


def _f_reuse_scores(
    layer: ConvLayer,
    parents: list[TileShape],
    children: list[TileShape],
    inner_order: LoopOrder,
    arch: AcceleratorConfig,
):
    """Columnar :func:`f_reuse` over many (parent, child) pairs.

    Same equations through :func:`repro.core.batch.boundary_fill_bytes_sum`;
    scores are bit-identical to calling :func:`f_reuse` per pair.
    """
    import numpy as np

    from repro.core.batch import boundary_fill_bytes_sum

    maccs = np.array([p.maccs(layer) for p in parents], dtype=np.int64)
    fill_bytes = boundary_fill_bytes_sum(
        layer, arch.precision, _tile_columns(parents), _tile_columns(children),
        inner_order,
    )
    return maccs / np.maximum(fill_bytes, 1)


def _footprint_gradient(
    layer: ConvLayer, tile: TileShape, dim: Dim, arch: AcceleratorConfig
) -> int:
    """Bytes freed by halving ``dim`` — used to pick what to shrink."""
    if tile.extent(dim) == 1:
        return -1
    halved = TileShape.from_mapping(
        {d: (math.ceil(tile.extent(d) / 2) if d is dim else tile.extent(d))
         for d in ALL_DIMS}
    )
    return tile.total_bytes(layer, arch.precision) - halved.total_bytes(
        layer, arch.precision
    )


class _ScalarHooks:
    """Per-tile scoring and fitting: the reference kernels."""

    @staticmethod
    def scores(layer, parents, children, inner_order, arch) -> list[float]:
        return [
            f_reuse(layer, parent, child, inner_order, arch)
            for parent, child in zip(parents, children)
        ]

    @staticmethod
    def heaviest(layer, arch, extents: list[int]) -> int:
        tile = TileShape(*extents)
        return max(
            range(len(ALL_DIMS)),
            key=lambda d: _footprint_gradient(layer, tile, ALL_DIMS[d], arch),
        )

    @staticmethod
    def fits(layer, arch, level_index: int, tiles: list[TileShape]) -> list[bool]:
        return [arch.tile_fits(level_index, layer, tile) for tile in tiles]


class _ColumnarHooks:
    """The same answers from batched NumPy passes over many tiles."""

    scores = staticmethod(_f_reuse_scores)

    @staticmethod
    def heaviest(layer, arch, extents: list[int]) -> int:
        """All five halving gradients from one columnar footprint pass."""
        import numpy as np

        from repro.core.batch import tile_bytes_columns

        probes = np.empty((5, 6), dtype=np.int64)
        probes[:, 0] = extents
        for d in range(5):
            probes[:, d + 1] = extents
            probes[d, d + 1] = -(-extents[d] // 2)
        bytes_by_type = tile_bytes_columns(layer, arch.precision, probes)
        totals = sum(bytes_by_type[dt] for dt in bytes_by_type)
        gradients = [
            -1 if extents[d] == 1 else int(totals[0] - totals[d + 1])
            for d in range(5)
        ]
        return int(np.argmax(gradients))  # first max, like max()

    @staticmethod
    def fits(layer, arch, level_index: int, tiles: list[TileShape]):
        from repro.core.batch import tile_fits_mask

        return tile_fits_mask(arch, level_index, layer, _tile_columns(tiles))


def _hooks(vectorize: bool):
    return _ColumnarHooks if vectorize else _ScalarHooks


def _ranked(indices, scores) -> list[int]:
    """``indices`` by descending score; ties keep their given order."""
    return sorted(indices, key=scores.__getitem__, reverse=True)


def candidate_sub_tiles(
    layer: ConvLayer,
    arch: AcceleratorConfig,
    level_index: int,
    parent: TileShape,
    *,
    cap: TileShape | None = None,
    vectorize: bool = False,
    memo: dict | None = None,
) -> list[TileShape]:
    """Corner + midpoint + halving-ladder candidates, capacity-filtered.

    ``cap`` bounds each dimension's maximum from above; the search uses it
    to guarantee enough sub-tiles exist along parallelised dims for every
    PE/cluster to receive work (tile sizes and parallelism are co-designed,
    Section V-A's joint configuration vector).

    ``vectorize=True`` computes the ladder's footprint gradients and the
    final capacity filter in columnar passes (same candidates, same
    order).  Since the result depends only on ``(level_index, parent,
    cap)``, an optional ``memo`` dict shares it across the inner-order
    loop of a search.
    """
    key = (level_index, parent, cap)
    if memo is not None and key in memo:
        return memo[key]
    hooks = _hooks(vectorize)
    bounds, candidates = _seed_candidates(parent, cap)

    # Halving ladder: from the largest allowed shape, repeatedly halve the
    # dimension contributing most footprint until the tile fits.
    current = [bounds[dim][1] for dim in ALL_DIMS]
    for _ in range(40):
        candidates.add(tuple(current))
        if arch.tile_fits(level_index, layer, TileShape(*current)):
            break
        heaviest = hooks.heaviest(layer, arch, current)
        if current[heaviest] == 1:
            break
        current[heaviest] = math.ceil(current[heaviest] / 2)

    tiles = [TileShape(*extents) for extents in candidates]
    fits = hooks.fits(layer, arch, level_index, tiles)
    feasible = [tile for tile, ok in zip(tiles, fits) if ok]
    if memo is not None:
        memo[key] = feasible
    return feasible


def allocate_level(
    layer: ConvLayer,
    arch: AcceleratorConfig,
    level_index: int,
    parent: TileShape,
    inner_order: LoopOrder,
    *,
    keep: int = 6,
    cap: TileShape | None = None,
    vectorize: bool = False,
    memo: dict | None = None,
) -> list[TileShape]:
    """Top-``keep`` sub-tile shapes for one level by ``f_reuse`` score.

    With ``vectorize=True`` all candidates are scored through one columnar
    boundary-traffic evaluation; scores (and therefore the stable
    descending order) are identical to the per-tile path.
    """
    feasible = candidate_sub_tiles(
        layer, arch, level_index, parent, cap=cap, vectorize=vectorize,
        memo=memo,
    )
    if not feasible:
        raise ValueError(
            f"no feasible sub-tile at level {level_index} of {arch.name} "
            f"for {layer.name} (parent {parent.describe()})"
        )
    scores = _hooks(vectorize).scores(
        layer, [parent] * len(feasible), feasible, inner_order, arch
    )
    return [feasible[i] for i in _ranked(range(len(feasible)), scores)[:keep]]


def parallel_caps(
    parent: TileShape, degrees: dict[Dim, int]
) -> TileShape:
    """Largest child tile leaving one sub-tile per parallel worker.

    With ``degrees[d]`` workers splitting the parent along ``d``, the child
    extent must not exceed ``ceil(parent / degree)`` or some workers idle.
    """
    return TileShape.from_mapping(
        {
            dim: max(1, math.ceil(parent.extent(dim) / degrees.get(dim, 1)))
            for dim in ALL_DIMS
        }
    )


def allocate_hierarchy(
    layer: ConvLayer,
    arch: AcceleratorConfig,
    last_level_tile: TileShape,
    inner_order: LoopOrder,
    *,
    keep_per_level: int = 4,
    level_degrees: tuple[dict[Dim, int], ...] | None = None,
    vectorize: bool = False,
    candidate_memo: dict | None = None,
) -> list[tuple[TileShape, ...]]:
    """Candidate full hierarchies below a chosen last-level tile.

    Called level by level from ``N-1`` down to 0 as in the paper; at each
    level the best few allocations are kept and expanded (beam search).
    ``level_degrees[i]`` gives the parallel split applied when tiles of
    level ``i`` are distributed (clusters at the middle level, PEs at the
    innermost), which caps tile extents so every worker gets a sub-tile.

    Per level, every beam's candidate sub-tiles are scored in one call —
    ``f_reuse`` per pair, or one batched evaluation with
    ``vectorize=True`` (bit-identical scores).  Each beam keeps its top
    ``keep_per_level`` children (:func:`allocate_level`), then the
    survivors are ranked globally by the same score with a stable sort.
    Candidates never exceed their parent (the generator bounds them by
    it), so a child's own score is also its beam's last-boundary score.
    ``candidate_memo`` is passed to :func:`candidate_sub_tiles`.
    """
    beams: list[tuple[TileShape, ...]] = [(last_level_tile,)]
    for level_index in range(1, arch.num_levels):
        degrees = None
        if level_degrees is not None:
            degrees = level_degrees[level_index]
        owners: list[tuple[TileShape, ...]] = []
        parents: list[TileShape] = []
        children: list[TileShape] = []
        spans: list[range] = []
        for beam in beams:
            parent = beam[-1]
            cap = parallel_caps(parent, degrees) if degrees else None
            tiles = candidate_sub_tiles(
                layer, arch, level_index, parent, cap=cap,
                vectorize=vectorize, memo=candidate_memo,
            )
            spans.append(range(len(children), len(children) + len(tiles)))
            owners += [beam] * len(tiles)
            parents += [parent] * len(tiles)
            children += tiles
        if not children:
            raise ValueError(
                f"no feasible allocation below {last_level_tile.describe()} "
                f"for {layer.name} on {arch.name}"
            )
        scores = _hooks(vectorize).scores(
            layer, parents, children, inner_order, arch
        )
        chosen = [j for span in spans for j in _ranked(span, scores)[:keep_per_level]]
        beams = [
            owners[j] + (children[j].clipped(parents[j]),)
            for j in _ranked(chosen, scores)[: max(keep_per_level, 2)]
        ]
    return beams
