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
beam loop (:func:`allocate_hierarchy`).  The beam loop is level-synchronous
over a tuple of inner loop orders: candidate generation does not depend
on the order, so each level gathers the candidates of every surviving
order's beams once and scores all (order, parent, child) rows in one
call.  Scoring and fitting come from a hook chosen by ``vectorize``: the
scalar hook calls the reference kernels (:func:`f_reuse`,
``_footprint_gradient``, ``AcceleratorConfig.tile_fits``) per tile, and
the columnar hook answers the same questions with batched NumPy passes
(bit-identical scores and masks).  NumPy is imported only inside the
columnar hook, so the scalar path runs without it.
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


def _extents(tile: TileShape) -> tuple[int, int, int, int, int]:
    """A tile's extents by position (ALL_DIMS order)."""
    return (tile.w, tile.h, tile.c, tile.k, tile.f)


def _seed_candidates(
    parent: TileShape, cap: TileShape | None
) -> tuple[tuple[int, ...], set[tuple[int, ...]]]:
    """Per-position maximum extents plus the corner/midpoint candidate seed.

    Its insertion sequence, extended only by the halving ladder of
    :func:`candidate_sub_tiles`, fixes the set's iteration order and so
    the downstream tie-break order; both allocator hooks see the same
    sequence because the ladder loop itself is shared.
    """
    upper = _extents(parent)
    if cap is not None:
        upper = tuple(map(min, upper, _extents(cap)))
    # 2^D corners (Section V-C), each dim at its minimum 1 or its maximum.
    candidates = set(itertools.product(*((1, hi) for hi in upper)))

    # Geometric midpoints: all-mid, and each dim at max with others mid.
    mid = tuple(_mid(1, hi) for hi in upper)
    candidates.add(mid)
    for i, hi in enumerate(upper):
        candidates.add(mid[:i] + (hi,) + mid[i + 1:])
    return upper, candidates


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


class _Candidates:
    """The feasible sub-tiles of one ``(level, parent, cap)``: a
    candidate-memo entry.  ``columns`` holds their (5, N) columns once the
    columnar hook has built them, so each entry is lowered at most once."""

    __slots__ = ("tiles", "columns")

    def __init__(self, tiles: list[TileShape], columns=None) -> None:
        self.tiles = tiles
        self.columns = columns


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
    def scores(layer, arch, orders, segments) -> list[float]:
        """``f_reuse`` of every row; ``segments`` lists ``(order index,
        parent, candidates)``, each contributing one row per candidate."""
        return [
            f_reuse(layer, parent, child, orders[o], arch)
            for o, parent, entry in segments
            for child in entry.tiles
        ]

    @staticmethod
    def heaviest(layer, arch, extents: list[int]) -> int:
        tile = TileShape(*extents)
        return max(
            range(len(ALL_DIMS)),
            key=lambda d: _footprint_gradient(layer, tile, ALL_DIMS[d], arch),
        )

    @staticmethod
    def feasible(layer, arch, level_index: int, tiles: list[TileShape]):
        return _Candidates(
            [tile for tile in tiles if arch.tile_fits(level_index, layer, tile)]
        )


class _ColumnarHooks:
    """The same answers from batched NumPy passes over many tiles."""

    @staticmethod
    def scores(layer, arch, orders, segments) -> list[float]:
        """Columnar ``f_reuse`` over all rows of ``segments`` at once.

        Same equations through
        :func:`repro.core.batch.boundary_fill_bytes_sum`, each row under
        its own order; the Python floats returned are bit-identical to
        calling :func:`f_reuse` per row.
        """
        import numpy as np

        from repro.core.batch import boundary_fill_bytes_sum

        counts = []
        children = []
        for _, _, entry in segments:
            if entry.columns is None:
                entry.columns = _tile_columns(entry.tiles)
            counts.append(len(entry.tiles))
            children.append(entry.columns)
        parents = np.repeat(
            np.array(
                [_extents(parent) for _, parent, _ in segments], dtype=np.int64
            ).T,
            counts,
            axis=1,
        )
        order_index = np.repeat(
            np.array([o for o, _, _ in segments], dtype=np.intp), counts
        )
        maccs = parents.prod(axis=0) * (layer.r * layer.s * layer.t)
        fill_bytes = boundary_fill_bytes_sum(
            layer, arch.precision, parents, np.concatenate(children, axis=1),
            orders, order_index,
        )
        return (maccs / np.maximum(fill_bytes, 1)).tolist()

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
    def feasible(layer, arch, level_index: int, tiles: list[TileShape]):
        from repro.core.batch import tile_fits_mask

        columns = _tile_columns(tiles)
        fits = tile_fits_mask(arch, level_index, layer, columns)
        return _Candidates(
            [tile for tile, ok in zip(tiles, fits.tolist()) if ok],
            columns[:, fits],
        )


def _hooks(vectorize: bool):
    return _ColumnarHooks if vectorize else _ScalarHooks


def _ranked(indices, scores) -> list[int]:
    """``indices`` by descending score; ties keep their given order."""
    return sorted(indices, key=scores.__getitem__, reverse=True)


def _candidates(
    layer: ConvLayer,
    arch: AcceleratorConfig,
    level_index: int,
    parent: TileShape,
    cap: TileShape | None,
    hooks,
    memo: dict | None,
) -> _Candidates:
    """The candidate-memo entry of :func:`candidate_sub_tiles`."""
    key = (level_index, parent, cap)
    if memo is not None and key in memo:
        return memo[key]
    upper, candidates = _seed_candidates(parent, cap)

    # Halving ladder: from the largest allowed shape, repeatedly halve the
    # dimension contributing most footprint until the tile fits.
    current = list(upper)
    for _ in range(40):
        candidates.add(tuple(current))
        if arch.tile_fits(level_index, layer, TileShape(*current)):
            break
        heaviest = hooks.heaviest(layer, arch, current)
        if current[heaviest] == 1:
            break
        current[heaviest] = math.ceil(current[heaviest] / 2)

    entry = hooks.feasible(
        layer, arch, level_index, [TileShape(*extents) for extents in candidates]
    )
    if memo is not None:
        memo[key] = entry
    return entry


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
    cap)``, an optional ``memo`` dict shares it across the blocks of a
    search.
    """
    return _candidates(
        layer, arch, level_index, parent, cap, _hooks(vectorize), memo
    ).tiles


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
    hooks = _hooks(vectorize)
    entry = _candidates(layer, arch, level_index, parent, cap, hooks, memo)
    feasible = entry.tiles
    if not feasible:
        raise ValueError(
            f"no feasible sub-tile at level {level_index} of {arch.name} "
            f"for {layer.name} (parent {parent.describe()})"
        )
    scores = hooks.scores(layer, arch, (inner_order,), [(0, parent, entry)])
    return [feasible[i] for i in _ranked(range(len(feasible)), scores)[:keep]]


def parallel_caps(
    parent: TileShape, degrees: dict[Dim, int]
) -> TileShape:
    """Largest child tile leaving one sub-tile per parallel worker.

    With ``degrees[d]`` workers splitting the parent along ``d``, the child
    extent must not exceed ``ceil(parent / degree)`` or some workers idle.
    """
    return TileShape(
        w=max(1, math.ceil(parent.w / degrees.get(Dim.W, 1))),
        h=max(1, math.ceil(parent.h / degrees.get(Dim.H, 1))),
        c=max(1, math.ceil(parent.c / degrees.get(Dim.C, 1))),
        k=max(1, math.ceil(parent.k / degrees.get(Dim.K, 1))),
        f=max(1, math.ceil(parent.f / degrees.get(Dim.F, 1))),
    )


def allocate_hierarchy(
    layer: ConvLayer,
    arch: AcceleratorConfig,
    last_level_tile: TileShape,
    inner_orders: tuple[LoopOrder, ...],
    *,
    keep_per_level: int = 4,
    level_degrees: tuple[dict[Dim, int], ...] | None = None,
    vectorize: bool = False,
    candidate_memo: dict | None = None,
) -> list[list[tuple[TileShape, ...]] | None]:
    """Candidate full hierarchies below a chosen last-level tile, per
    inner loop order.

    Returns one entry per order of ``inner_orders``: that order's beams,
    or ``None`` when some level leaves it no feasible sub-tile.  Called
    level by level from ``N-1`` down to 0 as in the paper; at each level
    the best few allocations are kept and expanded (beam search).
    ``level_degrees[i]`` gives the parallel split applied when tiles of
    level ``i`` are distributed (clusters at the middle level, PEs at the
    innermost), which caps tile extents so every worker gets a sub-tile.

    The beams of all orders advance together.  Per level, the candidate
    sub-tiles of each distinct parent are generated once
    (:func:`candidate_sub_tiles`, sharing ``candidate_memo``) and every
    (order, beam, candidate) row is scored in one call — ``f_reuse`` per
    row, or one batched evaluation with ``vectorize=True`` (bit-identical
    scores).  Orders never interact: each beam keeps its top
    ``keep_per_level`` children (:func:`allocate_level`), then each
    order's survivors are ranked by the same score with a stable sort, so
    entry ``i`` equals a call with ``(inner_orders[i],)`` alone.
    Candidates never exceed their parent (the generator bounds them by
    it), so a child's own score is also its beam's last-boundary score.
    """
    hooks = _hooks(vectorize)
    per_order: list[list[tuple[TileShape, ...]] | None] = [
        [(last_level_tile,)] for _ in inner_orders
    ]
    for level_index in range(1, arch.num_levels):
        degrees = None
        if level_degrees is not None:
            degrees = level_degrees[level_index]
        entries: dict[TileShape, _Candidates] = {}
        segments = []  # (order index, parent, candidates), one per beam
        for o, beams in enumerate(per_order):
            for beam in beams or ():
                parent = beam[-1]
                entry = entries.get(parent)
                if entry is None:
                    cap = parallel_caps(parent, degrees) if degrees else None
                    entry = entries[parent] = _candidates(
                        layer, arch, level_index, parent, cap, hooks,
                        candidate_memo,
                    )
                segments.append((o, parent, entry))
        if not any(entry.tiles for _, _, entry in segments):
            return [None] * len(inner_orders)
        scores = hooks.scores(layer, arch, inner_orders, segments)
        start = 0
        segment = iter(segments)
        for o, beams in enumerate(per_order):
            if beams is None:
                continue
            first = start
            chosen = []  # (row, beam, parent, child)
            for beam in beams:
                _, parent, entry = next(segment)
                tiles = entry.tiles
                span = range(start, start + len(tiles))
                start = span.stop
                chosen += [
                    (j, beam, parent, tiles[j - span.start])
                    for j in _ranked(span, scores)[:keep_per_level]
                ]
            if start == first:  # no feasible sub-tile below any beam
                per_order[o] = None
                continue
            chosen.sort(key=lambda pick: scores[pick[0]], reverse=True)
            per_order[o] = [
                beam + (child.clipped(parent),)
                for _, beam, parent, child in chosen[: max(keep_per_level, 2)]
            ]
    return per_order
