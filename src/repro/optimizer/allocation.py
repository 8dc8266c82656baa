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

There is one halving-ladder loop (:func:`_generate`) and one beam loop
(:func:`allocate_hierarchy`).  Candidates depend only on a parent's
*upper* extents (the parent capped by its parallel split), so they are
memoised by ``(level, upper)`` and generated for all of a level's new
uppers at once: the ladders step in lockstep and every step asks one
capacity question for all of them.  The beam loop is level-synchronous
over every (parallelism, inner order) pair: candidate generation does
not depend on the order, so each level gathers the distinct (order,
parent, upper) segments of every surviving beam and scores their rows in
one call.  Beams are carried as per-level extent tuples; ``TileShape``
objects are built only when a caller reads a beam.  Scoring and fitting
come from a hook chosen by ``vectorize``: the scalar hook calls the
reference kernels (:func:`f_reuse`, ``_footprint_gradient``,
``AcceleratorConfig.tile_fits``) per tile, and the columnar hook answers
the same questions with batched NumPy passes (bit-identical scores and
masks).  NumPy is imported only inside the columnar hook, so the scalar
path runs without it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Sequence

from repro.arch.accelerator import AcceleratorConfig
from repro.core.access_model import boundary_fill_profile
from repro.core.dims import ALL_DIMS, Dim
from repro.core.layer import ConvLayer
from repro.core.loopnest import LoopOrder
from repro.core.tiling import TileShape

#: A tile's extents by position (ALL_DIMS order).
Extents = tuple[int, int, int, int, int]


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


@functools.lru_cache(maxsize=4096)
def _mid(lo: int, hi: int) -> int:
    """Geometric midpoint, biased up, clamped to [lo, hi]."""
    return max(lo, min(hi, round(math.sqrt(lo * hi))))


def _extents(tile: TileShape) -> Extents:
    """A tile's extents by position (ALL_DIMS order)."""
    return (tile.w, tile.h, tile.c, tile.k, tile.f)


def _seed_candidates(upper: Extents, ladder: list[Extents]) -> list[Extents]:
    """The corner/midpoint seed plus the halving ``ladder``, in the
    iteration order of the Python set they are inserted into.

    That order is the downstream tie-break order.  It is a function of
    ``upper`` alone (ints and int tuples hash the same in every process),
    so the ``(level, upper)`` candidate memo fixes it once per upper and
    both allocator hooks see the same sequence.
    """
    # 2^D corners (Section V-C), each dim at its minimum 1 or its maximum.
    candidates = set(itertools.product(*((1, hi) for hi in upper)))

    # Geometric midpoints: all-mid, and each dim at max with others mid.
    mid = tuple(_mid(1, hi) for hi in upper)
    candidates.add(mid)
    for i, hi in enumerate(upper):
        candidates.add(mid[:i] + (hi,) + mid[i + 1:])
    candidates.update(ladder)
    return list(candidates)


def _columns(extents: list[Extents]):
    """(5, N) int64 columns of an extents list (ALL_DIMS order)."""
    import numpy as np

    flat = np.fromiter(
        itertools.chain.from_iterable(extents), dtype=np.int64,
        count=5 * len(extents),
    )
    return flat.reshape(-1, 5).T.copy()


class _Candidates:
    """The feasible sub-tiles of one ``(level, upper)``: a candidate-memo
    entry.  ``columns`` holds their (5, N) columns once the columnar hook
    has built them, so each entry is lowered at most once."""

    __slots__ = ("extents", "columns")

    def __init__(self, extents: list[Extents]) -> None:
        self.extents = extents
        self.columns = None


def _tiles(beam: tuple[Extents, ...]) -> tuple[TileShape, ...]:
    return tuple(TileShape(*extents) for extents in beam)


class _Beams(Sequence):
    """One (parallelism, inner order) pair's beams, best first.

    Items are tuples of :class:`TileShape`, one per level, built when
    read; ``extents`` holds the same beams as per-level extent tuples,
    which the columnar evaluator lowers directly.
    """

    __slots__ = ("extents",)

    def __init__(self, extents: list[tuple[Extents, ...]]) -> None:
        self.extents = extents

    def __len__(self) -> int:
        return len(self.extents)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [_tiles(beam) for beam in self.extents[index]]
        return _tiles(self.extents[index])

    def __eq__(self, other) -> bool:
        if isinstance(other, _Beams):
            return self.extents == other.extents
        return isinstance(other, list) and list(self) == other

    def __repr__(self) -> str:
        return f"_Beams({list(self)!r})"


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
    def top(layer, arch, orders, segments, keep: int) -> list[list[tuple]]:
        """Per segment, its best ``keep`` candidates as ``(f_reuse,
        extents)``, by descending score; ties keep candidate order.

        ``segments`` lists ``(order index, parent extents, candidates)``;
        each candidate of a segment is one row scored under that order
        and parent.
        """
        picks = []
        for o, parent, entry in segments:
            parent_tile = TileShape(*parent)
            scores = [
                f_reuse(layer, parent_tile, TileShape(*child), orders[o], arch)
                for child in entry.extents
            ]
            picks.append([
                (scores[i], entry.extents[i])
                for i in _ranked(range(len(scores)), scores)[:keep]
            ])
        return picks

    @staticmethod
    def heaviest(layer, arch, tiles: list[list[int]]) -> list[int]:
        """Per tile, the first dimension whose halving frees most bytes."""
        heaviest = []
        for extents in tiles:
            tile = TileShape(*extents)
            heaviest.append(max(
                range(len(ALL_DIMS)),
                key=lambda d: _footprint_gradient(layer, tile, ALL_DIMS[d], arch),
            ))
        return heaviest

    @staticmethod
    def fits(layer, arch, level_index: int, tiles) -> list[bool]:
        return [
            arch.tile_fits(level_index, layer, TileShape(*extents))
            for extents in tiles
        ]


class _ColumnarHooks:
    """The same answers from batched NumPy passes over many tiles."""

    @staticmethod
    def top(layer, arch, orders, segments, keep: int) -> list[list[tuple]]:
        """Columnar ``f_reuse`` over all rows of ``segments`` at once, and
        one stable sort per segment by descending score for the ranking.

        Same equations through
        :func:`repro.core.batch.boundary_fill_bytes_sum`, each row under
        its own order; the Python floats returned are bit-identical to
        calling :func:`f_reuse` per row, and the picks are the scalar
        hook's.
        """
        import numpy as np

        from repro.core.batch import boundary_fill_bytes_sum

        counts = []
        for _, _, entry in segments:
            if entry.columns is None:
                entry.columns = _columns(entry.extents)
            counts.append(len(entry.extents))
        parents = np.repeat(
            _columns([parent for _, parent, _ in segments]), counts, axis=1
        )
        order_index = np.repeat(
            np.array([o for o, _, _ in segments], dtype=np.intp), counts
        )
        children = np.concatenate(
            [entry.columns for _, _, entry in segments], axis=1
        )
        maccs = parents.prod(axis=0) * (layer.r * layer.s * layer.t)
        fill_bytes = boundary_fill_bytes_sum(
            layer, arch.precision, parents, children, orders, order_index,
        )
        scores = maccs / np.maximum(fill_bytes, 1)
        # One row of candidate slots per segment, padded with -inf; a
        # stable sort of each row by descending score keeps ties in
        # candidate order.
        segment = np.repeat(np.arange(len(segments)), counts)
        starts = np.cumsum(counts) - counts
        slot = np.arange(len(scores)) - np.repeat(starts, counts)
        padded = np.full((len(segments), max(counts)), -np.inf)
        padded[segment, slot] = scores
        ranked = np.argsort(-padded, axis=1, kind="stable")[:, :keep]
        top_scores = np.take_along_axis(padded, ranked, axis=1).tolist()
        ranked = ranked.tolist()
        picks = []
        for (_, _, entry), count, best, rows in zip(
            segments, counts, top_scores, ranked
        ):
            n = min(count, keep)  # padding slots sort last
            picks.append(list(zip(
                best[:n], map(entry.extents.__getitem__, rows[:n])
            )))
        return picks

    @staticmethod
    def heaviest(layer, arch, tiles: list[list[int]]) -> list[int]:
        """All five halving gradients of every tile from one columnar
        footprint pass."""
        import numpy as np

        from repro.core.batch import tile_bytes_columns

        extents = _columns(tiles)  # (5, P)
        probes = np.repeat(extents[:, :, None], 6, axis=2)  # (5, P, 6)
        for d in range(5):
            probes[d, :, d + 1] = -(-extents[d] // 2)
        bytes_by_type = tile_bytes_columns(
            layer, arch.precision, probes.reshape(5, -1)
        )
        totals = sum(bytes_by_type[dt] for dt in bytes_by_type).reshape(-1, 6)
        gradients = totals[:, :1] - totals[:, 1:]  # (P, 5)
        gradients[extents.T == 1] = -1
        return np.argmax(gradients, axis=1).tolist()  # first max, like max()

    @staticmethod
    def fits(layer, arch, level_index: int, tiles) -> list[bool]:
        from repro.core.batch import tile_fits_mask

        return tile_fits_mask(arch, level_index, layer, _columns(tiles)).tolist()


def _hooks(vectorize: bool):
    return _ColumnarHooks if vectorize else _ScalarHooks


_score_of = operator.itemgetter(0)


def _ranked(indices, scores) -> list[int]:
    """``indices`` by descending score; ties keep their given order."""
    return sorted(indices, key=scores.__getitem__, reverse=True)


def _generate(
    layer: ConvLayer,
    arch: AcceleratorConfig,
    level_index: int,
    uppers: list[Extents],
    hooks,
) -> list[_Candidates]:
    """The feasible candidates of each upper extent tuple.

    Halving ladder: from the largest allowed shape, repeatedly halve the
    dimension contributing most footprint until the tile fits.  All
    ladders step together, so each step is one capacity question and one
    gradient question over every ladder still descending.
    """
    current = [list(upper) for upper in uppers]
    ladders: list[list[Extents]] = [[] for _ in uppers]
    active = list(range(len(uppers)))
    for _ in range(40):
        for j in active:
            ladders[j].append(tuple(current[j]))
        fits = hooks.fits(layer, arch, level_index, [current[j] for j in active])
        active = [j for j, ok in zip(active, fits) if not ok]
        if not active:
            break
        heaviest = hooks.heaviest(layer, arch, [current[j] for j in active])
        stepped = []
        for j, d in zip(active, heaviest):
            if current[j][d] > 1:
                current[j][d] = -(-current[j][d] // 2)
                stepped.append(j)
        active = stepped
        if not active:
            break
    seeds = [
        _seed_candidates(upper, ladder) for upper, ladder in zip(uppers, ladders)
    ]
    fits = iter(hooks.fits(
        layer, arch, level_index, [extents for seed in seeds for extents in seed]
    ))
    return [
        _Candidates([extents for extents, ok in zip(seed, fits) if ok])
        for seed in seeds
    ]


def _entries(
    layer: ConvLayer,
    arch: AcceleratorConfig,
    level_index: int,
    uppers: list[Extents],
    hooks,
    memo: dict | None,
) -> list[_Candidates]:
    """The candidate-memo entries of ``uppers`` at one level; the missing
    ones are generated together."""
    if memo is None:
        memo = {}
    missing = list(dict.fromkeys(
        upper for upper in uppers if (level_index, upper) not in memo
    ))
    if missing:
        generated = _generate(layer, arch, level_index, missing, hooks)
        for upper, entry in zip(missing, generated):
            memo[level_index, upper] = entry
    return [memo[level_index, upper] for upper in uppers]


def _upper(parent: TileShape, cap: TileShape | None) -> Extents:
    upper = _extents(parent)
    if cap is not None:
        upper = tuple(map(min, upper, _extents(cap)))
    return upper


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
    Section V-A's joint configuration vector).  Every candidate fits
    within ``parent``.

    ``vectorize=True`` computes the ladder's footprint gradients and the
    capacity filter in columnar passes (same candidates, same order).
    Since the result depends only on ``level_index`` and the parent's
    extents capped by ``cap``, an optional ``memo`` dict shares it across
    the blocks of a search.
    """
    [entry] = _entries(
        layer, arch, level_index, [_upper(parent, cap)], _hooks(vectorize), memo
    )
    return [TileShape(*extents) for extents in entry.extents]


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
    [entry] = _entries(
        layer, arch, level_index, [_upper(parent, cap)], hooks, memo
    )
    if not entry.extents:
        raise ValueError(
            f"no feasible sub-tile at level {level_index} of {arch.name} "
            f"for {layer.name} (parent {parent.describe()})"
        )
    [picks] = hooks.top(
        layer, arch, (inner_order,), [(0, _extents(parent), entry)], keep
    )
    return [TileShape(*extents) for _, extents in picks]


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
    per_parallelism: Sequence[tuple[dict[Dim, int], ...] | None] | None = None,
    vectorize: bool = False,
    candidate_memo: dict | None = None,
) -> list:
    """Candidate full hierarchies below a chosen last-level tile, per
    inner loop order.

    Returns one entry per order of ``inner_orders``: that order's beams
    (tuples of one :class:`TileShape` per level, best first), or ``None``
    when some level leaves it no feasible sub-tile.  Called level by level
    from ``N-1`` down to 0 as in the paper; at each level the best few
    allocations are kept and expanded (beam search).
    ``level_degrees[i]`` gives the parallel split applied when tiles of
    level ``i`` are distributed (clusters at the middle level, PEs at the
    innermost), which caps tile extents so every worker gets a sub-tile.
    ``per_parallelism`` instead lists the ``level_degrees`` of several
    parallelisms; the result is then one per-order list per parallelism,
    indexed ``[p][i]``.

    The beams of all (parallelism, order) pairs advance together.  Per
    level, each distinct (order, parent, upper extents) segment is scored
    once, all segments in one call — ``f_reuse`` per row, or one batched
    evaluation with ``vectorize=True`` (bit-identical scores) — over the
    candidates of its upper extents (:func:`candidate_sub_tiles`, sharing
    ``candidate_memo``).  Pairs never interact: each beam keeps its top
    ``keep_per_level`` children (:func:`allocate_level`), then each pair's
    survivors are ranked by the same score with a stable sort, so entry
    ``[p][i]`` equals a call with ``per_parallelism[p]`` and
    ``(inner_orders[i],)`` alone.  Candidates never exceed their parent
    (the generator bounds them by it), so a child's own score is also its
    beam's last-boundary score.
    """
    hooks = _hooks(vectorize)
    degree_sets = (level_degrees,) if per_parallelism is None else per_parallelism
    n_orders = len(inner_orders)
    root = (_extents(last_level_tile),)
    #: Per (parallelism, order) pair ``p * n_orders + o``: its beams.
    beams: list[list[tuple[Extents, ...]] | None] = [
        [root] for _ in range(len(degree_sets) * n_orders)
    ]
    keep_beams = max(keep_per_level, 2)
    for level_index in range(1, arch.num_levels):
        divisors = []
        for degrees in degree_sets:
            split = degrees[level_index] if degrees is not None else None
            divisors.append(
                tuple(split.get(dim, 1) for dim in ALL_DIMS) if split else None
            )
        capped: list[dict[Extents, Extents]] = [{} for _ in degree_sets]
        index: dict[tuple, int] = {}  # (order, parent, upper) -> segment
        keys: list[tuple[int, Extents, Extents]] = []
        beam_segments: list[list[int] | None] = []
        for pair, pair_beams in enumerate(beams):
            if pair_beams is None:
                beam_segments.append(None)
                continue
            p, o = divmod(pair, n_orders)
            divisor, uppers = divisors[p], capped[p]
            segments = []
            for beam in pair_beams:
                parent = beam[-1]
                upper = uppers.get(parent)
                if upper is None:
                    upper = uppers[parent] = parent if divisor is None else tuple(
                        -(-extent // degree)
                        for extent, degree in zip(parent, divisor)
                    )
                key = (o, parent, upper)
                s = index.get(key)
                if s is None:
                    s = index[key] = len(keys)
                    keys.append(key)
                segments.append(s)
            beam_segments.append(segments)
        entries = _entries(
            layer, arch, level_index, [upper for _, _, upper in keys], hooks,
            candidate_memo,
        )
        if not any(entry.extents for entry in entries):
            beams = [None] * len(beams)
            break
        # Each segment's top ``keep_per_level`` (score, child), best first.
        picks = hooks.top(layer, arch, inner_orders, [
            (o, parent, entry) for (o, parent, _), entry in zip(keys, entries)
        ], keep_per_level)
        for pair, segments in enumerate(beam_segments):
            if segments is None:
                continue
            chosen = [
                (score, beam, child)
                for beam, s in zip(beams[pair], segments)
                for score, child in picks[s]
            ]
            if not chosen:  # no feasible sub-tile below any beam
                beams[pair] = None
                continue
            chosen.sort(key=_score_of, reverse=True)  # stable
            beams[pair] = [
                beam + (child,) for _, beam, child in chosen[:keep_beams]
            ]
    per_pair = [None if found is None else _Beams(found) for found in beams]
    result = [
        per_pair[start:start + n_orders]
        for start in range(0, len(per_pair), n_orders)
    ]
    return result[0] if per_parallelism is None else result
