"""Loop orders and the data-transfer rules they imply (paper Section II-E).

A :class:`LoopOrder` is a permutation of the five tileable dimensions.  The
paper's central observation is that the position of each dimension in the
order determines *when* each data type must be (re)loaded:

* filters load in the innermost loop labelled ``C`` or ``K``,
* inputs load in the innermost loop labelled ``W``, ``H``, ``C`` or ``F``,
* partial sums load in the innermost loop labelled ``W``, ``H``, ``K`` or
  ``F``.

Everything outside that innermost *relevant* loop multiplies the number of
reloads; everything inside it is free temporal reuse.  This module provides
that position algebra; :mod:`repro.core.access_model` turns it into byte
counts.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.dims import (
    ALL_DIMS,
    DataType,
    Dim,
    format_dims,
    parse_dims,
    relevant_dims,
)


_TILED_DIMS: frozenset[Dim] = frozenset(ALL_DIMS)


@dataclasses.dataclass(frozen=True)
class LoopOrder:
    """An ordering of loop dimensions, outermost first.

    The paper writes orders like ``[WHCKF]`` meaning ``W`` is the outermost
    loop and ``F`` the innermost (Section II-E).  Orders must mention each of
    the five tiled dims exactly once; use :meth:`parse` for the compact
    string form.
    """

    dims: tuple[Dim, ...]

    def __post_init__(self) -> None:
        # Five dims, all distinct and all tiled: a permutation.  (Set
        # equality on identity-hashed dims; no per-dim ``.value`` reads.)
        if len(self.dims) != len(ALL_DIMS) or frozenset(self.dims) != _TILED_DIMS:
            raise ValueError(
                f"loop order must be a permutation of {format_dims(ALL_DIMS)}, "
                f"got {format_dims(self.dims)}"
            )

    @classmethod
    def parse(cls, spec: str | Iterable[Dim]) -> "LoopOrder":
        return cls(parse_dims(spec))

    # ------------------------------------------------------------------
    @property
    def outermost(self) -> Dim:
        return self.dims[0]

    @property
    def innermost(self) -> Dim:
        return self.dims[-1]

    def position(self, dim: Dim) -> int:
        """0-based position of ``dim``, 0 being the outermost loop."""
        return self.dims.index(dim)

    def innermost_relevant(self, data_type: DataType) -> Dim:
        """The innermost loop dim whose iteration moves ``data_type`` tiles.

        This is the loop in which the paper says the next tile of the data
        type is loaded (Section II-E "Data transfers").
        """
        rel = relevant_dims(data_type)
        for dim in reversed(self.dims):
            if dim in rel:
                return dim
        raise AssertionError("every data type is relevant to some dim")

    def loops_outside(self, dim: Dim, *, inclusive: bool = True) -> tuple[Dim, ...]:
        """Dims at or outside ``dim``'s loop (outermost first)."""
        idx = self.position(dim)
        end = idx + 1 if inclusive else idx
        return self.dims[:end]

    def restricted(self, keep: Iterable[Dim]) -> tuple[Dim, ...]:
        """The order with only ``keep`` dims retained (used to drop
        degenerate, trip-count-1 loops before reuse analysis)."""
        keep_set = frozenset(keep)
        return tuple(d for d in self.dims if d in keep_set)

    # ------------------------------------------------------------------
    def format(self, *, lower: bool = False) -> str:
        return format_dims(self.dims, lower=lower)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.format()


def all_loop_orders() -> Iterator[LoopOrder]:
    """All 120 permutations of the five tiled dims."""
    for perm in itertools.permutations(ALL_DIMS):
        yield LoopOrder(perm)


def fetch_multiplicity(
    order: Sequence[Dim],
    trip_counts: Mapping[Dim, int],
    data_type: DataType,
) -> int:
    """Number of tile fetches of ``data_type`` for one execution of a nest.

    ``order`` is the loop order (outermost first) *after* degenerate loops
    have been removed; ``trip_counts`` gives each loop's iteration count.
    Implements the Section II-E rule: the product of all trip counts from
    the outermost loop down to (and including) the innermost loop relevant
    to the data type.  Returns 1 when no relevant loop remains, i.e. the
    data type's whole region is resident for the entire nest execution.
    """
    rel = relevant_dims(data_type)
    innermost_rel = -1
    for idx, dim in enumerate(order):
        if dim in rel:
            innermost_rel = idx
    if innermost_rel < 0:
        return 1
    count = 1
    for dim in order[: innermost_rel + 1]:
        count *= trip_counts[dim]
    return count


def distinct_tiles(
    order: Sequence[Dim],
    trip_counts: Mapping[Dim, int],
    data_type: DataType,
) -> int:
    """Number of *distinct* tiles of ``data_type`` touched by one execution.

    The ratio ``fetch_multiplicity / distinct_tiles`` is how many times each
    tile is (re)loaded; for partial sums it determines how many re-reads for
    accumulation are needed (the first visit of each tile is zero-initialised
    and skips the read).
    """
    rel = relevant_dims(data_type)
    count = 1
    for dim in order:
        if dim in rel:
            count *= trip_counts[dim]
    return count
