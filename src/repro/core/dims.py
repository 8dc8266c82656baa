"""Problem dimensions for (tiled) 3D convolution.

The paper tiles five dimensions of the 3D convolution loop nest —
``W``/``H`` (spatial), ``C`` (input channels), ``K`` (filters) and ``F``
(frames) — and never tiles the filter extents ``R``/``S``/``T`` because they
are small (Section II-D).  This module defines those dimension names and the
per-data-type *relevance* sets that drive every reuse calculation:

* an input-activation tile is identified by its ``(W, H, C, F)`` coordinates,
* a weight tile by ``(C, K)``,
* a partial-sum (output) tile by ``(W, H, K, F)``.

A loop over a dimension that is *irrelevant* to a data type does not change
which tile of that data type is needed, which is exactly what creates
temporal reuse (Section II-E of the paper).
"""

from __future__ import annotations

import enum
from typing import Any, Iterable

#: The value type of the ``*_kernel`` formula functions: a Python scalar
#: *or* a NumPy column — one body serves the scalar reference models and
#: the columnar batch engine, so the alias is deliberately loose (naming
#: ``np.ndarray`` here would couple the kernels to one backend; the
#: kernel-purity lint rule keeps the bodies array-agnostic instead).
Num = Any


class Dim(enum.Enum):
    """One of the five tileable 3D-convolution dimensions."""

    W = "W"  #: output width
    H = "H"  #: output height
    C = "C"  #: input channels
    K = "K"  #: output channels / filters
    F = "F"  #: output frames (temporal)

    #: Members are singletons and compare by identity, so the C identity
    #: hash is exact — and far cheaper than ``Enum.__hash__``, which runs
    #: in Python on every dict/set lookup of the model hot paths.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Dim.{self.name}"

    @classmethod
    def from_letter(cls, letter: str) -> "Dim":
        """Parse a single (case-insensitive) dimension letter.

        The paper writes outer loop orders in upper case (``[WHCKF]``) and
        inner loop orders in lower case (``[cfwhk]``); both parse to the same
        :class:`Dim` values.
        """
        try:
            return _DIM_OF_LETTER[letter]
        except (KeyError, TypeError):
            raise ValueError(f"unknown dimension letter {letter!r}") from None


#: Canonical ordering used for iteration and display.
ALL_DIMS: tuple[Dim, ...] = (Dim.W, Dim.H, Dim.C, Dim.K, Dim.F)

#: Both cases of every dimension letter (see :meth:`Dim.from_letter`).
_DIM_OF_LETTER: dict[str, Dim] = {
    **{dim.value: dim for dim in ALL_DIMS},
    **{dim.value.lower(): dim for dim in ALL_DIMS},
}

#: Dimensions along which convolution slides, creating halos (Section II-D).
SLIDING_DIMS: frozenset[Dim] = frozenset({Dim.W, Dim.H, Dim.F})


class DataType(enum.Enum):
    """The three 3D-CNN data types moved through the buffer hierarchy."""

    INPUTS = "inputs"
    WEIGHTS = "weights"
    PSUMS = "psums"

    __hash__ = object.__hash__  # identity hash, as for :class:`Dim`

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"DataType.{self.name}"


#: Loop dimensions whose iteration changes the needed tile of each data type.
RELEVANT_DIMS: dict[DataType, frozenset[Dim]] = {
    DataType.INPUTS: frozenset({Dim.W, Dim.H, Dim.C, Dim.F}),
    DataType.WEIGHTS: frozenset({Dim.C, Dim.K}),
    DataType.PSUMS: frozenset({Dim.W, Dim.H, Dim.K, Dim.F}),
}

#: Reduction dimensions for partial sums: iterating these revisits the same
#: psum tile with more accumulation work (only C among the tiled dims).
PSUM_REDUCTION_DIMS: frozenset[Dim] = frozenset({Dim.C})

ALL_DATA_TYPES: tuple[DataType, ...] = (
    DataType.INPUTS,
    DataType.WEIGHTS,
    DataType.PSUMS,
)


def relevant_dims(data_type: DataType) -> frozenset[Dim]:
    """Return the loop dims whose iteration moves ``data_type`` tiles."""
    return RELEVANT_DIMS[data_type]


def parse_dims(spec: str | Iterable[Dim]) -> tuple[Dim, ...]:
    """Parse a dimension sequence from a compact string like ``"WHCKF"``.

    Accepts an iterable of :class:`Dim` unchanged (returned as a tuple), or a
    string of dimension letters, optionally wrapped in square brackets the
    way the paper prints loop orders.
    """
    if isinstance(spec, str):
        letters = spec.strip().strip("[]")
        return tuple(Dim.from_letter(ch) for ch in letters)
    return tuple(spec)


def format_dims(dims: Iterable[Dim], *, lower: bool = False) -> str:
    """Format dims the way the paper does, e.g. ``[WHCKF]`` or ``[cfwhk]``."""
    body = "".join(d.value for d in dims)
    return f"[{body.lower() if lower else body}]"
