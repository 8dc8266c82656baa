"""A complete per-layer hardware configuration ("dataflow", Section II-F).

The paper defines a dataflow as loop order plus PE parallelism; a full Morph
configuration additionally fixes tile sizes at each buffer level
(Section V-A: ``[outer loop order, inner loop order, Ht, Wt, Ct, Kt, Ft,
Hp, Wp, Kp]``).  :class:`Dataflow` bundles all of it.
"""

from __future__ import annotations

import dataclasses

from repro.core.dims import DataType, Dim, relevant_dims
from repro.core.layer import ConvLayer
from repro.core.loopnest import LoopOrder
from repro.core.tiling import TileHierarchy, TileShape


#: Parallelised dim -> its :class:`Parallelism` field (``C`` has none).
_PARALLEL_FIELD: dict[Dim, str] = {Dim.W: "w", Dim.H: "h", Dim.K: "k", Dim.F: "f"}


@dataclasses.dataclass(frozen=True)
class Parallelism:
    """Spatial work distribution across PEs (paper Hp, Wp, Kp and Fp).

    The channel dim ``C`` is never parallelised across PEs: different C
    iterations update the *same* partial sums, which would require
    cross-PE accumulation (the paper parallelises H, W, K and notes F).
    """

    w: int = 1
    h: int = 1
    k: int = 1
    f: int = 1

    def __post_init__(self) -> None:
        for field in ("w", "h", "k", "f"):
            if getattr(self, field) < 1:
                raise ValueError(f"parallel degree {field} must be >= 1")

    @classmethod
    def none(cls) -> "Parallelism":
        return cls()

    @classmethod
    def from_mapping(cls, degrees: dict[Dim, int]) -> "Parallelism":
        if Dim.C in degrees and degrees[Dim.C] != 1:
            raise ValueError("C cannot be parallelised across PEs")
        return cls(
            w=degrees.get(Dim.W, 1),
            h=degrees.get(Dim.H, 1),
            k=degrees.get(Dim.K, 1),
            f=degrees.get(Dim.F, 1),
        )

    def of(self, dim: Dim) -> int:
        field = _PARALLEL_FIELD.get(dim)
        return 1 if field is None else getattr(self, field)

    @property
    def degree(self) -> int:
        """Total number of PEs kept busy by this distribution."""
        return self.w * self.h * self.k * self.f

    def replication(self, data_type: DataType) -> int:
        """How many PEs receive a copy of each ``data_type`` tile.

        PEs parallelised along a dim *irrelevant* to a data type all work on
        the same tile of it, so broadcasting replicates it into that many
        private L0s (Section IV-A4's multicast).
        """
        rel = relevant_dims(data_type)
        factor = 1
        for dim in (Dim.W, Dim.H, Dim.K, Dim.F):
            if dim not in rel:
                factor *= self.of(dim)
        return factor

    def describe(self) -> str:
        parts = [
            f"{name}p={value}"
            for name, value in (("W", self.w), ("H", self.h), ("K", self.k), ("F", self.f))
            if value > 1
        ]
        return " ".join(parts) if parts else "serial"


@dataclasses.dataclass(frozen=True)
class Dataflow:
    """Everything needed to schedule one layer on the accelerator."""

    outer_order: LoopOrder  #: DRAM -> last-level buffer tile order
    inner_order: LoopOrder  #: shared order for all on-chip boundaries (§III)
    hierarchy: TileHierarchy
    parallelism: Parallelism = dataclasses.field(default_factory=Parallelism.none)

    @property
    def layer(self) -> ConvLayer:
        return self.hierarchy.layer

    def order_for_boundary(self, boundary_index: int) -> LoopOrder:
        """Loop order at boundary ``i`` (0 = DRAM->L2, then inner levels)."""
        return self.outer_order if boundary_index == 0 else self.inner_order

    def describe(self) -> str:
        tiles = "; ".join(
            f"L{self.hierarchy.levels - 1 - i}:{tile.describe()}"
            for i, tile in enumerate(self.hierarchy.tiles)
        )
        return (
            f"outer {self.outer_order.format()} inner "
            f"{self.inner_order.format(lower=True)} | {tiles} | "
            f"{self.parallelism.describe()}"
        )


def single_tile_dataflow(
    layer: ConvLayer,
    levels: int = 3,
    outer: str = "WHCKF",
    inner: str = "CFWHK",
) -> Dataflow:
    """Degenerate dataflow whose tiles cover the whole layer at every level.

    Useful as a baseline in tests: every data type fits everywhere, so each
    byte should move through each boundary exactly once.
    """
    full = TileShape.full(layer)
    hierarchy = TileHierarchy(layer, tuple(full for _ in range(levels)))
    return Dataflow(
        outer_order=LoopOrder.parse(outer),
        inner_order=LoopOrder.parse(inner),
        hierarchy=hierarchy,
    )
