"""Network containers and the registry of evaluated CNNs.

The paper evaluates three 3D CNNs (C3D, I3D, 3D ResNet-50) and two 2D
networks (Two-Stream, AlexNet) on the accelerators (Section VI-C), and
additionally profiles Inception/GoogLeNet and 2D ResNet-50 for the
motivating footprint/reuse analysis (Figure 1).  Only convolution layers
are modelled: 3D convolution is >99.8 % of inference compute (Section II-C);
pooling shows up as shape transitions between layers.
"""

from __future__ import annotations

import dataclasses
import math
import os
from typing import Callable, Iterator

from repro.core.layer import ConvLayer


@dataclasses.dataclass(frozen=True)
class Network:
    """An ordered list of convolution layers plus metadata."""

    name: str
    layers: tuple[ConvLayer, ...]
    is_3d: bool
    input_frames: int = 1

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError(f"{self.name}: network needs at least one layer")

    def __iter__(self) -> Iterator[ConvLayer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def total_maccs(self) -> int:
        return sum(layer.maccs for layer in self.layers)

    @property
    def total_weight_bytes(self) -> int:
        return sum(layer.weight_bytes() for layer in self.layers)

    @property
    def average_reuse(self) -> float:
        """MACs per byte of input+weight data, averaged over layers
        weighted by footprint — Figure 1b's metric."""
        total_bytes = sum(layer.footprint_bytes() for layer in self.layers)
        return self.total_maccs / total_bytes

    def layer_named(self, name: str) -> ConvLayer:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"{self.name} has no layer {name!r}")

    def describe(self) -> str:
        lines = [f"{self.name}: {len(self.layers)} conv layers, "
                 f"{self.total_maccs / 1e9:.2f} GMACs"]
        lines.extend("  " + layer.describe() for layer in self.layers)
        return "\n".join(lines)


class ShapeTracker:
    """Builder helper: tracks the activation volume through a network.

    Keeps (h, w, c, f) as convolutions and pooling layers transform it, so
    network definitions read like the published architecture tables.
    """

    def __init__(self, h: int, w: int, c: int, f: int = 1) -> None:
        self.h, self.w, self.c, self.f = h, w, c, f
        self.layers: list[ConvLayer] = []

    def conv(
        self,
        name: str,
        k: int,
        r: int,
        s: int | None = None,
        t: int = 1,
        *,
        stride: int = 1,
        stride_f: int = 1,
        pad: int | None = None,
        pad_f: int | None = None,
        dilation: int = 1,
        dilation_f: int = 1,
        track: bool = True,
    ) -> ConvLayer:
        """Append a convolution; by default "same"-style padding for odd
        kernels is used when ``pad`` is omitted and the kernel is odd (the
        default accounts for dilation, as dilated architectures do)."""
        s = r if s is None else s
        if pad is None:
            pad = (r - 1) * dilation // 2
        if pad_f is None:
            pad_f = (t - 1) * dilation_f // 2
        layer = ConvLayer(
            name=name,
            h=self.h,
            w=self.w,
            c=self.c,
            f=self.f,
            k=k,
            r=r,
            s=s,
            t=t,
            stride_h=stride,
            stride_w=stride,
            stride_f=stride_f,
            pad_h=pad,
            pad_w=pad,
            pad_f=pad_f,
            dilation_h=dilation,
            dilation_w=dilation,
            dilation_f=dilation_f,
        )
        self.layers.append(layer)
        if track:
            self.h, self.w, self.f = layer.out_h, layer.out_w, layer.out_f
            self.c = k
        return layer

    def pool(self, size: int, stride: int | None = None,
             size_f: int = 1, stride_f: int | None = None) -> None:
        """Max/avg pooling: shape transition only (no evaluated layer)."""
        stride = size if stride is None else stride
        stride_f = size_f if stride_f is None else stride_f
        self.h = self._pooled(self.h, size, stride)
        self.w = self._pooled(self.w, size, stride)
        self.f = self._pooled(self.f, size_f, stride_f)

    def set_channels(self, c: int) -> None:
        self.c = c

    @staticmethod
    def _pooled(extent: int, size: int, stride: int) -> int:
        return max(1, math.ceil((extent - size) / stride) + 1)

    def build(self, name: str, *, is_3d: bool, input_frames: int = 1) -> Network:
        return Network(
            name=name,
            layers=tuple(self.layers),
            is_3d=is_3d,
            input_frames=input_frames,
        )


#: Global registry filled by the per-network modules at import time.
_REGISTRY: dict[str, Callable[[], Network]] = {}

#: Process-wide build overrides (e.g. the runner's ``--frames``): applied by
#: :func:`build_network` to every factory that accepts the parameter, unless
#: the caller passes an explicit value.
_BUILD_DEFAULTS: dict[str, object] = {}


def register(name: str) -> Callable[[Callable[..., Network]], Callable[..., Network]]:
    def wrap(factory: Callable[..., Network]) -> Callable[..., Network]:
        _REGISTRY[name] = factory
        return factory

    return wrap


def network_names() -> list[str]:
    return sorted(_REGISTRY)


def set_build_defaults(**defaults) -> None:
    """Set process-wide default factory kwargs for :func:`build_network`.

    ``set_build_defaults(frames=32)`` makes every frame-flexible network
    (C3D, I3D, ...) build with 32 input frames without touching call sites —
    frame-insensitive factories (AlexNet) are unaffected because defaults
    only apply to factories whose signature accepts the parameter.  Passing
    ``None`` for a key clears it.
    """
    for key, value in defaults.items():
        if value is None:
            _BUILD_DEFAULTS.pop(key, None)
        else:
            _BUILD_DEFAULTS[key] = value


def _parse_frames(raw: str) -> int:
    """``$REPRO_FRAMES``, clamped so 0 means the minimum, not an error."""
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"REPRO_FRAMES must be an integer, got {raw!r}") from None


def build_network(name: str, **kwargs) -> Network:
    """Build a registered network.

    Default factory kwargs resolve like every other knob: explicit
    ``kwargs`` beat the active session's build defaults (e.g.
    ``SessionConfig.frames``), which beat the process-wide
    :func:`set_build_defaults`, which beats the ``REPRO_FRAMES``
    environment variable; factories that do not accept a defaulted
    parameter are unaffected.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown network {name!r}; available: {network_names()}"
        ) from None
    defaults = dict(_BUILD_DEFAULTS)
    if "frames" not in defaults:
        env = os.environ.get("REPRO_FRAMES")
        if env and env.strip():
            defaults["frames"] = _parse_frames(env.strip())
    from repro._scope import active_value

    frames = active_value("frames")
    if frames is not None:
        defaults["frames"] = frames
    if defaults:
        import inspect

        accepted = inspect.signature(factory).parameters
        for key, value in defaults.items():
            if key in accepted and key not in kwargs:
                kwargs[key] = value
    return factory(**kwargs)
