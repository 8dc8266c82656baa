"""ServeConfig: the serving layer's knobs as one immutable value.

Mirrors the :class:`repro.api.SessionConfig` conventions exactly: every
field defaults to ``None`` ("defer to the next layer down"), instances
are frozen/hashable, ``$REPRO_SERVE_*`` environment variables
materialise through :meth:`ServeConfig.from_env` with the established
strict parsing (an unparseable value raises a ``ValueError`` naming the
variable and the value — a typo'd quota must never silently mean
"unlimited"), and :meth:`ServeConfig.resolve` layers **explicit kwargs >
dict > environment > built-in defaults**.

This module is the *only* sanctioned reader of ``$REPRO_SERVE_*`` (the
scoped-config lint rule enforces it by path): serving configuration
flows through :class:`ServeConfig` into
:class:`repro.serve.engine.ServeEngine`, never through ad-hoc
environment reads.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Callable, Mapping

from repro._scope import parse_bool

__all__ = ["ServeConfig"]

#: Built-in defaults applied by the ``effective_*`` accessors when every
#: configuration layer left the field ``None``.
DEFAULT_MAX_WORKERS = 4
DEFAULT_MAX_QUEUE_DEPTH = 64
DEFAULT_TENANT_BURST = 8.0
DEFAULT_LATENCY_WINDOW = 512
#: Fallback backpressure retry hint before any latency sample exists.
DEFAULT_RETRY_AFTER_MS = 100.0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise ValueError(f"must be > 0, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


def _burst_float(text: str) -> float:
    value = float(text)
    if value < 1:
        raise ValueError(f"must be >= 1 request, got {value}")
    return value


#: ``$REPRO_SERVE_*`` variable -> (config field, strict parser).  The
#: single source of truth for :meth:`ServeConfig.from_env`.
_SERVE_ENV_FIELDS: dict[str, tuple[str, Callable[[str], Any]]] = {
    "REPRO_SERVE_WORKERS": ("max_workers", _positive_int),
    "REPRO_SERVE_QUEUE_DEPTH": ("max_queue_depth", _positive_int),
    "REPRO_SERVE_TENANT_RATE": ("tenant_rate", _positive_float),
    "REPRO_SERVE_TENANT_BURST": ("tenant_burst", _burst_float),
    "REPRO_SERVE_COALESCE": ("coalesce", parse_bool),
    "REPRO_SERVE_DEADLINE_MS": ("default_deadline_ms", _nonnegative_float),
}


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """The serving layer's full configuration as one immutable value.

    ``None`` fields defer down the resolution chain (environment, then
    built-ins), so an empty config is the stock serving engine and a
    partially filled one overrides only what it names.
    """

    #: Worker threads running layer searches (the pool bound: at most
    #: this many engine searches run concurrently).
    max_workers: int | None = None
    #: Admitted-but-unfinished request cap; admissions beyond it are
    #: rejected with a retry-after hint instead of queueing unboundedly.
    max_queue_depth: int | None = None
    #: Per-tenant sustained admission rate, requests/second (token-bucket
    #: refill).  ``None`` after resolution = no quota.
    tenant_rate: float | None = None
    #: Per-tenant burst capacity (token-bucket size), in requests.
    tenant_burst: float | None = None
    #: Coalesce concurrent requests for the same search signature through
    #: the engine's in-flight table (pure concurrent dedup; identical
    #: results).  Default on.
    coalesce: bool | None = None
    #: Deadline applied to requests that do not carry their own,
    #: milliseconds.  ``None`` after resolution = no implicit deadline.
    default_deadline_ms: float | None = None

    def __post_init__(self) -> None:
        for field, convert in (
            ("max_workers", int),
            ("max_queue_depth", int),
            ("tenant_rate", float),
            ("tenant_burst", float),
            ("default_deadline_ms", float),
        ):
            value = getattr(self, field)
            if value is not None:
                try:
                    object.__setattr__(self, field, convert(value))
                except (TypeError, ValueError):
                    raise ValueError(
                        f"{field} must be a number, got {value!r}"
                    ) from None
        if self.coalesce is not None:
            object.__setattr__(
                self, "coalesce", parse_bool(self.coalesce, "coalesce")
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.tenant_rate is not None and self.tenant_rate <= 0:
            raise ValueError(
                f"tenant_rate must be > 0 requests/second, got "
                f"{self.tenant_rate!r} (omit it for no quota)"
            )
        if self.tenant_burst is not None and self.tenant_burst < 1:
            raise ValueError("tenant_burst must be >= 1 request")
        if self.default_deadline_ms is not None and self.default_deadline_ms < 0:
            raise ValueError("default_deadline_ms must be >= 0 milliseconds")

    # ------------------------------------------------------------------
    # Construction layers (SessionConfig conventions)
    # ------------------------------------------------------------------
    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def from_env(
        cls, environ: Mapping[str, str] | None = None
    ) -> "ServeConfig":
        """Materialise the ``$REPRO_SERVE_*`` variables as a config.

        Unset (or empty) variables leave their field ``None``; parse
        failures raise ``ValueError`` naming the variable and the value.
        """
        environ = os.environ if environ is None else environ
        values: dict[str, Any] = {}
        for variable, (field, parse) in _SERVE_ENV_FIELDS.items():
            raw = environ.get(variable)
            if raw is None or raw.strip() == "":
                continue
            try:
                values[field] = parse(raw.strip())
            except (TypeError, ValueError):
                raise ValueError(
                    f"{variable} could not be parsed: {raw!r}"
                ) from None
        return cls(**values)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServeConfig":
        """Build a config from a plain mapping; unknown keys raise."""
        known = cls.field_names()
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(
                f"unknown ServeConfig field(s) {unknown}; known: {list(known)}"
            )
        return cls(**dict(data))

    def merged(self, overlay: "ServeConfig") -> "ServeConfig":
        """A config where ``overlay``'s non-``None`` fields win."""
        values = {
            name: (
                getattr(overlay, name)
                if getattr(overlay, name) is not None
                else getattr(self, name)
            )
            for name in self.field_names()
        }
        return type(self)(**values)

    @classmethod
    def resolve(
        cls,
        *,
        data: Mapping[str, Any] | None = None,
        env: bool | Mapping[str, str] = True,
        **explicit: Any,
    ) -> "ServeConfig":
        """Layer the sources under the documented precedence: **explicit
        kwargs > ``data`` dict > environment > built-in defaults**."""
        config = cls()
        if env:
            config = config.merged(
                cls.from_env(None if env is True else env)
            )
        if data is not None:
            config = config.merged(cls.from_dict(data))
        explicit = {k: v for k, v in explicit.items() if v is not None}
        if explicit:
            config = config.merged(cls.from_dict(explicit))
        return config

    # ------------------------------------------------------------------
    # Effective values (the built-in-defaults layer)
    # ------------------------------------------------------------------
    @property
    def effective_max_workers(self) -> int:
        return (
            DEFAULT_MAX_WORKERS if self.max_workers is None else self.max_workers
        )

    @property
    def effective_max_queue_depth(self) -> int:
        return (
            DEFAULT_MAX_QUEUE_DEPTH
            if self.max_queue_depth is None
            else self.max_queue_depth
        )

    @property
    def effective_tenant_burst(self) -> float:
        return (
            DEFAULT_TENANT_BURST
            if self.tenant_burst is None
            else self.tenant_burst
        )

    @property
    def effective_coalesce(self) -> bool:
        return True if self.coalesce is None else self.coalesce

    def describe(self) -> str:
        set_fields = {
            name: getattr(self, name)
            for name in self.field_names()
            if getattr(self, name) is not None
        }
        if not set_fields:
            return "ServeConfig(defaults)"
        body = ", ".join(f"{k}={v}" for k, v in sorted(set_fields.items()))
        return f"ServeConfig({body})"
