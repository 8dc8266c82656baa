"""repro.api: the scoped, serializable front door to the optimizer stack.

Engine capability — dedup/parallel fan-out, pluggable config stores,
columnar evaluation, best-first search, frame-flexible builds — is
configured here rather than through process-wide state, which cannot
express the paper's own workflow at scale: Section V's per-CNN analysis
"saved and recalled" across many differently configured sweeps (frame
counts per Frame Flexible Network-style scenarios, backends per cluster)
running side by side in one process.

This module provides two values:

* :class:`SessionConfig` — the *entire* engine/build configuration as one
  immutable, serializable value: parallelism and executor mode, cache
  directory/backend (or a live :class:`~repro.optimizer.config_store.ConfigStore`),
  vectorize, anytime-budget and table-memory-cap speed knobs,
  frame-flexible build defaults,
  the sharded store's manifest-compaction threshold, and telemetry sinks.
  Build it directly, from the environment (:meth:`SessionConfig.from_env`),
  from a dict (:meth:`SessionConfig.from_dict`), or from a TOML/JSON file
  (:meth:`SessionConfig.from_file`); :meth:`SessionConfig.resolve` layers
  all of them under the documented precedence **explicit > dict > file >
  environment > built-in defaults**.
* :class:`Session` — binds one config and exposes the whole surface as
  methods: :meth:`~Session.optimize_layer`, :meth:`~Session.optimize_network`,
  :meth:`~Session.sweep` (structured per-network results plus merged cache
  statistics), :meth:`~Session.trace` / :meth:`~Session.simulate` for the
  validation simulators, :meth:`~Session.build_network` and
  :meth:`~Session.engine`.  As a context manager it *scopes* the
  configuration (contextvar-based, see :mod:`repro._scope`): inside
  ``with session:`` every legacy entry point — ``optimize_network``,
  ``optimize_layer``, the baselines, the simulators' vectorize default,
  ``build_network`` frames — resolves through the session instead of the
  process globals, nested blocks restore the outer session on exit, and
  two sessions entered in two threads never observe each other.  Results
  are bit-identical to the unscoped paths for the same knob values.

Quick start::

    from repro import Session, SessionConfig, morph

    config = SessionConfig(parallelism=8, cache_dir="~/.cache/repro",
                           cache_backend="sharded", frames=32)
    with Session(config) as session:
        sweep = session.sweep(["c3d", "i3d"], fast=True)
        for entry in sweep.entries:
            print(entry.result.network_name, entry.result.total_energy_pj)
        print(sweep.describe())     # engine + merged cache statistics

Closing a session (the ``with`` exit, or :meth:`Session.close`) flushes
the process's cache-statistics deltas into a small JSON sidecar inside
the session's persistent store (``CACHE_STATS.json``), so sweeps spread
over many processes sharing one store report merged totals — the
cross-process completion of PR 4's per-process counters.

Legacy entry points
-------------------
``$REPRO_*``-only workflows keep working (a default session reads them),
but new code should materialise them once via
:meth:`SessionConfig.from_env` and scope explicitly.  The module-level
``optimize_network`` / ``optimize_layer`` remain supported shims that
route through the currently scoped session.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import threading
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro import _scope
from repro.arch.accelerator import AcceleratorConfig
from repro.core.dataflow import Dataflow
from repro.core.layer import ConvLayer
from repro.core.tiling import Precision
from repro.optimizer import engine as _engine
from repro.optimizer.config_store import CACHE_BACKENDS, ConfigStore
from repro.optimizer.engine import (
    BackendCacheStats,
    EngineStats,
    OptimizerEngine,
)
from repro.optimizer.search import (
    LayerResult,
    NetworkResult,
    OptimizerOptions,
)
from repro.workloads.networks import _parse_frames

__all__ = [
    "Session",
    "SessionConfig",
    "SweepEntry",
    "SweepResult",
    "current_session",
    "default_session",
]


#: ``$REPRO_*`` variable -> (config field, parser).  This is the single
#: source of truth for :meth:`SessionConfig.from_env`; each parser is the
#: one its ``default_*`` resolver uses, so both raise the same message.
_ENV_FIELDS: dict[str, tuple[str, Any]] = {
    "REPRO_PARALLELISM": ("parallelism", _engine._parse_parallelism),
    "REPRO_PARALLELISM_MODE": (
        "parallelism_mode", _engine._parse_parallelism_mode
    ),
    "REPRO_CACHE_DIR": ("cache_dir", Path),
    "REPRO_CACHE_BACKEND": ("cache_backend", _engine._parse_cache_backend),
    "REPRO_USE_CACHE": ("use_cache", _engine._parse_use_cache),
    "REPRO_VECTORIZE": ("vectorize", _engine._parse_vectorize),
    "REPRO_BUDGET_MS": ("budget_ms", _engine._parse_budget_ms),
    "REPRO_MAX_TABLE_BYTES": ("max_table_bytes", _engine._parse_max_table_bytes),
    "REPRO_FRAMES": ("frames", _parse_frames),
    "REPRO_BENCH_DIR": ("bench_dir", Path),
    "REPRO_MANIFEST_COMPACT_RATIO": (
        "manifest_compact_ratio", _engine._parse_manifest_compact_ratio
    ),
}

#: SessionConfig fields deliberately *not* materialisable from the
#: environment (checked by the signature-completeness lint rule).
#: ``persist_statistics`` controls whether a closing session writes to
#: shared sidecar files — a cross-process env default would let one
#: shell's export silently disable accounting for every session in the
#: tree, so it is settable only explicitly (argument / dict / file).
_ENV_EXCLUDED = frozenset({"persist_statistics"})


@dataclasses.dataclass(frozen=True)
class SessionConfig:
    """The full engine/build configuration as one immutable value.

    Every field defaults to ``None`` — "defer to the next layer down"
    (``$REPRO_*``, then built-ins), so an empty config behaves exactly
    like the unscoped paths and a partially filled one overrides only
    what it names.  Instances are
    hashable, comparable and (unless ``cache_backend`` is a live
    :class:`~repro.optimizer.config_store.ConfigStore`) serializable via
    :meth:`to_dict` / :meth:`to_json` and re-loadable via
    :meth:`from_dict` / :meth:`from_file`.
    """

    #: Worker count for unique-layer searches (1 = in-process serial).
    parallelism: int | None = None
    #: Executor kind: ``"process"`` or ``"thread"``.
    parallelism_mode: str | None = None
    #: Directory of the persistent config cache (``None``: no disk cache
    #: unless a lower layer configures one).
    cache_dir: Path | None = None
    #: Store layout (``"local"`` / ``"sharded"`` / ``"memory"``) or a live
    #: :class:`ConfigStore` instance (not serializable).
    cache_backend: str | ConfigStore | None = None
    #: ``False`` disables the in-process memo *and* the persistent cache.
    use_cache: bool | None = None
    #: Columnar batch evaluation (pure speed knob; results identical).
    vectorize: bool | None = None
    #: Anytime-search budget per layer search, in milliseconds (``None``
    #: = run to exhaustion).  Budgeted results are bit-identical to the
    #: unbudgeted search whenever the budget is not hit; when it is, the
    #: best-so-far configuration is returned with
    #: :attr:`~repro.optimizer.search.LayerResult.bound_gap` telemetry
    #: and is never cached.
    budget_ms: float | None = None
    #: Memory cap (bytes) on any one columnar candidate/schedule table;
    #: when set, columnar passes stream row chunks with carried
    #: reductions (bit-identical to unchunked).  ``None`` = uncapped.
    max_table_bytes: int | None = None
    #: Input frames for frame-flexible network builds (C3D, I3D, ...).
    frames: int | None = None
    #: Where session/bench telemetry JSON lands (``SESSION_STATS.json``).
    bench_dir: Path | None = None
    #: Sharded-store manifest auto-compaction threshold (lines per live
    #: key; ``0`` disables, ``None`` keeps the store default).
    manifest_compact_ratio: float | None = None
    #: Fold cache-statistics deltas into the store's sidecar on session
    #: close (``None`` = yes, the default).
    persist_statistics: bool | None = None

    def __post_init__(self) -> None:
        # Coerce numerics up front (a quoted "4" in a JSON/TOML config
        # should fail — or convert — here, not deep inside the engine).
        for field, convert in (
            ("parallelism", int),
            ("frames", int),
            ("manifest_compact_ratio", float),
            ("budget_ms", float),
            ("max_table_bytes", int),
        ):
            value = getattr(self, field)
            if value is not None:
                try:
                    object.__setattr__(self, field, convert(value))
                except (TypeError, ValueError):
                    raise ValueError(
                        f"{field} must be a number, got {value!r}"
                    ) from None
        # Booleans likewise: a JSON/TOML "false" *string* must not reach
        # the engine as a truthy value.
        for field in ("use_cache", "vectorize", "persist_statistics"):
            value = getattr(self, field)
            if value is not None:
                object.__setattr__(self, field, _scope.parse_bool(value, field))
        if self.parallelism is not None and self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.parallelism_mode is not None:
            _engine._check_mode(self.parallelism_mode)
        if self.cache_backend is not None:
            _engine._check_backend(self.cache_backend)
        if self.budget_ms is not None and self.budget_ms < 0:
            raise ValueError(
                f"budget_ms must be >= 0 (milliseconds), got {self.budget_ms!r}"
            )
        if self.max_table_bytes is not None and self.max_table_bytes < 1:
            raise ValueError(
                "max_table_bytes must be a positive byte count, "
                f"got {self.max_table_bytes!r}"
            )
        if self.frames is not None and self.frames < 1:
            raise ValueError("frames must be >= 1")
        if (
            self.manifest_compact_ratio is not None
            and self.manifest_compact_ratio < 0
        ):
            raise ValueError("manifest_compact_ratio must be >= 0")
        for field in ("cache_dir", "bench_dir"):
            value = getattr(self, field)
            if value is not None and not isinstance(value, Path):
                object.__setattr__(self, field, Path(value))

    # ------------------------------------------------------------------
    # Construction layers
    # ------------------------------------------------------------------
    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "SessionConfig":
        """Materialise the ``$REPRO_*`` environment variables as a config.

        Unset (or empty) variables leave their field ``None``; parse
        failures raise the ``ValueError`` the variable's ``default_*``
        resolver raises, naming the variable and the value.
        """
        values: dict[str, Any] = {}
        for variable, (field, parse) in _ENV_FIELDS.items():
            value = _engine._env_value(variable, parse, environ)
            if value is not None:
                values[field] = value
        return cls(**values)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SessionConfig":
        """Build a config from a plain mapping (JSON/TOML payloads).

        Unknown keys raise ``ValueError`` (typo protection — a silently
        ignored ``"paralelism"`` would be a long afternoon).
        """
        known = cls.field_names()
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(
                f"unknown SessionConfig field(s) {unknown}; known: {list(known)}"
            )
        return cls(**{key: value for key, value in data.items()})

    @classmethod
    def from_file(cls, path: str | Path) -> "SessionConfig":
        """Load a config from a TOML (``.toml``) or JSON file.

        TOML is tried for any non-``.json`` suffix; a top-level
        ``[repro]`` or ``[session]`` table is used when present so configs
        can live inside a larger project file.
        """
        path = Path(path).expanduser()
        if path.suffix.lower() == ".json":
            data = json.loads(path.read_text())
        else:
            import tomllib

            data = tomllib.loads(path.read_text())
        for table in ("repro", "session"):
            if isinstance(data.get(table), dict):
                data = data[table]
                break
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected a table/object of fields")
        return cls.from_dict(data)

    def merged(self, overlay: "SessionConfig") -> "SessionConfig":
        """A config where ``overlay``'s non-``None`` fields win over
        ``self``'s (the precedence-layering primitive)."""
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
        file: str | Path | None = None,
        data: Mapping[str, Any] | None = None,
        env: bool | Mapping[str, str] = True,
        **explicit: Any,
    ) -> "SessionConfig":
        """Layer every configuration source under the documented
        precedence: **explicit kwargs > ``data`` dict > ``file`` >
        environment > built-in defaults** (later layers only fill fields
        the stronger ones left ``None``).

        ``env`` may be ``False`` (skip the environment), ``True`` (read
        ``os.environ``) or a mapping (for tests).
        """
        config = cls()
        if env:
            config = config.merged(
                cls.from_env(None if env is True else env)
            )
        if file is not None:
            config = config.merged(cls.from_file(file))
        if data is not None:
            config = config.merged(cls.from_dict(data))
        explicit = {k: v for k, v in explicit.items() if v is not None}
        if explicit:
            config = config.merged(cls.from_dict(explicit))
        return config

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-able dict of the non-``None`` fields.

        Raises ``ValueError`` when ``cache_backend`` is a live
        :class:`ConfigStore` instance — pass a backend *name* (one of
        ``{'local', 'sharded', 'memory'}``) for serializable configs.
        """
        if isinstance(self.cache_backend, ConfigStore):
            raise ValueError(
                "SessionConfig with a live ConfigStore instance is not "
                f"serializable; use a backend name from {CACHE_BACKENDS}"
            )
        out: dict[str, Any] = {}
        for name in self.field_names():
            value = getattr(self, name)
            if value is None:
                continue
            out[name] = str(value) if isinstance(value, Path) else value
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path: str | Path) -> None:
        """Write the config as JSON (reload with :meth:`from_file`)."""
        Path(path).write_text(self.to_json() + "\n")

    def describe(self) -> str:
        set_fields = _safe_dict(self)
        if not set_fields:
            return "SessionConfig(defaults)"
        body = ", ".join(f"{k}={v}" for k, v in sorted(set_fields.items()))
        return f"SessionConfig({body})"


def _safe_dict(config: SessionConfig) -> dict[str, Any]:
    out = {}
    for name in config.field_names():
        value = getattr(config, name)
        if value is None:
            continue
        if isinstance(value, ConfigStore):
            value = value.describe()
        out[name] = str(value) if isinstance(value, Path) else value
    return out


# ----------------------------------------------------------------------
# Sweep results
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SweepEntry:
    """One network's outcome inside a :meth:`Session.sweep`."""

    network_name: str
    result: NetworkResult
    #: Engine counters for this network's sweep (dedup/memo/disk hits).
    stats: EngineStats


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """Structured outcome of :meth:`Session.sweep`."""

    entries: tuple[SweepEntry, ...]
    #: Per-store-identity recall statistics, *merged* across processes:
    #: store's persisted sidecar plus this session's unflushed deltas.
    cache_statistics: dict[str, BackendCacheStats]

    @property
    def results(self) -> tuple[NetworkResult, ...]:
        return tuple(entry.result for entry in self.entries)

    def entry(self, network_name: str) -> SweepEntry:
        for candidate in self.entries:
            if candidate.network_name == network_name:
                return candidate
        raise KeyError(network_name)

    def describe(self) -> str:
        lines = []
        for entry in self.entries:
            lines.append(
                f"{entry.network_name}: "
                f"{entry.result.total_energy_pj / 1e6:.1f} uJ, "
                f"{entry.result.total_cycles / 1e6:.1f} Mcycles "
                f"[{entry.stats.describe()}]"
            )
        if self.cache_statistics:
            for kind, stats in sorted(self.cache_statistics.items()):
                lines.append(f"config cache [{kind}]: {stats.describe()}")
        else:
            lines.append("config cache: no persistent-store activity")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The session
# ----------------------------------------------------------------------
class Session:
    """One scoped view of the optimizer/simulator/experiment stack.

    A session binds a :class:`SessionConfig` and offers the full surface
    as methods; used as a context manager it additionally *scopes* the
    configuration so every legacy entry point called inside the block
    resolves through it (see the module docstring).  Sessions are
    re-entrant and thread-compatible: the scoping is per-thread
    (contextvars), while the engine caches the methods hit are the
    process-wide ones — deliberately, so concurrent sessions still share
    search results where signatures agree.
    """

    def __init__(
        self, config: SessionConfig | None = None, **overrides: Any
    ) -> None:
        config = config or SessionConfig()
        if overrides:
            config = config.merged(SessionConfig.from_dict(overrides))
        self.config = config
        #: Aggregated engine counters across every call on this session.
        self.stats = EngineStats()
        self._lock = threading.Lock()
        # Process-wide counter state when this session was created: the
        # base of the session-relative (merged=False) statistics view.
        self._creation_snapshot = _engine.cache_statistics()
        # Per-thread LIFO of contextvar tokens: ``with session:`` nests
        # on one session object and co-exists across threads.
        self._local = threading.local()
        # Serve engines opened through serve(); close() shuts them down
        # (drains in-flight requests) before flushing telemetry.
        self._serve_engines: list[Any] = []

    # ------------------------------------------------------------------
    # Scoping
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def activate(self):
        """Scope this session's config for the dynamic extent of the
        block (re-entrant; restores the outer scope — session or none —
        on exit)."""
        token = _scope.activate(self.config)
        try:
            yield self
        finally:
            _scope.deactivate(token)

    def _tokens(self) -> list:
        stack = getattr(self._local, "tokens", None)
        if stack is None:
            stack = self._local.tokens = []
        return stack

    def __enter__(self) -> "Session":
        self._tokens().append(_scope.activate(self.config))
        return self

    def __exit__(self, *exc_info) -> None:
        _scope.deactivate(self._tokens().pop())
        self.flush_statistics()

    def close(self) -> None:
        """Shut the session down: the documented, idempotent shutdown
        contract.

        In order: (1) every serve engine opened through :meth:`serve`
        stops admitting — new requests are rejected with reason
        ``"closed"`` — and in-flight serve requests are *drained* (run
        to completion), so their engine counters land before telemetry
        is persisted; (2) :meth:`flush_statistics` folds the process's
        unflushed cache-statistics deltas into the store sidecar.

        Safe to call twice (and safe concurrently with ``with session:``
        exit): draining an already-shut engine is a no-op, and flushes
        consume from one process-wide baseline so nothing is persisted
        twice.  The session's direct optimize surface stays usable after
        ``close()`` — only its serving side is terminal.
        """
        with self._lock:
            engines = list(self._serve_engines)
        for engine in engines:
            engine.shutdown(wait=True)
        self.flush_statistics()

    # ------------------------------------------------------------------
    # Optimizer surface
    # ------------------------------------------------------------------
    def engine(
        self,
        arch: AcceleratorConfig,
        options: OptimizerOptions | None = None,
        **knobs: Any,
    ) -> OptimizerEngine:
        """An :class:`OptimizerEngine` resolved under this session's
        config (``knobs`` are per-call engine overrides, strongest
        layer)."""
        with self.activate():
            return OptimizerEngine(arch, options, **knobs)

    def optimize_layer(
        self,
        layer: ConvLayer,
        arch: AcceleratorConfig,
        options: OptimizerOptions | None = None,
        **knobs: Any,
    ) -> LayerResult:
        """Single-layer search through the engine's shared caches."""
        engine = self.engine(arch, options, **knobs)
        result = engine.optimize_layers((layer,))[0]
        self._accumulate(engine.stats)
        return result

    def optimize_network(
        self,
        layers: Iterable[ConvLayer],
        arch: AcceleratorConfig,
        options: OptimizerOptions | None = None,
        *,
        network_name: str = "network",
        **knobs: Any,
    ) -> NetworkResult:
        """Network sweep (accepts a layer iterable or a
        :class:`~repro.workloads.networks.Network`)."""
        network_name, layers = _coerce_network(layers, network_name)
        engine = self.engine(arch, options, **knobs)
        result = engine.optimize_network(layers, network_name=network_name)
        self._accumulate(engine.stats)
        return result

    def sweep(
        self,
        networks: Sequence[Any],
        arch: AcceleratorConfig | None = None,
        options: OptimizerOptions | None = None,
        *,
        fast: bool = True,
        **knobs: Any,
    ) -> SweepResult:
        """Optimize several networks and report structured results.

        ``networks`` mixes registry names and
        :class:`~repro.workloads.networks.Network` instances; ``arch``
        defaults to the Morph machine; ``options`` defaults to the
        experiments' shared preset (``fast`` selects the coarse one).
        The returned :class:`SweepResult` carries per-network engine
        counters plus cache statistics merged with the store's persisted
        sidecar — the cross-process totals.
        """
        if arch is None:
            from repro.arch.accelerator import morph

            arch = morph()
        if options is None:
            options = (
                OptimizerOptions.fast() if fast else OptimizerOptions()
            )
        entries = []
        with self.activate():
            for item in networks:
                network = (
                    self.build_network(item) if isinstance(item, str) else item
                )
                engine = OptimizerEngine(arch, options, **knobs)
                result = engine.optimize_network(
                    network.layers, network_name=network.name
                )
                self._accumulate(engine.stats)
                entries.append(
                    SweepEntry(
                        network_name=network.name,
                        result=result,
                        stats=engine.stats,
                    )
                )
        return SweepResult(
            entries=tuple(entries),
            cache_statistics=self.cache_statistics(merged=True),
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(self, config: Any = None, **overrides: Any):
        """Open a :class:`repro.serve.ServeEngine` on this session.

        The engine serves optimize requests (each optionally carrying its
        own :class:`SessionConfig` overlay on this session's config) with
        request coalescing, per-tenant quotas, backpressure and
        deadline-to-``budget_ms`` SLO mapping — see :mod:`repro.serve`.
        ``config`` is a :class:`repro.serve.ServeConfig`; ``overrides``
        are its field names (``max_workers``, ``max_queue_depth``,
        ``tenant_rate``, ``tenant_burst``, ``coalesce``,
        ``default_deadline_ms``), resolved over ``$REPRO_SERVE_*``.

        The engine is tracked by the session: :meth:`close` shuts it
        down (drains in-flight requests) before flushing telemetry.
        """
        from repro.serve import ServeEngine

        engine = ServeEngine(session=self, config=config, **overrides)
        with self._lock:
            self._serve_engines.append(engine)
        return engine

    # ------------------------------------------------------------------
    # Workloads and simulators
    # ------------------------------------------------------------------
    def build_network(self, name: str, **kwargs: Any):
        """Build a registered network under this session's build defaults
        (``frames`` et al.); explicit kwargs win."""
        from repro.workloads import build_network

        with self.activate():
            return build_network(name, **kwargs)

    def trace(
        self,
        dataflow: Dataflow,
        precision: Precision | None = None,
        *,
        vectorize: bool | None = None,
        max_table_bytes: int | None = None,
    ):
        """Trace-simulate a schedule (validates the access model) under
        this session's vectorize / table-cap defaults."""
        from repro.core.tiling import DEFAULT_PRECISION
        from repro.sim.trace import trace_dataflow

        with self.activate():
            return trace_dataflow(
                dataflow,
                DEFAULT_PRECISION if precision is None else precision,
                vectorize=vectorize,
                max_table_bytes=max_table_bytes,
            )

    def simulate(
        self,
        dataflow: Dataflow,
        arch: AcceleratorConfig,
        *,
        vectorize: bool | None = None,
        max_table_bytes: int | None = None,
    ):
        """Pipeline-simulate a schedule (validates the cycle model) under
        this session's vectorize / table-cap defaults."""
        from repro.sim.pipeline_sim import simulate_pipeline

        with self.activate():
            return simulate_pipeline(
                dataflow,
                arch,
                vectorize=vectorize,
                max_table_bytes=max_table_bytes,
            )

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _accumulate(self, stats: EngineStats) -> None:
        with self._lock:
            for field in dataclasses.fields(EngineStats):
                setattr(
                    self.stats,
                    field.name,
                    getattr(self.stats, field.name)
                    + getattr(stats, field.name),
                )

    def store(self) -> ConfigStore | None:
        """The persistent config store this session resolves to (``None``
        for in-memory-only operation)."""
        with self.activate():
            return _engine.resolve_store()

    def cache_statistics(
        self, *, merged: bool = False
    ) -> dict[str, BackendCacheStats]:
        """Recall statistics keyed by store identity.

        ``merged=False``: this process's counter movement since the
        session was created (the counters are process-wide, so this is a
        window, not strict per-session attribution).  ``merged=True``:
        the persisted sidecar of the session's store plus the process's
        not-yet-flushed movement — the cross-process totals, with no
        delta counted twice.
        """
        totals: dict[str, dict[str, int]] = {}
        if merged:
            store = self.store()
            if store is not None:
                for kind, counters in store.load_statistics().items():
                    into = totals.setdefault(kind, {})
                    for name, value in counters.items():
                        into[name] = into.get(name, 0) + int(value)
            deltas = _engine.peek_unflushed_statistics()
        else:
            deltas = _engine._statistics_deltas(
                _engine.cache_statistics(), self._creation_snapshot
            )
        for kind, counters in deltas.items():
            into = totals.setdefault(kind, {})
            for name, value in counters.items():
                into[name] = into.get(name, 0) + value
        known = {f.name for f in dataclasses.fields(BackendCacheStats)}
        return {
            kind: BackendCacheStats(
                **{k: v for k, v in counters.items() if k in known}
            )
            for kind, counters in totals.items()
        }

    def flush_statistics(self) -> bool:
        """Fold the process's unflushed cache-statistics deltas into the
        store's JSON sidecar (and the session-summary telemetry sink,
        when ``bench_dir`` is set).  Returns ``True`` if a sidecar write
        happened.  Called automatically on ``with`` exit and
        :meth:`close`.

        Flushes consume from one process-wide baseline, so overlapping
        sessions never persist the same movement twice; a session that
        cannot persist (no store, or ``persist_statistics=False``) leaves
        the baseline untouched for one that can.
        """
        wrote = False
        with self._lock:
            if self.config.persist_statistics is not False:
                store = self.store()
                if store is not None:
                    deltas = _engine.consume_unflushed_statistics()
                    if deltas:
                        wrote = store.merge_statistics(deltas)
        if self.config.bench_dir is not None:
            self._write_summary()
        return wrote

    def _write_summary(self) -> None:
        """Best-effort session-summary telemetry (``SESSION_STATS.json``)."""
        payload = {
            "schema_version": 1,
            "config": _safe_dict(self.config),
            "engine_stats": dataclasses.asdict(self.stats),
            "cache_statistics": {
                kind: dataclasses.asdict(stats)
                for kind, stats in self.cache_statistics(merged=True).items()
            },
        }
        try:
            directory = Path(self.config.bench_dir)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / "SESSION_STATS.json").write_text(
                json.dumps(payload, indent=2, sort_keys=True)
            )
        except OSError:
            pass

    def describe_statistics(self) -> str:
        """One line of engine counters plus one per store identity (merged
        with the persisted sidecar) — the runner's end-of-run summary."""
        lines = [f"engine: {self.stats.describe()}"]
        stats = self.cache_statistics(merged=True)
        if not stats:
            lines.append("config cache: no persistent-store activity")
        else:
            lines.extend(
                f"config cache [{kind}]: {entry.describe()}"
                for kind, entry in sorted(stats.items())
            )
        return "\n".join(lines)

    def describe(self) -> str:
        return f"Session({self.config.describe()})"


def _coerce_network(layers, network_name):
    """Accept a Network instance (name comes along) or a layer iterable."""
    name = getattr(layers, "name", None)
    if name is not None and hasattr(layers, "layers"):
        if network_name == "network":
            network_name = name
        layers = layers.layers
    return network_name, tuple(layers)


# ----------------------------------------------------------------------
# The default session (what the legacy shims route through)
# ----------------------------------------------------------------------
_DEFAULT_SESSION: Session | None = None
_DEFAULT_LOCK = threading.Lock()


def default_session() -> Session:
    """The process-wide default session: an empty config, so resolution
    falls through to the ``$REPRO_*`` variables and built-in defaults."""
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        with _DEFAULT_LOCK:
            if _DEFAULT_SESSION is None:
                _DEFAULT_SESSION = Session()
    return _DEFAULT_SESSION


class _ScopedSessionView(Session):
    """A throwaway session around an externally activated config.

    When a caller is already *inside* ``with session:`` (or a bare
    ``activate()`` block), :func:`current_session` must honour that scope
    even though the original Session object is not reachable through the
    contextvar (only its config is).  A view re-binds the active config;
    engine caches are process-wide, so behaviour is identical.
    """


def current_session() -> Session:
    """The session whose scope is active, or the process default.

    The legacy ``optimize_network`` / ``optimize_layer`` shims call this,
    so ``with Session(...):`` blocks configure them transparently.
    """
    config = _scope.active_config()
    if config is None:
        return default_session()
    return _ScopedSessionView(config)
