"""Parallel, deduplicated, persistent per-layer search engine.

The paper stresses that the per-layer configuration search "need only be
performed once per CNN.  After best-fit parameters are found once, a
configuration file can be saved and recalled instead of re-running the
analysis" (Section V).  This module is the subsystem that makes the
experiment harness behave that way at scale:

* **Deduplication** — layers are keyed by *search signature* (layer shape
  without its name + full accelerator description + optimizer options).
  Each unique signature is searched once; the winning evaluation is
  fanned back out to every occurrence and relabelled with the
  occurrence's own layer, so every
  :class:`~repro.optimizer.search.LayerResult` carries correct metadata.
  The models never read a layer's name, so the relabel runs no model.
  Modern video backbones repeat the same conv shape dozens of times, so
  this alone collapses most of a network sweep.
* **Parallel fan-out** — unique-layer searches run across a
  ``concurrent.futures.ProcessPoolExecutor`` when ``parallelism > 1``,
  with a ``parallelism == 1`` in-process fallback.  Results are collected
  with ``Executor.map`` in submission order, so the outcome is
  deterministic and identical to the serial path, layer by layer.
  ``parallelism_mode="thread"`` swaps in a ``ThreadPoolExecutor`` — the
  right executor on free-threaded builds (no pickling, shared memos) and
  for exercising the cache's thread-safety; results are identical.
* **Persistent config-store cache** — when a store is configured, each
  unique search's chosen configuration is written as a versioned JSON
  record (via :mod:`repro.optimizer.config_store`'s dataflow codec) keyed
  by the sha256 of its search signature.  A later run — any process —
  recalls the configuration and re-evaluates it (one model evaluation
  instead of a full search), exactly the paper's save-and-recall flow.
  Records whose embedded signature does not match (hash collision, older
  format, edited file) are treated as misses and rewritten.  *Where*
  records live is a pluggable :class:`~repro.optimizer.config_store.ConfigStore`
  backend — ``cache_backend=`` one of ``"local"`` (flat directory,
  atomic-rename writes, corrupt-record quarantine), ``"sharded"``
  (two-level fan-out plus manifest, for cluster-shared mounts) or
  ``"memory"`` (in-process, for tests) — or any ``ConfigStore`` instance.

API
---
:class:`OptimizerEngine` is the stateful front end::

    engine = OptimizerEngine(arch, options, parallelism=8, cache_dir="~/.cache/repro")
    result = engine.optimize_network(network.layers, network_name=network.name)
    print(engine.stats)          # dedup / memo / disk hit counters

:func:`optimize_layer` is the convenience single-layer path used by the
experiment modules (Table 3, Figure 4, the Eyeriss baseline), sharing the
same caches.  :func:`repro.optimizer.search.optimize_network` delegates
here, so every experiment, benchmark and example goes through the engine.

How experiments opt in/out
--------------------------
``optimize_network`` / ``optimize_layer`` accept ``use_cache``,
``parallelism``, ``parallelism_mode``, ``cache_dir``, ``cache_backend``
and ``vectorize`` keywords.  Leaving them as ``None`` falls back through
the resolution chain: the active :class:`repro.api.Session`'s config
(the way to configure the engine — scoped, so concurrent sweeps with
different settings coexist in one process), then the
``REPRO_PARALLELISM`` / ``REPRO_PARALLELISM_MODE`` / ``REPRO_CACHE_DIR`` /
``REPRO_CACHE_BACKEND`` / ``REPRO_VECTORIZE`` environment variables
(the experiment runner materialises its ``--parallelism`` /
``--parallelism-mode`` / ``--cache-dir`` / ``--cache-backend`` /
``--no-cache`` / ``--vectorize`` / ``--no-vectorize`` flags into a
:class:`repro.api.SessionConfig` instead of mutating anything); the
built-in defaults are serial, process-pool workers, in-memory-only
caching, the ``"local"`` store layout, and columnar (vectorized)
candidate scoring when NumPy is available.  ``vectorize`` is purely a
speed knob — the columnar pipeline (:mod:`repro.core.batch`) returns
bit-identical configurations and scores to the scalar path, so it is
excluded from search signatures and cache keys (as are
``cache_backend``/``parallelism_mode``, which never change results).
Passing ``cache_dir=False`` disables the persistent cache entirely —
whatever the backend — even when a default is configured (``None``
merely defers to the defaults).

Cache location and versioning
-----------------------------
Records carry ``format_version`` (:data:`CACHE_FORMAT_VERSION`) plus the
full signature they were computed from.  Bump the version whenever the
analytic models or the record layout change meaning; stale records then
invalidate automatically on recall.  The on-store layout is the
backend's concern: flat ``<sha256>.json`` files for ``"local"``,
``ab/cd/<sha256>.json`` shards plus a manifest for ``"sharded"``, a dict
for ``"memory"`` — all safe under concurrent writers via atomic
temp-file + rename (corrupt records are quarantined, not fatal).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from typing import Iterable, Sequence

from repro._scope import active_value, parse_bool
from repro.arch.accelerator import AcceleratorConfig
from repro.core.evaluate import CapacityError, evaluate
from repro.core.layer import ConvLayer
from repro.optimizer.config_store import (
    CACHE_BACKENDS,
    ConfigStore,
    LocalDirectoryStore,
    create_store,
    dataflow_from_json,
    dataflow_to_json,
    layer_signature,
)
from repro.optimizer.search import (
    LayerOptimizer,
    LayerResult,
    NetworkResult,
    OptimizerOptions,
)

#: Version of the on-disk record layout *and* of what a signature means.
#: Bump when the analytic models, the search, or the record shape change.
#: v2: dilation-aware layer signatures (records from the pre-dilation
#: models invalidate automatically).
CACHE_FORMAT_VERSION = 2


# ----------------------------------------------------------------------
# Knob defaults
#
# Resolution order of every ``default_*`` knob below:
#   1. the active :class:`repro.api.Session`'s config (contextvar-scoped,
#      so concurrent sessions in one process never see each other);
#   2. the ``$REPRO_*`` environment variable;
#   3. the built-in default.
# ----------------------------------------------------------------------

#: Executor selectors accepted by ``parallelism_mode=``.
PARALLELISM_MODES = ("process", "thread")


def _check_mode(mode):
    if mode is not None and mode not in PARALLELISM_MODES:
        raise ValueError(
            f"parallelism_mode must be one of {PARALLELISM_MODES}, "
            f"got {mode!r}"
        )
    return mode


def _check_backend(backend):
    if (
        backend is not None
        and not isinstance(backend, ConfigStore)
        and backend not in CACHE_BACKENDS
    ):
        raise ValueError(
            f"cache_backend must be one of {CACHE_BACKENDS} or a "
            f"ConfigStore instance, got {backend!r}"
        )
    return backend


def _env_value(variable: str, parse, environ=None):
    """``parse`` of ``$variable`` (blanks stripped), or ``None`` when it
    is unset or blank.

    The resolvers below and :meth:`repro.api.SessionConfig.from_env` both
    read the environment through this and the same per-variable parser,
    so each variable has one parse and one error message.
    """
    raw = (os.environ if environ is None else environ).get(variable)
    if raw is None or raw.strip() == "":
        return None
    return parse(raw.strip())


def _parse_parallelism(raw: str) -> int:
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(
            f"REPRO_PARALLELISM must be an integer, got {raw!r}"
        ) from None


def _parse_choice(variable: str, setting: str, choices: tuple, raw: str) -> str:
    """``raw`` lower-cased, if it is one of ``choices``; the error names
    the variable as well as the setting it feeds."""
    value = raw.lower()
    if value not in choices:
        raise ValueError(
            f"{variable} must be one of {choices} (the {setting} setting), "
            f"got {raw!r}"
        )
    return value


def _parse_parallelism_mode(raw: str) -> str:
    return _parse_choice(
        "REPRO_PARALLELISM_MODE", "parallelism_mode", PARALLELISM_MODES, raw
    )


def _parse_cache_backend(raw: str) -> str:
    return _parse_choice(
        "REPRO_CACHE_BACKEND", "cache_backend", CACHE_BACKENDS, raw
    )


def _parse_use_cache(raw: str) -> bool:
    return parse_bool(raw, "REPRO_USE_CACHE")


def _parse_vectorize(raw: str) -> bool:
    return parse_bool(raw, "REPRO_VECTORIZE")


def _parse_budget_ms(raw: str) -> float:
    """An invalid budget raises — a typo'd budget must never silently
    become an unbudgeted (or unbounded) run."""
    try:
        budget = float(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_BUDGET_MS must be a number (milliseconds), got {raw!r}"
        ) from None
    if budget < 0:
        raise ValueError(
            f"REPRO_BUDGET_MS must be >= 0 (milliseconds), got {raw!r}"
        )
    return budget


def _parse_max_table_bytes(raw: str) -> int:
    """An invalid or non-positive cap raises — a typo'd cap must never
    silently mean "unlimited"."""
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_MAX_TABLE_BYTES must be an integer byte count, "
            f"got {raw!r}"
        ) from None
    if cap < 1:
        raise ValueError(
            f"REPRO_MAX_TABLE_BYTES must be >= 1 (bytes), got {raw!r}"
        )
    return cap


def _parse_manifest_compact_ratio(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_MANIFEST_COMPACT_RATIO must be a number, got {raw!r}"
        ) from None


def default_parallelism() -> int:
    scoped = active_value("parallelism")
    if scoped is not None:
        return max(1, scoped)
    env = _env_value("REPRO_PARALLELISM", _parse_parallelism)
    return 1 if env is None else env


def default_parallelism_mode() -> str:
    """Executor kind for parallel searches: ``"process"`` (default) or
    ``"thread"`` (free-threaded builds), via the active session or
    ``REPRO_PARALLELISM_MODE``."""
    scoped = active_value("parallelism_mode")
    if scoped is not None:
        return _check_mode(scoped)
    env = _env_value("REPRO_PARALLELISM_MODE", _parse_parallelism_mode)
    return "process" if env is None else env


def default_cache_dir() -> Path | None:
    scoped = active_value("cache_dir")
    if scoped is not None:
        return Path(scoped)
    return _env_value("REPRO_CACHE_DIR", Path)


def default_cache_backend() -> str | ConfigStore:
    """Config-store backend selector: ``"local"`` unless overridden via
    the active session or ``REPRO_CACHE_BACKEND``."""
    scoped = active_value("cache_backend")
    if scoped is not None:
        return _check_backend(scoped)
    env = _env_value("REPRO_CACHE_BACKEND", _parse_cache_backend)
    return "local" if env is None else env


def default_use_cache() -> bool:
    scoped = active_value("use_cache")
    if scoped is not None:
        return scoped
    env = _env_value("REPRO_USE_CACHE", _parse_use_cache)
    return True if env is None else env


def default_vectorize() -> bool:
    """Columnar batch evaluation on by default; ``REPRO_VECTORIZE=0`` (or
    a missing NumPy) falls back to the scalar reference path."""
    scoped = active_value("vectorize")
    if scoped is not None:
        return scoped
    env = _env_value("REPRO_VECTORIZE", _parse_vectorize)
    if env is not None:
        return env
    from repro.core import batch

    return batch.available


def default_budget_ms() -> float | None:
    """Anytime-search budget in milliseconds (``None`` = run to
    exhaustion), via the active session or ``$REPRO_BUDGET_MS``; an
    empty value means unset."""
    scoped = active_value("budget_ms")
    if scoped is not None:
        return scoped
    return _env_value("REPRO_BUDGET_MS", _parse_budget_ms)


def default_max_table_bytes() -> int | None:
    """Memory cap (bytes) for columnar schedule/candidate tables
    (``None`` = materialise full tables), via the active session or
    ``$REPRO_MAX_TABLE_BYTES``; an empty value means unset.  Capped
    passes stream row chunks with carried reductions — bit-identical to
    unchunked, so this too stays out of search signatures.
    """
    scoped = active_value("max_table_bytes")
    if scoped is not None:
        return scoped
    return _env_value("REPRO_MAX_TABLE_BYTES", _parse_max_table_bytes)


def default_manifest_compact_ratio() -> float | None:
    """Auto-compaction threshold for :class:`ShardedStore` manifests (the
    manifest is rewritten once its line count exceeds this multiple of
    its live keys).  ``None`` defers to the store's built-in default;
    overridable via the active session or
    ``$REPRO_MANIFEST_COMPACT_RATIO`` (``0`` disables auto-compaction)."""
    scoped = active_value("manifest_compact_ratio")
    if scoped is not None:
        return scoped
    return _env_value(
        "REPRO_MANIFEST_COMPACT_RATIO", _parse_manifest_compact_ratio
    )


# ----------------------------------------------------------------------
# Store resolution (shared by the engine and repro.api.Session)
# ----------------------------------------------------------------------
def resolve_store(
    cache_dir: str | Path | bool | None = None,
    cache_backend: str | ConfigStore | None = None,
) -> ConfigStore | None:
    """Resolve the ``cache_dir``/``cache_backend`` knob pair to a
    :class:`ConfigStore` (or ``None`` for in-memory-only operation).

    ``cache_dir=None`` defers to the scoped/process defaults; ``False``
    disables the persistent store outright — whatever the backend — even
    when a default directory is configured.  A ``ConfigStore`` instance
    passed as the backend wins over any directory.
    """
    if cache_dir is False:
        return None
    directory = default_cache_dir() if cache_dir is None else Path(cache_dir)
    backend = _check_backend(
        default_cache_backend() if cache_backend is None else cache_backend
    )
    if isinstance(backend, ConfigStore):
        return backend
    if backend == "memory":
        # The shared in-process store needs no directory.
        return create_store(backend)
    if directory is None:
        return None
    return create_store(
        backend,
        directory,
        manifest_compact_ratio=default_manifest_compact_ratio(),
    )


# ----------------------------------------------------------------------
# Search signatures
# ----------------------------------------------------------------------
def search_signature(
    layer: ConvLayer, arch: AcceleratorConfig, options: OptimizerOptions
) -> dict:
    """Content identity of one search: shape + machine + search knobs.

    The layer's *name* is deliberately excluded — two occurrences of the
    same conv shape are the same search.  The accelerator and options are
    captured through their full dataclass ``repr``: every field that can
    change the search outcome (buffer sizes, partition policies, NoC,
    technology constants, precision, pinned dataflows, effort knobs) is
    part of the identity, unlike a bare ``arch.name``.
    """
    return _signature(layer, repr(arch), repr(options))


def _signature(layer: ConvLayer, arch_repr: str, options_repr: str) -> dict:
    """:func:`search_signature` from the machine's and options' ``repr``
    strings, precomputed (an engine derives them once, not per layer)."""
    return {
        "format_version": CACHE_FORMAT_VERSION,
        "layer": layer_signature(layer, include_name=False),
        "arch": arch_repr,
        "options": options_repr,
    }


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def signature_key(signature: dict) -> str:
    """Stable sha256 hex key of a search signature (the cache filename)."""
    return hashlib.sha256(_canonical(signature).encode()).hexdigest()


def _key_around_layer(arch_repr: str, options_repr: str):
    """:func:`signature_key` split around the layer.

    A signature's keys sort ``arch``, ``format_version``, ``layer``,
    ``options``, so its canonical JSON is a constant head, the layer's
    JSON and a constant tail.  Returns the head already hashed (to
    ``copy()`` per layer) and the tail.
    """
    head, tail = _canonical({
        "arch": arch_repr,
        "format_version": CACHE_FORMAT_VERSION,
        "layer": None,
        "options": options_repr,
    }).split('"layer":null')
    return hashlib.sha256(f'{head}"layer":'.encode()), tail.encode()


# ----------------------------------------------------------------------
# Per-store cache statistics (process-wide, across engines)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class BackendCacheStats:
    """Cross-run recall statistics of one config store (keyed by
    :meth:`ConfigStore.identity`, so same-kind stores stay separate)."""

    hits: int = 0  #: records recalled and re-evaluated successfully
    misses: int = 0  #: lookups that fell through to a full search
    stale: int = 0  #: records present but format/signature mismatched
    recall_reevals: int = 0  #: recall re-evaluations attempted
    reeval_failures: int = 0  #: recalled configs the current models reject
    writes: int = 0  #: records written successfully
    write_failures: int = 0  #: writes that failed (I/O)

    def describe(self) -> str:
        lookups = self.hits + self.misses
        return (
            f"{self.hits}/{lookups} hits"
            f" ({self.stale} stale, {self.reeval_failures} re-eval rejects),"
            f" {self.recall_reevals} recall re-evals,"
            f" {self.writes} writes"
            + (f" ({self.write_failures} failed)" if self.write_failures else "")
        )


#: Backend kind (``"local"`` / ``"sharded"`` / ``"memory"`` / class name)
#: -> accumulated statistics.  Engines come and go per ``optimize_network``
#: call; this registry is what survives to the bench JSON and the runner's
#: end-of-run summary.
_CACHE_STATS: dict[str, BackendCacheStats] = {}

#: Counter state as of the last sidecar flush (see
#: :func:`consume_unflushed_statistics`).  Kept beside the counters so
#: :func:`reset_cache_statistics` clears both together.
_FLUSHED_STATS: dict[str, BackendCacheStats] = {}
_STATS_FLUSH_LOCK = threading.Lock()


def cache_statistics() -> dict[str, BackendCacheStats]:
    """Per-store-identity recall statistics accumulated in this
    process (returned as copies; mutate-safe)."""
    return {
        identity: dataclasses.replace(stats)
        for identity, stats in _CACHE_STATS.items()
    }


def reset_cache_statistics() -> None:
    _CACHE_STATS.clear()
    _FLUSHED_STATS.clear()


def _statistics_deltas(
    now: dict[str, BackendCacheStats],
    base: dict[str, BackendCacheStats],
) -> dict[str, dict[str, int]]:
    """Per-kind counter movement ``now - base`` as plain dicts (empty
    movements dropped; counters never go backwards between resets, and a
    reset clears both registries together)."""
    names = [field.name for field in dataclasses.fields(BackendCacheStats)]
    deltas: dict[str, dict[str, int]] = {}
    for kind, stats in now.items():
        baseline = base.get(kind, BackendCacheStats())
        movement = {
            name: getattr(stats, name) - getattr(baseline, name)
            for name in names
        }
        movement = {name: value for name, value in movement.items() if value}
        if movement:
            deltas[kind] = movement
    return deltas


def peek_unflushed_statistics() -> dict[str, dict[str, int]]:
    """Counter movement since the last flush by any session (read-only)."""
    with _STATS_FLUSH_LOCK:
        return _statistics_deltas(cache_statistics(), _FLUSHED_STATS)


def consume_unflushed_statistics() -> dict[str, dict[str, int]]:
    """Claim the unflushed counter movement and advance the baseline.

    Sessions call this when persisting statistics into a store's sidecar
    (:meth:`repro.api.Session.flush_statistics`): one process-wide
    baseline means overlapping sessions never persist the same movement
    twice.
    """
    with _STATS_FLUSH_LOCK:
        now = cache_statistics()
        deltas = _statistics_deltas(now, _FLUSHED_STATS)
        _FLUSHED_STATS.clear()
        _FLUSHED_STATS.update(now)
        return deltas


def describe_cache_statistics() -> str:
    """One line per store identity, for the runner's summary output."""
    if not _CACHE_STATS:
        return "config cache: no persistent-store activity"
    return "\n".join(
        f"config cache [{identity}]: {stats.describe()}"
        for identity, stats in sorted(_CACHE_STATS.items())
    )


def _stats_for(backend: ConfigStore) -> BackendCacheStats:
    # Keyed by identity, not kind: two same-kind stores in one process
    # (e.g. two local cache directories across session windows) must not
    # pool their hit/miss counters — ROADMAP flagged the kind-keyed
    # version as a wrong-attribution bug.
    return _CACHE_STATS.setdefault(backend.identity(), BackendCacheStats())


# ----------------------------------------------------------------------
# Persistent config cache (record codec over a pluggable store)
# ----------------------------------------------------------------------
class DiskConfigCache:
    """Versioned per-search configuration records over a config store.

    This class owns *what* a record means — the format version, the
    embedded signature check, the dataflow codec, re-evaluation on recall
    — while the :class:`~repro.optimizer.config_store.ConfigStore` backend
    owns *where* the bytes live.  Constructing it from a path keeps the
    historical behaviour (a flat local directory).
    """

    def __init__(self, target: str | Path | ConfigStore) -> None:
        self.backend: ConfigStore = (
            target
            if isinstance(target, ConfigStore)
            else LocalDirectoryStore(target)
        )

    # ``key`` on the methods below is ``signature_key(signature)`` when
    # the caller already holds it (the engine derives each key once).
    def contains(self, signature: dict, key: str | None = None) -> bool:
        return self.backend.contains(key or signature_key(signature))

    def load(
        self,
        signature: dict,
        layer: ConvLayer,
        arch: AcceleratorConfig,
        options: OptimizerOptions,
        key: str | None = None,
    ) -> LayerResult | None:
        """Recall a configuration and re-evaluate it (no search).

        The one model evaluation is the check that the current models
        still accept the stored configuration.  Returns ``None`` on any
        miss: absent or corrupt record (the file backends quarantine
        those), format or signature mismatch (stale record), or a
        configuration the current models reject.  Every outcome feeds the
        per-store-identity :func:`cache_statistics`.
        """
        stats = _stats_for(self.backend)
        payload = self.backend.get(key or signature_key(signature))
        if payload is None:
            stats.misses += 1
            return None
        if (
            payload.get("format_version") != CACHE_FORMAT_VERSION
            or payload.get("signature") != signature
        ):
            stats.stale += 1
            stats.misses += 1
            return None
        stats.recall_reevals += 1
        try:
            dataflow = dataflow_from_json(layer, payload["dataflow"])
            best = evaluate(dataflow, arch)
        except (KeyError, TypeError, ValueError, CapacityError):
            # Malformed record fields count as a miss, like unreadable JSON.
            stats.reeval_failures += 1
            stats.misses += 1
            return None
        stats.hits += 1
        # Optional telemetry round-trips losslessly: ``first_block_won``
        # is tri-state, and a record written before the field existed
        # recalls as ``None`` — absence is preserved, never coerced to a
        # concrete bool.
        first_block_won = payload.get("first_block_won")
        return LayerResult(
            layer=layer,
            best=best,
            evaluated=int(payload.get("evaluated", 0)),
            objective=options.objective,
            pruned=int(payload.get("pruned", 0)),
            first_block_won=(
                None if first_block_won is None else bool(first_block_won)
            ),
            parallelism_displaced=int(payload.get("parallelism_displaced", 0)),
        )

    def store(
        self, signature: dict, result: LayerResult, key: str | None = None
    ) -> bool:
        """Atomically write one search's winning configuration.

        The cache is an optimisation, never a correctness requirement: an
        I/O failure (directory vanished, permissions, disk full) returns
        ``False`` instead of killing a sweep whose search work is done.

        Budget-exhausted results are refused outright: they are best-so-far
        prefixes, and caching one would let a truncated configuration
        impersonate the search's true optimum for every later run (the
        anytime contract in docs/INVARIANTS.md).
        """
        if result.budget_exhausted:
            raise ValueError(
                "refusing to cache a budget-exhausted (best-so-far) result "
                f"for {result.layer.name}; only completed searches are "
                "cacheable"
            )
        payload = {
            "format_version": CACHE_FORMAT_VERSION,
            "signature": signature,
            "dataflow": dataflow_to_json(result.best.dataflow),
            "evaluated": result.evaluated,
            "pruned": result.pruned,
            "objective": result.objective,
            "expected_score": result.score,
            "first_block_won": result.first_block_won,
            "parallelism_displaced": result.parallelism_displaced,
        }
        stats = _stats_for(self.backend)
        if self.backend.put(key or signature_key(signature), payload):
            stats.writes += 1
            return True
        stats.write_failures += 1
        return False


# ----------------------------------------------------------------------
# In-flight search coalescing (shared across engines and threads)
# ----------------------------------------------------------------------
class _InflightSearch:
    """One signature's in-flight search: the owner publishes, waiters wait.

    The entry lives in :data:`_INFLIGHT` from the moment an engine claims
    the signature until the owning search publishes (result or error), so
    every concurrent engine asking for the same signature in that window
    subscribes instead of searching again.  Publication removes the entry;
    later requests fall through to the memo/disk caches as before.
    """

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: LayerResult | None = None
        self.error: BaseException | None = None

    def wait(self, timeout: float) -> LayerResult | None:
        """The published result, or ``None`` when the owner failed or the
        wait timed out (callers fall back to searching themselves)."""
        if not self.event.wait(timeout):
            return None
        return self.result


#: Signature key -> in-flight search entry.  A sanctioned process-wide
#: registry (scoped-config convention): the table is what lets N
#: concurrent engines — the serve layer's worker pool above all — run
#: exactly one underlying search per unique signature.
_INFLIGHT: dict[str, _InflightSearch] = {}
_INFLIGHT_LOCK = threading.Lock()

#: Upper bound on how long a subscriber waits for another engine's search
#: before falling back to its own (a search takes seconds, not minutes;
#: the bound only matters if an owning thread is killed mid-search).
_INFLIGHT_WAIT_S = 600.0


def _inflight_claim(key: str) -> tuple[_InflightSearch, bool]:
    """Claim ``key`` (returns ``(entry, True)``: caller owns the search)
    or join the existing owner's entry (``(entry, False)``)."""
    with _INFLIGHT_LOCK:
        entry = _INFLIGHT.get(key)
        if entry is not None:
            return entry, False
        entry = _InflightSearch()
        _INFLIGHT[key] = entry
        return entry, True


def _inflight_publish(
    key: str,
    entry: _InflightSearch,
    result: LayerResult | None,
    error: BaseException | None = None,
) -> None:
    """Resolve an owned entry and retire it from the table."""
    with _INFLIGHT_LOCK:
        if _INFLIGHT.get(key) is entry:
            del _INFLIGHT[key]
    entry.result = result
    entry.error = error
    entry.event.set()


def inflight_searches() -> int:
    """Number of searches currently in flight process-wide (telemetry for
    the serve layer's metrics snapshot)."""
    with _INFLIGHT_LOCK:
        return len(_INFLIGHT)


# ----------------------------------------------------------------------
# In-process memoisation (shared across engines)
# ----------------------------------------------------------------------
_LAYER_MEMO: dict[str, LayerResult] = {}
#: Content key (layers + arch + options) -> NetworkResult.  The network
#: *name* is not part of the key: the same layer tuple under two names
#: (e.g. two-stream reusing a backbone) is one entry.
_NETWORK_MEMO: dict[tuple, NetworkResult] = {}


def clear_memory_caches() -> None:
    """Drop the in-process layer and network memos (disk cache untouched)."""
    _LAYER_MEMO.clear()
    _NETWORK_MEMO.clear()


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
def _search_one(
    payload: tuple[ConvLayer, AcceleratorConfig, OptimizerOptions],
) -> LayerResult:
    """Worker: one full per-layer search (module-level for pickling)."""
    layer, arch, options = payload
    return LayerOptimizer(arch, options).optimize(layer)


@dataclasses.dataclass
class EngineStats:
    """Where each requested layer's result came from."""

    requested: int = 0  #: layer occurrences asked for
    unique: int = 0  #: distinct search signatures among them
    dedup_hits: int = 0  #: occurrences served by fan-out from a duplicate
    memo_hits: int = 0  #: unique signatures served by the in-process memo
    disk_hits: int = 0  #: unique signatures recalled from the disk cache
    disk_misses: int = 0  #: disk lookups that fell through to a search
    searched: int = 0  #: full searches actually run
    #: Unique signatures served by subscribing to another engine's
    #: in-flight search (the serve layer's request coalescing): the work
    #: ran exactly once process-wide, in someone else's engine.
    coalesced: int = 0
    network_hits: int = 0  #: whole networks served by the network memo
    budget_exhausted: int = 0  #: searches cut short by the anytime budget
    #: Ranked parallelism candidates displaced so the canonical default
    #: kept its slot (see ``LayerOptimizer._parallelisms``) — a persistent
    #: non-zero count means ``max_parallelism_candidates`` is too small.
    parallelism_displaced: int = 0

    def describe(self) -> str:
        text = (
            f"{self.requested} layers -> {self.unique} unique "
            f"(dedup {self.dedup_hits}), memo {self.memo_hits}, "
            f"disk {self.disk_hits}/{self.disk_hits + self.disk_misses}, "
            f"searched {self.searched}"
        )
        if self.coalesced:
            text += f", coalesced {self.coalesced}"
        if self.network_hits:
            text += f", whole-network hits {self.network_hits}"
        if self.budget_exhausted:
            text += f", budget-exhausted {self.budget_exhausted}"
        if self.parallelism_displaced:
            text += f", parallelism displaced {self.parallelism_displaced}"
        return text


def _resolved(explicit, option, default):
    """The first non-``None`` of an engine kwarg and its option field,
    else the scoped default."""
    if explicit is not None:
        return explicit
    return option if option is not None else default()


class OptimizerEngine:
    """Deduplicating, parallel, cache-backed per-layer optimizer.

    One engine binds an accelerator and an options set; its caches (the
    in-process memo and the optional disk cache) are shared process-wide,
    so short-lived engines — one per :func:`optimize_network` call — still
    recall earlier results.
    """

    def __init__(
        self,
        arch: AcceleratorConfig,
        options: OptimizerOptions | None = None,
        *,
        parallelism: int | None = None,
        parallelism_mode: str | None = None,
        cache_dir: str | Path | bool | None = None,
        cache_backend: str | ConfigStore | None = None,
        use_cache: bool | None = None,
        vectorize: bool | None = None,
        budget_ms: float | None = None,
        max_table_bytes: int | None = None,
        coalesce_inflight: bool | None = None,
    ) -> None:
        self.arch = arch
        self.options = options or OptimizerOptions()
        # Resolve the speed knobs (vectorize, anytime budget, table cap)
        # here and bake them into the options so worker processes (which
        # do not inherit the active session's contextvar) follow the same
        # path.  None affects results, signatures or cache keys —
        # vectorize and the cap only change how candidates are scored,
        # and budget-exhausted results are never cached.
        options = self.options
        self.vectorize = _resolved(
            vectorize, options.vectorize, default_vectorize
        )
        self.budget_ms = _resolved(
            budget_ms, options.budget_ms, default_budget_ms
        )
        self.max_table_bytes = _resolved(
            max_table_bytes, options.max_table_bytes, default_max_table_bytes
        )
        self.options = self.options.with_(
            vectorize=self.vectorize,
            budget_ms=self.budget_ms,
            max_table_bytes=self.max_table_bytes,
        )
        # The machine and options enter every signature through their
        # ``repr`` — derived once here, not once per layer.
        self._arch_repr = repr(arch)
        self._options_repr = repr(self.options)
        self._key_head, self._key_tail = _key_around_layer(
            self._arch_repr, self._options_repr
        )
        self.parallelism = (
            default_parallelism() if parallelism is None else max(1, parallelism)
        )
        self.parallelism_mode = _check_mode(
            default_parallelism_mode()
            if parallelism_mode is None
            else parallelism_mode
        )
        self.use_cache = default_use_cache() if use_cache is None else use_cache
        # Coalescing is pure dedup of *concurrent* identical searches
        # (claim-or-subscribe on the signature-keyed in-flight table) —
        # searches are deterministic, so a subscribed result is
        # bit-identical to searching again.  On by default; budgeted
        # engines opt out automatically (their results are request-
        # specific prefixes, see optimize_layers).
        self.coalesce_inflight = (
            True if coalesce_inflight is None else bool(coalesce_inflight)
        )
        # cache_dir: None defers to the session/default resolution chain;
        # False disables the persistent cache — whatever the backend —
        # even when a default is configured.
        store = resolve_store(cache_dir, cache_backend)
        self.disk = (
            DiskConfigCache(store) if (store is not None and self.use_cache)
            else None
        )
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    def optimize_layers(
        self, layers: Iterable[ConvLayer]
    ) -> tuple[LayerResult, ...]:
        """Optimize every layer; unique shapes searched once, in order."""
        layers = tuple(layers)
        keyed: list[tuple[ConvLayer, str]] = []
        signatures: dict[str, dict] = {}
        representatives: dict[str, ConvLayer] = {}
        for layer in layers:
            signature, key = self._signed(layer)
            keyed.append((layer, key))
            if key not in signatures:
                signatures[key] = signature
            else:
                self.stats.dedup_hits += 1
            representatives.setdefault(key, layer)
        self.stats.requested += len(layers)
        self.stats.unique += len(signatures)

        # Budgeted engines never claim or join the in-flight table: a
        # deadline-bounded result is a request-specific best-so-far prefix
        # (how far it got depends on *this* request's budget), so sharing
        # one across requests would violate the anytime contract the same
        # way caching one would.
        coalesce = self.coalesce_inflight and self.budget_ms is None
        resolved: dict[str, LayerResult] = {}
        pending: list[str] = []
        claimed: dict[str, _InflightSearch] = {}
        joined: dict[str, _InflightSearch] = {}
        # Never strand a subscriber: whatever raises in this block (the
        # search, a store or a recall), every claim not yet published is
        # published with the error, so waiters fall back to their own
        # search instead of waiting out _INFLIGHT_WAIT_S.  A normal exit
        # has published every claim.
        try:
            for key, signature in signatures.items():
                if self.use_cache and key in _LAYER_MEMO:
                    resolved[key] = _LAYER_MEMO[key]
                    self.stats.memo_hits += 1
                    if self.disk is not None and not self.disk.contains(
                        signature, key
                    ):
                        # Write-through: a warm memo still populates a cache
                        # directory configured after the original search.
                        self.disk.store(signature, resolved[key], key)
                    continue
                if self.disk is not None:
                    recalled = self.disk.load(
                        signature,
                        representatives[key],
                        self.arch,
                        self.options,
                        key,
                    )
                    if recalled is not None:
                        resolved[key] = recalled
                        _LAYER_MEMO[key] = recalled
                        self.stats.disk_hits += 1
                        continue
                    self.stats.disk_misses += 1
                if coalesce:
                    entry, owned = _inflight_claim(key)
                    if owned:
                        claimed[key] = entry
                        pending.append(key)
                    else:
                        joined[key] = entry
                else:
                    pending.append(key)

            outcomes = self._search(pending, representatives)
            for key, result in zip(pending, outcomes):
                resolved[key] = result
                self.stats.searched += 1
                self.stats.parallelism_displaced += result.parallelism_displaced
                entry = claimed.pop(key, None)
                if result.budget_exhausted:
                    # Best-so-far prefixes never enter a cache: a later run
                    # (or a bigger budget) must get the chance to finish the
                    # search instead of recalling a truncated optimum.  (A
                    # budgeted engine never claims, so ``entry`` is None here
                    # unless budget resolution and claiming ever disagree —
                    # publish defensively either way.)
                    self.stats.budget_exhausted += 1
                    if entry is not None:
                        _inflight_publish(key, entry, None)
                    continue
                if entry is not None:
                    _inflight_publish(key, entry, result)
                if self.use_cache:
                    _LAYER_MEMO[key] = result
                if self.disk is not None:
                    self.disk.store(signatures[key], result, key)
        except BaseException as error:
            for key, entry in claimed.items():
                _inflight_publish(key, entry, None, error)
            raise

        # Own searches are published *before* waiting on anyone else's, so
        # two engines claiming disjoint halves of each other's layer sets
        # can never deadlock.
        for key, entry in joined.items():
            shared = entry.wait(_INFLIGHT_WAIT_S)
            if shared is None:
                # Owner died or timed out: search it ourselves.
                shared = _search_one(
                    (representatives[key], self.arch, self.options)
                )
                self.stats.searched += 1
                self.stats.parallelism_displaced += shared.parallelism_displaced
                if not shared.budget_exhausted:
                    if self.use_cache:
                        _LAYER_MEMO[key] = shared
                    if self.disk is not None:
                        self.disk.store(signatures[key], shared, key)
            else:
                self.stats.coalesced += 1
                if self.use_cache:
                    _LAYER_MEMO[key] = shared
                if self.disk is not None and not self.disk.contains(
                    signatures[key], key
                ):
                    # Write-through: the owner persisted into *its* store;
                    # this engine's (possibly different) store must end up
                    # with the record too, exactly as if it had searched.
                    # (Published results are never budget-exhausted — the
                    # owner publishes None for those.)
                    self.disk.store(signatures[key], shared, key)
            resolved[key] = shared

        return tuple(_rebind(resolved[key], layer) for layer, key in keyed)

    def _signed(self, layer: ConvLayer) -> tuple[dict, str]:
        """``layer``'s search signature and its key, derived once —
        identical to ``signature_key(search_signature(layer, arch,
        options))``, so existing stores still recall.  Only the layer's
        JSON is hashed per call; the ~1 KB machine ``repr`` before it is
        hashed once per engine (:func:`_key_around_layer`)."""
        signature = _signature(layer, self._arch_repr, self._options_repr)
        digest = self._key_head.copy()
        digest.update(_canonical(signature["layer"]).encode())
        digest.update(self._key_tail)
        return signature, digest.hexdigest()

    def _search(
        self, pending: Sequence[str], representatives: dict[str, ConvLayer]
    ) -> list[LayerResult]:
        """Run the outstanding searches, serially or across processes."""
        payloads = [
            (representatives[key], self.arch, self.options) for key in pending
        ]
        if self.parallelism <= 1 or len(payloads) <= 1:
            return [_search_one(payload) for payload in payloads]
        workers = min(self.parallelism, len(payloads))
        executor = (
            ThreadPoolExecutor
            if self.parallelism_mode == "thread"
            else ProcessPoolExecutor
        )
        with executor(max_workers=workers) as pool:
            # Executor.map preserves submission order: deterministic,
            # layer-for-layer identical to the serial path (threads and
            # processes alike — searches share no mutable state).
            return list(pool.map(_search_one, payloads))

    # ------------------------------------------------------------------
    def optimize_network(
        self,
        layers: Iterable[ConvLayer],
        *,
        network_name: str = "network",
    ) -> NetworkResult:
        """Network sweep with a content-keyed whole-network memo on top."""
        layers = tuple(layers)
        memo_key = (self._arch_repr, self.options, layers)
        if self.use_cache and memo_key in _NETWORK_MEMO:
            cached = _NETWORK_MEMO[memo_key]
            self.stats.requested += len(layers)
            self.stats.network_hits += 1
            self._write_through(cached)
            if cached.network_name == network_name:
                return cached
            return dataclasses.replace(cached, network_name=network_name)
        results = self.optimize_layers(layers)
        outcome = NetworkResult(
            network_name=network_name, arch_name=self.arch.name, layers=results
        )
        if self.use_cache and not any(r.budget_exhausted for r in results):
            # A network containing any best-so-far prefix is itself a
            # prefix — same never-cache rule as the layer memo.
            _NETWORK_MEMO[memo_key] = outcome
        return outcome

    def _write_through(self, cached: NetworkResult) -> None:
        """Backfill the disk cache from a whole-network memo hit.

        Mirrors the layer-level write-through: a cache directory
        configured *after* the original search still ends up populated.
        """
        if self.disk is None:
            return
        seen: set[str] = set()
        for layer_result in cached.layers:
            signature, key = self._signed(layer_result.layer)
            if key in seen:
                continue
            seen.add(key)
            if not self.disk.contains(signature, key):
                self.disk.store(signature, layer_result, key)


def _rebind(result: LayerResult, layer: ConvLayer) -> LayerResult:
    """Fan a shared search result out to one occurrence of the shape.

    When the occurrence *is* the searched layer the result passes through
    untouched; otherwise it is relabelled: every place the evaluation
    holds the layer — the dataflow's tile hierarchy and the traffic
    report (which carries both the layer and the dataflow) — is replaced
    with the occurrence's own layer, so every evaluation in a
    :class:`NetworkResult` names the layer it belongs to.  No model runs:
    the occurrence has the searched layer's name-free signature, and the
    models read only the shape, so ``evaluate`` of the rebound dataflow
    would return exactly this (the rebind contract in docs/INVARIANTS.md).
    """
    if result.layer == layer:
        return result
    best = result.best
    dataflow = dataclasses.replace(
        best.dataflow,
        hierarchy=dataclasses.replace(best.dataflow.hierarchy, layer=layer),
    )
    traffic = dataclasses.replace(best.traffic, layer=layer, dataflow=dataflow)
    return dataclasses.replace(
        result,
        layer=layer,
        best=dataclasses.replace(best, dataflow=dataflow, traffic=traffic),
    )


def optimize_layer(
    layer: ConvLayer,
    arch: AcceleratorConfig,
    options: OptimizerOptions | None = None,
    *,
    use_cache: bool | None = None,
    parallelism: int | None = None,
    parallelism_mode: str | None = None,
    cache_dir: str | Path | bool | None = None,
    cache_backend: str | ConfigStore | None = None,
    vectorize: bool | None = None,
    budget_ms: float | None = None,
    max_table_bytes: int | None = None,
    coalesce_inflight: bool | None = None,
) -> LayerResult:
    """Single-layer search through the engine's shared caches.

    Compatibility shim over :mod:`repro.api`: runs through the currently
    scoped session (or the process default session), so ``with
    repro.Session(...):`` blocks configure it.  ``budget_ms`` bounds the
    search's wall-clock (anytime mode — see
    :attr:`repro.optimizer.search.OptimizerOptions.budget_ms`); ``None``
    defers to the session / ``REPRO_BUDGET_MS`` default.
    ``max_table_bytes`` caps columnar-table memory (a pure speed knob,
    bit-identical results; ``None`` defers to the session /
    ``REPRO_MAX_TABLE_BYTES``).
    ``coalesce_inflight`` (default on) subscribes concurrent identical
    searches to one another through the process-wide in-flight table
    instead of running them twice — pure concurrent dedup, identical
    results; budgeted searches never coalesce.
    """
    from repro.api import current_session

    return current_session().optimize_layer(
        layer,
        arch,
        options,
        parallelism=parallelism,
        parallelism_mode=parallelism_mode,
        cache_dir=cache_dir,
        cache_backend=cache_backend,
        use_cache=use_cache,
        vectorize=vectorize,
        budget_ms=budget_ms,
        max_table_bytes=max_table_bytes,
        coalesce_inflight=coalesce_inflight,
    )
