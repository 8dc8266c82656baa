"""Persist and recall optimizer configurations (paper Section V).

"These optimizations need only be performed once per CNN. After best-fit
parameters are found once, a configuration file can be saved and recalled
instead of re-running the analysis."  This module is that configuration
file: JSON with one record per layer capturing exactly the paper's
configuration vector — ``[outer loop order, inner loop order, Ht, Wt, Ct,
Kt, Ft (per level), Hp, Wp, Kp]`` — plus enough layer shape to detect
mismatches on recall.

Pluggable record stores
-----------------------
The optimizer engine keeps one versioned JSON record per unique search,
keyed by the sha256 of its search signature.  Where those records live is
a :class:`ConfigStore` backend, selected with ``cache_backend=`` on
:class:`~repro.optimizer.engine.OptimizerEngine` /
:func:`~repro.optimizer.search.optimize_network`, per scope via
:class:`repro.api.SessionConfig`, the
``REPRO_CACHE_BACKEND`` environment variable, or the runner's
``--cache-backend`` flag:

* ``"local"`` — :class:`LocalDirectoryStore`, the original flat
  ``<dir>/<key>.json`` layout.  Writes are atomic (temp file +
  ``os.replace``), so concurrent engines — processes or threads — racing
  on one directory never see torn records; unparseable records are moved
  to a ``quarantine/`` subdirectory and re-searched instead of crashing
  the sweep.
* ``"sharded"`` — :class:`ShardedStore`, a two-level fan-out layout
  (``<dir>/ab/cd/<key>.json`` for key ``abcd...``) plus an append-only
  ``MANIFEST.jsonl`` index.  Suited to cluster-shared mounts (NFS, object
  storage gateways) where a single flat directory with many thousands of
  entries is slow to list and the manifest gives cheap enumeration.
* ``"memory"`` — :class:`MemoryStore`, an in-process dict holding the
  JSON-serialised records; the process-wide instance behind the
  ``"memory"`` name is shared across engines (see :func:`memory_store`)
  so tests exercise the full save-and-recall flow without touching disk.

Any :class:`ConfigStore` *instance* can be passed wherever a backend name
is accepted, so bespoke stores (an object-storage client, a read-through
tier) plug in without touching the engine.
"""

from __future__ import annotations

import abc
import dataclasses
import json
import os
import threading
from pathlib import Path
from typing import Iterator

from repro.arch.accelerator import AcceleratorConfig
from repro.core.dataflow import Dataflow, Parallelism
from repro.core.evaluate import Evaluation, evaluate
from repro.core.layer import ConvLayer
from repro.core.loopnest import LoopOrder
from repro.core.tiling import TileHierarchy, TileShape
from repro.optimizer.search import NetworkResult

#: v2: layer signatures carry dilation (D2Conv3D support).
FORMAT_VERSION = 2


def _tile_to_json(tile: TileShape) -> dict:
    return {"w": tile.w, "h": tile.h, "c": tile.c, "k": tile.k, "f": tile.f}


def _tile_from_json(data: dict) -> TileShape:
    return TileShape(**data)


def layer_signature(layer: ConvLayer, *, include_name: bool = True) -> dict:
    """JSON-able identity of a layer's shape (optionally with its name).

    The network config files keep the name so recall can report which
    layer mismatched; the engine's dedup/disk keys drop it so identical
    shapes under different names share one search.
    """
    signature = {
        "h": layer.h, "w": layer.w, "c": layer.c, "f": layer.f,
        "k": layer.k, "r": layer.r, "s": layer.s, "t": layer.t,
        "stride": [layer.stride_h, layer.stride_w, layer.stride_f],
        "pad": [layer.pad_h, layer.pad_w, layer.pad_f],
        "dilation": [layer.dilation_h, layer.dilation_w, layer.dilation_f],
    }
    if include_name:
        signature = {"name": layer.name, **signature}
    return signature


def _layer_signature(layer: ConvLayer) -> dict:
    return layer_signature(layer)


def dataflow_to_json(dataflow: Dataflow) -> dict:
    par = dataflow.parallelism
    return {
        "outer_order": dataflow.outer_order.format().strip("[]"),
        "inner_order": dataflow.inner_order.format().strip("[]"),
        "tiles": [_tile_to_json(t) for t in dataflow.hierarchy.tiles],
        "parallelism": {"w": par.w, "h": par.h, "k": par.k, "f": par.f},
    }


def dataflow_from_json(layer: ConvLayer, data: dict) -> Dataflow:
    return Dataflow(
        outer_order=LoopOrder.parse(data["outer_order"]),
        inner_order=LoopOrder.parse(data["inner_order"]),
        hierarchy=TileHierarchy(
            layer, tuple(_tile_from_json(t) for t in data["tiles"])
        ),
        parallelism=Parallelism(**data["parallelism"]),
    )


class ConfigMismatchError(ValueError):
    """A stored configuration does not match the layer or machine."""


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` so readers only ever see no file or the whole file.

    Stages into a temp file unique per process *and* thread (racing
    writers each stage their own), then ``os.replace``s it over the
    destination; last-writer-wins with no torn state.  Raises ``OSError``
    on failure, with the temp file cleaned up best-effort.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        raise


def save_network_configs(result: NetworkResult, path: str | Path) -> None:
    """Write every layer's chosen configuration to a JSON file."""
    records = []
    for layer_result in result.layers:
        ev = layer_result.best
        records.append(
            {
                "layer": _layer_signature(ev.layer),
                "dataflow": dataflow_to_json(ev.dataflow),
                "expected_energy_pj": ev.total_energy_pj,
            }
        )
    payload = {
        "format_version": FORMAT_VERSION,
        "network": result.network_name,
        "accelerator": result.arch_name,
        "layers": records,
    }
    _atomic_write_text(Path(path), json.dumps(payload, indent=2))


@dataclasses.dataclass(frozen=True)
class RecalledNetwork:
    """Configurations recalled from disk, re-evaluated on the machine."""

    network_name: str
    evaluations: tuple[Evaluation, ...]

    @property
    def total_energy_pj(self) -> float:
        return sum(ev.total_energy_pj for ev in self.evaluations)


def load_network_configs(
    path: str | Path,
    layers: tuple[ConvLayer, ...],
    arch: AcceleratorConfig,
) -> RecalledNetwork:
    """Recall configurations and re-evaluate them (no search).

    Verifies layer shapes and the target machine name; a mismatch means
    the file belongs to a different network or accelerator and raises
    :class:`ConfigMismatchError` rather than silently mis-scheduling.
    """
    payload = json.loads(Path(path).read_text())
    if payload.get("format_version") != FORMAT_VERSION:
        raise ConfigMismatchError(
            f"unsupported config format {payload.get('format_version')}"
        )
    if payload["accelerator"] != arch.name:
        raise ConfigMismatchError(
            f"config saved for {payload['accelerator']!r}, "
            f"recalling on {arch.name!r}"
        )
    records = payload["layers"]
    if len(records) != len(layers):
        raise ConfigMismatchError(
            f"config has {len(records)} layers, network has {len(layers)}"
        )
    evaluations = []
    for record, layer in zip(records, layers):
        if record["layer"] != _layer_signature(layer):
            raise ConfigMismatchError(
                f"layer {layer.name!r} does not match the stored shape"
            )
        dataflow = dataflow_from_json(layer, record["dataflow"])
        evaluations.append(evaluate(dataflow, arch))
    return RecalledNetwork(
        network_name=payload["network"], evaluations=tuple(evaluations)
    )


# ----------------------------------------------------------------------
# Pluggable per-search record stores (the engine's cache backends)
# ----------------------------------------------------------------------
#: Backend names accepted by ``cache_backend=`` / ``REPRO_CACHE_BACKEND``.
CACHE_BACKENDS = ("local", "sharded", "memory")


class ConfigStore(abc.ABC):
    """Key-value store of versioned per-search configuration records.

    Keys are sha256 hex digests of search signatures
    (:func:`repro.optimizer.engine.signature_key`); values are the
    JSON-able record dicts the engine writes (``format_version``, the full
    signature, the winning dataflow).  Implementations must be safe under
    concurrent writers — many engine processes or threads sharing one
    store — and must treat every failure as a miss, never an exception:
    the store is an optimisation, not a correctness requirement.
    """

    @abc.abstractmethod
    def get(self, key: str) -> dict | None:
        """Return the record stored under ``key``, or ``None`` on any miss
        (absent, unreadable, corrupt)."""

    @abc.abstractmethod
    def put(self, key: str, payload: dict) -> bool:
        """Store ``payload`` under ``key``; ``False`` on I/O failure."""

    @abc.abstractmethod
    def contains(self, key: str) -> bool:
        """Cheap existence probe (no payload validation)."""

    @abc.abstractmethod
    def keys(self) -> Iterator[str]:
        """Iterate over the keys of every stored record."""

    def describe(self) -> str:
        return type(self).__name__

    def kind(self) -> str:
        """Stable backend-kind label (``"local"`` / ``"sharded"`` /
        ``"memory"`` for the built-ins, the class name for bespoke
        stores)."""
        return type(self).__name__

    def identity(self) -> str:
        """Stable identifier of *this* store, not just its kind.

        Cache statistics are keyed by identity so two same-kind stores
        in one process (two ``local`` directories in one session window)
        keep separate counters.  File-backed stores return
        ``kind:resolved-directory`` — stable across processes, so
        sidecar totals merge correctly; the base fallback is unique only
        within the process."""
        return f"{self.kind()}#{id(self):x}"

    # -- cache-statistics sidecar ---------------------------------------
    # Per-process recall counters (repro.optimizer.engine.cache_statistics)
    # die with the process; sessions fold their deltas into a small JSON
    # sidecar *in the store* on close so cross-process sweeps sharing one
    # store can report merged totals.  The sidecar is advisory telemetry —
    # lock-free read-modify-write, so a concurrent flush can lose an
    # update — never a correctness input.

    def load_statistics(self) -> dict[str, dict[str, int]]:
        """The persisted cache-statistics sidecar (``{store_identity:
        {counter: total}}``); ``{}`` for stores without one."""
        return {}

    def merge_statistics(self, deltas: dict[str, dict[str, int]]) -> bool:
        """Fold counter deltas into the sidecar; ``False`` if this store
        does not persist statistics (the base default) or on I/O failure."""
        return False


class _FileConfigStore(ConfigStore):
    """Shared machinery of the directory-backed stores.

    Writes go through a per-process-and-thread temp file followed by
    ``os.replace``, so a reader (or a racing writer) only ever observes
    either no record or one complete record.  Records that exist but do
    not parse are *quarantined* — moved into ``<directory>/quarantine/``
    for forensics — and reported as misses, so one corrupt file (torn
    non-atomic copy, disk error, manual edit) costs one re-search instead
    of crashing the sweep.
    """

    QUARANTINE = "quarantine"
    STATS_SIDECAR = "CACHE_STATS.json"

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory).expanduser()
        if self.directory.exists() and not self.directory.is_dir():
            raise ValueError(
                f"cache directory {str(self.directory)!r} exists and is "
                "not a directory"
            )
        self._identity: str | None = None

    def identity(self) -> str:
        """``kind:resolved-directory`` — two store objects over one
        directory share counters; two directories never do."""
        if self._identity is None:
            try:
                resolved = self.directory.resolve()
            except OSError:  # pragma: no cover - resolve on broken mounts
                resolved = self.directory.absolute()
            self._identity = f"{self.kind()}:{resolved.as_posix()}"
        return self._identity

    @abc.abstractmethod
    def path_for(self, key: str) -> Path:
        """Where ``key``'s record lives (exists or not)."""

    def contains(self, key: str) -> bool:
        return self.path_for(key).exists()

    def get(self, key: str) -> dict | None:
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            self._quarantine(path)
            return None
        if not isinstance(payload, dict):
            self._quarantine(path)
            return None
        return payload

    def put(self, key: str, payload: dict) -> bool:
        path = self.path_for(key)
        try:
            _atomic_write_text(path, json.dumps(payload, indent=2))
        except OSError:
            return False
        self._register(key, path)
        return True

    def _quarantine(self, path: Path) -> None:
        """Move an unparseable record aside (best-effort, race-tolerant)."""
        quarantine = self.directory / self.QUARANTINE
        try:
            quarantine.mkdir(parents=True, exist_ok=True)
            os.replace(path, quarantine / f"{path.name}.{os.getpid()}")
        except OSError:
            pass  # a racing engine may have quarantined/rewritten it first

    def _register(self, key: str, path: Path) -> None:
        """Hook for layouts that maintain an index of written records."""

    # -- cache-statistics sidecar ---------------------------------------
    def load_statistics(self) -> dict[str, dict[str, int]]:
        try:
            payload = json.loads(
                (self.directory / self.STATS_SIDECAR).read_text()
            )
        except (OSError, ValueError):
            return {}
        if not isinstance(payload, dict):
            return {}
        stats = payload.get("statistics")
        return stats if isinstance(stats, dict) else {}

    def merge_statistics(self, deltas: dict[str, dict[str, int]]) -> bool:
        """Read-modify-write the ``CACHE_STATS.json`` sidecar atomically.

        Counters add across processes (each engine process flushes its own
        deltas on session close); the write is temp-file + ``os.replace``
        like every record write, so readers never see a torn sidecar.
        Concurrent flushes are last-writer-wins on the *replace* but each
        starts from a fresh read, so losses are bounded to one racing
        session's deltas — acceptable for advisory telemetry.
        """
        if not deltas:
            return True
        merged = self.load_statistics()
        for kind, counters in deltas.items():
            into = merged.setdefault(kind, {})
            for name, value in counters.items():
                if value:
                    into[name] = int(into.get(name, 0)) + int(value)
        path = self.directory / self.STATS_SIDECAR
        try:
            _atomic_write_text(
                path,
                json.dumps(
                    {"format_version": 1, "statistics": merged},
                    indent=2,
                    sort_keys=True,
                ),
            )
        except OSError:
            return False
        return True


class LocalDirectoryStore(_FileConfigStore):
    """The original flat layout: ``<directory>/<key>.json``.

    Right for a single machine or a modest record count; every write is
    atomic and corrupt records are quarantined rather than fatal.
    """

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def keys(self) -> Iterator[str]:
        if not self.directory.is_dir():
            return
        for path in sorted(self.directory.glob("*.json")):
            # The statistics sidecar shares the flat directory but is
            # telemetry, not a record.
            if path.name == self.STATS_SIDECAR:
                continue
            yield path.stem

    def describe(self) -> str:
        return f"local:{self.directory}"

    def kind(self) -> str:
        return "local"


class ShardedStore(_FileConfigStore):
    """Two-level fan-out layout for cluster-shared cache mounts.

    Key ``abcdef...`` lives at ``<directory>/ab/cd/abcdef....json``: 65536
    shard directories bound each directory's entry count, which keeps
    listing and creation fast on NFS and object-storage gateways where
    flat million-entry directories degrade.  Each successful write also
    appends one line to ``MANIFEST.jsonl`` (``{"key": ..., "path": ...}``)
    — an advisory index giving cheap enumeration without walking the
    shard tree.  Appends are best-effort and line-oriented; readers
    tolerate torn or duplicate lines, and the shard tree (walked by
    :meth:`keys`) remains the source of truth.
    :meth:`compact_manifest` rewrites the manifest keeping only the
    latest entry per key, with an atomic replace — and runs
    *automatically* once the manifest's line count exceeds
    ``compact_ratio`` times its live (distinct) keys, checked every
    ``compact_check_interval`` appends so steady-state writes stay one
    ``O(1)`` append.  ``compact_ratio <= 0`` disables auto-compaction
    (:meth:`compact_manifest` stays available for manual/periodic runs).
    """

    MANIFEST = "MANIFEST.jsonl"

    #: Manifest lines per live key that trigger an automatic compaction.
    DEFAULT_COMPACT_RATIO = 4.0

    #: Manifest appends since the last ratio check, keyed by resolved
    #: directory and shared process-wide.  The engine builds a fresh
    #: store instance per :class:`~repro.optimizer.engine.OptimizerEngine`
    #: (i.e. per ``optimize_network`` call), so a per-*instance* counter
    #: would never reach the check interval; counting per directory makes
    #: the interval mean "appends to this manifest by this process".
    _APPENDS_SINCE_CHECK: dict[str, int] = {}
    _APPENDS_LOCK = threading.Lock()

    def __init__(
        self,
        directory: str | Path,
        *,
        compact_ratio: float | None = None,
        compact_check_interval: int = 64,
    ) -> None:
        super().__init__(directory)
        self.compact_ratio = (
            self.DEFAULT_COMPACT_RATIO
            if compact_ratio is None
            else float(compact_ratio)
        )
        self.compact_check_interval = max(1, int(compact_check_interval))

    def path_for(self, key: str) -> Path:
        prefix = key[:2] if len(key) >= 2 else "__"
        middle = key[2:4] if len(key) >= 4 else "__"
        return self.directory / prefix / middle / f"{key}.json"

    def keys(self) -> Iterator[str]:
        if not self.directory.is_dir():
            return
        # Two glob levels cover every shard (including the "__" fallback
        # dirs of sub-4-char keys) and cannot match the single-level
        # quarantine/ directory or the manifest.
        for path in sorted(self.directory.glob("*/*/*.json")):
            yield path.stem

    def manifest_keys(self) -> Iterator[str]:
        """Keys listed in the advisory manifest (deduplicated, in append
        order; torn or non-JSON lines are skipped)."""
        seen: set[str] = set()
        try:
            lines = (self.directory / self.MANIFEST).read_text().splitlines()
        except OSError:
            return
        for line in lines:
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            key = entry.get("key") if isinstance(entry, dict) else None
            if isinstance(key, str) and key not in seen:
                seen.add(key)
                yield key

    def _register(self, key: str, path: Path) -> None:
        entry = {"key": key, "path": str(path.relative_to(self.directory))}
        try:
            # O_APPEND: single-line writes from concurrent engines land
            # whole on POSIX local filesystems; on shared mounts a torn
            # line costs nothing (readers skip it, the tree is truth).
            with open(self.directory / self.MANIFEST, "a") as manifest:
                manifest.write(json.dumps(entry) + "\n")
        except OSError:
            return
        if self.compact_ratio <= 0:
            return
        counter_key = str(self.directory)
        with self._APPENDS_LOCK:
            count = self._APPENDS_SINCE_CHECK.get(counter_key, 0) + 1
            due = count >= self.compact_check_interval
            self._APPENDS_SINCE_CHECK[counter_key] = 0 if due else count
        if due:
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Compact when manifest lines exceed ``compact_ratio`` x live keys.

        One manifest read every ``compact_check_interval`` appends; torn
        or non-JSON lines count as bloat (they are dropped by compaction).
        """
        try:
            lines = (self.directory / self.MANIFEST).read_text().splitlines()
        except OSError:
            return
        total = len(lines)
        live: set[str] = set()
        for line in lines:
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if isinstance(entry, dict) and isinstance(entry.get("key"), str):
                live.add(entry["key"])
        if total > len(live) and total >= self.compact_ratio * max(1, len(live)):
            self.compact_manifest()

    def compact_manifest(self) -> int:
        """Rewrite the append-only manifest keeping only the latest entry
        per key.

        Long-running cluster caches grow one manifest line per write —
        re-writes of one key included — so periodic compaction keeps
        enumeration cheap.  Entries keep first-appearance order with each
        key's *latest* payload (torn or non-JSON lines are dropped); the
        replacement is atomic (temp file + ``os.replace``), so concurrent
        readers see either the old or the compacted manifest, never a torn
        one.  Appends racing with the rewrite can be lost from the
        manifest — which is advisory; the shard tree stays the source of
        truth and the next write re-registers its key.  Returns the number
        of entries kept (0 when there is no manifest or on I/O failure).
        """
        path = self.directory / self.MANIFEST
        try:
            lines = path.read_text().splitlines()
        except OSError:
            return 0
        latest: dict[str, dict] = {}
        for line in lines:
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if isinstance(entry, dict) and isinstance(entry.get("key"), str):
                latest[entry["key"]] = entry
        tmp = path.with_suffix(
            f".tmp.{os.getpid()}.{threading.get_ident()}"
        )
        try:
            tmp.write_text(
                "".join(json.dumps(entry) + "\n" for entry in latest.values())
            )
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return 0
        return len(latest)

    def describe(self) -> str:
        return f"sharded:{self.directory}"

    def kind(self) -> str:
        return "sharded"


class MemoryStore(ConfigStore):
    """In-process store holding JSON-serialised records.

    Records round-trip through ``json.dumps``/``json.loads`` so the
    backend has exactly the fidelity of the disk stores (no shared
    mutable payloads, no non-JSON-able smuggling) and the same property
    tests run against all three.  Single dict assignments keep it safe
    under the thread-mode engine.
    """

    def __init__(self, name: str | None = None) -> None:
        #: Registry name when created via :func:`memory_store`; anonymous
        #: instances (test isolation) key statistics per-object instead.
        self.name = name
        self._records: dict[str, str] = {}
        self._statistics: dict[str, dict[str, int]] = {}

    def get(self, key: str) -> dict | None:
        text = self._records.get(key)
        if text is None:
            return None
        try:
            payload = json.loads(text)
        except ValueError:  # pragma: no cover - puts only store valid JSON
            return None
        return payload if isinstance(payload, dict) else None

    def put(self, key: str, payload: dict) -> bool:
        try:
            self._records[key] = json.dumps(payload)
        except (TypeError, ValueError):
            return False
        return True

    def contains(self, key: str) -> bool:
        return key in self._records

    def keys(self) -> Iterator[str]:
        return iter(tuple(self._records))

    def clear(self) -> None:
        self._records.clear()
        self._statistics.clear()

    def load_statistics(self) -> dict[str, dict[str, int]]:
        return {kind: dict(c) for kind, c in self._statistics.items()}

    def merge_statistics(self, deltas: dict[str, dict[str, int]]) -> bool:
        for kind, counters in deltas.items():
            into = self._statistics.setdefault(kind, {})
            for name, value in counters.items():
                if value:
                    into[name] = into.get(name, 0) + int(value)
        return True

    def __len__(self) -> int:
        return len(self._records)

    def describe(self) -> str:
        return f"memory:{len(self._records)} records"

    def kind(self) -> str:
        return "memory"

    def identity(self) -> str:
        if self.name is not None:
            return f"memory:{self.name}"
        return f"memory#{id(self):x}"


#: Process-wide named :class:`MemoryStore` instances, so every engine
#: created with ``cache_backend="memory"`` shares one store (the whole
#: point of a cache); tests wanting isolation construct their own
#: :class:`MemoryStore` and pass the instance.
_SHARED_MEMORY_STORES: dict[str, MemoryStore] = {}


def memory_store(name: str = "default") -> MemoryStore:
    """The process-shared :class:`MemoryStore` registered under ``name``."""
    return _SHARED_MEMORY_STORES.setdefault(name, MemoryStore(name=name))


def clear_memory_stores() -> None:
    """Empty every shared :class:`MemoryStore` (test isolation helper)."""
    for store in _SHARED_MEMORY_STORES.values():
        store.clear()


def create_store(
    backend: str | ConfigStore,
    directory: str | Path | None = None,
    *,
    manifest_compact_ratio: float | None = None,
) -> ConfigStore:
    """Resolve a backend selector to a :class:`ConfigStore` instance.

    ``backend`` may already be a store (returned as-is), or one of
    :data:`CACHE_BACKENDS`: ``"local"`` / ``"sharded"`` need ``directory``;
    ``"memory"`` ignores it and returns the shared in-process store.
    ``manifest_compact_ratio`` tunes the sharded store's automatic
    manifest compaction (``None`` keeps the store default, ``0`` disables
    it); other backends ignore it.
    """
    if isinstance(backend, ConfigStore):
        return backend
    if backend == "memory":
        return memory_store()
    if backend == "local":
        if directory is None:
            raise ValueError("cache_backend 'local' needs a cache directory")
        return LocalDirectoryStore(directory)
    if backend == "sharded":
        if directory is None:
            raise ValueError("cache_backend 'sharded' needs a cache directory")
        return ShardedStore(directory, compact_ratio=manifest_compact_ratio)
    raise ValueError(
        f"unknown cache backend {backend!r}; choose from {CACHE_BACKENDS} "
        "or pass a ConfigStore instance"
    )
