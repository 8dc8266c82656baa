"""The asyncio serving engine: optimization-as-a-service on a Session.

:class:`ServeEngine` turns the one-shot :class:`repro.api.Session`
surface into a long-lived, multi-tenant service.  Requests
(:class:`ServeRequest`) carry a network, an optional per-request
:class:`~repro.api.SessionConfig` overlay and an optional deadline; the
engine admits them through per-tenant token-bucket quotas and a
queue-depth backpressure bound, runs the per-layer searches on a bounded
worker pool, and streams each layer's result back as it completes.

The serving contract (docs/INVARIANTS.md, "serving contract"):

* **Served results are bit-identical to direct calls.**  A request runs
  through exactly the same engine/caches as
  :meth:`repro.api.Session.optimize_network`; serving adds concurrency
  and admission control, never a different answer.
* **Concurrent identical requests coalesce.**  N tenants sweeping
  overlapping networks trigger exactly one underlying search per unique
  search signature: the first request claims the signature in the
  optimizer's in-flight table, the rest subscribe to its published
  result (``EngineStats.coalesced``).  Coalescing is pure concurrent
  dedup — searches are deterministic, so a subscribed result is the
  result.
* **Deadlines map onto the anytime budget.**  A request's remaining
  deadline becomes each layer search's ``budget_ms``; an expired budget
  returns the best-so-far configuration with its certified ``bound_gap``
  (``budget_exhausted=True``).  Budget-exhausted results never enter any
  cache layer and never coalesce — they are request-specific prefixes.
* **Rejection is explicit.**  Quota or queue-depth violations raise
  :class:`ServeRejected` with a ``retry_after_ms`` hint instead of
  queueing unboundedly; a closed engine rejects rather than silently
  dropping.

All timing flows through the sanctioned injectable serve clock
(``SERVE_CLOCK`` in :mod:`repro.optimizer.clock`), so quota refill,
deadline mapping and latency percentiles are all exactly testable with a
fake clock.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, AsyncIterator, Callable, Mapping

from repro.api import Session, SessionConfig, _coerce_network
from repro.optimizer.clock import SERVE_CLOCK
from repro.optimizer.engine import BackendCacheStats, EngineStats
from repro.optimizer.search import (
    LayerResult,
    NetworkResult,
    OptimizerOptions,
)
from repro.serve.config import (
    DEFAULT_LATENCY_WINDOW,
    DEFAULT_RETRY_AFTER_MS,
    ServeConfig,
)

__all__ = [
    "ServeEngine",
    "ServeEvent",
    "ServeMetrics",
    "ServeRejected",
    "ServeRequest",
    "ServeResult",
    "TenantStats",
]


class ServeRejected(Exception):
    """A request the engine refused to admit.

    ``reason`` is one of ``"quota"`` (the tenant's token bucket is
    empty), ``"backpressure"`` (the admitted-but-unfinished count is at
    ``max_queue_depth``) or ``"closed"`` (the engine is shutting down).
    ``retry_after_ms`` is the engine's hint for when a retry is worth
    attempting (``None`` for ``"closed"`` — a closed engine never
    reopens).
    """

    def __init__(
        self,
        reason: str,
        *,
        tenant: str,
        retry_after_ms: float | None = None,
    ) -> None:
        self.reason = reason
        self.tenant = tenant
        self.retry_after_ms = retry_after_ms
        hint = (
            "" if retry_after_ms is None
            else f"; retry after {retry_after_ms:.1f} ms"
        )
        super().__init__(f"request rejected ({reason}) for tenant "
                         f"{tenant!r}{hint}")


@dataclasses.dataclass(frozen=True)
class ServeRequest:
    """One unit of serving work: a network to optimize for a tenant.

    ``network`` accepts a registered network name (built under the
    request's resolved session config), a
    :class:`~repro.workloads.networks.Network`, or a plain layer
    iterable.  ``config`` overlays the serving session's
    :class:`~repro.api.SessionConfig` for this request only.
    ``deadline_ms`` bounds the request end-to-end from admission; the
    remaining deadline becomes each layer search's anytime ``budget_ms``.
    """

    network: Any
    tenant: str = "default"
    arch: Any = None
    options: OptimizerOptions | None = None
    config: SessionConfig | None = None
    deadline_ms: float | None = None
    network_name: str = "network"
    request_id: str | None = None

    def __post_init__(self) -> None:
        if self.deadline_ms is not None and self.deadline_ms < 0:
            raise ValueError("deadline_ms must be >= 0 milliseconds")


@dataclasses.dataclass(frozen=True)
class ServeResult:
    """A completed request: the full network result plus provenance."""

    request_id: str
    tenant: str
    network_name: str
    result: NetworkResult
    latency_ms: float
    #: True when any layer hit the deadline-derived budget: the result is
    #: a certified best-so-far (per-layer ``bound_gap``), not the proven
    #: optimum, and it was not cached anywhere.
    budget_exhausted: bool
    #: Engine counters for exactly this request's layer searches.
    stats: EngineStats


@dataclasses.dataclass(frozen=True)
class ServeEvent:
    """One streamed serving event.

    ``kind == "layer"``: one layer finished (``layer_result`` set,
    ``index``/``total`` position it).  ``kind == "result"``: the request
    completed (``result`` set) — always the final event of a stream.
    """

    kind: str
    request_id: str
    tenant: str
    index: int = 0
    total: int = 0
    layer_result: LayerResult | None = None
    result: ServeResult | None = None
    error: BaseException | None = None


@dataclasses.dataclass(frozen=True)
class TenantStats:
    """Admission counters for one tenant."""

    admitted: int = 0
    rejected_quota: int = 0
    rejected_backpressure: int = 0
    completed: int = 0
    failed: int = 0


@dataclasses.dataclass(frozen=True)
class ServeMetrics:
    """A point-in-time snapshot of the serving engine.

    ``coalesce_rate`` is the fraction of unique-signature resolutions
    served by subscribing to another request's in-flight search —
    ``coalesced / (coalesced + searched)`` over the engine counters.
    Latency percentiles are nearest-rank over the last
    ``DEFAULT_LATENCY_WINDOW`` completed requests (``None`` before the
    first completion).  ``cache`` is the merged per-store recall
    statistics (persisted sidecar + this process's unflushed movement),
    keyed by store identity.
    """

    queue_depth: int
    peak_queue_depth: int
    admitted: int
    rejected_quota: int
    rejected_backpressure: int
    rejected_closed: int
    completed: int
    failed: int
    coalesce_rate: float
    engine: EngineStats
    per_tenant: Mapping[str, TenantStats]
    latency_p50_ms: float | None
    latency_p95_ms: float | None
    latency_p99_ms: float | None
    cache: Mapping[str, BackendCacheStats]

    def describe(self) -> str:
        lines = [
            f"queue {self.queue_depth} (peak {self.peak_queue_depth}), "
            f"admitted {self.admitted}, rejected "
            f"{self.rejected_quota}+{self.rejected_backpressure}"
            f"+{self.rejected_closed} (quota+backpressure+closed), "
            f"completed {self.completed}, failed {self.failed}, "
            f"coalesce rate {self.coalesce_rate:.2f}"
        ]
        if self.latency_p50_ms is not None:
            lines.append(
                f"latency ms p50 {self.latency_p50_ms:.1f} "
                f"p95 {self.latency_p95_ms:.1f} "
                f"p99 {self.latency_p99_ms:.1f}"
            )
        lines.append(f"engine: {self.engine.describe()}")
        for tenant, stats in sorted(self.per_tenant.items()):
            lines.append(
                f"tenant [{tenant}]: admitted {stats.admitted}, "
                f"rejected {stats.rejected_quota}+"
                f"{stats.rejected_backpressure} (quota+backpressure), "
                f"completed {stats.completed}, failed {stats.failed}"
            )
        for kind, entry in sorted(self.cache.items()):
            lines.append(f"config cache [{kind}]: {entry.describe()}")
        return "\n".join(lines)


class _TokenBucket:
    """Per-tenant admission quota: ``rate`` tokens/second, ``capacity``
    burst, refilled continuously from the sanctioned serve clock."""

    __slots__ = ("rate_per_ms", "capacity", "tokens", "updated_ms")

    def __init__(self, rate: float, capacity: float, now: float) -> None:
        self.rate_per_ms = rate / 1000.0
        self.capacity = float(capacity)
        self.tokens = float(capacity)
        self.updated_ms = now

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self.updated_ms)
        self.tokens = min(
            self.capacity, self.tokens + elapsed * self.rate_per_ms
        )
        self.updated_ms = now

    def try_acquire(self, now: float) -> bool:
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def retry_after_ms(self, now: float) -> float:
        """Milliseconds until one full token is available."""
        self._refill(now)
        deficit = 1.0 - self.tokens
        if deficit <= 0.0:
            return 0.0
        return deficit / self.rate_per_ms


def _percentile(ordered: list[float], q: float) -> float | None:
    """Nearest-rank percentile of an already sorted sample."""
    if not ordered:
        return None
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


def _merge_stats(into: EngineStats, delta: EngineStats) -> None:
    for field in dataclasses.fields(EngineStats):
        setattr(
            into,
            field.name,
            getattr(into, field.name) + getattr(delta, field.name),
        )


@dataclasses.dataclass
class _Ticket:
    """Internal per-admitted-request state."""

    request: ServeRequest
    request_id: str
    admitted_ms: float
    deadline_abs_ms: float | None


class ServeEngine:
    """Long-lived async front end over a session's optimizer surface.

    Admission (quotas, backpressure, closed-check) happens synchronously
    inside the submitting coroutine's first step — a rejected request
    raises :class:`ServeRejected` before any work is scheduled.  Admitted
    requests run on a bounded :class:`~concurrent.futures.ThreadPoolExecutor`
    (one slot per request; a request's layers run sequentially in its
    slot, so ``max_workers`` bounds concurrent searches), streaming
    per-layer results back through the event loop.

    Use as an async context manager, or call :meth:`shutdown` /
    :meth:`aclose` explicitly; construction is cheap — the pool starts
    lazily on the first admission.
    """

    def __init__(
        self,
        session: Session | None = None,
        config: ServeConfig | None = None,
        **overrides: Any,
    ) -> None:
        if config is None:
            config = ServeConfig.resolve(**overrides)
        elif overrides:
            config = config.merged(ServeConfig.from_dict(overrides))
        self.config = config
        self.session = session if session is not None else Session()
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False
        self._inflight = 0
        self._peak_inflight = 0
        self._request_counter = 0
        self._admitted = 0
        self._rejected_quota = 0
        self._rejected_backpressure = 0
        self._rejected_closed = 0
        self._completed = 0
        self._failed = 0
        self._buckets: dict[str, _TokenBucket] = {}
        self._tenants: dict[str, dict[str, int]] = {}
        self._engine_stats = EngineStats()
        self._latencies_ms: deque[float] = deque(
            maxlen=DEFAULT_LATENCY_WINDOW
        )

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _tenant(self, name: str) -> dict[str, int]:
        counters = self._tenants.get(name)
        if counters is None:
            counters = self._tenants[name] = {
                "admitted": 0,
                "rejected_quota": 0,
                "rejected_backpressure": 0,
                "completed": 0,
                "failed": 0,
            }
        return counters

    def _retry_hint(self) -> float:
        """Backpressure retry hint: the median recent latency (one slot
        should free up on that horizon), or the stock hint cold."""
        ordered = sorted(self._latencies_ms)
        estimate = _percentile(ordered, 50.0)
        return DEFAULT_RETRY_AFTER_MS if estimate is None else estimate

    def _admit(self, request: ServeRequest) -> _Ticket:
        """Synchronous admission control; raises :class:`ServeRejected`.

        Runs under the engine lock in the submitting coroutine's first
        step, so rejection ordering is deterministic: a request observes
        exactly the engine state left by previously *started* requests.
        """
        now = SERVE_CLOCK.now_ms()
        with self._lock:
            tenant = self._tenant(request.tenant)
            if self._closed:
                self._rejected_closed += 1
                raise ServeRejected("closed", tenant=request.tenant)
            if self._inflight >= self.config.effective_max_queue_depth:
                self._rejected_backpressure += 1
                tenant["rejected_backpressure"] += 1
                raise ServeRejected(
                    "backpressure",
                    tenant=request.tenant,
                    retry_after_ms=self._retry_hint(),
                )
            rate = self.config.tenant_rate
            if rate is not None:
                bucket = self._buckets.get(request.tenant)
                if bucket is None:
                    bucket = self._buckets[request.tenant] = _TokenBucket(
                        rate, self.config.effective_tenant_burst, now
                    )
                if not bucket.try_acquire(now):
                    self._rejected_quota += 1
                    tenant["rejected_quota"] += 1
                    raise ServeRejected(
                        "quota",
                        tenant=request.tenant,
                        retry_after_ms=bucket.retry_after_ms(now),
                    )
            self._inflight += 1
            self._peak_inflight = max(self._peak_inflight, self._inflight)
            self._admitted += 1
            tenant["admitted"] += 1
            self._request_counter += 1
            request_id = (
                request.request_id
                if request.request_id is not None
                else f"req-{self._request_counter}"
            )
            deadline_ms = (
                request.deadline_ms
                if request.deadline_ms is not None
                else self.config.default_deadline_ms
            )
            self._ensure_pool_locked()
        return _Ticket(
            request=request,
            request_id=request_id,
            admitted_ms=now,
            deadline_abs_ms=(
                None if deadline_ms is None else now + deadline_ms
            ),
        )

    def _ensure_pool_locked(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.config.effective_max_workers,
                thread_name_prefix="repro-serve",
            )
        return self._pool

    # ------------------------------------------------------------------
    # Execution (worker thread)
    # ------------------------------------------------------------------
    def _resolve_request(
        self, ticket: _Ticket
    ) -> tuple[Session, str, tuple, Any, OptimizerOptions]:
        """Materialise the request's session, network and search inputs."""
        request = ticket.request
        config = self.session.config
        if request.config is not None:
            config = config.merged(request.config)
        # Per-request sessions never flush telemetry themselves: the
        # owning session's close()/flush consumes the process-wide deltas
        # exactly once, after shutdown has drained the workers.
        session = Session(config.merged(
            SessionConfig.from_dict({"persist_statistics": False})
        ))
        network = request.network
        if isinstance(network, str):
            network = session.build_network(network)
        network_name, layers = _coerce_network(network, request.network_name)
        arch = request.arch
        if arch is None:
            from repro.arch.accelerator import morph

            arch = morph()
        options = (
            OptimizerOptions.fast()
            if request.options is None
            else request.options
        )
        return session, network_name, layers, arch, options

    def _execute(
        self, ticket: _Ticket, emit: Callable[[ServeEvent], None]
    ) -> None:
        """Run one admitted request to completion (worker thread)."""
        request = ticket.request
        try:
            (session, network_name, layers, arch, options) = (
                self._resolve_request(ticket)
            )
            stats = EngineStats()
            results: list[LayerResult] = []
            total = len(layers)
            for index, layer in enumerate(layers):
                if ticket.deadline_abs_ms is None:
                    budget_ms = None
                else:
                    budget_ms = max(
                        0.0, ticket.deadline_abs_ms - SERVE_CLOCK.now_ms()
                    )
                engine = session.engine(
                    arch,
                    options,
                    budget_ms=budget_ms,
                    coalesce_inflight=self.config.effective_coalesce,
                )
                result = engine.optimize_layers((layer,))[0]
                _merge_stats(stats, engine.stats)
                results.append(result)
                emit(
                    ServeEvent(
                        kind="layer",
                        request_id=ticket.request_id,
                        tenant=request.tenant,
                        index=index,
                        total=total,
                        layer_result=result,
                    )
                )
            outcome = NetworkResult(
                network_name=network_name,
                arch_name=arch.name,
                layers=tuple(results),
            )
            served = ServeResult(
                request_id=ticket.request_id,
                tenant=request.tenant,
                network_name=network_name,
                result=outcome,
                latency_ms=max(0.0, SERVE_CLOCK.now_ms() - ticket.admitted_ms),
                budget_exhausted=any(r.budget_exhausted for r in results),
                stats=stats,
            )
            with self._lock:
                self._inflight -= 1
                self._completed += 1
                self._tenant(request.tenant)["completed"] += 1
                _merge_stats(self._engine_stats, stats)
                self._latencies_ms.append(served.latency_ms)
            emit(
                ServeEvent(
                    kind="result",
                    request_id=ticket.request_id,
                    tenant=request.tenant,
                    index=total,
                    total=total,
                    result=served,
                )
            )
        except BaseException as error:  # noqa: B036 - relayed, not hidden
            with self._lock:
                self._inflight -= 1
                self._failed += 1
                self._tenant(request.tenant)["failed"] += 1
            emit(
                ServeEvent(
                    kind="error",
                    request_id=ticket.request_id,
                    tenant=request.tenant,
                    error=error,
                )
            )

    # ------------------------------------------------------------------
    # Async surface
    # ------------------------------------------------------------------
    async def stream(
        self, request: ServeRequest
    ) -> AsyncIterator[ServeEvent]:
        """Admit ``request`` and stream its events as they complete.

        Yields one ``"layer"`` event per finished layer, then the final
        ``"result"`` event.  Raises :class:`ServeRejected` synchronously
        (before any work is scheduled) when admission fails, and
        re-raises the underlying error if the request fails mid-run.
        """
        ticket = self._admit(request)
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue[ServeEvent] = asyncio.Queue()

        def emit(event: ServeEvent) -> None:
            # Tolerate a loop torn down mid-request (interpreter exit):
            # the counters above were already updated under the lock.
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(queue.put_nowait, event)

        with self._lock:
            pool = self._ensure_pool_locked()
        try:
            pool.submit(self._execute, ticket, emit)
        except RuntimeError:
            # shutdown() raced the admission: give the slot back and
            # reject like any other post-close arrival.
            with self._lock:
                self._inflight -= 1
                self._admitted -= 1
                self._tenant(request.tenant)["admitted"] -= 1
                self._rejected_closed += 1
            raise ServeRejected("closed", tenant=request.tenant) from None
        while True:
            event = await queue.get()
            if event.kind == "error":
                assert event.error is not None
                raise event.error
            yield event
            if event.kind == "result":
                return

    async def submit(self, request: ServeRequest) -> ServeResult:
        """Admit ``request`` and await its final :class:`ServeResult`."""
        final: ServeResult | None = None
        async for event in self.stream(request):
            if event.kind == "result":
                final = event.result
        assert final is not None
        return final

    # ------------------------------------------------------------------
    # Introspection and shutdown
    # ------------------------------------------------------------------
    def metrics(self) -> ServeMetrics:
        """A consistent point-in-time :class:`ServeMetrics` snapshot."""
        with self._lock:
            engine = dataclasses.replace(self._engine_stats)
            shared = engine.coalesced
            searched = engine.searched
            ordered = sorted(self._latencies_ms)
            per_tenant = {
                name: TenantStats(**counters)
                for name, counters in sorted(self._tenants.items())
            }
            snapshot = dict(
                queue_depth=self._inflight,
                peak_queue_depth=self._peak_inflight,
                admitted=self._admitted,
                rejected_quota=self._rejected_quota,
                rejected_backpressure=self._rejected_backpressure,
                rejected_closed=self._rejected_closed,
                completed=self._completed,
                failed=self._failed,
            )
        denominator = shared + searched
        return ServeMetrics(
            coalesce_rate=(
                shared / denominator if denominator else 0.0
            ),
            engine=engine,
            per_tenant=per_tenant,
            latency_p50_ms=_percentile(ordered, 50.0),
            latency_p95_ms=_percentile(ordered, 95.0),
            latency_p99_ms=_percentile(ordered, 99.0),
            cache=self.session.cache_statistics(merged=True),
            **snapshot,
        )

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def shutdown(self, wait: bool = True) -> None:
        """Refuse new admissions and (with ``wait``) drain in-flight
        requests.  Idempotent: a second call is a no-op beyond waiting.
        Already-admitted requests always run to completion — shutdown
        never cancels work a tenant was promised."""
        with self._lock:
            self._closed = True
            pool = self._pool
        if pool is not None:
            pool.shutdown(wait=wait)

    async def aclose(self) -> None:
        """Async shutdown: refuse new admissions, then drain in-flight
        requests without blocking the event loop."""
        with self._lock:
            self._closed = True
            pool = self._pool
        if pool is not None:
            await asyncio.to_thread(pool.shutdown, True)

    async def __aenter__(self) -> "ServeEngine":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    def describe(self) -> str:
        return f"ServeEngine({self.config.describe()})"
