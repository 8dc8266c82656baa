"""The three workloads: set-up, one timed window, answer checks.

Every workload goes through the public front door (``repro.Session``,
``Session.serve()``).  A window returns a :class:`Window` with the op
latencies, the checked answers and the counters the per-layer metrics
are made of.  Answers are checked between ops (closed loops) or after
the window (open loop), never inside an op's timed interval.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from checks import Checker, answer_record, energy_uj, tail_percentile

#: Per-op latency limit behind ``slo_ok_frac``, fixed per workload.
#: Set at about three times the slowest op seen on a 2-core host, whose
#: speed varies two-fold from hour to hour.
SLO_MS = {"cold_search": 3000.0, "warm_recall": 400.0, "serve_open": 2000.0}

#: serve_open engine: two workers (= nproc here), quotas that never bind.
SERVE_WORKERS = 2
SERVE_QUEUE_DEPTH = 1024
SERVE_TENANT_RATE = 100.0
SERVE_TENANT_BURST = 100.0
#: Queue-depth sampling period of the traced serve window.
SAMPLE_S = 0.05


@dataclasses.dataclass
class Window:
    """What one timed window measured."""

    latencies_ms: list[float]
    #: Denominator of ops_per_s: summed op time (closed loop) or last
    #: completion minus first due time (open loop).
    busy_s: float
    checker: Checker
    energy_uj: float
    slo_ok: int
    #: Op ids whose spans belong to this window.
    ops: set[str]
    engine: dict[str, int]
    store: dict[str, int]
    serve: dict[str, float] = dataclasses.field(default_factory=dict)


def _add(total: dict, more: dict) -> None:
    for key, value in more.items():
        total[key] = total.get(key, 0) + value


def _store_counts() -> dict[str, int]:
    from repro.optimizer.engine import cache_statistics

    total: dict[str, int] = {}
    for stats in cache_statistics().values():
        _add(total, dataclasses.asdict(stats))
    return total


def _delta(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def timed_op(tracer, op_id: str, fn):
    """Run one op; returns (latency ms, answer).  Spans record only
    inside the op, so checks between ops stay untraced."""
    if tracer is not None:
        index = tracer.begin("op", op_id)
        tracer.active = True
    begin = time.perf_counter()
    try:
        answer = fn()
    finally:
        latency_ms = (time.perf_counter() - begin) * 1e3
        if tracer is not None:
            tracer.active = False
            tracer.end(index)
    return latency_ms, answer


class Workload:
    """Base: the seeded inputs, a scratch directory and the expected
    winners (set by the caller after set-up)."""

    name = ""

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.expected: dict = {}
        self._dirs = 0

    def fresh_dir(self, tag: str) -> Path:
        self._dirs += 1
        path = self.workdir / f"{tag}{self._dirs}"
        path.mkdir(parents=True)
        return path

    def prepare(self) -> float:
        """Work done before the set-up clock starts; returns its seconds."""
        return 0.0

    def setup(self) -> None:
        raise NotImplementedError

    def window(self, tracer) -> Window:
        raise NotImplementedError

    def close(self) -> None:
        pass


class ColdSearch(Workload):
    """Closed loop, one client: half the unique layer shapes of the
    registered 3D networks, searched cold with default options."""

    name = "cold_search"

    def setup(self) -> None:
        from repro import OptimizerOptions, morph

        self.layers = inputs.cold_sequence(self.seed)
        self.arch = morph()
        self.options = OptimizerOptions()
        self.session = self._open()
        self._used = False

    def _open(self):
        from repro import Session, SessionConfig

        store = self.fresh_dir("cold")
        return Session(SessionConfig(cache_dir=store, cache_backend="local"))

    def window(self, tracer) -> Window:
        import repro

        checker = Checker(self.expected, self.arch, self.options)
        answers = {}
        latencies: list[float] = []
        ops: set[str] = set()
        engine: dict[str, int] = {}
        slo_ok = 0
        store_before = _store_counts()
        start = time.perf_counter()
        # Whole passes over the pool, so every run answers the same set;
        # each pass starts with empty caches and a fresh store.
        while not latencies or time.perf_counter() - start < self.seconds:
            if self._used:
                self.session = self._open()
            self._used = True
            repro.clear_cache()
            for layer in self.layers:
                op_id = f"o{len(latencies)}"
                latency, result = timed_op(
                    tracer, op_id,
                    lambda: self.session.optimize_layer(layer, self.arch, self.options),
                )
                latencies.append(latency)
                ops.add(op_id)
                ok = checker.matches(layer, result)
                checker.record(ok, layer.name)
                slo_ok += ok and latency <= SLO_MS[self.name]
                answers.setdefault(inputs.shape_key(layer), result)
            self.session.close()
            _add(engine, dataclasses.asdict(self.session.stats))
        return Window(
            latencies_ms=latencies,
            busy_s=sum(latencies) / 1e3,
            checker=checker,
            energy_uj=energy_uj(answers.values()),
            slo_ok=slo_ok,
            ops=ops,
            engine=engine,
            store=_delta(_store_counts(), store_before),
        )


def prepare_warm(store: Path, seed: int, out: Path) -> None:
    """Fill the warm_recall store (cheapest preset: recall cost does not
    depend on search effort) and save the answers it produced."""
    from repro import OptimizerOptions, Session, SessionConfig, build_network, morph

    networks = [build_network(name) for name in inputs.warm_sequence(seed)]
    with Session(SessionConfig(cache_dir=store, cache_backend="local")) as session:
        sweep = session.sweep(networks, morph(), OptimizerOptions.fast())
    records = [answer_record(r) for entry in sweep.entries for r in entry.result.layers]
    out.write_text(json.dumps(records))


class WarmRecall(Workload):
    """Closed loop, one client: each op opens a fresh Session, clears the
    in-process caches and sweeps one project recalled from a local store."""

    name = "warm_recall"

    @property
    def store(self) -> Path:
        return self.workdir / "warm_store"

    @property
    def prep_path(self) -> Path:
        return self.workdir / "warm_prep.json"

    def prepare(self) -> float:
        begin = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--internal", "prepare", "--workload", self.name,
             "--seed", str(self.seed), "--workdir", str(self.workdir)],
            check=True, timeout=170,
        )
        return time.perf_counter() - begin

    def setup(self) -> None:
        from repro import OptimizerOptions, SessionConfig, build_network, morph

        self.networks = [build_network(n) for n in inputs.warm_sequence(self.seed)]
        self.arch = morph()
        self.options = OptimizerOptions.fast()
        self.config = SessionConfig(cache_dir=self.store, cache_backend="local")

    def window(self, tracer) -> Window:
        import repro

        checker = Checker(self.expected, self.arch, self.options)
        layers = [layer for net in self.networks for layer in net.layers]
        want = [checker.optimum(layer) for layer in layers]
        prep = json.loads(self.prep_path.read_text())
        latencies: list[float] = []
        ops: set[str] = set()
        engine: dict[str, int] = {}
        energy = 0.0
        slo_ok = 0
        store_before = _store_counts()

        def op():
            session = repro.Session(self.config)
            repro.clear_cache()
            sweep = session.sweep(self.networks, self.arch, self.options)
            session.close()
            return session, sweep

        start = time.perf_counter()
        while not latencies or time.perf_counter() - start < self.seconds:
            op_id = f"o{len(latencies)}"
            latency, (session, sweep) = timed_op(tracer, op_id, op)
            latencies.append(latency)
            ops.add(op_id)
            results = [r for entry in sweep.entries for r in entry.result.layers]
            records = [answer_record(r) for r in results]
            ok = records == want and records == prep
            checker.record(ok, op_id)
            slo_ok += ok and latency <= SLO_MS[self.name]
            _add(engine, dataclasses.asdict(session.stats))
            energy = energy_uj(results)
        return Window(
            latencies_ms=latencies,
            busy_s=sum(latencies) / 1e3,
            checker=checker,
            energy_uj=energy,
            slo_ok=slo_ok,
            ops=ops,
            engine=engine,
            store=_delta(_store_counts(), store_before),
        )


class ServeOpen(Workload):
    """Open loop: seeded arrivals at one fixed rate (see
    :func:`inputs.serve_schedule`) into ``Session.serve()`` on a sharded
    store, from one asyncio client."""

    name = "serve_open"

    def setup(self) -> None:
        from repro import OptimizerOptions, morph

        self.schedule = inputs.serve_schedule(self.seed, self.seconds)
        self.arch = morph()
        self.options = OptimizerOptions.fast()
        self._open()
        self._used = False

    def _open(self) -> None:
        from repro import Session, SessionConfig

        store = self.fresh_dir("serve")
        self.session = Session(SessionConfig(cache_dir=store, cache_backend="sharded"))
        self.engine = self.session.serve(
            max_workers=SERVE_WORKERS,
            max_queue_depth=SERVE_QUEUE_DEPTH,
            tenant_rate=SERVE_TENANT_RATE,
            tenant_burst=SERVE_TENANT_BURST,
        )

    def close(self) -> None:
        self.session.close()

    async def _drive(self, tracer):
        from repro import ServeRejected, ServeRequest

        n = len(self.schedule)
        results: list = [None] * n
        done: list = [None] * n
        late: list[float] = []
        depths: list[int] = []
        errors: dict[int, str] = {}
        engine = self.engine

        async def one(arrival):
            request = ServeRequest(
                network=(arrival.layer,),
                tenant=arrival.tenant,
                arch=self.arch,
                options=self.options,
                deadline_ms=arrival.deadline_ms,
                request_id=f"r{arrival.index}",
            )
            try:
                results[arrival.index] = await engine.submit(request)
            except ServeRejected as refused:
                errors[arrival.index] = str(refused)
            except Exception as error:  # counted as a failed op, run goes on
                errors[arrival.index] = repr(error)
            done[arrival.index] = time.perf_counter()

        async def sample(stop: asyncio.Event):
            while not stop.is_set():
                depths.append(engine.metrics().queue_depth)
                try:
                    await asyncio.wait_for(stop.wait(), SAMPLE_S)
                except asyncio.TimeoutError:
                    pass

        stop = asyncio.Event()
        sampler = asyncio.create_task(sample(stop)) if tracer is not None else None
        origin = time.perf_counter() + 0.05
        tasks = []
        for arrival in self.schedule:
            due = origin + arrival.due_s
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append((time.perf_counter() - due) * 1e3)
            tasks.append(asyncio.create_task(one(arrival)))
        await asyncio.gather(*tasks)
        stop.set()
        if sampler is not None:
            await sampler
        metrics = engine.metrics()
        await engine.aclose()
        return origin, results, done, late, depths, errors, metrics

    def window(self, tracer) -> Window:
        import repro

        if self._used:
            self.session.close()
            self._open()
        self._used = True
        repro.clear_cache()
        store_before = _store_counts()
        if tracer is not None:
            tracer.active = True
        try:
            origin, results, done, late, depths, errors, metrics = asyncio.run(
                self._drive(tracer)
            )
        finally:
            if tracer is not None:
                tracer.active = False
        store = _delta(_store_counts(), store_before)

        checker = Checker(self.expected, self.arch, self.options)
        answers = {}
        latencies: list[float] = []
        slo_ok = 0
        overruns: list[float] = []
        exhausted = 0
        for arrival, served, finished in zip(self.schedule, results, done):
            if served is None:
                checker.record(False, f"r{arrival.index}: {errors.get(arrival.index)}")
                continue
            layer_result = served.result.layers[0]
            if arrival.deadline_ms is None:
                ok = checker.matches(arrival.layer, layer_result)
                answers.setdefault(inputs.shape_key(arrival.layer), layer_result)
            else:
                ok = checker.within_certificate(arrival.layer, layer_result)
                overruns.append(served.latency_ms - arrival.deadline_ms)
                exhausted += int(served.budget_exhausted)
            checker.record(ok, f"r{arrival.index}")
            latency = (finished - (origin + arrival.due_s)) * 1e3
            latencies.append(latency)
            slo_ok += int(ok and latency <= SLO_MS[self.name])
        first_due = origin + self.schedule[0].due_s
        serve = {
            "peak_queue_depth": metrics.peak_queue_depth,
            "queue_depth_mean": statistics.fmean(depths) if depths else 0.0,
            "coalesce_rate": metrics.coalesce_rate,
            "rejected": (metrics.rejected_quota + metrics.rejected_backpressure
                         + metrics.rejected_closed),
            "failed": metrics.failed,
            "admit_latency_p50_ms": statistics.median(
                [r.latency_ms for r in results if r is not None] or [0.0]
            ),
            "deadline_overrun_p50_ms": statistics.median(overruns or [0.0]),
            "deadline_overrun_tail_ms": tail_percentile(overruns or [0.0])[1],
            "budget_exhausted_frac": exhausted / len(overruns) if overruns else 0.0,
            "late_p50_ms": statistics.median(late),
            "late_max_ms": max(late),
        }
        return Window(
            latencies_ms=latencies,
            busy_s=max(done) - first_due,
            checker=checker,
            energy_uj=energy_uj(answers.values()),
            slo_ok=slo_ok,
            ops={f"r{arrival.index}" for arrival in self.schedule},
            engine=dataclasses.asdict(metrics.engine),
            store=store,
            serve=serve,
        )


WORKLOADS = {w.name: w for w in (ColdSearch, WarmRecall, ServeOpen)}
