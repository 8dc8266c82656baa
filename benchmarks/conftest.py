"""Benchmark configuration and machine-readable result emission.

Each paper figure/table gets one benchmark that regenerates it end to end.
The experiment computations are deterministic and expensive (minutes for
the full network sweeps), so table/figure benchmarks run a single round;
micro-benchmarks of the core models use normal multi-round timing.

In-process optimizer caches persist across benchmarks, mirroring the
paper's note that the analysis runs once per CNN with configurations
recalled afterwards.

Every ``bench_<name>.py`` module additionally emits a ``BENCH_<name>.json``
record — per-test wall times plus whatever metrics the benchmark registers
through the ``record_bench`` fixture (candidate counts, objective values,
speedups) — so the performance trajectory is tracked across PRs.  Records
land in ``$REPRO_BENCH_DIR`` (default: the current working directory); CI
uploads them as artifacts.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

#: bench name -> {"tests": {...}, "metrics": {...}}
_RECORDS: dict[str, dict] = {}


def _bench_name(item) -> str | None:
    stem = Path(item.fspath).stem
    if stem.startswith("bench_"):
        return stem[len("bench_"):]
    return None


def _record_for(name: str) -> dict:
    return _RECORDS.setdefault(name, {"tests": {}, "metrics": {}})


@pytest.fixture
def once(benchmark):
    """Run an expensive experiment exactly once under the benchmark timer."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(
            func, args=args, kwargs=kwargs, rounds=1, iterations=1,
            warmup_rounds=0,
        )

    return runner


@pytest.fixture
def timed_pedantic(benchmark):
    """``benchmark.pedantic`` that also returns the measured seconds.

    Usage: ``result, seconds = timed_pedantic(func, stat="min", args=...,
    rounds=3)``.  ``stat`` names the pytest-benchmark statistic to report.
    Under ``--benchmark-disable`` the benchmark keeps no statistics and
    runs ``func`` once, so that one call's ``perf_counter`` wall time is
    reported instead.
    """

    def runner(func, *, stat: str, **pedantic):
        start = time.perf_counter()
        result = benchmark.pedantic(func, **pedantic)
        if benchmark.stats is None:
            return result, time.perf_counter() - start
        return result, getattr(benchmark.stats.stats, stat)

    return runner


@pytest.fixture
def record_bench(request):
    """Register metrics for this module's ``BENCH_<name>.json`` record.

    Usage: ``record_bench(candidates=1296, objective_energy_pj=1.2e9)``.
    Keys merge module-wide, so several tests can contribute.
    """
    name = _bench_name(request.node) or Path(request.node.fspath).stem

    def record(**fields) -> None:
        _record_for(name)["metrics"].update(fields)

    return record


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    name = _bench_name(item)
    start = time.perf_counter()
    yield
    if name is not None:
        _record_for(name)["tests"][item.name] = {
            "wall_s": round(time.perf_counter() - start, 4)
        }


def pytest_sessionfinish(session):
    # repro-lint: disable=scoped-config  # pytest plugin hook: runs after
    # every session closed, so there is no active Session to resolve
    # through; reads the same variable SessionConfig.from_env maps.
    out_dir = Path(os.environ.get("REPRO_BENCH_DIR") or ".")
    for name, record in _RECORDS.items():
        payload = {
            "benchmark": name,
            "schema_version": 1,
            "total_wall_s": round(
                sum(t["wall_s"] for t in record["tests"].values()), 4
            ),
            "tests": record["tests"],
            "metrics": record["metrics"],
        }
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"BENCH_{name}.json"
            path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        except OSError:  # emission is best-effort, never fails a run
            pass
