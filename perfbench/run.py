"""Seeded benchmark of the optimizer stack, through ``repro.Session``.

Run from the repository root::

    python3 perfbench/run.py --workload cold_search --seed 1 --seconds 20 --trace 0

Workloads: ``cold_search`` (cold per-layer searches), ``warm_recall``
(network sweeps recalled from a store) and ``serve_open`` (open-loop
traffic into ``Session.serve()``).  With ``--trace 0`` the last stdout
line is a JSON object carrying every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` it carries every per-layer metric,
from a traced window run after an untraced one.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Cap native thread pools before NumPy is first imported, and drop any
# $REPRO_* setting of the caller's shell: the program gets only what the
# workloads pass it.  Child processes inherit this environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_var]

sys.path[:0] = [str(SRC), str(HERE)]

import inputs  # noqa: E402  (none of these modules imports repro at load)
from checks import load_expected, tail_percentile  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, prepare_warm  # noqa: E402

#: Set-up is repeated in this many child processes; setup_s is the median
#: over them and the run's own set-up.
SETUP_REPEATS = 4


def _require_program() -> None:
    """The benchmark measures the program in this checkout, nothing else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'repro'}")


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _loadavg() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]


def _host(loadavg_start: list[float]) -> dict:
    import platform

    import numpy

    return {
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg_start,
        "loadavg_end": _loadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _setup(workload, tracer=None) -> float:
    """Import the program, make the inputs and open the session; returns
    the elapsed seconds.  No search may run in here."""
    begin = time.perf_counter()
    import repro  # noqa: F401  (the import is part of set-up)

    if tracer is not None:
        tracer.install()
        index = tracer.begin("op", "setup")
        tracer.active = True
    try:
        workload.setup()
    finally:
        if tracer is not None:
            tracer.active = False
            tracer.end(index)
            tracer.uninstall()
    return time.perf_counter() - begin


def _child_setups(args, workdir: Path) -> list[float]:
    samples = []
    for i in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--internal", "setup",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--workdir", str(workdir / f"setup{i}")],
            check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append(float(out.stdout.split()[-1]))
    return samples


def _end_to_end(window, setup_s: float) -> dict[str, float]:
    lat = window.latencies_ms
    q, tail, beyond = tail_percentile(lat)
    print(f"latency: {len(lat)} ops, p50 {statistics.median(lat):.3f} ms, "
          f"tail p{q} {tail:.3f} ms ({beyond} samples beyond)")
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": window.checker.ok_frac,
        "ops_per_s": len(lat) / window.busy_s,
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": tail,
        "slo_ok_frac": window.slo_ok / window.checker.attempted,
        "model_energy_uj": window.energy_uj,
    }


def _per_layer(tracer, plain, traced, prepare_s: float) -> dict[str, float]:
    spans = tracer.summary(traced.ops)
    n = len(traced.ops)

    def per_op(name, key="ms"):
        return spans[name][key] / n if name in spans else 0.0

    def frac(num, den):
        return num / den if den else 0.0

    search = spans.get("search", {})
    evaluated, pruned = search.get("evaluated", 0), search.get("pruned", 0)
    engine, store, serve = traced.engine, traced.store, traced.serve
    values = {
        "allocation.calls": per_op("allocation", "calls"),
        "allocation.ms": per_op("allocation"),
        "space.ms": per_op("space") + per_op("space.blocks"),
        "space.blocks": per_op("space.blocks", "blocks"),
        "core.batch_best.calls": per_op("core.batch_best", "calls"),
        "core.batch_best.ms": per_op("core.batch_best"),
        "core.candidates_evaluated": evaluated / n,
        "core.prune_frac": frac(pruned, evaluated + pruned),
        "core.evaluate.calls": per_op("core.evaluate", "calls"),
        "core.evaluate.ms": per_op("core.evaluate"),
        "search.calls": per_op("search", "calls"),
        "search.self_ms": per_op("search", "self_ms"),
        "search.first_block_won_frac": frac(search.get("first_block_won", 0),
                                            search.get("calls", 0)),
        "search.budget_exhausted": per_op("search", "budget_exhausted"),
        "engine.self_ms": per_op("engine", "self_ms"),
        "engine.signature_ms": per_op("engine.signature"),
        "engine.reuse_frac": frac(engine["requested"] - engine["searched"],
                                  engine["requested"]),
        "store.get.calls": per_op("store.get", "calls"),
        "store.get.ms": per_op("store.get"),
        "store.put.calls": per_op("store.put", "calls"),
        "store.put.ms": per_op("store.put"),
        "store.flush_ms": per_op("store.flush"),
        "store.prepare_s": prepare_s,
        "api.self_ms": per_op("api", "self_ms"),
        "trace.overhead_frac": (statistics.fmean(traced.latencies_ms)
                                / statistics.fmean(plain.latencies_ms) - 1),
        "trace.unattributed_frac": 1 - frac(tracer.attributed_ms(traced.ops),
                                            sum(traced.latencies_ms)),
        "setup.search_calls": float(tracer.summary({"setup"}).get("search", {}).get("calls", 0)),
    }
    for key in ("requested", "unique", "searched", "memo_hits", "disk_hits", "coalesced"):
        values[f"engine.{key}"] = engine[key] / n
    for key in ("hits", "misses", "writes", "write_failures"):
        values[f"store.{key}"] = store.get(key, 0) / n
    for key in ("peak_queue_depth", "queue_depth_mean", "coalesce_rate", "rejected",
                "failed", "admit_latency_p50_ms", "deadline_overrun_p50_ms",
                "deadline_overrun_tail_ms", "budget_exhausted_frac"):
        values[f"serve.{key}"] = float(serve.get(key, 0.0))
    for key in ("late_p50_ms", "late_max_ms"):
        values[f"loadgen.{key}"] = float(serve.get(key, 0.0))
    return values


def _report(declared: list[dict], values: dict[str, float]) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics declared but not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--internal", choices=("setup", "prepare"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_program()
    cls = WORKLOADS[args.workload]
    if args.internal == "prepare":
        workload = cls(args.seed, args.seconds, args.workdir)
        prepare_warm(workload.store, args.seed, workload.prep_path)
        return 0
    if args.internal == "setup":
        args.workdir.mkdir(parents=True)
        workload = cls(args.seed, args.seconds, args.workdir)
        elapsed = _setup(workload)
        workload.close()
        print(elapsed)
        return 0

    declared = _declared()
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        loadavg_start = _loadavg()
        workload = cls(args.seed, args.seconds, workdir)
        prepare_s = workload.prepare()
        tracer = None
        if args.trace:
            tracer = Tracer()
        setups = [_setup(workload, tracer)]
        workload.expected = load_expected()
        for name in WORKLOADS:
            print(f"inputs: {name} seed={args.seed} digest="
                  f"{inputs.digest(inputs.sequence(name, args.seed, args.seconds))}")
        if tracer is not None:
            # The untraced window runs with no wrapper installed at all.
            plain = workload.window(None)
            tracer.install()
            traced = workload.window(tracer)
            tracer.uninstall()
            windows = [plain, traced]
        else:
            windows = [workload.window(None)]
        workload.close()
        if tracer is not None:
            out = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.json.gz"
            tracer.write(out)
            print(f"spans: {len(tracer.finished())} written to {out.relative_to(ROOT)}")
            values = _per_layer(tracer, plain, traced, prepare_s)
            metrics = _report(declared["per_layer"], values)
        else:
            setups += _child_setups(args, workdir)
            setup_s = statistics.median(setups)
            print(f"setup: median {setup_s:.4f} s of {len(setups)}: "
                  + " ".join(f"{s:.4f}" for s in setups))
            values = _end_to_end(windows[0], setup_s)
            metrics = _report(declared["end_to_end"], values)
        attempted = sum(w.checker.attempted for w in windows)
        verified = sum(w.checker.verified for w in windows)
        for window in windows:
            for what in window.checker.wrong[:5]:
                print(f"wrong answer: {what}", file=sys.stderr)
        print("host: " + json.dumps(_host(loadavg_start), sort_keys=True))
        print(json.dumps({
            "correct": attempted == verified,
            "attempted": attempted,
            "failed": attempted - verified,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
