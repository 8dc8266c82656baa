"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
from checks import Checker, answer_record, tail_percentile  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "serve_open",
         "--seed", "3", "--seconds", "2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in DECLARED[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_names_are_well_formed():
    names = [w["name"] for w in DECLARED["workloads"]]
    names += [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    q, value, beyond = tail_percentile(samples)
    assert (q, value, beyond) == (90, 90.0, 10)
    q, value, beyond = tail_percentile(samples + [101.0])
    assert beyond >= 10 and (q, value) == (90, 91.0)
    assert tail_percentile([5.0, 1.0, 3.0]) == (100, 5.0, 0)
    # One more percentile point would leave fewer than ten beyond.
    q, value, beyond = tail_percentile([float(i) for i in range(500)])
    assert (q, value, beyond) == (98, 489.0, 10)


def test_generator_is_deterministic_and_seeded():
    for workload in ("cold_search", "warm_recall", "serve_open"):
        first = inputs.digest(inputs.sequence(workload, 7, 5))
        assert first == inputs.digest(inputs.sequence(workload, 7, 5))
        assert first != inputs.digest(inputs.sequence(workload, 8, 5))
    # The distinct inputs do not depend on the seed.
    a, b = inputs.serve_schedule(7, 5), inputs.serve_schedule(8, 5)
    assert {inputs.shape_key(x.layer) for x in a} == {inputs.shape_key(x.layer) for x in b}
    assert len(inputs.cold_pool()) == len({inputs.shape_key(l) for l in inputs.cold_pool()})


def test_perturbed_answer_drives_ok_frac_below_one():
    from repro import OptimizerOptions, evaluate, morph
    from repro.optimizer.config_store import dataflow_from_json
    from repro.optimizer.search import LayerResult

    from checks import load_expected

    arch, options = morph(), OptimizerOptions.fast()
    checker = Checker(load_expected(), arch, options)
    layer = inputs.serve_sets()[0][0]
    want = checker.optimum(layer)
    best = evaluate(dataflow_from_json(layer, want["dataflow"]), arch)
    right = LayerResult(layer=layer, best=best, evaluated=1)
    assert answer_record(right) == want
    checker.record(checker.matches(layer, right), "right")
    assert checker.ok_frac == 1.0
    tiles = list(best.dataflow.hierarchy.tiles)
    tiles[0] = dataclasses.replace(tiles[0], k=1)
    hierarchy = dataclasses.replace(best.dataflow.hierarchy, tiles=tuple(tiles))
    wrong = LayerResult(
        layer=layer,
        best=evaluate(dataclasses.replace(best.dataflow, hierarchy=hierarchy), arch),
        evaluated=1,
    )
    checker.record(checker.matches(layer, wrong), "perturbed")
    assert checker.ok_frac == 0.5
    assert not checker.within_certificate(layer, wrong)
