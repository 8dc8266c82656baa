"""Golden regression pins for the per-layer search.

The scalar and columnar evaluators share one block loop, so they can no
longer check each other for drift in the loop itself (prune, tie-break,
budget poll, counters).  This module pins what the search returned on a
fixed set of inputs: registered 3D-CNN layer shapes plus generated
strided, dilated and (2+1)D layers, each under the default and ``fast()``
presets on both evaluators, plus fake-clock budgeted runs.  Per result it
pins the winning dataflow, the score (as ``float.hex``), the
``evaluated`` / ``pruned`` counters, ``first_block_won``,
``parallelism_displaced``, ``bound_gap`` and ``budget_exhausted``.

Regenerate the fixture only when a change is meant to alter winners or
counters, and say so in that change::

    PYTHONPATH=src python tests/test_search_golden.py
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.arch.accelerator import morph
from repro.core.layer import ConvLayer
from repro.optimizer.clock import use_clock
from repro.optimizer.config_store import dataflow_to_json
from repro.optimizer.search import LayerOptimizer, OptimizerOptions, clear_cache
from repro.workloads import build_network

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "search_golden.json"

#: (network, layer) pairs from the registry: all six 3D networks, with
#: pointwise, strided, dilated and (2+1)D factor shapes among them.
REGISTRY = (
    ("resnet3d50", "res3a_proj"),
    ("resnet3d50", "res5a_proj"),
    ("resnet3d50", "res4a_3x3"),
    ("c3d", "layer4b"),
    ("c3d_dilated", "layer4b"),
    ("i3d", "mixed_5b_3x3"),
    ("i3d", "mixed_3b_3x3"),
    ("two_stream", "spatial_conv3"),
    ("two_stream", "spatial_conv4"),
    ("r2plus1d", "res5aa_spatial"),
    ("r2plus1d", "res4aa_temporal"),
    ("r2plus1d", "res5ab_temporal"),
)

#: Generated Res3D-style layers outside the registry.
GENERATED = (
    ConvLayer(
        "gen/strided", h=14, w=14, c=32, f=4, k=48, r=3, s=3, t=3,
        stride_h=2, stride_w=2, stride_f=2, pad_h=1, pad_w=1, pad_f=1,
    ),
    ConvLayer(
        "gen/dilated", h=8, w=8, c=32, f=4, k=32, r=3, s=3, t=3,
        pad_h=2, pad_w=2, pad_f=2, dilation_h=2, dilation_w=2, dilation_f=2,
    ),
    ConvLayer(
        "gen/spatial", h=14, w=14, c=24, f=4, k=40, r=3, s=3, t=1,
        stride_h=2, stride_w=2, pad_h=1, pad_w=1,
    ),
    ConvLayer(
        "gen/temporal", h=7, w=7, c=40, f=8, k=32, r=1, s=1, t=3,
        stride_f=2, pad_f=1,
    ),
)

PRESETS = {"default": OptimizerOptions(), "fast": OptimizerOptions.fast()}
PATHS = {"columnar": True, "scalar": False}

#: Budgeted runs: a fake clock advancing one millisecond per read, so the
#: budget runs out after a fixed number of block-boundary polls.
BUDGET_MS = 3.0


def golden_layers() -> dict[str, ConvLayer]:
    layers = {
        f"{network}/{name}": build_network(network).layer_named(name)
        for network, name in REGISTRY
    }
    layers.update((layer.name, layer) for layer in GENERATED)
    return layers


def ticking_clock():
    now = -1.0

    def clock() -> float:
        nonlocal now
        now += 1.0
        return now

    return clock


def record(result) -> dict:
    return {
        "dataflow": dataflow_to_json(result.best.dataflow),
        "score": float(result.score).hex(),
        "evaluated": result.evaluated,
        "pruned": result.pruned,
        "first_block_won": result.first_block_won,
        "parallelism_displaced": result.parallelism_displaced,
        "bound_gap": None if result.bound_gap is None else result.bound_gap.hex(),
        "budget_exhausted": result.budget_exhausted,
    }


def search(layer: ConvLayer, preset: str, path: str, budgeted: bool) -> dict:
    options = PRESETS[preset].with_(vectorize=PATHS[path])
    clear_cache()
    if not budgeted:
        return record(LayerOptimizer(morph(), options).optimize(layer))
    with use_clock(ticking_clock()):
        optimizer = LayerOptimizer(morph(), options.with_(budget_ms=BUDGET_MS))
        return record(optimizer.optimize(layer))


def runs_of(name: str) -> list[tuple[str, str, bool]]:
    """(preset, path, budgeted) runs pinned for one layer."""
    runs = [(preset, path, False) for preset in PRESETS for path in PATHS]
    if name.startswith("gen/"):
        runs += [("fast", path, True) for path in PATHS]
    return runs


def run_key(name: str, preset: str, path: str, budgeted: bool) -> str:
    return f"{name}|{preset}|{path}" + ("|budget" if budgeted else "")


def generate() -> dict[str, dict]:
    return {
        run_key(name, *run): search(layer, *run)
        for name, layer in golden_layers().items()
        for run in runs_of(name)
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_run(golden):
    expected = {
        run_key(name, *run) for name in golden_layers() for run in runs_of(name)
    }
    assert set(golden) == expected


@pytest.mark.parametrize("name", sorted(golden_layers()))
def test_search_matches_golden(golden, name):
    layer = golden_layers()[name]
    for run in runs_of(name):
        key = run_key(name, *run)
        assert search(layer, *run) == golden[key], key


def test_search_without_numpy_matches_golden(golden):
    """With NumPy unimportable the package still imports and the search
    runs on the scalar evaluator, reproducing the scalar golden record."""
    name = "gen/temporal"
    script = inspect.getsource(record) + textwrap.dedent(
        f"""
        import json, sys
        sys.modules["numpy"] = None
        import repro
        from repro.optimizer.config_store import dataflow_to_json
        layer = repro.ConvLayer(**{dataclasses.asdict(GENERATED[-1])!r})
        result = repro.optimize_layer(
            layer, repro.morph(), repro.OptimizerOptions.fast(), use_cache=False
        )
        assert not [m for m in sys.modules if m.startswith("numpy") and sys.modules[m]]
        print(json.dumps(record(result)))
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert json.loads(out.stdout) == golden[run_key(name, "fast", "scalar", False)]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    lines = [
        f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
        for key, value in sorted(generate().items())
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")
