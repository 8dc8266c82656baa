"""Regenerate ``expected.json``: the winning dataflow of every distinct
input the workloads can send, cross-checked against the scalar search.

Each entry is searched twice with caches off — once on the default
columnar path, once with ``vectorize=False`` (the scalar oracle) — and
the two answers must agree bit for bit.  Run from the repository root::

    python3 perfbench/gen_expected.py

It takes several minutes (the scalar path is ~6x slower).  Rerun it only
when a change is meant to alter winners, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _options(name: str):
    from repro import OptimizerOptions

    return OptimizerOptions.fast() if name == "fast" else OptimizerOptions()


def _solve(task):
    """Worker: (layer, options name) -> (key, record), oracle-checked."""
    from repro import Session, morph
    from repro.optimizer.search import clear_cache

    from checks import answer_record, signature_of

    layer, options_name = task
    arch, options = morph(), _options(options_name)
    records = []
    for vectorize in (True, False):
        clear_cache()
        with Session(use_cache=False, vectorize=vectorize) as session:
            records.append(answer_record(session.optimize_layer(layer, arch, options)))
    if records[0] != records[1]:
        raise AssertionError(f"columnar and scalar winners differ for {layer}")
    return signature_of(layer, arch, options), records[0]


def main() -> None:
    from inputs import cold_pool, fresh_pool

    tasks = [(layer, "default") for layer in cold_pool()]
    tasks += [(layer, "fast") for layer in cold_pool() + fresh_pool()]
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        expected = dict(pool.map(_solve, tasks))
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(expected)} expected winners")


if __name__ == "__main__":
    main()
