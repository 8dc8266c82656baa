"""Answer checks and summary statistics.

``expected.json`` maps ``signature_key(search_signature(...))`` to the
winning dataflow and its score (as ``float.hex``) for every distinct
input the workloads can send.  It is written by ``gen_expected.py``,
which cross-checks each entry against the scalar search
(``vectorize=False``), so a check here is a comparison against the
oracle, not against the run itself.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(path.read_text())


def answer_record(result) -> dict:
    """The bit-exact identity of one layer answer."""
    from repro.optimizer.config_store import dataflow_to_json

    return {
        "dataflow": dataflow_to_json(result.best.dataflow),
        "score": float(result.score).hex(),
    }


def signature_of(layer, arch, options) -> str:
    from repro.optimizer.engine import search_signature, signature_key

    return signature_key(search_signature(layer, arch, options))


class Checker:
    """Counts attempted and verified ops against the expected winners."""

    def __init__(self, expected: dict, arch, options) -> None:
        self.expected = expected
        self.arch = arch
        self.options = options
        self.attempted = 0
        self.verified = 0
        self.wrong: list[str] = []

    def optimum(self, layer) -> dict | None:
        """The expected winner's record (``None``: not in the table)."""
        return self.expected.get(signature_of(layer, self.arch, self.options))

    def matches(self, layer, result) -> bool:
        """An unbudgeted answer must equal the expected winner bit for bit."""
        want = self.optimum(layer)
        return want is not None and answer_record(result) == want

    def within_certificate(self, layer, result) -> bool:
        """A budgeted answer must satisfy 0 <= score - optimum <= bound_gap."""
        want = self.optimum(layer)
        if want is None:
            return False
        gap = result.score - float.fromhex(want["score"])
        bound = 0.0 if result.bound_gap is None else result.bound_gap
        return 0.0 <= gap <= bound

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if ok:
            self.verified += 1
        else:
            self.wrong.append(what)

    @property
    def ok_frac(self) -> float:
        return self.verified / self.attempted if self.attempted else 0.0


def energy_uj(results) -> float:
    """Order-independent exact sum of answers' modelled energy (uJ)."""
    return math.fsum(r.best.total_energy_pj for r in results) / 1e6


def tail_percentile(samples: list[float]) -> tuple[int, float, int]:
    """The highest whole percentile with at least 10 samples beyond it.

    Returns ``(percentile, value, samples_beyond)``.  With 10 or fewer
    samples no percentile qualifies; the maximum is reported as p100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for q in range(99, 0, -1):
        rank = max(1, math.ceil(q / 100.0 * n))
        if n - rank >= 10:
            return q, ordered[rank - 1], n - rank
    return 100, ordered[-1], 0
