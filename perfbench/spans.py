"""In-memory span tracing around calls into the program's layers.

The tracer wraps public functions where their callers bind them (for
example ``repro.optimizer.search.allocate_hierarchy``, not only the
defining module), records one span per call — name, start, end, parent
span, op id, thread — and computes self time as a span's duration minus
its child spans'.  Wrappers record only while :attr:`Tracer.active` is
set, so set-up and answer checks can run through them untimed.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    thread: int
    #: Counters read off the call's return value (see ``_COUNTS``).
    counts: dict | None = None


def _targets():
    """(owner, attribute, span name) for every wrapped call site."""
    from repro import api
    from repro.core import batch
    from repro.core import evaluate as core_evaluate
    from repro.optimizer import allocation, config_store, engine, search

    stores = (config_store.LocalDirectoryStore, config_store.ShardedStore)
    return [
        (search, "allocate_hierarchy", "allocation"),
        (allocation, "allocate_hierarchy", "allocation"),
        (search, "last_level_tile_candidates", "space"),
        (search, "candidate_blocks", "space.blocks"),
        (batch.CandidateBatch, "best", "core.batch_best"),
        (core_evaluate, "evaluate", "core.evaluate"),
        (search, "evaluate", "core.evaluate"),
        (engine, "evaluate", "core.evaluate"),
        (batch, "evaluate", "core.evaluate"),
        (search.LayerOptimizer, "optimize", "search"),
        (engine.OptimizerEngine, "optimize_layers", "engine"),
        (engine.OptimizerEngine, "optimize_network", "engine"),
        (engine, "search_signature", "engine.signature"),
        (engine, "signature_key", "engine.signature"),
        *[(store, "get", "store.get") for store in stores],
        *[(store, "put", "store.put") for store in stores],
        *[(store, "merge_statistics", "store.flush") for store in stores],
        (api.Session, "optimize_layer", "api"),
        (api.Session, "sweep", "api"),
        (api.Session, "close", "api"),
    ]


def _search_counts(result) -> dict:
    return {
        "evaluated": result.evaluated,
        "pruned": result.pruned,
        "first_block_won": int(bool(result.first_block_won)),
        "budget_exhausted": int(result.budget_exhausted),
    }


#: Span name -> counters recorded from the wrapped call's return value.
_COUNTS = {
    "search": _search_counts,
    "space.blocks": lambda blocks: {"blocks": len(blocks)},
}


def _op_from_layers(args) -> str | None:
    """Serve workers carry no op context; a request's layers are named
    ``r<index>:<layer>`` so the engine span can recover its op id.  Only
    a tuple is peeked at: an iterator argument must reach the call whole."""
    layers = args[1] if len(args) > 1 else ()
    name = layers[0].name if isinstance(layers, tuple) and layers else ""
    return name.split(":", 1)[0] if ":" in name else None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ----------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, op: str | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        span = Span(name, time.perf_counter(), 0.0, parent, op, threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    # -- wrapping -----------------------------------------------------
    def _wrap(self, function, name: str):
        tracer = self
        op_of = _op_from_layers if name == "engine" else None
        count = _COUNTS.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            index = tracer.begin(name, op_of(args) if op_of else None)
            try:
                result = function(*args, **kwargs)
                if count is not None:
                    tracer.spans[index].counts = count(result)
                return result
            finally:
                tracer.end(index)

        return traced

    def install(self) -> None:
        for owner, attr, name in _targets():
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            self._patches.append((owner, attr, original, own))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- analysis -----------------------------------------------------
    def finished(self) -> list[Span]:
        return [span for span in self.spans if span.end]

    def summary(self, ops: set[str]) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms, self ms and recorded
        counters, summed over the spans of the given ops."""
        spans = self.finished()
        child_ms = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                child_ms[span.parent] += (span.end - span.start) * 1e3
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for index, span in enumerate(self.spans):
            if not span.end or span.op not in ops:
                continue
            total = (span.end - span.start) * 1e3
            entry = out[span.name]
            entry["calls"] += 1
            entry["ms"] += total
            entry["self_ms"] += total - child_ms[index]
            for key, value in (span.counts or {}).items():
                entry[key] += value
        return out

    def attributed_ms(self, ops: set[str]) -> float:
        """Op time covered by top-level layer spans (children of an op
        span, or thread roots in serve workers)."""
        spans = self.spans
        covered = 0.0
        for span in self.finished():
            if span.name == "op" or span.op not in ops:
                continue
            if span.parent is None or spans[span.parent].name == "op":
                covered += (span.end - span.start) * 1e3
        return covered

    def write(self, path: Path) -> None:
        """Gzipped JSON: one row per span, columns named in ``fields``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = [f.name for f in dataclasses.fields(Span)]
        rows = [dataclasses.astuple(span) for span in self.finished()]
        with gzip.open(path, "wt") as out:
            json.dump({"fields": fields, "spans": rows}, out)
