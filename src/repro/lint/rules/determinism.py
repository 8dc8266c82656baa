"""determinism: result-producing paths stay reproducible run-to-run.

The optimizer's contract (docs/INVARIANTS.md, tested by the scalar/batch
equivalence suite) is that the same layer + accelerator + options always
yields the same schedule and the same cost, so cached records, paper
tables and CI comparisons are stable.  Three things quietly break that:

* **wall-clock reads** — ``time.time()`` / ``perf_counter()`` feeding a
  result (rather than a log line) makes output timing-dependent;
* **random numbers** — ``random.*`` / ``np.random.*`` without a seed
  threaded through the public API is unreproducible by construction;
* **set iteration order** — iterating a ``set`` literal/comprehension
  or ``set()``/``frozenset()`` call hands downstream code an order that
  varies with hash seeding (tie-breaking by iteration order is the
  classic symptom: two runs pick different equal-cost schedules).

Scope: modules under ``core/``, ``optimizer/``, ``sim/`` and ``serve/``
— the paths whose return values land in results (the serving layer's
contract is that a served result is bit-identical to the direct call,
so it is result-producing too).  Reporting/benchmark code may
legitimately read clocks; it lives outside this scope.

One module is exempt from the *clock* check (and only that check):
``repro/optimizer/clock.py``, the sanctioned injectable monotonic clocks
— the budget clock behind the anytime search and the serve clock
(token-bucket refill, deadline-to-budget mapping, latency percentiles).
Both subsystems are timing-dependent by definition, but their result
contracts stay deterministic (a budgeted result is an exact prefix of
the unbudgeted search; serving only adds admission control) — and
funnelling every clock read through one injectable module is what keeps
them testable.  Clock reads anywhere else in scope stay banned.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import ModuleInfo, Rule, call_path

#: Wall-clock reads that make a result timing-dependent.
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.datetime.now",
        "datetime.utcnow",
        "datetime.datetime.utcnow",
    }
)

_SCOPED_PARTS = ("core", "optimizer", "sim", "serve")

#: The sanctioned clock module (see the module docstring), matched as
#: the trailing ``(package, filename)`` pair so the exemption cannot leak
#: to an unrelated ``clock.py`` elsewhere.
_SANCTIONED_CLOCK_MODULE = ("optimizer", "clock.py")


def _in_scope(module: ModuleInfo) -> bool:
    parts = module.path.parts
    return "repro" in parts and any(p in parts for p in _SCOPED_PARTS)


def _clock_sanctioned(module: ModuleInfo) -> bool:
    parts = module.path.parts
    return parts[-2:] == _SANCTIONED_CLOCK_MODULE


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and call_path(node.func) in (
        "set",
        "frozenset",
    )


class DeterminismRule(Rule):
    name = "determinism"
    description = (
        "no wall-clock reads, random numbers or set-iteration order in "
        "the result-producing core/optimizer/sim paths"
    )

    def check_module(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        if not _in_scope(module):
            return ()
        out: list[Diagnostic] = []

        def diag(node: ast.AST, message: str) -> None:
            out.append(
                Diagnostic(
                    rule=self.name,
                    path=module.display,
                    line=node.lineno,
                    message=message,
                )
            )

        clock_allowed = _clock_sanctioned(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                path = call_path(node.func)
                if path in _CLOCK_CALLS and not clock_allowed:
                    diag(
                        node,
                        f"calls {path}() in a result-producing module; "
                        "wall-clock values make output timing-dependent "
                        "— thread timing through the caller if it is "
                        "only diagnostics",
                    )
                elif path.startswith("random.") or ".random." in f".{path}":
                    diag(
                        node,
                        f"calls {path}() in a result-producing module; "
                        "unseeded randomness is unreproducible — accept "
                        "an explicit rng/seed argument instead",
                    )
                elif path in ("set", "frozenset") or _is_set_expr(node):
                    # bare set()/frozenset() construction is fine; only
                    # *iterating* one is flagged below.
                    pass
            # Iteration sites whose order reaches downstream code:
            if isinstance(node, (ast.For, ast.comprehension)):
                iter_expr = node.iter
                if _is_set_expr(iter_expr):
                    diag(
                        node if isinstance(node, ast.For) else iter_expr,
                        "iterates a set; iteration order varies with "
                        "hash seeding — sort first (`sorted(...)`) so "
                        "tie-breaks and output order are reproducible",
                    )
            elif isinstance(node, ast.Call):
                path = call_path(node.func)
                if path in ("list", "tuple", "iter", "next") and node.args:
                    if _is_set_expr(node.args[0]):
                        diag(
                            node,
                            f"{path}() materialises a set's iteration "
                            "order; sort first (`sorted(...)`) so the "
                            "order is reproducible",
                        )
        return out
