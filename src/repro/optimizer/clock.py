"""The sanctioned monotonic clocks: the search budget and the serving layer.

The determinism lint rule (docs/INVARIANTS.md) bans wall-clock reads in
result-producing ``core/``/``optimizer/``/``sim/``/``serve/`` modules: a
result that depends on timing is not reproducible.  Two subsystems are
nonetheless *about* time, and both read it only through this module (the
determinism rule exempts exactly this file):

* the **budget clock** behind the budgeted anytime search
  (:class:`repro.optimizer.search.LayerOptimizer` with
  ``OptimizerOptions.budget_ms``).  The *budget* is timing-dependent by
  definition, while the *result contract* stays deterministic: the
  search stops only at candidate-block boundaries, so any result it
  returns is the exact prefix of the unbudgeted search, bit-identical to
  it whenever the budget is not hit;
* the **serve clock** of :mod:`repro.serve`: per-tenant token buckets
  refill with it, request deadlines are measured against it, and latency
  percentiles are computed from it.

Each clock is *injectable* on its own: tests install a fake with
:func:`use_clock` (budget) or :func:`repro.serve.use_clock` (serve) and
exercise budget exhaustion, quota refill, deadline mapping and latency
accounting deterministically, without sleeping or flaking.  The
separation is deliberate: a test can freeze serving time (so a request's
deadline maps to one exact ``budget_ms``) while driving the search's
budget clock through a different fake — the two subsystems' notions of
"now" never have to agree.

The override stacks are process-wide module state (ALL_CAPS registries
per the scoped-config convention), shared across threads — which is
what the thread-pool engine and the serve engine's event-loop and worker
threads need to observe one fake during a test.  Worker *processes*
never inherit an override and always run the real monotonic clock.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, Iterator

#: A monotonic clock: call it for "now" in milliseconds.  Only differences
#: between readings are meaningful.
Clock = Callable[[], float]


def monotonic_ms() -> float:
    """The real monotonic clock, in milliseconds.

    This is the one sanctioned wall-clock read (see the module docstring
    and the determinism rule's exemption).
    """
    return time.monotonic() * 1000.0


class _NamedClock:
    """One separately overridable clock: a stack of installed overrides
    over the real :func:`monotonic_ms`.

    Each block removes its own override on exit, not the newest one, so
    blocks that overlap across threads restore each other correctly.
    """

    def __init__(self) -> None:
        self.overrides: list[Clock] = []
        self._lock = threading.Lock()

    def current(self) -> Clock:
        """The innermost override, or the real :func:`monotonic_ms`."""
        try:
            return self.overrides[-1]
        except IndexError:
            return monotonic_ms

    def now_ms(self) -> float:
        """One reading of the active clock."""
        return self.current()()

    @contextlib.contextmanager
    def use(self, clock: Clock) -> Iterator[Clock]:
        """Install ``clock`` for the dynamic extent of the block
        (re-entrant; on exit it removes its own override, so the clocks
        of other blocks, in this thread or another, stay installed).

        For tests: a counter-backed fake makes budget exhaustion exact
        and repeatable, a frozen one stops serving time::

            ticks = iter(range(0, 10_000, 500))
            with BUDGET_CLOCK.use(lambda: float(next(ticks))):
                result = LayerOptimizer(arch, options).optimize(layer)
            with SERVE_CLOCK.use(lambda: 0.0):
                ...  # a deadline_ms=5.0 request maps to budget_ms == 5.0
        """
        with self._lock:
            self.overrides.append(clock)
        try:
            yield clock
        finally:
            with self._lock:
                overrides = self.overrides
                # The newest entry that is this block's clock object (the
                # same object installed by another block is interchangeable).
                for i in range(len(overrides) - 1, -1, -1):
                    if overrides[i] is clock:
                        del overrides[i]
                        break


#: The anytime search's budget clock.
BUDGET_CLOCK = _NamedClock()
#: The serving layer's clock (quota refill, deadlines, latencies).
SERVE_CLOCK = _NamedClock()

#: The budget clock's accessors under their historical names.
current_clock = BUDGET_CLOCK.current
use_clock = BUDGET_CLOCK.use
