"""repro.serve: async optimization-as-a-service on top of the Session.

The serving layer the ROADMAP's north star asks for: a long-lived,
multi-tenant front end over the per-layer design-space search.  It is a
*pure concurrency-and-admission* layer — every answer it returns is
bit-identical to the same request through
:meth:`repro.api.Session.optimize_network` — adding:

* **request coalescing** — concurrent requests for the same search
  signature share one underlying search via the optimizer's in-flight
  table (N tenants sweeping overlapping networks → one search per
  unique signature);
* **per-tenant token-bucket quotas** and **queue-depth backpressure**
  (reject-with-retry-after, never unbounded queueing);
* **latency SLOs** — a request deadline maps onto the anytime search's
  ``budget_ms``, returning certified best-so-far results (``bound_gap``)
  that never enter any cache layer;
* **incremental streaming** of per-layer results and a
  :class:`ServeMetrics` snapshot (queue depth, coalesce rate, per-tenant
  admits/rejects, latency percentiles, merged per-store cache stats).

Entry points: :meth:`repro.api.Session.serve` (the front door),
:class:`ServeEngine` directly, or ``python -m repro.experiments.runner
serve`` (line-JSON stdio, :mod:`repro.serve.protocol`).  See
``examples/serve_quickstart.py`` and docs/INVARIANTS.md ("serving
contract").
"""

from repro.optimizer.clock import SERVE_CLOCK
from repro.serve.config import ServeConfig
from repro.serve.engine import (
    ServeEngine,
    ServeEvent,
    ServeMetrics,
    ServeRejected,
    ServeRequest,
    ServeResult,
    TenantStats,
)
from repro.serve.protocol import serve_stdio

#: Install a fake serve clock (``with use_clock(lambda: 0.0):``), separate
#: from the search's budget clock — see :mod:`repro.optimizer.clock`.
use_clock = SERVE_CLOCK.use

__all__ = [
    "ServeConfig",
    "ServeEngine",
    "ServeEvent",
    "ServeMetrics",
    "ServeRejected",
    "ServeRequest",
    "ServeResult",
    "TenantStats",
    "serve_stdio",
    "use_clock",
]
