"""repro: a full reproduction of *Morph: Flexible Acceleration for 3D
CNN-Based Video Understanding* (Hegde et al., MICRO 2018).

The package models the Morph accelerator, its inflexible baseline and an
Eyeriss-style 2D comparison point, the per-layer configuration optimizer,
and the analytic traffic/energy/performance models the paper's evaluation
is built on — plus functional simulators that validate them.

Quick start — the :class:`Session` front door owns the full engine
configuration (parallelism, cache dir/backend, vectorize, frames, ...)
as one immutable, serializable :class:`SessionConfig` value::

    from repro import Session, SessionConfig, morph, OptimizerOptions

    config = SessionConfig(parallelism=4, cache_dir="~/.cache/repro")
    with Session(config) as session:
        layer = session.build_network("c3d").layers[0]
        result = session.optimize_layer(layer, morph(), OptimizerOptions.fast())
        print(result.best.describe())

        sweep = session.sweep(["c3d", "i3d"])        # per-network results
        print(sweep.describe())                       # + merged cache stats

Configs layer with documented precedence — explicit kwargs beat dict/file
values (:meth:`SessionConfig.from_dict` / :meth:`SessionConfig.from_file`,
TOML or JSON) beat ``$REPRO_*`` environment variables beat built-in
defaults (:meth:`SessionConfig.resolve`).  Inside ``with session:`` every
legacy entry point resolves through the session, so two sessions with
different backends or vectorize settings run concurrently in one process
with bit-identical results to the global-default paths.

For long-lived multi-tenant serving, :meth:`Session.serve` opens an
asyncio :class:`ServeEngine` (request coalescing, per-tenant quotas,
backpressure, deadline-to-``budget_ms`` SLOs) — see :mod:`repro.serve`
and ``examples/serve_quickstart.py``.

The module-level :func:`optimize_network` / :func:`optimize_layer` are
supported shims that route through the currently scoped session.

See ``examples/`` for runnable walkthroughs and
``python -m repro.experiments.runner --all`` to regenerate every paper
figure and table.

The codebase's cross-cutting contracts — kernel purity, scoped config,
cache-signature completeness, atomic store writes, determinism — are
catalogued in ``docs/INVARIANTS.md`` and enforced statically by
``python -m repro.lint`` (see :mod:`repro.lint`).
"""

from repro.api import (
    Session,
    SessionConfig,
    SweepEntry,
    SweepResult,
    current_session,
    default_session,
)
from repro.arch.accelerator import (
    AcceleratorConfig,
    eyeriss_like,
    morph,
    morph_base,
)
from repro.core.access_model import TrafficReport, compute_traffic
from repro.core.dataflow import Dataflow, Parallelism
from repro.core.dims import DataType, Dim
from repro.core.evaluate import Evaluation, evaluate
from repro.core.layer import ConvLayer
from repro.core.loopnest import LoopOrder
from repro.core.tiling import Precision, TileHierarchy, TileShape
from repro.optimizer.config_store import (
    ConfigStore,
    LocalDirectoryStore,
    MemoryStore,
    ShardedStore,
)
from repro.optimizer.engine import (
    EngineStats,
    OptimizerEngine,
    optimize_layer,
)
from repro.optimizer.search import (
    LayerOptimizer,
    NetworkResult,
    OptimizerOptions,
    clear_cache,
    optimize_network,
)
from repro.serve import (
    ServeConfig,
    ServeEngine,
    ServeMetrics,
    ServeRejected,
    ServeRequest,
    ServeResult,
)
from repro.workloads import (
    alexnet,
    build_network,
    c3d,
    c3d_dilated,
    i3d,
    inception,
    network_names,
    resnet3d50,
    resnet50,
    set_build_defaults,
    two_stream,
)

__version__ = "1.0.0"

__all__ = [
    "AcceleratorConfig",
    "ConfigStore",
    "ConvLayer",
    "Dataflow",
    "DataType",
    "Dim",
    "EngineStats",
    "Evaluation",
    "LayerOptimizer",
    "LocalDirectoryStore",
    "LoopOrder",
    "MemoryStore",
    "NetworkResult",
    "OptimizerEngine",
    "OptimizerOptions",
    "Parallelism",
    "Precision",
    "ServeConfig",
    "ServeEngine",
    "ServeMetrics",
    "ServeRejected",
    "ServeRequest",
    "ServeResult",
    "Session",
    "SessionConfig",
    "ShardedStore",
    "SweepEntry",
    "SweepResult",
    "TileHierarchy",
    "TileShape",
    "TrafficReport",
    "alexnet",
    "build_network",
    "c3d",
    "c3d_dilated",
    "clear_cache",
    "compute_traffic",
    "current_session",
    "default_session",
    "evaluate",
    "eyeriss_like",
    "i3d",
    "inception",
    "morph",
    "morph_base",
    "network_names",
    "optimize_layer",
    "optimize_network",
    "resnet3d50",
    "resnet50",
    "set_build_defaults",
    "two_stream",
]
