"""Micro-benchmarks of the core analytic models and the optimizer.

These time the building blocks that every experiment leans on — useful for
tracking performance regressions in the model code itself (standard
multi-round pytest-benchmark timing, unlike the one-shot figure benches).

``test_bench_cold_sweep_vectorized_vs_scalar`` is the columnar pipeline's
acceptance gate: a cold C3D sweep (cache off, serial) must be >= 3x faster
through :mod:`repro.core.batch` than through the scalar reference path,
with identical chosen configurations; the measured ratio is recorded in
``BENCH_core_models.json``.
"""

import time

import pytest

from repro.arch.accelerator import morph
from repro.core.access_model import compute_traffic
from repro.core.dataflow import Dataflow, Parallelism
from repro.core.evaluate import evaluate
from repro.core.layer import ConvLayer
from repro.core.loopnest import LoopOrder
from repro.core.tiling import TileHierarchy, TileShape
from repro.optimizer.search import (
    LayerOptimizer,
    OptimizerOptions,
    clear_cache,
    optimize_network,
)
from repro.sim.trace import trace_dataflow
from repro.workloads import c3d, i3d

LAYER = ConvLayer(
    "c3d2", h=56, w=56, c=64, f=16, k=128, r=3, s=3, t=3,
    pad_h=1, pad_w=1, pad_f=1,
)
HIERARCHY = TileHierarchy(
    LAYER,
    (
        TileShape(w=28, h=14, c=64, k=8, f=8),
        TileShape(w=14, h=7, c=32, k=8, f=4),
        TileShape(w=7, h=7, c=8, k=8, f=2),
    ),
)
DATAFLOW = Dataflow(
    LoopOrder.parse("WHCKF"),
    LoopOrder.parse("CFWHK"),
    HIERARCHY,
    Parallelism(h=2, w=2, k=24),
)


def test_bench_compute_traffic(benchmark):
    """One analytic traffic evaluation (the optimizer's inner loop)."""
    report = benchmark(compute_traffic, DATAFLOW)
    assert report.maccs == LAYER.maccs


def test_bench_full_evaluation(benchmark):
    """Traffic + performance + energy for one configuration."""
    arch = morph()
    ev = benchmark(evaluate, DATAFLOW, arch, check_capacity=False)
    assert ev.total_energy_pj > 0


def test_bench_layer_optimization(benchmark, record_bench):
    """A complete per-layer configuration search (fast preset)."""
    small = ConvLayer(
        "c3d5a", h=7, w=7, c=512, f=2, k=512, r=3, s=3, t=3,
        pad_h=1, pad_w=1, pad_f=1,
    )
    optimizer = LayerOptimizer(morph(), OptimizerOptions.fast())
    result = benchmark.pedantic(
        optimizer.optimize, args=(small,), rounds=3, iterations=1
    )
    assert result.best.total_energy_pj > 0
    record_bench(
        layer_opt_candidates=result.considered,
        layer_opt_objective_pj=result.best.total_energy_pj,
    )


def test_bench_cold_sweep_vectorized_vs_scalar(timed_pedantic, record_bench):
    """Cold C3D sweep: columnar batch pipeline vs scalar reference.

    Cache off, parallelism pinned to 1, same options — the only variable
    is the evaluator.  Chosen configurations and scores must be identical;
    the batch path must be at least 3x faster.
    """
    network = c3d()
    options = OptimizerOptions.fast()

    def cold(vectorize: bool):
        clear_cache()
        return optimize_network(
            network.layers, morph(), options,
            network_name=network.name, use_cache=False, parallelism=1,
            vectorize=vectorize,
        )

    start = time.perf_counter()
    scalar = cold(False)
    scalar_s = time.perf_counter() - start

    batch, batch_s = timed_pedantic(
        cold, stat="total", args=(True,), rounds=1, iterations=1,
        warmup_rounds=0,
    )

    for a, b in zip(scalar.layers, batch.layers):
        assert a.best.dataflow == b.best.dataflow, a.layer.name
        assert a.score == b.score, a.layer.name
    speedup = scalar_s / batch_s
    record_bench(
        cold_sweep_scalar_s=round(scalar_s, 3),
        cold_sweep_vectorized_s=round(batch_s, 3),
        cold_sweep_speedup=round(speedup, 2),
        cold_sweep_candidates=sum(r.considered for r in batch.layers),
        cold_sweep_objective_pj=batch.total_energy_pj,
    )
    assert speedup >= 3.0, f"columnar sweep only {speedup:.2f}x faster"


def test_bench_best_first_vs_legacy_order(record_bench):
    """Best-first block ordering vs the legacy enumeration (cold C3D).

    Same candidates, same prune, different visit order: best-first must
    choose bit-identical configurations while fully evaluating strictly
    fewer candidates (the lower bound bites earlier); candidate counts
    and wall times land in ``BENCH_core_models.json``.
    """
    network = c3d()
    options = OptimizerOptions.fast()

    def cold(order: str):
        clear_cache()
        start = time.perf_counter()
        result = optimize_network(
            network.layers, morph(), options.with_(search_order=order),
            network_name=network.name, use_cache=False, parallelism=1,
        )
        return result, time.perf_counter() - start

    legacy, legacy_s = cold("legacy")
    best_first, best_first_s = cold("best_first")

    for chosen, reference in zip(best_first.layers, legacy.layers):
        assert chosen.best.dataflow == reference.best.dataflow, (
            chosen.layer.name
        )
        assert chosen.score == reference.score, chosen.layer.name
    evaluated_best_first = sum(r.evaluated for r in best_first.layers)
    evaluated_legacy = sum(r.evaluated for r in legacy.layers)
    # Bound-quality telemetry: how often the first-visited block (the
    # lower bound's top pick under best-first) held the eventual winner.
    first_block_wins = sum(
        1 for r in best_first.layers if r.first_block_won
    )
    record_bench(
        search_order_legacy_candidates=evaluated_legacy,
        search_order_best_first_candidates=evaluated_best_first,
        search_order_candidates_saved=evaluated_legacy - evaluated_best_first,
        search_order_legacy_s=round(legacy_s, 3),
        search_order_best_first_s=round(best_first_s, 3),
        search_order_first_block_wins=first_block_wins,
        search_order_layers=len(best_first.layers),
    )
    assert evaluated_best_first < evaluated_legacy, (
        f"best-first evaluated {evaluated_best_first}, "
        f"legacy {evaluated_legacy}"
    )


def test_bench_session_sweep(record_bench, tmp_path):
    """The session front door end to end: scoped sweep + merged stats.

    Runs a small sweep through :meth:`repro.api.Session.sweep` with a
    persistent local store, closes the session (flushing the
    cross-process statistics sidecar), then re-opens a second session on
    the same store and confirms the recall path; wall time and the merged
    hit counters land in ``BENCH_core_models.json``.
    """
    from repro.api import Session, SessionConfig

    config = SessionConfig(
        cache_dir=tmp_path / "session-cache", parallelism=1
    )
    options = OptimizerOptions.fast(
        max_l2_candidates=4, keep_per_level=2, keep_allocations=1,
        max_parallelism_candidates=1,
    )
    clear_cache()
    start = time.perf_counter()
    with Session(config) as session:
        cold = session.sweep(["alexnet"], options=options)
    cold_s = time.perf_counter() - start
    clear_cache()  # drop the in-process memos; the store survives
    start = time.perf_counter()
    with Session(config) as session:
        warm = session.sweep(["alexnet"], options=options)
    warm_s = time.perf_counter() - start
    for before, after in zip(cold.results, warm.results):
        assert before.total_energy_pj == after.total_energy_pj
    from repro.optimizer.config_store import LocalDirectoryStore

    merged = warm.cache_statistics[
        LocalDirectoryStore(tmp_path / "session-cache").identity()
    ]
    assert merged.hits >= warm.entries[0].stats.disk_hits > 0
    record_bench(
        session_sweep_cold_s=round(cold_s, 3),
        session_sweep_warm_s=round(warm_s, 3),
        session_sweep_merged_hits=merged.hits,
        session_sweep_merged_writes=merged.writes,
    )


def test_bench_cache_backend_stats(record_bench, tmp_path):
    """Save-and-recall statistics per config-store backend.

    One cold search followed by one recall through each backend; the
    per-backend hit/miss/re-eval counters land in
    ``BENCH_core_models.json`` so cache efficacy is tracked across PRs.
    """
    from repro.optimizer.engine import (
        cache_statistics,
        optimize_layer,
        reset_cache_statistics,
    )

    from repro.optimizer.config_store import clear_memory_stores, create_store

    layer = ConvLayer(
        "cachestat", h=14, w=14, c=32, f=4, k=48, r=3, s=3, t=3,
        pad_h=1, pad_w=1, pad_f=1,
    )
    arch = morph()
    options = OptimizerOptions.fast()
    reset_cache_statistics()
    clear_memory_stores()  # the "memory" backend is shared process-wide
    metrics = {}
    for backend in ("local", "sharded", "memory"):
        cache_dir = tmp_path / backend
        for _ in range(2):  # cold (miss + write), then recall (hit)
            clear_cache()
            optimize_layer(
                layer, arch, options,
                cache_dir=cache_dir, cache_backend=backend, parallelism=1,
            )
        stats = cache_statistics()[
            create_store(backend, cache_dir).identity()
        ]
        assert stats.hits == 1 and stats.misses == 1, (backend, stats)
        assert stats.recall_reevals == 1 and stats.writes == 1, (backend, stats)
        metrics.update({
            f"cache_{backend}_hits": stats.hits,
            f"cache_{backend}_misses": stats.misses,
            f"cache_{backend}_recall_reevals": stats.recall_reevals,
        })
    record_bench(**metrics)
    reset_cache_statistics()


@pytest.mark.slow
def test_bench_network_sweep_serial_cold(benchmark, record_bench):
    """Full C3D sweep with every cache disabled: the engine's baseline.

    Compare against ``test_bench_network_sweep_warm_cache`` for the
    save-and-recall speedup the paper's Section V describes (target >=3x;
    in practice orders of magnitude).
    """
    network = c3d()
    result = benchmark.pedantic(
        optimize_network,
        args=(network.layers, morph(), OptimizerOptions.fast()),
        # parallelism pinned so $REPRO_PARALLELISM (set in CI) cannot turn
        # the serial baseline into a parallel run.
        kwargs=dict(network_name=network.name, use_cache=False, parallelism=1),
        rounds=1,
        iterations=1,
    )
    assert result.total_energy_pj > 0
    record_bench(
        serial_cold_candidates=sum(r.considered for r in result.layers),
        serial_cold_objective_pj=result.total_energy_pj,
    )


@pytest.mark.slow
def test_bench_network_sweep_warm_cache(benchmark, tmp_path_factory):
    """C3D sweep recalled from the persistent configuration cache.

    The setup run populates the disk cache; each timed round drops the
    in-process memo, so what is measured is disk recall + re-evaluation
    of every layer (one model evaluation each, no search).
    """
    cache_dir = tmp_path_factory.mktemp("repro-config-cache")
    network = c3d()
    options = OptimizerOptions.fast()
    cold = optimize_network(
        network.layers, morph(), options,
        network_name=network.name, cache_dir=cache_dir,
    )

    def warm():
        clear_cache()
        return optimize_network(
            network.layers, morph(), options,
            network_name=network.name, cache_dir=cache_dir,
        )

    result = benchmark(warm)
    assert result.total_energy_pj == cold.total_energy_pj


@pytest.mark.slow
def test_bench_network_sweep_dedup_i3d(benchmark):
    """I3D sweep, in-memory caches only: measures layer deduplication.

    I3D repeats Inception block shapes heavily, so the engine searches
    far fewer unique layers than the network lists.
    """
    network = i3d()
    clear_cache()
    result = benchmark.pedantic(
        optimize_network,
        args=(network.layers, morph(), OptimizerOptions.fast()),
        # parallelism pinned: this measures dedup alone, not dedup+workers.
        kwargs=dict(network_name=network.name, parallelism=1),
        rounds=1,
        iterations=1,
    )
    assert result.total_energy_pj > 0


def test_bench_trace_simulator(benchmark):
    """The validation walker on a small layer (exponentially slower than
    the analytic model it checks — that gap is the point)."""
    layer = ConvLayer("small", h=12, w=12, c=8, f=6, k=8, r=3, s=3, t=3)
    hierarchy = TileHierarchy(
        layer,
        (
            TileShape(w=5, h=10, c=4, k=4, f=2),
            TileShape(w=5, h=5, c=2, k=2, f=2),
        ),
    )
    dataflow = Dataflow(
        LoopOrder.parse("WHCKF"), LoopOrder.parse("CFWHK"), hierarchy
    )
    report = benchmark(trace_dataflow, dataflow)
    assert report.boundaries[0].fills
