"""Concurrency guarantees of the config store and the engine.

Two engines — processes, or threads in thread mode — racing to write the
same signature into one cache directory must both succeed, and a later
recall must return one complete, valid record (the atomic temp-file +
rename contract).  The engine-level tests run the whole search flow
through the race; the store-level tests pin the rename behaviour.

CI runs this module under both ``REPRO_PARALLELISM_MODE=process`` and
``=thread``, so the engine-default tests here cover whichever executor
the environment selects plus the explicitly pinned one.
"""

from __future__ import annotations

import json
import multiprocessing
import threading

import pytest

from repro.arch.accelerator import morph
from repro.core.layer import ConvLayer
from repro.optimizer.config_store import create_store
from repro.optimizer.engine import (
    OptimizerEngine,
    default_parallelism_mode,
    optimize_layer,
    search_signature,
    signature_key,
)
from repro.optimizer.search import OptimizerOptions, clear_cache

TINY = OptimizerOptions.fast(
    max_l2_candidates=2,
    keep_allocations=1,
    keep_per_level=2,
    max_parallelism_candidates=1,
)

LAYER = ConvLayer("race", h=14, w=14, c=16, f=4, k=32, r=3, s=3, t=3,
                  pad_h=1, pad_w=1, pad_f=1)
LAYER_B = ConvLayer("race-b", h=7, w=7, c=32, f=4, k=32, r=3, s=3, t=3,
                    pad_h=1, pad_w=1, pad_f=1)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_cache()
    yield
    clear_cache()


# ----------------------------------------------------------------------
# Store-level put races (module-level workers: picklable for processes)
# ----------------------------------------------------------------------
def _race_put(barrier, backend, directory, key, payload):
    store = create_store(backend, directory)
    barrier.wait(timeout=60)
    assert store.put(key, payload)
    assert store.get(key) == payload


def _race_search(barrier, backend, directory):
    barrier.wait(timeout=60)
    result = optimize_layer(
        LAYER, morph(), TINY, cache_dir=directory, cache_backend=backend
    )
    assert result.best.total_energy_pj > 0


PAYLOAD = {"format_version": 99, "value": list(range(32))}


class TestProcessRaces:
    @pytest.mark.parametrize("backend", ("local", "sharded"))
    def test_racing_puts_both_succeed(self, tmp_path, backend):
        key = "ab" * 32
        barrier = multiprocessing.Barrier(2)
        workers = [
            multiprocessing.Process(
                target=_race_put, args=(barrier, backend, tmp_path, key, PAYLOAD)
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        # One complete record, readable, equal to what both writers wrote;
        # no temp files left behind.
        store = create_store(backend, tmp_path)
        assert store.get(key) == PAYLOAD
        assert not list(tmp_path.rglob("*.tmp.*"))

    @pytest.mark.parametrize("backend", ("local", "sharded"))
    def test_racing_searches_share_one_cache(self, tmp_path, backend):
        """Two processes race the whole search->store flow on one
        signature; a later recall returns the identical configuration."""
        barrier = multiprocessing.Barrier(2)
        workers = [
            multiprocessing.Process(
                target=_race_search, args=(barrier, backend, tmp_path)
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0

        clear_cache()  # this process never searched: force a store recall
        engine = OptimizerEngine(
            morph(), TINY, cache_dir=tmp_path, cache_backend=backend
        )
        recalled = engine.optimize_layers((LAYER,))[0]
        assert engine.stats.disk_hits == 1
        assert engine.stats.searched == 0
        direct = optimize_layer(LAYER, morph(), TINY, cache_dir=False)
        assert recalled.best.dataflow == direct.best.dataflow
        assert recalled.score == direct.score


class TestThreadRaces:
    @pytest.mark.parametrize("backend", ("local", "sharded"))
    def test_racing_thread_puts_both_succeed(self, tmp_path, backend):
        store = create_store(backend, tmp_path)
        key = "cd" * 32
        barrier = threading.Barrier(2)
        outcomes = []

        def put():
            barrier.wait(timeout=60)
            outcomes.append(store.put(key, PAYLOAD))

        threads = [threading.Thread(target=put) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert outcomes == [True, True]
        assert store.get(key) == PAYLOAD
        assert not list(tmp_path.rglob("*.tmp.*"))

    def test_racing_thread_engines_recall_identical_configs(self, tmp_path):
        """Two thread-mode engines racing the same signature into one
        directory both succeed and later recalls are identical."""
        barrier = threading.Barrier(2)
        failures = []

        def sweep():
            try:
                barrier.wait(timeout=60)
                engine = OptimizerEngine(
                    morph(), TINY, cache_dir=tmp_path,
                    parallelism=2, parallelism_mode="thread",
                )
                engine.optimize_layers((LAYER, LAYER_B))
            except Exception as exc:  # surfaced below: threads swallow raises
                failures.append(exc)

        threads = [threading.Thread(target=sweep) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures
        records = list(tmp_path.glob("*.json"))
        assert len(records) == 2  # one per unique signature, both valid
        for record in records:
            assert json.loads(record.read_text())["format_version"]


class TestManifestCompactionRaces:
    def test_compaction_races_with_writers(self, tmp_path):
        """Writers appending while another thread compacts repeatedly:
        every record stays retrievable (the shard tree is truth), the
        manifest never tears, and a final compaction deduplicates it."""
        from repro.optimizer.config_store import ShardedStore

        store = ShardedStore(tmp_path)
        keys = [f"{i:02x}{i:02x}" + "0" * 60 for i in range(24)]
        barrier = threading.Barrier(3)
        failures = []

        def write(chunk):
            try:
                barrier.wait(timeout=60)
                for key in chunk:
                    assert store.put(key, {"v": key})
                    assert store.put(key, {"v": key, "rev": 2})
            except Exception as exc:
                failures.append(exc)

        def compact():
            try:
                barrier.wait(timeout=60)
                for _ in range(20):
                    store.compact_manifest()
            except Exception as exc:
                failures.append(exc)

        threads = [
            threading.Thread(target=write, args=(keys[:12],)),
            threading.Thread(target=write, args=(keys[12:],)),
            threading.Thread(target=compact),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures
        # Records are never touched by compaction.
        for key in keys:
            assert store.get(key) == {"v": key, "rev": 2}
        assert sorted(store.keys()) == sorted(keys)
        # After the dust settles one compaction yields a duplicate-free,
        # fully parseable manifest whose keys all exist in the tree.
        kept = store.compact_manifest()
        manifest_keys = list(store.manifest_keys())
        assert kept == len(manifest_keys) == len(set(manifest_keys))
        assert set(manifest_keys) <= set(keys)
        assert not list(tmp_path.glob("*.tmp.*"))


class TestServeRaces:
    def test_serve_vs_serve_on_one_sharded_store(self, tmp_path):
        """Two serving engines (two sessions) racing overlapping requests
        into one sharded store: every served result is identical, the
        store ends with exactly one record per unique signature, and the
        atomic-write contract leaves no debris."""
        import asyncio

        from repro.api import Session, SessionConfig
        from repro.serve import ServeRequest

        arch = morph()
        config = SessionConfig(
            cache_dir=tmp_path, cache_backend="sharded", use_cache=True
        )
        session_a = Session(config)
        session_b = Session(config)
        network = (LAYER, LAYER_B)

        async def drive():
            serve_a = session_a.serve(max_workers=2)
            serve_b = session_b.serve(max_workers=2)
            results = await asyncio.gather(
                *[
                    engine.submit(
                        ServeRequest(
                            network=network, tenant=tenant, arch=arch,
                            options=TINY,
                        )
                    )
                    for engine, tenant in (
                        (serve_a, "a1"), (serve_a, "a2"),
                        (serve_b, "b1"), (serve_b, "b2"),
                    )
                ]
            )
            stats = (serve_a.metrics().engine, serve_b.metrics().engine)
            await serve_a.aclose()
            await serve_b.aclose()
            return results, stats

        try:
            results, (stats_a, stats_b) = asyncio.run(drive())
        finally:
            session_a.close()
            session_b.close()
        first = results[0].result
        for served in results[1:]:
            assert served.result == first
        # One record per unique signature, all valid, no torn temp files.
        store = create_store("sharded", tmp_path)
        assert len(list(store.keys())) == 2
        assert not list(tmp_path.rglob("*.tmp.*"))
        # The two engines combined searched each signature at most once
        # per process-wide claim (shared memo/in-flight table).
        assert stats_a.searched + stats_b.searched == 2


class TestThreadMode:
    def test_thread_pool_matches_serial(self, morph_arch):
        serial = OptimizerEngine(
            morph_arch, TINY, parallelism=1, use_cache=False
        ).optimize_layers((LAYER, LAYER_B))
        threaded = OptimizerEngine(
            morph_arch, TINY, parallelism=2, parallelism_mode="thread",
            use_cache=False,
        ).optimize_layers((LAYER, LAYER_B))
        for s, t in zip(serial, threaded):
            assert s.best.dataflow == t.best.dataflow
            assert s.score == t.score
            assert s.evaluated == t.evaluated

    def test_default_mode_matches_serial(self, morph_arch):
        """Whatever $REPRO_PARALLELISM_MODE selects (the CI matrix runs
        this under both), parallel results equal serial ones."""
        serial = OptimizerEngine(
            morph_arch, TINY, parallelism=1, use_cache=False
        ).optimize_layers((LAYER, LAYER_B))
        parallel = OptimizerEngine(
            morph_arch, TINY, parallelism=2, use_cache=False
        ).optimize_layers((LAYER, LAYER_B))
        assert parallel[0].best.dataflow == serial[0].best.dataflow
        assert [r.score for r in parallel] == [r.score for r in serial]

    def test_env_selects_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLELISM_MODE", "thread")
        assert default_parallelism_mode() == "thread"
        monkeypatch.setenv("REPRO_PARALLELISM_MODE", "bogus")
        with pytest.raises(ValueError, match="parallelism_mode"):
            default_parallelism_mode()

    def test_engine_rejects_unknown_mode(self, morph_arch):
        with pytest.raises(ValueError, match="parallelism_mode"):
            OptimizerEngine(morph_arch, TINY, parallelism_mode="fiber")
