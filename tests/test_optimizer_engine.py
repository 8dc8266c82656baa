"""Tests for the parallel, deduplicated, persistent optimizer engine."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.evaluate import evaluate
from repro.core.layer import ConvLayer
from repro.optimizer.engine import (
    DiskConfigCache,
    OptimizerEngine,
    _rebind,
    cache_statistics,
    clear_memory_caches,
    default_parallelism,
    optimize_layer,
    search_signature,
    signature_key,
)
from repro.optimizer.search import (
    OBJECTIVES,
    LayerOptimizer,
    OptimizerOptions,
    clear_cache,
    objective_lower_bound,
    optimize_network,
)
from repro.workloads.networks import build_network, network_names

FAST = OptimizerOptions.fast()

#: Small layers; "a" and "a-again" share a shape under different names.
LAYER_A = ConvLayer("a", h=14, w=14, c=32, f=4, k=64, r=3, s=3, t=3,
                    pad_h=1, pad_w=1, pad_f=1)
LAYER_A2 = ConvLayer("a-again", h=14, w=14, c=32, f=4, k=64, r=3, s=3, t=3,
                     pad_h=1, pad_w=1, pad_f=1)
LAYER_B = ConvLayer("b", h=7, w=7, c=64, f=2, k=64, r=3, s=3, t=3,
                    pad_h=1, pad_w=1, pad_f=1)
NETWORK = (LAYER_A, LAYER_B, LAYER_A2)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_cache()
    yield
    clear_cache()


class TestObjectiveScoring:
    """LayerResult.score must report the configured objective, not energy."""

    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    def test_score_matches_objective(self, morph_arch, objective):
        options = FAST.with_(objective=objective)
        result = LayerOptimizer(morph_arch, options).optimize(LAYER_B)
        assert result.objective == objective
        assert result.score == OBJECTIVES[objective](result.best)

    def test_score_survives_engine_paths(self, morph_arch, tmp_path):
        options = FAST.with_(objective="latency")
        cold = optimize_layer(LAYER_B, morph_arch, options, cache_dir=tmp_path)
        clear_cache()
        warm = optimize_layer(LAYER_B, morph_arch, options, cache_dir=tmp_path)
        assert cold.objective == warm.objective == "latency"
        assert warm.score == pytest.approx(cold.best.cycles)


class TestLowerBound:
    """The early-prune bound must never exceed a real evaluation's score."""

    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    def test_bound_is_sound(self, morph_arch, objective):
        options = FAST.with_(objective=objective)
        result = LayerOptimizer(morph_arch, options).optimize(LAYER_B)
        ev = result.best
        bound = objective_lower_bound(
            LAYER_B, morph_arch, ev.dataflow.hierarchy.outermost,
            ev.dataflow.outer_order, objective,
        )
        assert bound <= OBJECTIVES[objective](ev) * (1 + 1e-12)

    def test_pruning_preserves_the_optimum(self, morph_arch, monkeypatch):
        pruned = LayerOptimizer(morph_arch, FAST).optimize(LAYER_A)
        import repro.optimizer.search as search_module

        monkeypatch.setattr(
            search_module, "bound_from_terms",
            lambda *args, **kwargs: float("-inf"),
        )
        unpruned = LayerOptimizer(morph_arch, FAST).optimize(LAYER_A)
        assert pruned.best.dataflow == unpruned.best.dataflow
        assert pruned.best.total_energy_pj == unpruned.best.total_energy_pj
        # Pruning may only remove work, never results.
        assert pruned.evaluated <= unpruned.evaluated
        assert unpruned.pruned == 0


class TestParallelismCandidates:
    def test_candidate_count_respects_the_knob(self, morph_arch):
        """The canonical default must not push the list past the budget."""
        for budget in (1, 2, 4):
            options = FAST.with_(max_parallelism_candidates=budget)
            chosen, _ = LayerOptimizer(morph_arch, options)._parallelisms(
                LAYER_A
            )
            assert len(chosen) <= budget
            from repro.core.dataflow import Parallelism

            default = Parallelism(
                k=morph_arch.clusters, h=morph_arch.pes_per_cluster
            )
            assert default in chosen

    def test_zero_budget_keeps_the_canonical_default(self, morph_arch):
        from repro.core.dataflow import Parallelism

        options = FAST.with_(max_parallelism_candidates=0)
        chosen, displaced = LayerOptimizer(morph_arch, options)._parallelisms(
            LAYER_A
        )
        assert chosen == [
            Parallelism(k=morph_arch.clusters, h=morph_arch.pes_per_cluster)
        ]
        assert displaced == 0


class TestDeduplication:
    def test_duplicate_shapes_searched_once(self, morph_arch):
        engine = OptimizerEngine(morph_arch, FAST, use_cache=False)
        results = engine.optimize_layers(NETWORK)
        assert engine.stats.requested == 3
        assert engine.stats.unique == 2
        assert engine.stats.dedup_hits == 1
        assert engine.stats.searched == 2

    def test_fanned_out_results_keep_their_names(self, morph_arch):
        engine = OptimizerEngine(morph_arch, FAST, use_cache=False)
        results = engine.optimize_layers(NETWORK)
        assert [r.layer.name for r in results] == ["a", "b", "a-again"]
        # The rebound evaluation names the occurrence all the way down.
        assert results[2].best.layer.name == "a-again"
        assert results[2].best.dataflow.hierarchy.layer.name == "a-again"

    def test_fanned_out_results_are_identical(self, morph_arch):
        engine = OptimizerEngine(morph_arch, FAST, use_cache=False)
        results = engine.optimize_layers(NETWORK)
        direct = LayerOptimizer(morph_arch, FAST).optimize(LAYER_A2)
        assert results[2].best.total_energy_pj == pytest.approx(
            direct.best.total_energy_pj
        )
        assert results[2].best.dataflow.hierarchy.tiles == (
            direct.best.dataflow.hierarchy.tiles
        )


class TestRelabelRebind:
    """Rebind is a relabel: the models never read a layer's name, so an
    occurrence of a searched shape gets the searched evaluation with its
    own layer put in, and no model runs (docs/INVARIANTS.md)."""

    def test_relabel_equals_evaluation_for_every_registered_duplicate(
        self, morph_arch
    ):
        groups: dict[str, list[ConvLayer]] = {}
        for name in network_names():
            for layer in build_network(name).layers:
                key = signature_key(search_signature(layer, morph_arch, FAST))
                groups.setdefault(key, []).append(layer)
        checked = 0
        for layers in groups.values():
            others = [layer for layer in layers[1:] if layer != layers[0]]
            if not others:
                continue
            searched = LayerOptimizer(morph_arch, FAST).optimize(layers[0])
            dataflow = searched.best.dataflow
            for other in others:
                rebound = dataclasses.replace(
                    dataflow,
                    hierarchy=dataclasses.replace(dataflow.hierarchy, layer=other),
                )
                relabelled = _rebind(searched, other)
                assert relabelled.layer == other
                # Whole-Evaluation equality: a relabel that forgot, say,
                # traffic.dataflow would still report the right winner and
                # score, so comparing those alone is not enough.
                assert relabelled.best == evaluate(rebound, morph_arch), (
                    other.name
                )
                checked += 1
        assert checked >= 100

    def test_warm_sweep_evaluates_once_per_disk_hit(
        self, morph_arch, tmp_path, monkeypatch
    ):
        from repro.optimizer import engine as engine_module

        networks = [build_network("c3d"), build_network("two_stream")]

        def sweep():
            engines = [
                OptimizerEngine(morph_arch, FAST, cache_dir=tmp_path)
                for _ in networks
            ]
            for engine, network in zip(engines, networks):
                engine.optimize_network(network.layers, network_name=network.name)
            return engines

        sweep()  # cold: fills the store
        clear_cache()
        calls = []
        real_evaluate = engine_module.evaluate

        def counted(*args, **kwargs):
            calls.append(args[0].layer.name)
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(engine_module, "evaluate", counted)
        identity = DiskConfigCache(tmp_path).backend.identity()
        before = cache_statistics()[identity].recall_reevals
        engines = sweep()
        disk_hits = sum(engine.stats.disk_hits for engine in engines)
        requested = sum(engine.stats.requested for engine in engines)
        assert sum(engine.stats.searched for engine in engines) == 0
        assert disk_hits == sum(engine.stats.unique for engine in engines) - sum(
            engine.stats.memo_hits for engine in engines
        )
        assert len(calls) == disk_hits < requested
        # The recall's own check of each record is unchanged.
        assert cache_statistics()[identity].recall_reevals - before == disk_hits


class TestParallelEngine:
    def test_parallel_equals_serial_layer_by_layer(self, morph_arch):
        serial = OptimizerEngine(
            morph_arch, FAST, parallelism=1, use_cache=False
        ).optimize_layers(NETWORK)
        parallel = OptimizerEngine(
            morph_arch, FAST, parallelism=2, use_cache=False
        ).optimize_layers(NETWORK)
        assert len(serial) == len(parallel)
        for s, p in zip(serial, parallel):
            assert s.layer == p.layer
            assert s.best.dataflow == p.best.dataflow
            assert s.best.total_energy_pj == p.best.total_energy_pj
            assert s.evaluated == p.evaluated

    def test_network_aggregates_match_serial_path(self, morph_arch):
        serial = optimize_network(
            NETWORK, morph_arch, FAST, network_name="net", use_cache=False,
            parallelism=1,
        )
        parallel = optimize_network(
            NETWORK, morph_arch, FAST, network_name="net", use_cache=False,
            parallelism=2,
        )
        assert parallel.total_energy_pj == pytest.approx(serial.total_energy_pj)
        assert parallel.total_cycles == pytest.approx(serial.total_cycles)
        assert parallel.total_maccs == serial.total_maccs


class TestDiskCache:
    def test_round_trip_hit(self, morph_arch, tmp_path):
        cold_engine = OptimizerEngine(morph_arch, FAST, cache_dir=tmp_path)
        cold = cold_engine.optimize_layers((LAYER_B,))
        assert cold_engine.stats.disk_misses == 1
        assert list(tmp_path.glob("*.json"))

        clear_cache()  # drop the in-process memo: force the disk path
        warm_engine = OptimizerEngine(morph_arch, FAST, cache_dir=tmp_path)
        warm = warm_engine.optimize_layers((LAYER_B,))
        assert warm_engine.stats.disk_hits == 1
        assert warm_engine.stats.searched == 0
        assert warm[0].best.total_energy_pj == pytest.approx(
            cold[0].best.total_energy_pj
        )
        assert warm[0].best.dataflow == cold[0].best.dataflow

    def test_miss_on_different_options(self, morph_arch, tmp_path):
        OptimizerEngine(morph_arch, FAST, cache_dir=tmp_path).optimize_layers(
            (LAYER_B,)
        )
        clear_cache()
        other = OptimizerEngine(
            morph_arch, FAST.with_(objective="latency"), cache_dir=tmp_path
        )
        other.optimize_layers((LAYER_B,))
        assert other.stats.disk_hits == 0
        assert other.stats.searched == 1

    def test_stale_signature_invalidates(self, morph_arch, tmp_path):
        engine = OptimizerEngine(morph_arch, FAST, cache_dir=tmp_path)
        engine.optimize_layers((LAYER_B,))
        (record_path,) = tmp_path.glob("*.json")
        payload = json.loads(record_path.read_text())
        payload["signature"]["arch"] = "a different machine"
        record_path.write_text(json.dumps(payload))

        clear_cache()
        rerun = OptimizerEngine(morph_arch, FAST, cache_dir=tmp_path)
        rerun.optimize_layers((LAYER_B,))
        assert rerun.stats.disk_hits == 0
        assert rerun.stats.searched == 1
        # The stale record was rewritten with the current signature.
        restored = json.loads(record_path.read_text())
        assert restored["signature"] == search_signature(
            LAYER_B, morph_arch, FAST
        )

    def test_corrupt_record_is_a_miss(self, morph_arch, tmp_path):
        engine = OptimizerEngine(morph_arch, FAST, cache_dir=tmp_path)
        engine.optimize_layers((LAYER_B,))
        (record_path,) = tmp_path.glob("*.json")
        record_path.write_text("{ not json")
        clear_cache()
        rerun = OptimizerEngine(morph_arch, FAST, cache_dir=tmp_path)
        rerun.optimize_layers((LAYER_B,))
        assert rerun.stats.searched == 1

    def test_use_cache_false_skips_disk(self, morph_arch, tmp_path):
        engine = OptimizerEngine(
            morph_arch, FAST, cache_dir=tmp_path, use_cache=False
        )
        engine.optimize_layers((LAYER_B,))
        assert not list(tmp_path.glob("*.json"))

    def test_cache_dir_false_overrides_env_default(
        self, morph_arch, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        engine = OptimizerEngine(morph_arch, FAST, cache_dir=False)
        engine.optimize_layers((LAYER_B,))
        assert engine.disk is None
        assert not list(tmp_path.glob("*.json"))

    def test_cache_dir_must_not_be_a_file(self, morph_arch, tmp_path):
        target = tmp_path / "record.json"
        target.write_text("{}")
        with pytest.raises(ValueError, match="not a directory"):
            OptimizerEngine(morph_arch, FAST, cache_dir=target)

    def test_malformed_dataflow_record_is_a_miss(self, morph_arch, tmp_path):
        engine = OptimizerEngine(morph_arch, FAST, cache_dir=tmp_path)
        engine.optimize_layers((LAYER_B,))
        (record_path,) = tmp_path.glob("*.json")
        payload = json.loads(record_path.read_text())
        payload["dataflow"]["tiles"][0]["bogus_field"] = 1  # TypeError on load
        record_path.write_text(json.dumps(payload))
        clear_cache()
        rerun = OptimizerEngine(morph_arch, FAST, cache_dir=tmp_path)
        rerun.optimize_layers((LAYER_B,))
        assert rerun.stats.disk_hits == 0
        assert rerun.stats.searched == 1


class TestSignatures:
    def test_name_excluded_from_search_signature(self, morph_arch):
        assert search_signature(LAYER_A, morph_arch, FAST) == search_signature(
            LAYER_A2, morph_arch, FAST
        )

    def test_shape_and_knobs_change_the_key(self, morph_arch, morph_base_arch):
        base = signature_key(search_signature(LAYER_A, morph_arch, FAST))
        assert base != signature_key(
            search_signature(LAYER_B, morph_arch, FAST)
        )
        assert base != signature_key(
            search_signature(LAYER_A, morph_base_arch, FAST)
        )
        assert base != signature_key(
            search_signature(LAYER_A, morph_arch, FAST.with_(objective="edp"))
        )


    def test_engine_keys_are_the_public_signature_keys(
        self, morph_arch, tmp_path
    ):
        """The engine derives each key once, from cached ``repr`` strings; the
        keys must stay byte-identical so existing stores still recall."""
        engine = OptimizerEngine(morph_arch, FAST, cache_dir=tmp_path)
        engine.optimize_layers(NETWORK)
        public = {
            layer.name: signature_key(
                search_signature(layer, morph_arch, engine.options)
            )
            for layer in NETWORK
        }
        for layer in NETWORK:
            signature, key = engine._signed(layer)
            assert signature == search_signature(layer, morph_arch, FAST)
            assert key == public[layer.name]
        assert set(engine.disk.backend.keys()) == set(public.values())

    def test_search_is_independent_of_the_hash_seed(self):
        """Dims and data types hash by identity; str hashes vary with
        PYTHONHASHSEED.  Neither may change a search's winner or score."""
        script = (
            "import json\n"
            "from repro import LayerOptimizer, OptimizerOptions, morph\n"
            "from repro.core.layer import ConvLayer\n"
            "from repro.optimizer.config_store import dataflow_to_json\n"
            "layer = ConvLayer('b', h=7, w=7, c=64, f=2, k=64, r=3, s=3, t=3,"
            " pad_h=1, pad_w=1, pad_f=1)\n"
            "result = LayerOptimizer(morph(), OptimizerOptions.fast())"
            ".optimize(layer)\n"
            "print(json.dumps([dataflow_to_json(result.best.dataflow),"
            " result.score.hex(), result.evaluated]))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            run = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
                check=True,
            )
            outputs.append(json.loads(run.stdout))
        assert outputs[0] == outputs[1]


class TestNetworkMemo:
    def test_same_layers_under_two_names_share_one_search(self, morph_arch):
        first = optimize_network(
            NETWORK, morph_arch, FAST, network_name="stream-one"
        )
        engine = OptimizerEngine(morph_arch, FAST)
        second = engine.optimize_network(NETWORK, network_name="stream-two")
        assert engine.stats.searched == 0
        assert engine.stats.network_hits == 1
        assert engine.stats.memo_hits == 0  # layer-level stats stay layer-level
        assert second.network_name == "stream-two"
        assert second.total_energy_pj == pytest.approx(first.total_energy_pj)

    def test_same_name_returns_cached_object(self, morph_arch):
        first = optimize_network(NETWORK, morph_arch, FAST, network_name="n")
        second = optimize_network(NETWORK, morph_arch, FAST, network_name="n")
        assert first is second

    def test_network_memo_hit_backfills_disk_cache(self, morph_arch, tmp_path):
        optimize_network(NETWORK, morph_arch, FAST, network_name="n")
        assert not list(tmp_path.glob("*.json"))
        # The whole-network memo serves the rerun, yet the newly
        # configured cache directory must still end up populated.
        optimize_network(
            NETWORK, morph_arch, FAST, network_name="n", cache_dir=tmp_path
        )
        assert len(list(tmp_path.glob("*.json"))) == 2  # 2 unique shapes

    def test_clear_cache_is_public(self):
        import repro

        assert repro.clear_cache is clear_cache


class TestClearCacheMemos:
    """clear_cache() must also reset the model-constant memos, so tests
    that mutate accelerator/technology descriptions in place can never
    observe stale split-parallelism or cost-table entries."""

    def test_model_constant_memos_are_reset(self, morph_arch):
        from repro.core import batch, energy_model, performance_model

        # A search primes every memo under test.
        LayerOptimizer(morph_arch, FAST).optimize(LAYER_B)
        energy_model.energy_cost_tables(morph_arch)
        stale_tables = energy_model.energy_cost_tables(morph_arch)
        assert performance_model._split_parallelism_cached.cache_info().currsize
        assert energy_model.energy_cost_tables.cache_info().currsize
        if batch.available:
            assert batch.full_extents.cache_info().currsize

        clear_cache()
        assert (
            performance_model._split_parallelism_cached.cache_info().currsize
            == 0
        )
        assert energy_model.energy_cost_tables.cache_info().currsize == 0
        assert batch.full_extents.cache_info().currsize == 0
        assert batch.parallelism_tables.cache_info().currsize == 0
        assert batch._order_tables.cache_info().currsize == 0
        # A fresh call recomputes rather than returning the stale object.
        assert energy_model.energy_cost_tables(morph_arch) is not stale_tables


class TestEngineDefaults:
    def test_set_and_reset(self):
        from repro.api import Session, SessionConfig

        with Session(SessionConfig(parallelism=7)):
            assert default_parallelism() == 7
        assert default_parallelism() == 1

    def test_env_parallelism(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLELISM", "3")
        assert default_parallelism() == 3

    def test_env_cache_dir(self, morph_arch, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        optimize_layer(LAYER_B, morph_arch, FAST)
        assert list(tmp_path.glob("*.json"))


class TestDiskCacheUnit:
    def test_load_missing_returns_none(self, morph_arch, tmp_path):
        cache = DiskConfigCache(tmp_path)
        signature = search_signature(LAYER_B, morph_arch, FAST)
        assert cache.load(signature, LAYER_B, morph_arch, FAST) is None

    def test_old_format_payload_round_trips_absent_telemetry(
        self, morph_arch, tmp_path
    ):
        """A record written before the telemetry fields existed recalls
        with ``first_block_won=None`` preserved (tri-state, never coerced
        to False) and a zero displacement count."""
        cache = DiskConfigCache(tmp_path)
        signature = search_signature(LAYER_B, morph_arch, FAST)
        fresh = LayerOptimizer(morph_arch, FAST).optimize(LAYER_B)
        assert cache.store(signature, fresh)
        key = signature_key(signature)
        payload = cache.backend.get(key)
        assert payload["first_block_won"] is not None
        # Strip the fields a v2 record from an older build would lack.
        del payload["first_block_won"]
        del payload["parallelism_displaced"]
        assert cache.backend.put(key, payload)
        recalled = cache.load(signature, LAYER_B, morph_arch, FAST)
        assert recalled is not None
        assert recalled.first_block_won is None
        assert recalled.parallelism_displaced == 0
        assert recalled.score == fresh.score

    def test_modern_payload_round_trips_telemetry(self, morph_arch, tmp_path):
        cache = DiskConfigCache(tmp_path)
        signature = search_signature(LAYER_B, morph_arch, FAST)
        fresh = LayerOptimizer(morph_arch, FAST).optimize(LAYER_B)
        assert fresh.first_block_won is not None
        assert cache.store(signature, fresh)
        recalled = cache.load(signature, LAYER_B, morph_arch, FAST)
        assert recalled.first_block_won is fresh.first_block_won
        assert recalled.parallelism_displaced == fresh.parallelism_displaced


class TestEnvResolverErrors:
    """Every ``$REPRO_*`` knob rejects a malformed value with an error
    naming the variable and the offending text — a typo must never
    silently fall back to a default (the old resolvers treated any
    non-empty ``REPRO_USE_CACHE`` as truthy, so ``=false`` meant True)."""

    @pytest.mark.parametrize(
        ("variable", "value", "resolver"),
        [
            ("REPRO_PARALLELISM", "many", "default_parallelism"),
            ("REPRO_BUDGET_MS", "soon", "default_budget_ms"),
            ("REPRO_BUDGET_MS", "-5", "default_budget_ms"),
            (
                "REPRO_MANIFEST_COMPACT_RATIO",
                "tight",
                "default_manifest_compact_ratio",
            ),
            ("REPRO_USE_CACHE", "flase", "default_use_cache"),
            ("REPRO_USE_CACHE", "2", "default_use_cache"),
            ("REPRO_VECTORIZE", "si", "default_vectorize"),
        ],
    )
    def test_bad_value_raises_naming_the_variable(
        self, monkeypatch, variable, value, resolver
    ):
        from repro.optimizer import engine as engine_module

        monkeypatch.setenv(variable, value)
        with pytest.raises(ValueError) as excinfo:
            getattr(engine_module, resolver)()
        assert variable in str(excinfo.value)
        assert repr(value) in str(excinfo.value)

    def test_bad_frames_raises_naming_the_variable(self, monkeypatch):
        from repro.workloads.networks import build_network

        monkeypatch.setenv("REPRO_FRAMES", "sixteen")
        with pytest.raises(ValueError, match="REPRO_FRAMES.*'sixteen'"):
            build_network("c3d")

    @pytest.mark.parametrize(
        ("variable", "value", "resolver", "expected"),
        [
            ("REPRO_PARALLELISM", "3", "default_parallelism", 3),
            ("REPRO_BUDGET_MS", "250", "default_budget_ms", 250.0),
            (
                "REPRO_MANIFEST_COMPACT_RATIO",
                "4.5",
                "default_manifest_compact_ratio",
                4.5,
            ),
            ("REPRO_USE_CACHE", "off", "default_use_cache", False),
            ("REPRO_VECTORIZE", "Yes", "default_vectorize", True),
        ],
    )
    def test_good_value_parses(
        self, monkeypatch, variable, value, resolver, expected
    ):
        from repro.optimizer import engine as engine_module

        monkeypatch.setenv(variable, value)
        assert getattr(engine_module, resolver)() == expected
