"""Tests for :mod:`repro.api`: config precedence, session scoping,
legacy-shim compatibility, and the concurrent-session bit-identity
guarantee the API redesign is built around.
"""

from __future__ import annotations

import json
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.api import (
    _ENV_FIELDS,
    Session,
    SessionConfig,
    current_session,
    default_session,
)
from repro.arch.accelerator import morph
from repro.core.layer import ConvLayer
from repro.optimizer import engine as engine_mod
from repro.optimizer.config_store import (
    LocalDirectoryStore,
    MemoryStore,
    clear_memory_stores,
)
from repro.optimizer.engine import (
    optimize_layer,
    reset_cache_statistics,
)
from repro.optimizer.search import (
    OptimizerOptions,
    clear_cache,
    optimize_network,
)
from repro.workloads import build_network

LAYER_A = ConvLayer(
    "a", h=10, w=10, c=8, f=4, k=8, r=3, s=3, t=3,
    pad_h=1, pad_w=1, pad_f=1,
)
LAYER_B = ConvLayer("b", h=8, w=8, c=8, f=1, k=16, r=3, s=3, t=1,
                    pad_h=1, pad_w=1)
#: Same shape as LAYER_A under another name: dedup fodder.
LAYER_A2 = ConvLayer(
    "a2", h=10, w=10, c=8, f=4, k=8, r=3, s=3, t=3,
    pad_h=1, pad_w=1, pad_f=1,
)
NETWORK = (LAYER_A, LAYER_B, LAYER_A2)

TINY = OptimizerOptions.fast(
    max_l2_candidates=3,
    keep_per_level=2,
    keep_allocations=1,
    max_parallelism_candidates=2,
)


@pytest.fixture(autouse=True)
def _clean_state():
    clear_cache()
    clear_memory_stores()
    reset_cache_statistics()
    yield
    clear_cache()
    clear_memory_stores()
    reset_cache_statistics()


def _fingerprint(result):
    """Bit-comparable identity of a NetworkResult's chosen configs."""
    return tuple(
        (r.layer.name, repr(r.best.dataflow), r.score) for r in result.layers
    )


# ----------------------------------------------------------------------
# SessionConfig: construction, serialization, precedence
# ----------------------------------------------------------------------
class TestSessionConfig:
    def test_defaults_all_unset(self):
        config = SessionConfig()
        assert all(
            getattr(config, name) is None for name in config.field_names()
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="parallelism"):
            SessionConfig(parallelism=0)
        with pytest.raises(ValueError, match="parallelism_mode"):
            SessionConfig(parallelism_mode="fibers")
        with pytest.raises(ValueError, match="cache_backend"):
            SessionConfig(cache_backend="bogus")
        with pytest.raises(ValueError, match="frames"):
            SessionConfig(frames=0)
        with pytest.raises(ValueError, match="manifest_compact_ratio"):
            SessionConfig(manifest_compact_ratio=-1.0)

    def test_path_coercion(self, tmp_path):
        config = SessionConfig(cache_dir=str(tmp_path))
        assert config.cache_dir == tmp_path

    def test_numeric_coercion_at_construction(self):
        config = SessionConfig(
            parallelism="4", frames="8", manifest_compact_ratio="2.5"
        )
        assert config.parallelism == 4
        assert config.frames == 8
        assert config.manifest_compact_ratio == 2.5
        with pytest.raises(ValueError, match="parallelism"):
            SessionConfig(parallelism="many")

    def test_boolean_coercion_at_construction(self):
        config = SessionConfig.from_dict(
            {"vectorize": "false", "use_cache": "no", "persist_statistics": 0}
        )
        assert config.vectorize is False
        assert config.use_cache is False
        assert config.persist_statistics is False
        assert SessionConfig(vectorize="true").vectorize is True
        with pytest.raises(ValueError, match="vectorize"):
            SessionConfig(vectorize="maybe")
        # The scoped resolvers see real booleans, not truthy strings.
        with Session(SessionConfig(vectorize="false", use_cache="off")):
            assert engine_mod.default_vectorize() is False
            assert engine_mod.default_use_cache() is False

    def test_env_zero_clamps_consistently(self):
        config = SessionConfig.from_env(
            {"REPRO_FRAMES": "0", "REPRO_PARALLELISM": "0"}
        )
        assert config.frames == 1  # same clamp as build_network's env path
        assert config.parallelism == 1

    def test_dict_round_trip(self, tmp_path):
        config = SessionConfig(
            parallelism=4,
            parallelism_mode="thread",
            cache_dir=tmp_path,
            cache_backend="sharded",
            vectorize=False,
            frames=32,
            manifest_compact_ratio=8.0,
        )
        assert SessionConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="paralelism"):
            SessionConfig.from_dict({"paralelism": 4})

    @pytest.mark.parametrize(
        "retired",
        [{"kernel_backend": "numpy"}, {"search_order": "legacy"}],
        ids=["kernel_backend", "search_order"],
    )
    def test_retired_fields_fail_loudly(self, retired):
        """Config files naming a removed knob raise instead of being
        silently ignored."""
        with pytest.raises(ValueError, match="unknown SessionConfig field"):
            SessionConfig.from_dict(retired)

    def test_store_instance_not_serializable(self):
        config = SessionConfig(cache_backend=MemoryStore())
        with pytest.raises(ValueError, match="not.*serializable|serializable"):
            config.to_dict()

    def test_json_file_round_trip(self, tmp_path):
        config = SessionConfig(parallelism=2, vectorize=True)
        path = tmp_path / "config.json"
        config.save(path)
        assert SessionConfig.from_file(path) == config

    def test_toml_file_with_table(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text(
            "[repro]\nparallelism = 3\ncache_backend = 'sharded'\n"
        )
        config = SessionConfig.from_file(path)
        assert config.parallelism == 3
        assert config.cache_backend == "sharded"

    def test_from_env(self):
        environ = {
            "REPRO_PARALLELISM": "5",
            "REPRO_PARALLELISM_MODE": "thread",
            "REPRO_VECTORIZE": "0",
            "REPRO_FRAMES": "8",
            "REPRO_MANIFEST_COMPACT_RATIO": "6.5",
            "UNRELATED": "ignored",
        }
        config = SessionConfig.from_env(environ)
        assert config.parallelism == 5
        assert config.parallelism_mode == "thread"
        assert config.vectorize is False
        assert config.frames == 8
        assert config.manifest_compact_ratio == 6.5
        assert config.cache_dir is None

    def test_from_env_parse_error_names_variable(self):
        with pytest.raises(ValueError, match="REPRO_PARALLELISM"):
            SessionConfig.from_env({"REPRO_PARALLELISM": "many"})

    def test_precedence_explicit_beats_dict_beats_file_beats_env(
        self, tmp_path
    ):
        path = tmp_path / "config.toml"
        path.write_text("parallelism = 3\nframes = 3\nvectorize = false\n")
        environ = {
            "REPRO_PARALLELISM": "2",
            "REPRO_FRAMES": "2",
            "REPRO_VECTORIZE": "1",
            "REPRO_CACHE_BACKEND": "sharded",
        }
        config = SessionConfig.resolve(
            file=path,
            data={"frames": 4},
            env=environ,
            parallelism=5,
        )
        assert config.parallelism == 5  # explicit kwarg wins
        assert config.frames == 4  # dict beats file beats env
        assert config.vectorize is False  # file beats env
        assert config.cache_backend == "sharded"  # env fills the rest

    def test_resolve_skips_env_when_disabled(self):
        config = SessionConfig.resolve(
            env={"REPRO_PARALLELISM": "7"}, parallelism=None
        )
        assert config.parallelism == 7
        config = SessionConfig.resolve(env=False)
        assert config.parallelism is None

    def test_merged_overlay_wins_fieldwise(self):
        base = SessionConfig(parallelism=2, frames=8)
        overlay = SessionConfig(frames=16, vectorize=False)
        merged = base.merged(overlay)
        assert merged.parallelism == 2
        assert merged.frames == 16
        assert merged.vectorize is False



def _raised(call) -> str:
    with pytest.raises(ValueError) as excinfo:
        call()
    return str(excinfo.value)


#: Per ``$REPRO_*`` variable: a value it rejects (``None`` for the path
#: variables, which accept anything) and the call that resolves it
#: outside a session (``None`` when only SessionConfig reads it).
_ENV_CASES = {
    "REPRO_PARALLELISM": ("many", engine_mod.default_parallelism),
    "REPRO_PARALLELISM_MODE": ("fork", engine_mod.default_parallelism_mode),
    "REPRO_CACHE_DIR": (None, engine_mod.default_cache_dir),
    "REPRO_CACHE_BACKEND": ("s3", engine_mod.default_cache_backend),
    "REPRO_USE_CACHE": ("si", engine_mod.default_use_cache),
    "REPRO_VECTORIZE": ("si", engine_mod.default_vectorize),
    "REPRO_BUDGET_MS": ("abc", engine_mod.default_budget_ms),
    "REPRO_MAX_TABLE_BYTES": ("lots", engine_mod.default_max_table_bytes),
    "REPRO_FRAMES": ("sixteen", lambda: build_network("c3d")),
    "REPRO_BENCH_DIR": (None, None),
    "REPRO_MANIFEST_COMPACT_RATIO": (
        "half", engine_mod.default_manifest_compact_ratio
    ),
}


class TestEnvParsing:
    """SessionConfig.from_env and the default_* resolvers parse each
    variable once, with one message."""

    def test_every_variable_has_a_case(self):
        assert set(_ENV_CASES) == set(_ENV_FIELDS)

    @pytest.mark.parametrize("variable", sorted(_ENV_FIELDS))
    def test_from_env_raises_the_resolvers_message(self, monkeypatch, variable):
        bad, resolve = _ENV_CASES[variable]
        if bad is None:  # any path parses, the same way on both sides
            monkeypatch.setenv(variable, " runs/out ")
            field = _ENV_FIELDS[variable][0]
            parsed = getattr(SessionConfig.from_env(), field)
            assert parsed == Path("runs/out")
            assert resolve is None or resolve() == parsed
            return
        monkeypatch.setenv(variable, bad)
        message = _raised(SessionConfig.from_env)
        assert repr(bad) in message
        assert _raised(resolve) == message

    @pytest.mark.parametrize(
        ("variable", "value"),
        [("REPRO_BUDGET_MS", "-4"), ("REPRO_MAX_TABLE_BYTES", "0")],
    )
    def test_out_of_range_values_raise_one_message(
        self, monkeypatch, variable, value
    ):
        monkeypatch.setenv(variable, value)
        _, resolve = _ENV_CASES[variable]
        assert _raised(SessionConfig.from_env) == _raised(resolve)

    @pytest.mark.parametrize(
        ("variable", "field"),
        [
            ("REPRO_CACHE_BACKEND", "cache_backend"),
            ("REPRO_PARALLELISM_MODE", "parallelism_mode"),
        ],
    )
    def test_choice_errors_name_the_variable_and_the_field(
        self, monkeypatch, variable, field
    ):
        bad = _ENV_CASES[variable][0]
        monkeypatch.setenv(variable, bad)
        for call in (SessionConfig.from_env, _ENV_CASES[variable][1]):
            message = _raised(call)
            assert message.startswith(f"{variable} must be one of ")
            assert f"the {field} setting" in message
            assert repr(bad) in message
        # A value set in code names only the field it was set on.
        message = _raised(lambda: SessionConfig(**{field: bad}))
        assert message.startswith(f"{field} must be one of ")

# ----------------------------------------------------------------------
# Scoping
# ----------------------------------------------------------------------
class TestScoping:
    def test_nested_sessions_restore_outer(self):
        assert engine_mod.default_parallelism() == 1
        with Session(SessionConfig(parallelism=3)):
            assert engine_mod.default_parallelism() == 3
            with Session(SessionConfig(parallelism=5, vectorize=False)):
                assert engine_mod.default_parallelism() == 5
                assert engine_mod.default_vectorize() is False
            assert engine_mod.default_parallelism() == 3
        assert engine_mod.default_parallelism() == 1

    def test_session_beats_global_defaults_and_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLELISM", "2")
        with Session(SessionConfig(parallelism=6)):
            assert engine_mod.default_parallelism() == 6
            with Session(SessionConfig(parallelism=4)):
                assert engine_mod.default_parallelism() == 4
            assert engine_mod.default_parallelism() == 6
        assert engine_mod.default_parallelism() == 2

    def test_unset_fields_fall_through_to_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLELISM", "9")
        with Session(SessionConfig(vectorize=False)):
            assert engine_mod.default_parallelism() == 9

    def test_env_only_workflows_reach_every_knob(self, monkeypatch):
        """$REPRO_*-only workflows work through the fallback chain even
        without a runner: use_cache and frames included."""
        from repro.workloads import build_network

        monkeypatch.setenv("REPRO_USE_CACHE", "0")
        assert engine_mod.default_use_cache() is False
        monkeypatch.setenv("REPRO_USE_CACHE", "1")
        assert engine_mod.default_use_cache() is True
        monkeypatch.setenv("REPRO_FRAMES", "8")
        assert build_network("c3d").input_frames == 8
        # The session layer still wins over the environment.
        with Session(SessionConfig(frames=4, use_cache=False)):
            assert build_network("c3d").input_frames == 4
            assert engine_mod.default_use_cache() is False

    def test_scoping_is_thread_local(self):
        """Two sessions active in two threads never see each other."""
        barrier = threading.Barrier(2, timeout=30)
        seen = {}

        def probe(name, parallelism):
            with Session(SessionConfig(parallelism=parallelism)):
                barrier.wait()  # both sessions active simultaneously
                seen[name] = engine_mod.default_parallelism()
                barrier.wait()

        threads = [
            threading.Thread(target=probe, args=("one", 3)),
            threading.Thread(target=probe, args=("two", 7)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == {"one": 3, "two": 7}

    def test_build_network_frames_scoped(self):
        from repro.workloads import build_network

        with Session(SessionConfig(frames=8)) as session:
            assert session.build_network("c3d").input_frames == 8
            assert build_network("c3d").input_frames == 8  # legacy path
            assert build_network("c3d", frames=4).input_frames == 4  # kwarg
        assert build_network("c3d").input_frames == 16

    def test_sim_vectorize_scoped(self):
        from repro.sim.trace import _resolve_vectorize

        with Session(SessionConfig(vectorize=False)):
            assert _resolve_vectorize(None) is False
        with Session(SessionConfig(vectorize=True)):
            assert _resolve_vectorize(None) is True

    def test_current_session_honours_scope(self):
        outer = default_session()
        assert current_session() is outer
        config = SessionConfig(parallelism=2)
        with Session(config):
            assert current_session().config == config


# ----------------------------------------------------------------------
# The session surface
# ----------------------------------------------------------------------
class TestSessionSurface:
    def test_optimize_layer_matches_engine(self, morph_arch):
        session = Session(SessionConfig(vectorize=True))
        direct = session.optimize_layer(LAYER_A, morph_arch, TINY)
        legacy = optimize_layer(LAYER_A, morph_arch, TINY)
        assert repr(direct.best.dataflow) == repr(legacy.best.dataflow)
        assert direct.score == legacy.score

    def test_optimize_network_accepts_network_object(self, morph_arch):
        session = Session()
        network = session.build_network("alexnet")
        result = session.optimize_network(network, morph_arch, TINY)
        assert result.network_name == network.name
        assert len(result.layers) == len(network.layers)

    def test_session_accumulates_engine_stats(self, morph_arch):
        session = Session()
        session.optimize_network(NETWORK, morph_arch, TINY)
        assert session.stats.requested == 3
        assert session.stats.unique == 2
        assert session.stats.dedup_hits == 1

    def test_sweep_structured_results(self, morph_arch, tmp_path):
        config = SessionConfig(cache_dir=tmp_path, parallelism=1)
        with Session(config) as session:
            sweep = session.sweep(
                ["alexnet"], arch=morph_arch, options=TINY
            )
        assert [e.network_name for e in sweep.entries] == ["AlexNet"]
        entry = sweep.entry("AlexNet")
        assert entry.result.total_energy_pj > 0
        assert entry.stats.searched > 0
        identity = LocalDirectoryStore(tmp_path).identity()
        assert identity in sweep.cache_statistics
        assert sweep.cache_statistics[identity].writes > 0
        assert "AlexNet" in sweep.describe()

    def test_trace_and_simulate(self, morph_arch):
        session = Session(SessionConfig(vectorize=False))
        result = session.optimize_layer(LAYER_A, morph_arch, TINY)
        trace = session.trace(result.best.dataflow)
        assert trace.layer == LAYER_A
        assert trace.boundaries
        pipeline = session.simulate(result.best.dataflow, morph_arch)
        assert pipeline.cycles > 0

    def test_session_kwargs_override_config(self, morph_arch, tmp_path):
        session = Session(
            SessionConfig(cache_dir=tmp_path / "configured"),
        )
        engine = session.engine(morph_arch, TINY, cache_dir=tmp_path / "override")
        assert engine.disk is not None
        assert "override" in engine.disk.backend.describe()


# ----------------------------------------------------------------------
# Legacy shims
# ----------------------------------------------------------------------
class TestLegacyShims:
    def test_shim_results_bit_identical_to_session(self, morph_arch):
        clear_cache()
        via_session = Session(SessionConfig(parallelism=1)).optimize_network(
            NETWORK, morph_arch, TINY, network_name="net"
        )
        clear_cache()
        with Session(SessionConfig(parallelism=1)):
            via_shim = optimize_network(
                NETWORK, morph_arch, TINY, network_name="net"
            )
        assert _fingerprint(via_shim) == _fingerprint(via_session)

    def test_shims_follow_active_session(self, morph_arch, tmp_path):
        """Inside ``with session:`` the legacy entry points resolve
        through the session's store configuration."""
        with Session(SessionConfig(cache_dir=tmp_path)) as session:
            optimize_layer(LAYER_B, morph_arch, TINY)
            assert session.store() is not None
        assert list(tmp_path.glob("*.json"))

    def test_repo_entry_points_emit_no_deprecation_warning(self):
        """The repo's own entry points make no deprecated calls: the
        cheap experiments run clean under error-on-DeprecationWarning
        (CI additionally runs the full runner this way)."""
        from repro.experiments import EXPERIMENTS

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            EXPERIMENTS["fig1"](fast=True)
            EXPERIMENTS["table4"](fast=True)

    def test_experiment_registry_uniform_signature(self):
        import inspect

        from repro.experiments import EXPERIMENTS

        for name, entry in EXPERIMENTS.items():
            parameters = inspect.signature(entry).parameters
            assert list(parameters) == ["fast", "session"], name
            assert parameters["fast"].default is True, name
            assert parameters["session"].default is None, name


# ----------------------------------------------------------------------
# Concurrent sessions (the acceptance pin)
# ----------------------------------------------------------------------
class TestConcurrentSessions:
    def test_concurrent_sessions_bit_identical_to_serial(
        self, morph_arch, tmp_path
    ):
        """Two sessions with different cache backends and vectorize
        settings run ``optimize_network`` concurrently (threads) in one
        process; each result is bit-identical to a serial run with the
        same settings."""
        config_a = SessionConfig(
            cache_dir=tmp_path / "a", cache_backend="local", vectorize=True
        )
        config_b = SessionConfig(
            cache_dir=tmp_path / "b", cache_backend="sharded", vectorize=False
        )

        def run(config):
            with Session(config) as session:
                return session.optimize_network(
                    NETWORK, morph_arch, TINY, network_name="net"
                )

        # Serial references, fully isolated searches.
        clear_cache()
        serial_a = _fingerprint(run(config_a))
        clear_cache()
        serial_b = _fingerprint(run(config_b))
        for directory in (tmp_path / "a", tmp_path / "b"):
            for record in directory.rglob("*.json"):
                record.unlink()
        clear_cache()

        with ThreadPoolExecutor(max_workers=2) as pool:
            future_a = pool.submit(run, config_a)
            future_b = pool.submit(run, config_b)
            result_a, result_b = future_a.result(), future_b.result()

        assert _fingerprint(result_a) == serial_a
        assert _fingerprint(result_b) == serial_b
        # Each session persisted into its own store layout.
        assert list((tmp_path / "a").glob("[0-9a-f]*.json"))
        assert list(
            (tmp_path / "b").glob("[0-9a-f]*/[0-9a-f]*/[0-9a-f]*.json")
        )

    def test_thread_mode_parallel_search_inside_session(self, morph_arch):
        """The engine's worker pools run under a session without losing
        its configuration (knobs are baked in before fan-out)."""
        config = SessionConfig(
            parallelism=2, parallelism_mode="thread", vectorize=False
        )
        clear_cache()
        with Session(config) as session:
            parallel = session.optimize_network(
                NETWORK, morph_arch, TINY, network_name="net"
            )
        clear_cache()
        with Session(SessionConfig(parallelism=1, vectorize=False)) as session:
            serial = session.optimize_network(
                NETWORK, morph_arch, TINY, network_name="net"
            )
        assert _fingerprint(parallel) == _fingerprint(serial)


# ----------------------------------------------------------------------
# Persistent cache statistics
# ----------------------------------------------------------------------
class TestStatisticsSidecar:
    def test_close_writes_sidecar(self, morph_arch, tmp_path):
        with Session(SessionConfig(cache_dir=tmp_path)) as session:
            session.optimize_layer(LAYER_A, morph_arch, TINY)
        sidecar = tmp_path / LocalDirectoryStore.STATS_SIDECAR
        assert sidecar.exists()
        payload = json.loads(sidecar.read_text())
        identity = LocalDirectoryStore(tmp_path).identity()
        assert payload["statistics"][identity]["writes"] >= 1

    def test_sidecar_merges_across_sessions(self, morph_arch, tmp_path):
        config = SessionConfig(cache_dir=tmp_path)
        with Session(config) as session:
            session.optimize_layer(LAYER_A, morph_arch, TINY)
        clear_cache()
        with Session(config) as session:
            session.optimize_layer(LAYER_A, morph_arch, TINY)
        stats = json.loads(
            (tmp_path / LocalDirectoryStore.STATS_SIDECAR).read_text()
        )["statistics"][LocalDirectoryStore(tmp_path).identity()]
        assert stats["writes"] >= 1
        assert stats["hits"] >= 1  # the second session recalled

    def test_sweep_reports_merged_totals(self, morph_arch, tmp_path):
        config = SessionConfig(cache_dir=tmp_path, parallelism=1)
        with Session(config) as session:
            first = session.sweep(["alexnet"], arch=morph_arch, options=TINY)
        clear_cache()
        with Session(config) as session:
            second = session.sweep(["alexnet"], arch=morph_arch, options=TINY)
        identity = LocalDirectoryStore(tmp_path).identity()
        merged = second.cache_statistics[identity]
        # Totals fold the first session's persisted counters in.
        assert merged.writes >= first.cache_statistics[identity].writes
        assert merged.hits >= 1

    def test_flush_is_idempotent(self, morph_arch, tmp_path):
        config = SessionConfig(cache_dir=tmp_path)
        session = Session(config)
        session.optimize_layer(LAYER_A, morph_arch, TINY)
        session.flush_statistics()
        before = session.store().load_statistics()
        session.flush_statistics()  # no new deltas -> no double count
        session.close()
        assert session.store().load_statistics() == before

    def test_persist_statistics_opt_out(self, morph_arch, tmp_path):
        config = SessionConfig(cache_dir=tmp_path, persist_statistics=False)
        with Session(config) as session:
            session.optimize_layer(LAYER_A, morph_arch, TINY)
        assert not (tmp_path / LocalDirectoryStore.STATS_SIDECAR).exists()

    def test_overlapping_sessions_do_not_double_count(
        self, morph_arch, tmp_path
    ):
        """Two open sessions on one store flush from a shared baseline:
        the sidecar totals match the actual counter movement once, not
        once per session."""
        config = SessionConfig(cache_dir=tmp_path)
        first = Session(config)
        second = Session(config)
        first.optimize_layer(LAYER_A, morph_arch, TINY)
        first.close()
        second.close()
        stats = first.store().load_statistics()[
            first.store().identity()
        ]
        assert stats["writes"] == 1
        assert stats["misses"] == 1

    def test_same_kind_stores_keep_separate_counters(
        self, morph_arch, tmp_path
    ):
        """Statistics are keyed by store *identity*, not backend kind:
        two ``local`` directories used in one process must not pool
        their hit/miss counters (the old kind-keyed registry attributed
        the second store's cold misses to the first's warm cache)."""
        reset_cache_statistics()  # drop other tests' unflushed movement
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        with Session(SessionConfig(cache_dir=dir_a)) as session:
            session.optimize_layer(LAYER_A, morph_arch, TINY)
        clear_cache()
        with Session(SessionConfig(cache_dir=dir_b)) as session:
            session.optimize_layer(LAYER_A, morph_arch, TINY)
        stats = engine_mod.cache_statistics()
        id_a = LocalDirectoryStore(dir_a).identity()
        id_b = LocalDirectoryStore(dir_b).identity()
        assert id_a != id_b
        assert stats[id_a].writes == 1 and stats[id_a].hits == 0
        assert stats[id_b].writes == 1 and stats[id_b].hits == 0
        # Each sidecar carries only its own store's counters.
        side_a = LocalDirectoryStore(dir_a).load_statistics()
        side_b = LocalDirectoryStore(dir_b).load_statistics()
        assert set(side_a) == {id_a}
        assert set(side_b) == {id_b}

    def test_sidecar_never_shadows_records_in_keys(self, morph_arch, tmp_path):
        with Session(SessionConfig(cache_dir=tmp_path)) as session:
            session.optimize_layer(LAYER_A, morph_arch, TINY)
        store = LocalDirectoryStore(tmp_path)
        assert (tmp_path / LocalDirectoryStore.STATS_SIDECAR).exists()
        keys = list(store.keys())
        assert keys  # the real record is listed...
        assert "CACHE_STATS" not in keys  # ...the telemetry sidecar is not

    def test_memory_store_statistics(self, morph_arch):
        store = MemoryStore()
        config = SessionConfig(cache_backend=store)
        with Session(config) as session:
            session.optimize_layer(LAYER_A, morph_arch, TINY)
        assert store.load_statistics()[store.identity()]["writes"] >= 1

    def test_bench_dir_session_summary(self, morph_arch, tmp_path):
        config = SessionConfig(
            cache_dir=tmp_path / "cache", bench_dir=tmp_path / "bench"
        )
        with Session(config) as session:
            session.optimize_layer(LAYER_A, morph_arch, TINY)
        summary = json.loads(
            (tmp_path / "bench" / "SESSION_STATS.json").read_text()
        )
        assert summary["engine_stats"]["searched"] >= 1
        identity = LocalDirectoryStore(tmp_path / "cache").identity()
        assert identity in summary["cache_statistics"]


# ----------------------------------------------------------------------
# Runner config materialisation
# ----------------------------------------------------------------------
class TestRunnerConfig:
    def test_flags_beat_config_file_beat_env(self, tmp_path, monkeypatch):
        import argparse

        from repro.experiments.runner import build_config

        path = tmp_path / "sweep.toml"
        path.write_text("parallelism = 3\nframes = 4\n")
        monkeypatch.setenv("REPRO_PARALLELISM", "2")
        monkeypatch.setenv("REPRO_VECTORIZE", "0")
        args = argparse.Namespace(
            config=path,
            parallelism=8,
            parallelism_mode=None,
            cache_dir=None,
            cache_backend=None,
            no_cache=False,
            vectorize=None,
            budget_ms=None,
            max_table_bytes=None,
            frames=None,
            manifest_compact_ratio=None,
        )
        config = build_config(args)
        assert config.parallelism == 8  # flag beats file beats env
        assert config.frames == 4  # file fills unset flags
        assert config.vectorize is False  # env fills the rest
