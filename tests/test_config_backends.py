"""Property tests for the pluggable config-store backends.

All three backends (local directory, sharded, in-memory) run the same
suite: records round-trip byte-faithfully, a full search survives
save -> load -> re-evaluate with bit-identical configurations, and a
truncated or corrupted record is quarantined and re-searched rather than
crashing the sweep.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.layer import ConvLayer
from repro.optimizer.config_store import (
    CACHE_BACKENDS,
    ConfigStore,
    LocalDirectoryStore,
    MemoryStore,
    ShardedStore,
    clear_memory_stores,
    create_store,
    memory_store,
)
from repro.optimizer.engine import (
    OptimizerEngine,
    default_cache_backend,
    search_signature,
    signature_key,
)
from repro.optimizer.search import OptimizerOptions, clear_cache

#: Tiny search effort: the round-trip property runs full searches per
#: hypothesis example, so keep each one to a handful of candidates.
TINY = OptimizerOptions.fast(
    max_l2_candidates=2,
    keep_allocations=1,
    keep_per_level=2,
    max_parallelism_candidates=1,
)

LAYER = ConvLayer("fixed", h=14, w=14, c=16, f=4, k=32, r=3, s=3, t=3,
                  pad_h=1, pad_w=1, pad_f=1)


def make_store(backend: str, tmp_path) -> ConfigStore:
    """A fresh, isolated store instance of the requested backend."""
    if backend == "memory":
        return MemoryStore()
    return create_store(backend, tmp_path / backend)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_cache()
    clear_memory_stores()
    yield
    clear_cache()
    clear_memory_stores()


#: JSON-able payloads (no NaN: equality must survive dumps/loads).
json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**53), max_value=2**53),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.text(max_size=20),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=10,
)
payloads = st.dictionaries(st.text(max_size=16), json_values, max_size=5)
keys = st.text(alphabet="0123456789abcdef", min_size=6, max_size=64)

small_layers = st.builds(
    ConvLayer,
    st.just("prop"),
    h=st.integers(min_value=6, max_value=20),
    w=st.integers(min_value=6, max_value=20),
    c=st.sampled_from([3, 8, 16]),
    f=st.sampled_from([4, 8]),
    k=st.sampled_from([8, 16]),
    r=st.sampled_from([1, 3]),
    s=st.sampled_from([1, 3]),
    t=st.sampled_from([1, 3]),
    stride_h=st.sampled_from([1, 2]),
    pad_h=st.sampled_from([0, 1]),
    pad_f=st.sampled_from([0, 1]),
)


class TestStoreContract:
    """The raw get/put/contains/keys contract, identical per backend."""

    @pytest.mark.parametrize("backend", CACHE_BACKENDS)
    @given(key=keys, payload=payloads)
    @settings(max_examples=20)
    def test_put_get_roundtrip(self, backend, tmp_path, key, payload):
        store = make_store(backend, tmp_path)
        # tmp_path persists across hypothesis examples, so only probe the
        # miss behaviour while the key is genuinely absent.
        if not store.contains(key):
            assert store.get(key) is None
        assert store.put(key, payload)
        assert store.contains(key)
        assert store.get(key) == json.loads(json.dumps(payload))

    @pytest.mark.parametrize("backend", CACHE_BACKENDS)
    def test_overwrite_wins(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        store.put("aabbccdd", {"v": 1})
        store.put("aabbccdd", {"v": 2})
        assert store.get("aabbccdd") == {"v": 2}
        assert list(store.keys()) == ["aabbccdd"]

    @pytest.mark.parametrize("backend", CACHE_BACKENDS)
    def test_keys_enumerates_all_records(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        wanted = {f"{i:02x}{'0' * 6}": {"i": i} for i in range(5)}
        for key, payload in wanted.items():
            store.put(key, payload)
        assert sorted(store.keys()) == sorted(wanted)

    @pytest.mark.parametrize("backend", CACHE_BACKENDS)
    def test_describe_is_informative(self, backend, tmp_path):
        assert make_store(backend, tmp_path).describe()


class TestSearchRoundTrip:
    """Save -> load -> re-evaluate lands on bit-identical configurations."""

    @pytest.mark.parametrize("backend", CACHE_BACKENDS)
    @given(layer=small_layers)
    @settings(max_examples=5, deadline=None)
    def test_random_layers_survive_recall(
        self, backend, tmp_path, morph_arch, layer
    ):
        clear_cache()
        store = make_store(backend, tmp_path)
        cold = OptimizerEngine(
            morph_arch, TINY, cache_backend=store
        ).optimize_layers((layer,))[0]

        clear_cache()  # drop the in-process memo: force the store path
        warm_engine = OptimizerEngine(morph_arch, TINY, cache_backend=store)
        warm = warm_engine.optimize_layers((layer,))[0]
        assert warm_engine.stats.disk_hits == 1
        assert warm_engine.stats.searched == 0
        assert warm.best.dataflow == cold.best.dataflow
        assert warm.score == cold.score


class TestCorruptRecords:
    """Unparseable records are quarantined and re-searched, never fatal."""

    @pytest.mark.parametrize("backend", ("local", "sharded"))
    @given(cut=st.integers(min_value=0, max_value=64))
    @settings(max_examples=10, deadline=None)
    def test_truncated_record_is_quarantined_and_re_searched(
        self, backend, tmp_path, morph_arch, cut
    ):
        store = make_store(backend, tmp_path)
        clear_cache()
        OptimizerEngine(morph_arch, TINY, cache_backend=store).optimize_layers(
            (LAYER,)
        )
        key = signature_key(search_signature(LAYER, morph_arch, TINY))
        path = store.path_for(key)
        truncated = path.read_text()[:cut]
        try:
            json.loads(truncated)
        except ValueError:
            pass
        else:  # a cut that still parses is not a corruption case
            assume(False)
        path.write_text(truncated)

        clear_cache()
        rerun = OptimizerEngine(morph_arch, TINY, cache_backend=store)
        rerun.optimize_layers((LAYER,))
        assert rerun.stats.disk_hits == 0
        assert rerun.stats.searched == 1
        # The corrupt record was moved aside, not destroyed, and the
        # re-search rewrote a valid one in place.
        quarantined = list((store.directory / "quarantine").iterdir())
        assert any(entry.name.startswith(path.name) for entry in quarantined)
        assert json.loads(path.read_text())["signature"] == search_signature(
            LAYER, morph_arch, TINY
        )

    @pytest.mark.parametrize("backend", ("local", "sharded"))
    def test_non_dict_record_is_quarantined(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        store.put("deadbeef", {"v": 1})
        path = store.path_for("deadbeef")
        path.write_text(json.dumps([1, 2, 3]))
        assert store.get("deadbeef") is None
        assert not path.exists()  # moved to quarantine


class TestShardedLayout:
    def test_two_level_fanout(self, tmp_path):
        store = ShardedStore(tmp_path)
        key = "abcdef" + "0" * 58
        store.put(key, {"v": 1})
        assert store.path_for(key) == tmp_path / "ab" / "cd" / f"{key}.json"
        assert store.path_for(key).exists()

    def test_manifest_lists_written_keys(self, tmp_path):
        store = ShardedStore(tmp_path)
        written = [f"{i:02x}{i:02x}{'0' * 60}" for i in range(4)]
        for key in written:
            store.put(key, {"v": key})
        assert list(store.manifest_keys()) == written

    def test_manifest_tolerates_torn_lines(self, tmp_path):
        store = ShardedStore(tmp_path)
        store.put("aabb" + "0" * 60, {"v": 1})
        with open(tmp_path / ShardedStore.MANIFEST, "a") as manifest:
            manifest.write('{"key": "cc')  # torn mid-record append
        assert list(store.manifest_keys()) == ["aabb" + "0" * 60]

    def test_short_keys_still_store(self, tmp_path):
        store = ShardedStore(tmp_path)
        assert store.put("abc", {"v": 1})
        assert store.get("abc") == {"v": 1}
        # Fallback "__" shards still enumerate (keys() contract), and a
        # quarantined record drops out of the listing.
        assert list(store.keys()) == ["abc"]
        store.path_for("abc").write_text("{ torn")
        assert store.get("abc") is None
        assert list(store.keys()) == []


class TestManifestCompaction:
    """compact_manifest(): latest record per key, atomic replace."""

    def test_duplicates_collapse_to_latest(self, tmp_path):
        store = ShardedStore(tmp_path)
        key_a, key_b = "aabb" + "0" * 60, "ccdd" + "0" * 60
        store.put(key_a, {"v": 1})
        store.put(key_b, {"v": 2})
        store.put(key_a, {"v": 3})  # re-write appends a second line
        manifest = tmp_path / ShardedStore.MANIFEST
        assert len(manifest.read_text().splitlines()) == 3
        assert store.compact_manifest() == 2
        lines = [json.loads(line) for line in manifest.read_text().splitlines()]
        assert [entry["key"] for entry in lines] == [key_a, key_b]
        # Records themselves are untouched; enumeration still agrees.
        assert store.get(key_a) == {"v": 3}
        assert sorted(store.manifest_keys()) == sorted(store.keys())

    def test_torn_lines_are_dropped(self, tmp_path):
        store = ShardedStore(tmp_path)
        key = "eeff" + "0" * 60
        store.put(key, {"v": 1})
        manifest = tmp_path / ShardedStore.MANIFEST
        with open(manifest, "a") as handle:
            handle.write('{"key": "torn')  # torn append, no newline
        assert store.compact_manifest() == 1
        assert list(store.manifest_keys()) == [key]
        # The rewritten manifest is fully valid JSON lines again.
        for line in manifest.read_text().splitlines():
            json.loads(line)

    def test_no_manifest_is_a_noop(self, tmp_path):
        store = ShardedStore(tmp_path)
        assert store.compact_manifest() == 0
        assert not (tmp_path / ShardedStore.MANIFEST).exists()

    def test_no_temp_files_left(self, tmp_path):
        store = ShardedStore(tmp_path)
        store.put("aa" * 32, {"v": 1})
        store.compact_manifest()
        assert not list(tmp_path.glob("*.tmp.*"))


class TestCacheStatistics:
    """Per-backend hit/miss/re-eval counters behind cache_statistics()."""

    @pytest.fixture(autouse=True)
    def _fresh_stats(self):
        from repro.optimizer.engine import reset_cache_statistics

        reset_cache_statistics()
        yield
        reset_cache_statistics()

    @pytest.mark.parametrize("backend", CACHE_BACKENDS)
    def test_cold_then_warm_counts(self, backend, tmp_path, morph_arch):
        from repro.optimizer.engine import cache_statistics

        store = make_store(backend, tmp_path)
        OptimizerEngine(morph_arch, TINY, cache_backend=store).optimize_layers(
            (LAYER,)
        )
        stats = cache_statistics()[store.identity()]
        assert (stats.misses, stats.writes, stats.hits) == (1, 1, 0)

        clear_cache()  # force the store path on the warm run
        OptimizerEngine(morph_arch, TINY, cache_backend=store).optimize_layers(
            (LAYER,)
        )
        stats = cache_statistics()[store.identity()]
        assert (stats.hits, stats.misses, stats.writes) == (1, 1, 1)
        assert stats.recall_reevals == 1
        assert stats.stale == 0

    def test_stale_record_counts_as_stale_miss(self, tmp_path, morph_arch):
        from repro.optimizer.engine import cache_statistics

        store = make_store("local", tmp_path)
        OptimizerEngine(morph_arch, TINY, cache_backend=store).optimize_layers(
            (LAYER,)
        )
        key = signature_key(search_signature(LAYER, morph_arch, TINY))
        payload = store.get(key)
        payload["format_version"] = -1  # e.g. a record from older models
        store.put(key, payload)

        clear_cache()
        OptimizerEngine(morph_arch, TINY, cache_backend=store).optimize_layers(
            (LAYER,)
        )
        stats = cache_statistics()[store.identity()]
        assert stats.stale == 1
        assert stats.misses == 2  # the cold miss plus the stale one
        assert stats.hits == 0

    def test_describe_lists_backends(self, tmp_path, morph_arch):
        from repro.optimizer.engine import describe_cache_statistics

        assert "no persistent-store activity" in describe_cache_statistics()
        store = make_store("sharded", tmp_path)
        OptimizerEngine(morph_arch, TINY, cache_backend=store).optimize_layers(
            (LAYER,)
        )
        summary = describe_cache_statistics()
        assert f"[{store.identity()}]" in summary and "writes" in summary
        assert "sharded:" in summary  # identity keys carry the kind


class TestBackendSelection:
    def test_create_store_rejects_unknown_backend(self, tmp_path):
        with pytest.raises(ValueError, match="unknown cache backend"):
            create_store("s3", tmp_path)

    def test_file_backends_need_a_directory(self):
        for backend in ("local", "sharded"):
            with pytest.raises(ValueError, match="needs a cache directory"):
                create_store(backend)

    def test_memory_backend_is_process_shared(self):
        assert memory_store() is memory_store()
        assert create_store("memory") is memory_store()

    def test_instance_passes_through(self, tmp_path):
        store = LocalDirectoryStore(tmp_path)
        assert create_store(store) is store

    def test_engine_backend_string_selects_layout(self, morph_arch, tmp_path):
        engine = OptimizerEngine(
            morph_arch, TINY, cache_dir=tmp_path, cache_backend="sharded"
        )
        engine.optimize_layers((LAYER,))
        assert list(tmp_path.glob("[0-9a-f]*/[0-9a-f]*/*.json"))
        assert (tmp_path / ShardedStore.MANIFEST).exists()

    def test_engine_memory_backend_needs_no_directory(self, morph_arch):
        engine = OptimizerEngine(morph_arch, TINY, cache_backend="memory")
        engine.optimize_layers((LAYER,))
        assert len(memory_store()) == 1
        clear_cache()
        warm = OptimizerEngine(morph_arch, TINY, cache_backend="memory")
        warm.optimize_layers((LAYER,))
        assert warm.stats.disk_hits == 1
        assert warm.stats.searched == 0

    def test_cache_dir_false_disables_every_backend(self, morph_arch):
        engine = OptimizerEngine(
            morph_arch, TINY, cache_backend="memory", cache_dir=False
        )
        engine.optimize_layers((LAYER,))
        assert engine.disk is None
        assert len(memory_store()) == 0

    def test_env_backend_selection(self, morph_arch, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "sharded")
        engine = OptimizerEngine(morph_arch, TINY, cache_dir=tmp_path)
        engine.optimize_layers((LAYER,))
        assert list(tmp_path.glob("[0-9a-f]*/[0-9a-f]*/*.json"))

    def test_engine_defaults_validate_backend(self, monkeypatch):
        from repro.api import SessionConfig

        with pytest.raises(ValueError, match="cache_backend"):
            SessionConfig(cache_backend="bogus")
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "bogus")
        with pytest.raises(ValueError, match="cache_backend"):
            default_cache_backend()

    def test_sharded_and_local_recall_each_others_misses(
        self, morph_arch, tmp_path
    ):
        """Backends share record *format*: a record written by one layout
        recalls through another store pointed at the same file."""
        local = LocalDirectoryStore(tmp_path / "flat")
        clear_cache()
        cold = OptimizerEngine(
            morph_arch, TINY, cache_backend=local
        ).optimize_layers((LAYER,))[0]
        key = signature_key(search_signature(LAYER, morph_arch, TINY))
        payload = local.get(key)

        sharded = ShardedStore(tmp_path / "sharded")
        sharded.put(key, payload)
        clear_cache()
        warm_engine = OptimizerEngine(morph_arch, TINY, cache_backend=sharded)
        warm = warm_engine.optimize_layers((LAYER,))[0]
        assert warm_engine.stats.disk_hits == 1
        assert warm.best.dataflow == cold.best.dataflow


class TestManifestAutoCompaction:
    """ShardedStore compacts its append-only manifest automatically once
    it exceeds ``compact_ratio`` lines per live key (PR 5 satellite)."""

    def test_duplicate_writes_trigger_compaction(self, tmp_path):
        store = ShardedStore(
            tmp_path, compact_ratio=2.0, compact_check_interval=1
        )
        for index in range(12):
            assert store.put("aabbccdd", {"round": index})
        manifest = (tmp_path / ShardedStore.MANIFEST).read_text().splitlines()
        # Without auto-compaction this would be 12 lines.
        assert len(manifest) <= 2
        # The latest payload survives and the tree is untouched.
        assert store.get("aabbccdd") == {"round": 11}
        assert list(store.manifest_keys()) == ["aabbccdd"]

    def test_fresh_instances_share_the_append_counter(self, tmp_path):
        """The engine builds a fresh store per optimize call; the
        append counter is keyed by directory, so auto-compaction still
        fires across short-lived instances."""
        for index in range(12):
            store = ShardedStore(
                tmp_path, compact_ratio=2.0, compact_check_interval=4
            )
            store.put("aabbccdd", {"round": index})
        manifest = (tmp_path / ShardedStore.MANIFEST).read_text().splitlines()
        assert len(manifest) < 12
        assert store.get("aabbccdd") == {"round": 11}

    def test_distinct_keys_do_not_compact(self, tmp_path):
        store = ShardedStore(
            tmp_path, compact_ratio=2.0, compact_check_interval=1
        )
        keys = [f"{i:08x}" for i in range(8)]
        for key in keys:
            store.put(key, {"key": key})
        manifest = (tmp_path / ShardedStore.MANIFEST).read_text().splitlines()
        assert len(manifest) == len(keys)  # all live, nothing to compact

    def test_ratio_zero_disables(self, tmp_path):
        store = ShardedStore(
            tmp_path, compact_ratio=0, compact_check_interval=1
        )
        for index in range(6):
            store.put("aabbccdd", {"round": index})
        manifest = (tmp_path / ShardedStore.MANIFEST).read_text().splitlines()
        assert len(manifest) == 6

    def test_default_ratio_from_engine_resolution(self, tmp_path, monkeypatch):
        from repro.optimizer.engine import resolve_store

        monkeypatch.setenv("REPRO_MANIFEST_COMPACT_RATIO", "7.5")
        store = resolve_store(tmp_path, "sharded")
        assert isinstance(store, ShardedStore)
        assert store.compact_ratio == 7.5
        monkeypatch.delenv("REPRO_MANIFEST_COMPACT_RATIO")
        assert resolve_store(
            tmp_path, "sharded"
        ).compact_ratio == ShardedStore.DEFAULT_COMPACT_RATIO

    def test_session_config_threads_ratio_through(self, tmp_path):
        from repro.api import Session, SessionConfig

        config = SessionConfig(
            cache_dir=tmp_path,
            cache_backend="sharded",
            manifest_compact_ratio=3.5,
        )
        with Session(config) as session:
            store = session.store()
        assert isinstance(store, ShardedStore)
        assert store.compact_ratio == 3.5


class TestStatisticsSidecarStores:
    """Store-level behaviour of the CACHE_STATS.json sidecar."""

    @pytest.mark.parametrize("backend", CACHE_BACKENDS)
    def test_merge_and_load_round_trip(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        assert store.load_statistics() == {}
        assert store.merge_statistics({"local": {"hits": 2, "writes": 1}})
        assert store.merge_statistics({"local": {"hits": 3}})
        stats = store.load_statistics()
        assert stats["local"]["hits"] == 5
        assert stats["local"]["writes"] == 1

    def test_corrupt_sidecar_treated_as_empty(self, tmp_path):
        store = LocalDirectoryStore(tmp_path)
        (tmp_path / LocalDirectoryStore.STATS_SIDECAR).write_text("not json")
        assert store.load_statistics() == {}
        assert store.merge_statistics({"local": {"hits": 1}})
        assert store.load_statistics()["local"]["hits"] == 1

    def test_base_class_default_is_noop(self):
        class Bespoke(ConfigStore):
            def get(self, key):
                return None

            def put(self, key, payload):
                return False

            def contains(self, key):
                return False

            def keys(self):
                return iter(())

        store = Bespoke()
        assert store.load_statistics() == {}
        assert store.merge_statistics({"x": {"hits": 1}}) is False
