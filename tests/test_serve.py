"""The serving contract (docs/INVARIANTS.md): coalescing, quotas,
backpressure, deadline SLOs, bit-identity and clean shutdown.

The deterministic levers: the injectable serve clock
(:func:`repro.serve.use_clock`) freezes quota refill and deadline mapping; a
gate network (an object whose ``layers`` property blocks on an event)
pins requests in-flight for backpressure/shutdown tests; and the
optimizer's in-flight table is exercised directly (claim/join/publish)
for the coalescing unit tests, so no assertion rides on scheduler
timing.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading

import pytest

import repro.optimizer.engine as eng_mod
from repro.api import Session, SessionConfig
from repro.arch.accelerator import morph
from repro.core.layer import ConvLayer
from repro.optimizer.engine import (
    OptimizerEngine,
    _inflight_claim,
    _inflight_publish,
    _search_one,
    inflight_searches,
    search_signature,
    signature_key,
)
from repro.optimizer.search import OptimizerOptions, clear_cache
from repro.serve import (
    ServeConfig,
    ServeRejected,
    ServeRequest,
    use_clock,
)
from repro.serve.protocol import decode_request, encode_response

TINY = OptimizerOptions.fast(
    max_l2_candidates=2,
    keep_allocations=1,
    keep_per_level=2,
    max_parallelism_candidates=1,
)

LAYER = ConvLayer("serve-a", h=14, w=14, c=16, f=4, k=32, r=3, s=3, t=3,
                  pad_h=1, pad_w=1, pad_f=1)
LAYER_B = ConvLayer("serve-b", h=7, w=7, c=32, f=4, k=32, r=3, s=3, t=3,
                    pad_h=1, pad_w=1, pad_f=1)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_cache()
    yield
    clear_cache()


def run(coro):
    return asyncio.run(coro)


class _FakeClock:
    """A hand-advanced serve clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, ms: float) -> None:
        self.now += ms


class _GateNetwork:
    """A network whose layer list blocks until released — pins the
    owning request in its worker slot deterministically."""

    name = "gated"

    def __init__(self, layers=(LAYER,)) -> None:
        self._layers = tuple(layers)
        self.entered = threading.Event()
        self.release = threading.Event()

    @property
    def layers(self):
        self.entered.set()
        assert self.release.wait(timeout=60), "gate never released"
        return self._layers


# ----------------------------------------------------------------------
# In-flight coalescing at the engine level (deterministic claim/join)
# ----------------------------------------------------------------------
class TestInflightTable:
    def _key(self, engine: OptimizerEngine, layer: ConvLayer) -> str:
        return signature_key(
            search_signature(layer, engine.arch, engine.options)
        )

    def test_claim_then_join_then_publish(self, morph_arch):
        engine = OptimizerEngine(morph_arch, TINY, cache_dir=False)
        key = self._key(engine, LAYER)
        entry, owned = _inflight_claim(key)
        assert owned
        assert inflight_searches() == 1
        again, owned_again = _inflight_claim(key)
        assert again is entry and not owned_again
        result = _search_one((LAYER, engine.arch, engine.options))
        _inflight_publish(key, entry, result)
        assert inflight_searches() == 0
        assert entry.wait(1.0) is result
        # a post-publish claim starts fresh
        fresh, owned_fresh = _inflight_claim(key)
        assert owned_fresh and fresh is not entry
        _inflight_publish(key, fresh, result)

    def test_joiner_subscribes_to_published_result(
        self, morph_arch, monkeypatch
    ):
        """While one search is in flight, a second engine requesting the
        same signature subscribes instead of searching again."""
        engine = OptimizerEngine(morph_arch, TINY, cache_dir=False)
        key = self._key(engine, LAYER)
        entry, owned = _inflight_claim(key)  # we are the in-flight owner
        assert owned

        joined = threading.Event()
        real_claim = _inflight_claim

        def spy(claim_key):
            inner_entry, inner_owned = real_claim(claim_key)
            if not inner_owned:
                joined.set()
            return inner_entry, inner_owned

        monkeypatch.setattr(eng_mod, "_inflight_claim", spy)
        outcome: dict = {}

        def subscribe():
            outcome["results"] = engine.optimize_layers((LAYER,))

        worker = threading.Thread(target=subscribe)
        worker.start()
        assert joined.wait(timeout=60), "engine never joined the claim"
        shared = _search_one((LAYER, engine.arch, engine.options))
        _inflight_publish(key, entry, shared)
        worker.join(timeout=60)
        assert outcome["results"][0] == shared
        assert engine.stats.coalesced == 1
        assert engine.stats.searched == 0

    def test_publish_error_falls_back_to_own_search(
        self, morph_arch, monkeypatch
    ):
        """An owner that dies publishes its error; subscribers run the
        search themselves instead of hanging or re-raising."""
        engine = OptimizerEngine(morph_arch, TINY, cache_dir=False)
        key = self._key(engine, LAYER)
        entry, owned = _inflight_claim(key)
        assert owned

        joined = threading.Event()
        real_claim = _inflight_claim

        def spy(claim_key):
            inner_entry, inner_owned = real_claim(claim_key)
            if not inner_owned:
                joined.set()
            return inner_entry, inner_owned

        monkeypatch.setattr(eng_mod, "_inflight_claim", spy)
        outcome: dict = {}

        def subscribe():
            outcome["results"] = engine.optimize_layers((LAYER,))

        worker = threading.Thread(target=subscribe)
        worker.start()
        assert joined.wait(timeout=60)
        _inflight_publish(key, entry, None, RuntimeError("owner died"))
        worker.join(timeout=60)
        assert outcome["results"][0].best.total_energy_pj > 0
        assert engine.stats.coalesced == 0
        assert engine.stats.searched == 1

    def test_coalesce_opt_out_ignores_inflight_claims(self, morph_arch):
        """coalesce_inflight=False searches even while an identical
        search is claimed elsewhere (and never blocks on it)."""
        engine = OptimizerEngine(
            morph_arch, TINY, cache_dir=False, use_cache=False,
            coalesce_inflight=False,
        )
        key = self._key(engine, LAYER)
        entry, owned = _inflight_claim(key)
        assert owned
        try:
            results = engine.optimize_layers((LAYER,))
            assert engine.stats.searched == 1
            assert engine.stats.coalesced == 0
            assert results[0].best.total_energy_pj > 0
        finally:
            _inflight_publish(key, entry, None)

    def test_budgeted_engine_never_claims(self, morph_arch):
        """A deadline-bounded search is a request-specific prefix: it
        must neither claim (sharing it would violate the anytime
        contract) nor join (it cannot wait out its own budget)."""
        engine = OptimizerEngine(
            morph_arch, TINY, cache_dir=False, use_cache=False,
            budget_ms=0.0,
        )
        result = engine.optimize_layers((LAYER,))[0]
        assert inflight_searches() == 0
        assert result.budget_exhausted
        assert engine.stats.searched == 1

    def test_store_failure_publishes_every_claim(
        self, morph_arch, monkeypatch
    ):
        """A store that raises after claims were taken still publishes
        every claim: nothing stays in flight, and a later healthy engine
        claims its searches afresh instead of waiting on stale entries."""
        from repro.optimizer.config_store import MemoryStore
        from repro.workloads import build_network

        layers = build_network("c3d").layers[:3]
        failing = OptimizerEngine(morph_arch, TINY, cache_backend=MemoryStore())
        real_store = failing.disk.store
        stores = []

        def store_once_then_fail(*args, **kwargs):
            stores.append(args)
            if len(stores) == 1:
                raise OSError("disk full")
            return real_store(*args, **kwargs)

        monkeypatch.setattr(failing.disk, "store", store_once_then_fail)
        with pytest.raises(OSError, match="disk full"):
            failing.optimize_layers(layers)
        assert inflight_searches() == 0

        claims = []
        real_claim = _inflight_claim

        def recording_claim(key):
            entry, owned = real_claim(key)
            claims.append(owned)
            return entry, owned

        monkeypatch.setattr(eng_mod, "_inflight_claim", recording_claim)
        monkeypatch.setattr(eng_mod, "_INFLIGHT_WAIT_S", 60.0)
        healthy = OptimizerEngine(morph_arch, TINY, cache_backend=MemoryStore())
        results = healthy.optimize_layers(layers)
        assert [r.layer for r in results] == list(layers)
        assert claims and all(claims)  # every claim fresh, none joined
        assert healthy.stats.coalesced == 0
        assert inflight_searches() == 0

    def test_owner_search_failure_releases_waiters(
        self, morph_arch, monkeypatch
    ):
        """If the owning engine's search raises, subscribers get the
        error published and fall back instead of waiting forever."""
        engine_a = OptimizerEngine(morph_arch, TINY, cache_dir=False)
        engine_b = OptimizerEngine(morph_arch, TINY, cache_dir=False)
        key = self._key(engine_a, LAYER)

        joined = threading.Event()
        real_claim = _inflight_claim

        def spy(claim_key):
            inner_entry, inner_owned = real_claim(claim_key)
            if not inner_owned:
                joined.set()
            return inner_entry, inner_owned

        real_search = _search_one

        def failing_search(payload):
            assert joined.wait(timeout=60)  # hold until B subscribed
            raise RuntimeError("search exploded")

        outcome: dict = {}

        def owner():
            monkeypatch.setattr(eng_mod, "_search_one", failing_search)
            try:
                engine_a.optimize_layers((LAYER,))
            except RuntimeError as error:
                outcome["owner_error"] = error
            finally:
                monkeypatch.setattr(eng_mod, "_search_one", real_search)

        def subscriber():
            monkeypatch.setattr(eng_mod, "_inflight_claim", spy)
            outcome["results"] = engine_b.optimize_layers((LAYER,))

        thread_a = threading.Thread(target=owner)
        thread_a.start()
        # Wait for A to hold the claim before B tries it.
        for _ in range(600):
            if inflight_searches() == 1:
                break
            threading.Event().wait(0.01)
        assert inflight_searches() == 1
        thread_b = threading.Thread(target=subscriber)
        thread_b.start()
        thread_a.join(timeout=60)
        thread_b.join(timeout=60)
        assert isinstance(outcome.get("owner_error"), RuntimeError)
        assert outcome["results"][0].best.total_energy_pj > 0
        assert engine_b.stats.searched == 1


# ----------------------------------------------------------------------
# ServeConfig resolution
# ----------------------------------------------------------------------
class TestServeConfig:
    def test_env_materialisation(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "9")
        monkeypatch.setenv("REPRO_SERVE_TENANT_RATE", "2.5")
        monkeypatch.setenv("REPRO_SERVE_COALESCE", "off")
        config = ServeConfig.from_env()
        assert config.max_workers == 9
        assert config.tenant_rate == 2.5
        assert config.coalesce is False
        assert config.max_queue_depth is None

    @pytest.mark.parametrize(
        "variable, value",
        [
            ("REPRO_SERVE_WORKERS", "many"),
            ("REPRO_SERVE_WORKERS", "0"),
            ("REPRO_SERVE_QUEUE_DEPTH", "-1"),
            ("REPRO_SERVE_TENANT_RATE", "0"),
            ("REPRO_SERVE_TENANT_BURST", "0.5"),
            ("REPRO_SERVE_COALESCE", "maybe"),
            ("REPRO_SERVE_DEADLINE_MS", "-5"),
        ],
    )
    def test_env_strict_parsing_names_variable(
        self, monkeypatch, variable, value
    ):
        monkeypatch.setenv(variable, value)
        with pytest.raises(ValueError, match=variable):
            ServeConfig.from_env()

    def test_resolve_precedence_explicit_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "9")
        monkeypatch.setenv("REPRO_SERVE_QUEUE_DEPTH", "5")
        config = ServeConfig.resolve(max_workers=2)
        assert config.max_workers == 2  # explicit wins
        assert config.max_queue_depth == 5  # env fills the rest

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown ServeConfig"):
            ServeConfig.from_dict({"max_werkers": 4})

    def test_validation(self):
        with pytest.raises(ValueError, match="max_workers"):
            ServeConfig(max_workers=0)
        with pytest.raises(ValueError, match="tenant_rate"):
            ServeConfig(tenant_rate=-1.0)
        with pytest.raises(ValueError, match="deadline"):
            ServeConfig(default_deadline_ms=-1.0)

    def test_effective_defaults(self):
        config = ServeConfig()
        assert config.effective_max_workers == 4
        assert config.effective_max_queue_depth == 64
        assert config.effective_coalesce is True
        assert config.tenant_rate is None  # unlimited by default


# ----------------------------------------------------------------------
# The serving engine
# ----------------------------------------------------------------------
class TestServeEngine:
    def test_coalescing_eight_clients_one_search_per_signature(self):
        """The acceptance criterion: 8 concurrent clients requesting
        overlapping networks perform exactly one engine search per
        unique search signature, and every served result is bit-identical
        to the direct Session.optimize_network call."""
        arch = morph()
        session = Session(use_cache=True)
        net = session.build_network("c3d")

        # Ground truth (also the unique-signature count), then wipe the
        # caches so serving does all the searching itself.
        probe = session.engine(arch, TINY)
        probe.optimize_layers(net.layers)
        unique = probe.stats.unique
        assert probe.stats.searched == unique
        direct = session.optimize_network(net, arch, TINY)
        clear_cache()

        async def drive():
            serve = session.serve(max_workers=8)
            requests = [
                ServeRequest(
                    network=net, tenant=f"tenant-{i}", arch=arch,
                    options=TINY,
                )
                for i in range(8)
            ]
            results = await asyncio.gather(
                *[serve.submit(r) for r in requests]
            )
            metrics = serve.metrics()
            await serve.aclose()
            return results, metrics

        results, metrics = run(drive())
        assert metrics.engine.searched == unique  # exactly one per signature
        # Every other resolution was shared: subscribed in-flight or
        # recalled from the memo another request populated.  Serving
        # resolves layer-by-layer, so the pool is one resolution per
        # layer occurrence per client.
        assert (
            metrics.engine.coalesced + metrics.engine.memo_hits
            == 8 * len(net.layers) - unique
        )
        assert metrics.completed == 8
        assert metrics.admitted == 8
        for served in results:
            assert served.result == direct  # bit-identical
        assert len({s.tenant for s in results}) == 8
        assert metrics.coalesce_rate == pytest.approx(
            metrics.engine.coalesced
            / (metrics.engine.coalesced + metrics.engine.searched)
        )

    def test_overlapping_mixed_networks_share_common_layers(self):
        """Two different request shapes with shared layers: the common
        signature is searched once across the whole mix."""
        arch = morph()
        session = Session(use_cache=True)
        shared = LAYER
        net_a = (shared, LAYER_B)
        net_b = (shared,)

        async def drive():
            serve = session.serve(max_workers=4)
            results = await asyncio.gather(
                serve.submit(ServeRequest(network=net_a, tenant="a",
                                          arch=arch, options=TINY)),
                serve.submit(ServeRequest(network=net_b, tenant="b",
                                          arch=arch, options=TINY)),
            )
            metrics = serve.metrics()
            await serve.aclose()
            return results, metrics

        (res_a, res_b), metrics = run(drive())
        assert metrics.engine.searched == 2  # LAYER and LAYER_B, once each
        assert res_a.result.layers[0].best.dataflow == \
            res_b.result.layers[0].best.dataflow
        assert res_a.result.layers[0].score == res_b.result.layers[0].score

    def test_streaming_yields_layers_incrementally(self):
        arch = morph()
        session = Session(use_cache=True)

        async def drive():
            serve = session.serve(max_workers=1)
            events = []
            async for event in serve.stream(
                ServeRequest(network=(LAYER, LAYER_B), arch=arch,
                             options=TINY)
            ):
                events.append(event)
            await serve.aclose()
            return events

        events = run(drive())
        kinds = [e.kind for e in events]
        assert kinds == ["layer", "layer", "result"]
        assert [e.index for e in events[:-1]] == [0, 1]
        assert all(e.total == 2 for e in events[:-1])
        assert events[0].layer_result.layer.name == "serve-a"
        final = events[-1].result
        assert final.result.layers == (
            events[0].layer_result, events[1].layer_result,
        )

    def test_quota_token_bucket_with_frozen_clock(self):
        """burst=2, rate=1 req/s under a hand-advanced clock: two
        admits, a rejection with an exact retry hint, then a refill."""
        arch = morph()
        session = Session(use_cache=True)
        clock = _FakeClock()

        async def drive():
            serve = session.serve(
                max_workers=2, tenant_rate=1.0, tenant_burst=2.0
            )
            request = ServeRequest(network=(LAYER,), tenant="metered",
                                   arch=arch, options=TINY)
            first = await serve.submit(request)
            second = await serve.submit(request)
            with pytest.raises(ServeRejected) as rejection:
                await serve.submit(request)
            assert rejection.value.reason == "quota"
            # Empty bucket at rate 0.001 tokens/ms: one token in 1000 ms.
            assert rejection.value.retry_after_ms == pytest.approx(1000.0)
            # An unrelated tenant has its own bucket.
            other = await serve.submit(
                dataclasses.replace(request, tenant="fresh")
            )
            # Refill restores service for the metered tenant.
            clock.advance(1000.0)
            third = await serve.submit(request)
            metrics = serve.metrics()
            await serve.aclose()
            return first, second, other, third, metrics

        with use_clock(clock):
            first, second, other, third, metrics = run(drive())
        assert first.result == second.result == third.result
        tenant = metrics.per_tenant["metered"]
        assert tenant.admitted == 3
        assert tenant.rejected_quota == 1
        assert metrics.per_tenant["fresh"].admitted == 1
        assert metrics.rejected_quota == 1
        assert metrics.admitted == 4

    def test_backpressure_rejects_with_retry_hint(self):
        """queue depth 1: while one request is pinned in flight, the
        next admission is rejected as backpressure, and the slot frees
        once the first completes."""
        arch = morph()
        session = Session(use_cache=True)
        gate = _GateNetwork()

        async def drive():
            serve = session.serve(max_workers=1, max_queue_depth=1)
            pinned = asyncio.ensure_future(
                serve.submit(ServeRequest(network=gate, tenant="a",
                                          arch=arch, options=TINY))
            )
            await asyncio.sleep(0)  # run admission of the pinned request
            await asyncio.to_thread(gate.entered.wait, 60)
            with pytest.raises(ServeRejected) as rejection:
                await serve.submit(
                    ServeRequest(network=(LAYER,), tenant="b",
                                 arch=arch, options=TINY)
                )
            assert rejection.value.reason == "backpressure"
            assert rejection.value.retry_after_ms is not None
            assert rejection.value.retry_after_ms > 0
            gate.release.set()
            first = await pinned
            second = await serve.submit(
                ServeRequest(network=(LAYER,), tenant="b", arch=arch,
                             options=TINY)
            )
            metrics = serve.metrics()
            await serve.aclose()
            return first, second, metrics

        first, second, metrics = run(drive())
        assert first.result.layers[0].best.dataflow == \
            second.result.layers[0].best.dataflow
        assert metrics.rejected_backpressure == 1
        assert metrics.per_tenant["b"].rejected_backpressure == 1
        assert metrics.peak_queue_depth == 1
        assert metrics.queue_depth == 0

    def test_deadline_maps_to_budget_and_never_caches(self):
        """A deadline-bounded request returns certified best-so-far
        results (bound_gap set, budget_exhausted) that are bit-identical
        to the direct budgeted call and enter no cache layer."""
        arch = morph()
        session = Session(use_cache=True)
        network = (LAYER, LAYER_B)
        # Direct ground truth: budget 0 stops each layer search at its
        # first block boundary, deterministically.
        direct = session.optimize_network(
            network, arch, TINY, budget_ms=0.0
        )
        assert all(r.budget_exhausted for r in direct.layers)
        assert eng_mod._LAYER_MEMO == {}  # exhausted results not cached

        async def drive():
            serve = session.serve(max_workers=2)
            served = await serve.submit(
                ServeRequest(network=network, arch=arch, options=TINY,
                             deadline_ms=0.0, tenant="slo")
            )
            metrics = serve.metrics()
            await serve.aclose()
            return served, metrics

        with use_clock(_FakeClock()):  # frozen: remaining deadline == 0
            served, metrics = run(drive())
        assert served.budget_exhausted
        assert served.result == direct  # bit-identical, prefixes included
        for layer_result in served.result.layers:
            assert layer_result.budget_exhausted
            assert layer_result.bound_gap is not None
            assert layer_result.bound_gap >= 0.0
        # The never-cache rule held across the serve path too.
        assert eng_mod._LAYER_MEMO == {}
        assert eng_mod._NETWORK_MEMO == {}
        assert inflight_searches() == 0
        assert metrics.engine.budget_exhausted == 2
        assert metrics.engine.coalesced == 0  # budgeted: never coalesced

    def test_default_deadline_from_serve_config(self):
        arch = morph()
        session = Session(use_cache=True)

        async def drive():
            serve = session.serve(max_workers=1, default_deadline_ms=0.0)
            served = await serve.submit(
                ServeRequest(network=(LAYER,), arch=arch, options=TINY)
            )
            await serve.aclose()
            return served

        with use_clock(_FakeClock()):
            served = run(drive())
        assert served.budget_exhausted
        assert eng_mod._LAYER_MEMO == {}

    def test_per_request_session_config_overlay(self, tmp_path):
        """A request's SessionConfig overlay is honoured (its cache_dir
        receives the record) without touching the base session."""
        arch = morph()
        session = Session(use_cache=True)
        overlay = SessionConfig(
            cache_dir=tmp_path / "request-store", cache_backend="local"
        )

        async def drive():
            serve = session.serve(max_workers=1)
            served = await serve.submit(
                ServeRequest(network=(LAYER,), arch=arch, options=TINY,
                             config=overlay)
            )
            await serve.aclose()
            return served

        served = run(drive())
        assert served.result.layers[0].best.total_energy_pj > 0
        records = list((tmp_path / "request-store").glob("*.json"))
        assert len(records) == 1  # the overlay's store got the record
        assert session.store() is None  # base session still storeless

    def test_clean_shutdown_with_inflight_request(self):
        """close() drains: the pinned request completes, new admissions
        are rejected as closed, and close() is safe to call twice."""
        arch = morph()
        session = Session(use_cache=True)
        gate = _GateNetwork()

        async def drive():
            serve = session.serve(max_workers=1)
            pinned = asyncio.ensure_future(
                serve.submit(ServeRequest(network=gate, arch=arch,
                                          options=TINY))
            )
            await asyncio.sleep(0)
            await asyncio.to_thread(gate.entered.wait, 60)
            closer = asyncio.ensure_future(asyncio.to_thread(session.close))
            await asyncio.sleep(0.05)
            assert not pinned.done()  # close() is draining, not cancelling
            gate.release.set()
            await closer
            served = await pinned  # the in-flight request completed
            with pytest.raises(ServeRejected) as rejection:
                await serve.submit(
                    ServeRequest(network=(LAYER,), arch=arch, options=TINY)
                )
            assert rejection.value.reason == "closed"
            session.close()  # idempotent: second close is a no-op
            metrics = serve.metrics()
            return served, metrics

        served, metrics = run(drive())
        assert served.result.layers[0].best.total_energy_pj > 0
        assert metrics.completed == 1
        assert metrics.rejected_closed == 1
        assert metrics.failed == 0

    def test_serve_engine_context_manager(self):
        arch = morph()
        session = Session(use_cache=True)

        async def drive():
            async with session.serve(max_workers=1) as serve:
                served = await serve.submit(
                    ServeRequest(network=(LAYER,), arch=arch, options=TINY)
                )
            assert serve.closed
            return served

        served = run(drive())
        assert served.result.layers[0].best.total_energy_pj > 0

    def test_request_failure_is_isolated_and_counted(self):
        session = Session(use_cache=True)

        async def drive():
            serve = session.serve(max_workers=1)
            with pytest.raises(KeyError):
                await serve.submit(
                    ServeRequest(network="no-such-network", options=TINY)
                )
            served = await serve.submit(
                ServeRequest(network=(LAYER,), arch=morph(), options=TINY)
            )
            metrics = serve.metrics()
            await serve.aclose()
            return served, metrics

        served, metrics = run(drive())
        assert served.result.layers[0].best.total_energy_pj > 0
        assert metrics.failed == 1
        assert metrics.completed == 1
        assert metrics.queue_depth == 0  # the failed slot was released

    def test_metrics_latency_percentiles_from_serve_clock(self):
        arch = morph()
        session = Session(use_cache=True)

        async def drive():
            serve = session.serve(max_workers=1)
            for _ in range(3):
                await serve.submit(
                    ServeRequest(network=(LAYER,), arch=arch, options=TINY)
                )
            metrics = serve.metrics()
            await serve.aclose()
            return metrics

        with use_clock(_FakeClock()):  # frozen clock: all latencies 0.0
            metrics = run(drive())
        assert metrics.latency_p50_ms == 0.0
        assert metrics.latency_p95_ms == 0.0
        assert metrics.latency_p99_ms == 0.0
        assert "coalesce rate" in metrics.describe()


# ----------------------------------------------------------------------
# Line-JSON protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_decode_optimize_request(self):
        request = decode_request(
            '{"network": "c3d", "tenant": "a", "deadline_ms": 5,'
            ' "request_id": "r1", "config": {"frames": 8}}'
        )
        assert isinstance(request, ServeRequest)
        assert request.network == "c3d"
        assert request.tenant == "a"
        assert request.deadline_ms == 5.0
        assert request.request_id == "r1"
        assert request.config.frames == 8

    def test_decode_control_ops(self):
        assert decode_request('{"op": "metrics"}') == "metrics"
        assert decode_request('{"op": "shutdown"}') == "shutdown"

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1, 2]",
            '{"op": "explode"}',
            '{"op": "optimize"}',
            '{"network": ""}',
        ],
    )
    def test_decode_rejects_malformed(self, line):
        with pytest.raises(ValueError):
            decode_request(line)

    def test_encode_response_is_stable_json(self):
        text = encode_response({"b": 1, "a": 2})
        assert text == '{"a": 2, "b": 1}'

    def test_serve_stdio_loop(self):
        """The stdio loop end to end, without a search: a malformed
        line answers ``bad-request``, a metrics probe answers live
        counters, an unknown network answers ``ok: false`` with the
        error, and the shutdown ack carries the settled final metrics
        (the live probe is racy by design — the ack is not)."""
        import io
        import json

        from repro.serve.protocol import serve_stdio

        stdin = io.StringIO(
            "not json\n"
            "\n"
            '{"op": "metrics"}\n'
            '{"network": "no-such-network", "request_id": "r1"}\n'
            '{"op": "shutdown"}\n'
        )
        stdout = io.StringIO()
        session = Session(use_cache=False)
        try:

            async def drive():
                return await serve_stdio(
                    session.serve(max_workers=1), stdin, stdout
                )

            served = run(drive())
        finally:
            session.close()
        assert served == 0
        responses = [
            json.loads(line)
            for line in stdout.getvalue().splitlines()
            if line
        ]
        bad, probe, error, bye = responses
        assert bad == {
            "ok": False,
            "reason": "bad-request",
            "error": bad["error"],
        }
        assert probe["op"] == "metrics" and probe["ok"]
        assert not error["ok"] and error["reason"] == "error"
        assert error["request_id"] == "r1"
        assert "no-such-network" in error["error"]
        assert bye["op"] == "shutdown" and bye["served"] == 0
        assert bye["metrics"]["failed"] == 1
        assert bye["metrics"]["searched"] == 0
