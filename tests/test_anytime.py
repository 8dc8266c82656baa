"""Budgeted anytime search (ROADMAP item 5).

The contract under test (docs/INVARIANTS.md): the budget clock is polled
only at (parallelism, L2-tile) block boundaries and never stops the
search before a feasible block has completed, so a budgeted result is an
exact *prefix* of the unbudgeted search — bit-identical whenever the
budget is not hit, and carrying ``bound_gap`` / ``budget_exhausted``
telemetry when it is.  Budget-exhausted results never enter any cache
layer.  The clock itself is the sanctioned injectable resolver of
:mod:`repro.optimizer.clock`, so every exhaustion path here is driven by
a fake clock — deterministic, no sleeping, no flakes.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.layer import ConvLayer
from repro.optimizer.clock import current_clock, monotonic_ms, use_clock
from repro.optimizer.search import (
    LayerOptimizer,
    OptimizerOptions,
    clear_cache,
)

FAST = OptimizerOptions.fast()

LAYER = ConvLayer(
    "mid", h=14, w=14, c=32, f=4, k=64, r=3, s=3, t=3,
    pad_h=1, pad_w=1, pad_f=1,
)
LAYER_B = ConvLayer(
    "deep", h=7, w=7, c=128, f=2, k=128, r=3, s=3, t=3,
    pad_h=1, pad_w=1, pad_f=1,
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_cache()
    yield
    clear_cache()


def frozen_clock(value: float = 0.0):
    """A clock that never advances: any budget > 0 is never exhausted."""
    return lambda: value


def step_clock(*readings: float):
    """A clock replaying ``readings`` then repeating the last one."""
    sequence = iter(readings)
    last = readings[-1]

    def clock() -> float:
        nonlocal last
        try:
            last = next(sequence)
        except StopIteration:
            pass
        return last

    return clock


# ----------------------------------------------------------------------
# The injectable clock resolver
# ----------------------------------------------------------------------
class TestClockResolver:
    def test_real_clock_is_default_and_monotonic(self):
        assert current_clock() is monotonic_ms
        first = monotonic_ms()
        assert monotonic_ms() >= first

    def test_use_clock_installs_and_restores(self):
        fake = frozen_clock(42.0)
        with use_clock(fake) as installed:
            assert installed is fake
            assert current_clock() is fake
            assert current_clock()() == 42.0
        assert current_clock() is monotonic_ms

    def test_overrides_nest_lifo(self):
        outer, inner = frozen_clock(1.0), frozen_clock(2.0)
        with use_clock(outer):
            with use_clock(inner):
                assert current_clock() is inner
            assert current_clock() is outer
        assert current_clock() is monotonic_ms

    def test_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_clock(frozen_clock()):
                raise RuntimeError("boom")
        assert current_clock() is monotonic_ms

    def test_overlapping_blocks_across_threads(self):
        """Thread A installs 1.0, thread B installs 2.0, A exits first:
        B still reads its own clock, and both exits restore the real one."""
        a_installed, b_installed, a_exited = (threading.Event() for _ in range(3))
        seen: dict[str, float] = {}

        def thread_a():
            with use_clock(frozen_clock(1.0)):
                a_installed.set()
                b_installed.wait(5)
            a_exited.set()

        def thread_b():
            a_installed.wait(5)
            with use_clock(frozen_clock(2.0)):
                b_installed.set()
                a_exited.wait(5)
                seen["b"] = current_clock()()

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert seen == {"b": 2.0}
        assert current_clock() is monotonic_ms


# ----------------------------------------------------------------------
# Options and config validation
# ----------------------------------------------------------------------
class TestBudgetKnob:
    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget_ms"):
            OptimizerOptions(budget_ms=-1.0)

    def test_budget_excluded_from_signatures(self, morph_arch):
        """Sound because exhausted results are never cached: a cached
        unbudgeted result recalled for a budgeted request is the anytime
        contract's best case."""
        from repro.optimizer.engine import search_signature

        budgeted = FAST.with_(budget_ms=5.0)
        assert search_signature(LAYER, morph_arch, FAST) == search_signature(
            LAYER, morph_arch, budgeted
        )

    def test_session_config_validates(self):
        from repro.api import SessionConfig

        assert SessionConfig(budget_ms="2.5").budget_ms == 2.5
        with pytest.raises(ValueError, match="budget_ms"):
            SessionConfig(budget_ms=-3)

    def test_env_variable_parses(self, monkeypatch):
        from repro.api import SessionConfig
        from repro.optimizer.engine import default_budget_ms

        monkeypatch.setenv("REPRO_BUDGET_MS", "12.5")
        assert SessionConfig.from_env().budget_ms == 12.5
        assert default_budget_ms() == 12.5
        monkeypatch.delenv("REPRO_BUDGET_MS")
        assert SessionConfig.from_env().budget_ms is None
        assert default_budget_ms() is None

    def test_env_variable_bad_value_raises_naming_it(self, monkeypatch):
        from repro.api import SessionConfig
        from repro.optimizer.engine import default_budget_ms

        monkeypatch.setenv("REPRO_BUDGET_MS", "soon")
        with pytest.raises(ValueError, match="REPRO_BUDGET_MS.*'soon'"):
            default_budget_ms()
        with pytest.raises(ValueError, match="REPRO_BUDGET_MS"):
            SessionConfig.from_env()
        monkeypatch.setenv("REPRO_BUDGET_MS", "-4")
        with pytest.raises(ValueError, match="REPRO_BUDGET_MS"):
            default_budget_ms()

    def test_session_scopes_the_budget(self, morph_arch):
        """An active session's budget_ms reaches the optimizer through
        the default-resolution chain."""
        from repro.api import Session, SessionConfig

        with Session(SessionConfig(budget_ms=0.0)):
            with use_clock(frozen_clock()):
                result = LayerOptimizer(morph_arch, FAST).optimize(LAYER)
        assert result.budget_exhausted
        assert result.bound_gap is not None


# ----------------------------------------------------------------------
# Budget boundaries (satellite: budget_ms=0 / huge / mid-block / thread)
# ----------------------------------------------------------------------
class TestBudgetBoundaries:
    @pytest.mark.parametrize("vectorize", (False, True))
    def test_zero_budget_runs_first_block_only(self, morph_arch, vectorize):
        """budget_ms=0 exhausts at the first boundary after a feasible
        block: a valid configuration comes back, with a reported gap."""
        options = FAST.with_(budget_ms=0.0, vectorize=vectorize)
        with use_clock(frozen_clock()):
            result = LayerOptimizer(morph_arch, options).optimize(LAYER)
        full = LayerOptimizer(
            morph_arch, FAST.with_(vectorize=vectorize)
        ).optimize(LAYER)
        assert result.budget_exhausted
        assert result.evaluated > 0  # a feasible block completed
        assert result.evaluated < full.evaluated
        assert result.bound_gap is not None and result.bound_gap >= 0.0
        # Anytime scores only improve with budget; the gap certifies how
        # far the prefix can sit above the true optimum.
        assert result.score >= full.score
        assert result.score - result.bound_gap <= full.score + 1e-9

    @pytest.mark.parametrize("vectorize", (False, True))
    def test_huge_budget_bit_identical_to_unbudgeted(
        self, morph_arch, vectorize
    ):
        """Pinned: when the budget is not hit, the result is bit-identical
        to the unbudgeted search — same configuration, score, counters."""
        for layer in (LAYER, LAYER_B):
            budgeted = LayerOptimizer(
                morph_arch, FAST.with_(budget_ms=1e12, vectorize=vectorize)
            ).optimize(layer)
            full = LayerOptimizer(
                morph_arch, FAST.with_(vectorize=vectorize)
            ).optimize(layer)
            assert not budgeted.budget_exhausted
            assert budgeted.bound_gap == 0.0  # completed budgeted search
            assert full.bound_gap is None  # unbudgeted: no gap claimed
            assert budgeted.best.dataflow == full.best.dataflow, layer.name
            assert budgeted.score == full.score, layer.name
            assert budgeted.evaluated == full.evaluated, layer.name
            assert budgeted.pruned == full.pruned, layer.name

    @pytest.mark.parametrize("vectorize", (False, True))
    def test_mid_block_exhaustion_stops_at_next_boundary(
        self, morph_arch, vectorize
    ):
        """A budget that expires while a block is being evaluated stops
        the search at the *next* boundary — the in-flight block finishes
        (the clock is polled only between blocks)."""
        # Reading 1 arms the start; reading 2 (first boundary) is within
        # budget; reading 3 jumps far past it "mid-block".
        clock = step_clock(0.0, 1.0, 1e9)
        options = FAST.with_(budget_ms=100.0, vectorize=vectorize)
        with use_clock(clock):
            result = LayerOptimizer(morph_arch, options).optimize(LAYER)
        full = LayerOptimizer(
            morph_arch, FAST.with_(vectorize=vectorize)
        ).optimize(LAYER)
        assert result.budget_exhausted
        # Two blocks completed (the boundary-2 check passed), not one.
        zero_budget = FAST.with_(budget_ms=0.0, vectorize=vectorize)
        with use_clock(frozen_clock()):
            first_only = LayerOptimizer(morph_arch, zero_budget).optimize(LAYER)
        assert result.evaluated >= first_only.evaluated
        assert result.evaluated < full.evaluated
        assert result.score - result.bound_gap <= full.score + 1e-9

    def test_prefix_scores_improve_with_budget(self, morph_arch):
        """More budget (in completed blocks) never worsens the anytime
        score, and the reported gap shrinks to zero at completion."""
        full = LayerOptimizer(morph_arch, FAST).optimize(LAYER)
        previous_score = float("inf")
        for boundaries in (1, 2, 4, 64):
            readings = [0.0] * boundaries + [1e9]
            with use_clock(step_clock(*readings)):
                result = LayerOptimizer(
                    morph_arch, FAST.with_(budget_ms=1.0)
                ).optimize(LAYER)
            assert result.score <= previous_score
            previous_score = result.score
            if not result.budget_exhausted:
                assert result.score == full.score
                assert result.bound_gap == 0.0

    def test_thread_mode_budgeted_determinism(self, morph_arch):
        """Under parallelism_mode=thread the workers share the installed
        override; an unexhausted budget stays bit-identical to the
        unbudgeted serial sweep."""
        from repro.optimizer.engine import OptimizerEngine

        layers = (LAYER, LAYER_B)
        serial = OptimizerEngine(
            morph_arch, FAST, use_cache=False
        ).optimize_network(layers, network_name="pair")
        clear_cache()
        with use_clock(frozen_clock()):
            threaded = OptimizerEngine(
                morph_arch,
                FAST.with_(budget_ms=60_000.0),
                parallelism=2,
                parallelism_mode="thread",
                use_cache=False,
            ).optimize_network(layers, network_name="pair")
        for ours, reference in zip(threaded.layers, serial.layers):
            assert not ours.budget_exhausted
            assert ours.best.dataflow == reference.best.dataflow
            assert ours.score == reference.score


# ----------------------------------------------------------------------
# Exhausted results never enter a cache
# ----------------------------------------------------------------------
class TestExhaustedNeverCached:
    def test_layer_memo_and_disk_skip_exhausted(self, morph_arch, tmp_path):
        from repro.optimizer.engine import OptimizerEngine

        options = FAST.with_(budget_ms=0.0)
        with use_clock(frozen_clock()):
            first = OptimizerEngine(morph_arch, options, cache_dir=tmp_path)
            first.optimize_layers((LAYER,))
            assert first.stats.searched == 1
            assert first.stats.budget_exhausted == 1
            # Nothing was persisted and nothing memoised: the same request
            # searches again instead of recalling a truncated optimum.
            second = OptimizerEngine(morph_arch, options, cache_dir=tmp_path)
            second.optimize_layers((LAYER,))
            assert second.stats.searched == 1
            assert second.stats.memo_hits == 0
            assert second.stats.disk_hits == 0
        assert not any(tmp_path.glob("*.json"))

    def test_completed_budgeted_result_is_cached(self, morph_arch, tmp_path):
        from repro.optimizer.engine import OptimizerEngine

        options = FAST.with_(budget_ms=60_000.0)
        with use_clock(frozen_clock()):
            first = OptimizerEngine(morph_arch, options, cache_dir=tmp_path)
            first.optimize_layers((LAYER,))
            assert first.stats.budget_exhausted == 0
            second = OptimizerEngine(morph_arch, options, cache_dir=tmp_path)
            second.optimize_layers((LAYER,))
            assert second.stats.memo_hits == 1

    def test_network_memo_skips_exhausted(self, morph_arch):
        from repro.optimizer.engine import OptimizerEngine

        options = FAST.with_(budget_ms=0.0)
        with use_clock(frozen_clock()):
            engine = OptimizerEngine(morph_arch, options, use_cache=True)
            engine.optimize_network((LAYER,), network_name="solo")
            again = OptimizerEngine(morph_arch, options, use_cache=True)
            again.optimize_network((LAYER,), network_name="solo")
            assert again.stats.network_hits == 0
            assert again.stats.searched == 1

    def test_disk_store_refuses_exhausted_results(self, morph_arch, tmp_path):
        from repro.optimizer.engine import (
            DiskConfigCache,
            search_signature,
        )

        options = FAST.with_(budget_ms=0.0)
        with use_clock(frozen_clock()):
            result = LayerOptimizer(morph_arch, options).optimize(LAYER)
        assert result.budget_exhausted
        cache = DiskConfigCache(tmp_path)
        with pytest.raises(ValueError, match="budget-exhausted"):
            cache.store(search_signature(LAYER, morph_arch, options), result)
