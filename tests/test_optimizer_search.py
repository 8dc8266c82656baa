"""End-to-end tests for the per-layer configuration search (Section V)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.evaluate import CapacityError
from repro.core.layer import ConvLayer
from repro.core.loopnest import LoopOrder
from repro.optimizer.search import (
    OBJECTIVES,
    LayerOptimizer,
    OptimizerOptions,
    optimize_network,
)

#: A mid-sized layer keeps these tests fast but non-trivial.
LAYER = ConvLayer(
    "c3d4a", h=14, w=14, c=256, f=4, k=512, r=3, s=3, t=3,
    pad_h=1, pad_w=1, pad_f=1,
)
FAST = OptimizerOptions.fast()


@pytest.fixture(scope="module")
def morph_best():
    from repro.arch.accelerator import morph

    return LayerOptimizer(morph(), FAST).optimize(LAYER)


@pytest.fixture(scope="module")
def base_best():
    from repro.arch.accelerator import morph_base

    return LayerOptimizer(morph_base(), FAST).optimize(LAYER)


class TestOptions:
    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError, match="objective"):
            OptimizerOptions(objective="speed!")

    @pytest.mark.parametrize(
        "field", ["max_l2_candidates", "keep_allocations", "keep_per_level"]
    )
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_empty_effort_knobs(self, field, value):
        # 0 used to surface as a misleading CapacityError from the search,
        # and -1 silently sliced the last beam entry away.
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            OptimizerOptions(**{field: value})
        with pytest.raises(ValueError, match=field):
            FAST.with_(**{field: value})

    def test_effort_knobs_accept_one(self):
        from repro.arch.accelerator import morph

        arch = morph()
        minimal = FAST.with_(
            max_l2_candidates=1, keep_allocations=1, keep_per_level=1
        )
        ev = LayerOptimizer(arch, minimal).optimize(LAYER).best
        assert arch.hierarchy_fits(LAYER, ev.dataflow.hierarchy.tiles)

    def test_fast_is_coarser_than_default(self):
        assert OptimizerOptions.fast().max_l2_candidates < (
            OptimizerOptions().max_l2_candidates
        )

    def test_thorough_is_exhaustive(self):
        assert OptimizerOptions.thorough().exhaustive_orders

    def test_with_overrides(self):
        opts = FAST.with_(objective="latency")
        assert opts.objective == "latency"
        assert opts.max_l2_candidates == FAST.max_l2_candidates

    def test_all_objectives_callable(self, morph_best):
        for scorer in OBJECTIVES.values():
            assert scorer(morph_best.best) != 0


class TestSearchResults:
    def test_best_configuration_is_feasible(self, morph_best):
        ev = morph_best.best
        assert ev.arch.hierarchy_fits(LAYER, ev.dataflow.hierarchy.tiles)

    def test_search_evaluates_many_configs(self, morph_best):
        assert morph_best.evaluated > 50

    def test_flexibility_never_loses(self, morph_best, base_best):
        """Morph's search space strictly contains Morph-base's dataflow on
        the same silicon, modulo buffer policy: the flexible result must
        not be worse."""
        assert morph_best.best.total_energy_pj <= base_best.best.total_energy_pj

    def test_fixed_orders_respected(self):
        from repro.arch.accelerator import morph

        options = FAST.with_(
            fixed_outer_order=LoopOrder.parse("KWHCF"),
            fixed_inner_order=LoopOrder.parse("KCFWH"),
        )
        result = LayerOptimizer(morph(), options).optimize(LAYER)
        assert result.best.dataflow.outer_order.format() == "[KWHCF]"
        assert result.best.dataflow.inner_order.format() == "[KCFWH]"

    def test_opt_beats_or_matches_fixed_orders(self, morph_best):
        """Figure 4a's construction: Opt <= every fixed outer order."""
        from repro.arch.accelerator import morph

        options = FAST.with_(fixed_outer_order=LoopOrder.parse("KWHCF"))
        fixed = LayerOptimizer(morph(), options).optimize(LAYER)
        assert morph_best.best.total_energy_pj <= fixed.best.total_energy_pj * 1.001

    def test_base_arch_pins_dataflow(self, base_best):
        from repro.arch.accelerator import MORPH_BASE_OUTER, MORPH_BASE_PARALLELISM

        assert base_best.best.dataflow.outer_order == MORPH_BASE_OUTER
        assert base_best.best.dataflow.parallelism == MORPH_BASE_PARALLELISM

    def test_infeasible_layer_raises(self):
        from repro.arch.accelerator import morph

        monster = ConvLayer("m", h=1200, w=1200, c=1, f=1, k=1, r=1100, s=1100, t=1)
        with pytest.raises((CapacityError, ValueError)):
            LayerOptimizer(morph(), FAST).optimize(monster)


class TestObjectives:
    def test_latency_objective_not_slower(self):
        from repro.arch.accelerator import morph

        energy_best = LayerOptimizer(morph(), FAST).optimize(LAYER).best
        latency_best = (
            LayerOptimizer(morph(), FAST.with_(objective="latency"))
            .optimize(LAYER)
            .best
        )
        assert latency_best.cycles <= energy_best.cycles * 1.001

    def test_perf_per_watt_objective(self):
        from repro.arch.accelerator import morph

        ppw_best = (
            LayerOptimizer(morph(), FAST.with_(objective="perf_per_watt"))
            .optimize(LAYER)
            .best
        )
        energy_best = LayerOptimizer(morph(), FAST).optimize(LAYER).best
        assert ppw_best.perf_per_watt >= energy_best.perf_per_watt * 0.999


class TestNetworkOptimization:
    LAYERS = (
        ConvLayer("a", h=14, w=14, c=64, f=4, k=64, r=3, s=3, t=3,
                  pad_h=1, pad_w=1, pad_f=1),
        ConvLayer("b", h=7, w=7, c=64, f=2, k=128, r=3, s=3, t=3,
                  pad_h=1, pad_w=1, pad_f=1),
    )

    def test_aggregates(self):
        from repro.arch.accelerator import morph

        result = optimize_network(
            self.LAYERS, morph(), FAST, network_name="mini", use_cache=False
        )
        assert result.total_energy_pj == pytest.approx(
            sum(r.best.total_energy_pj for r in result.layers)
        )
        assert result.total_maccs == sum(l.maccs for l in self.LAYERS)
        assert result.layer_result("b").layer.name == "b"
        with pytest.raises(KeyError):
            result.layer_result("zzz")

    def test_cache_returns_identical_object(self):
        from repro.arch.accelerator import morph

        first = optimize_network(self.LAYERS, morph(), FAST, network_name="mini")
        second = optimize_network(self.LAYERS, morph(), FAST, network_name="mini")
        assert first is second

    def test_energy_components_cover_figure9(self):
        from repro.arch.accelerator import morph

        result = optimize_network(self.LAYERS, morph(), FAST, network_name="mini")
        components = result.energy_components_pj()
        assert {"DRAM", "L2", "L1", "L0", "Compute"} <= set(components)


class TestParallelismDisplacement:
    """_parallelisms keeps the canonical default without silent loss:
    the displacement is counted, and the list never contains duplicates."""

    @given(
        k=st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128]),
        h=st.integers(min_value=1, max_value=56),
        w=st.integers(min_value=1, max_value=56),
        f=st.integers(min_value=1, max_value=16),
        cap=st.integers(min_value=0, max_value=8),
    )
    def test_dup_free_and_displacement_counted(self, k, h, w, f, cap):
        from repro.arch.accelerator import morph
        from repro.core.dataflow import Parallelism
        from repro.optimizer.space import parallelism_candidates

        arch = morph()
        layer = ConvLayer(
            "prop", h=h, w=w, c=8, f=f, k=k, r=3, s=3, t=3,
            pad_h=1, pad_w=1, pad_f=1,
        )
        options = FAST.with_(max_parallelism_candidates=cap)
        chosen, displaced = LayerOptimizer(arch, options)._parallelisms(layer)
        default = Parallelism(k=arch.clusters, h=arch.pes_per_cluster)
        # The default always survives, the cap always holds, and nothing
        # is duplicated.
        assert default in chosen
        assert len(chosen) <= max(cap, 1)
        assert len(set(chosen)) == len(chosen)
        # Displacement is exactly "the ranked tail candidate lost its slot
        # to the default": it happens iff the default was not already
        # ranked into the kept prefix.
        ranked = parallelism_candidates(arch, layer)
        if default not in ranked:
            ranked = [*ranked, default]
        kept = ranked[:cap]
        if not kept:
            assert displaced == 0
        else:
            assert displaced == (0 if default in kept else 1)
            if displaced:
                # The displaced candidate is the one the cap would have
                # kept last — it must be gone, everything above it intact.
                assert kept[-1] not in chosen
                assert chosen[:-1] == kept[:-1]
                assert chosen[-1] == default

    def test_displacement_reaches_engine_stats(self):
        """A layer whose ranked list crowds out the default rolls its
        displacement count up into EngineStats."""
        from repro.arch.accelerator import morph
        from repro.optimizer.engine import OptimizerEngine

        arch = morph()
        options = FAST.with_(max_parallelism_candidates=1)
        chosen, displaced = LayerOptimizer(arch, options)._parallelisms(LAYER)
        assert displaced == 1  # the top-ranked candidate lost its slot
        engine = OptimizerEngine(arch, options, use_cache=False)
        engine.optimize_layers((LAYER,))
        assert engine.stats.parallelism_displaced == 1


class TestAllocatorCallShape:
    """The columnar search allocates each L2 tile once, in one beam over
    all of its live parallelisms and inner orders, and scores the tile's
    rows in one table: call counts, not times, so a regression to one
    allocator call or score pass per block (or per inner order) fails
    here."""

    def _spied_search(self, monkeypatch, options):
        """Run a columnar search on C3D layer3a under ``options`` and
        return its call counts."""
        from repro.arch.accelerator import morph
        from repro.core import batch
        from repro.optimizer import search
        from repro.workloads import build_network

        layer = build_network("c3d").layers[2]  # layer3a
        arch = morph()
        optimizer = LayerOptimizer(arch, options.with_(vectorize=True))
        counts = {"allocate": 0, "fill": 0, "score": 0, "best": 0,
                  "drained_blocks": 0}
        block_tiles = []  # the L2 tile of every allocated block
        calls = []  # (L2 tile, inner orders, parallelisms covered)

        offers = search._ColumnarBlocks.offers
        allocate = search.allocate_hierarchy
        fill = batch.boundary_fill_bytes_sum
        scores = batch.CandidateBatch.scores
        best = batch.CandidateBatch.best

        def counting_offers(self, table, p_idx, outer_orders, beams, rows):
            # One offer pass per allocated block; every beam starts at
            # the block's L2 tile.
            block_tiles.append(next(b for b in beams if b)[0][0])
            drained = []

            def tap():
                for row in rows:
                    drained.append(row)
                    yield row

            yield from offers(self, table, p_idx, outer_orders, beams, tap())
            counts["drained_blocks"] += bool(drained)

        def counting(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        def counting_allocate(*args, **kwargs):
            calls.append((args[2], args[3], len(kwargs["per_parallelism"])))
            return allocate(*args, **kwargs)

        monkeypatch.setattr(search._ColumnarBlocks, "offers", counting_offers)
        monkeypatch.setattr(
            search, "allocate_hierarchy", counting("allocate", counting_allocate)
        )
        monkeypatch.setattr(
            batch, "boundary_fill_bytes_sum", counting("fill", fill)
        )
        monkeypatch.setattr(
            batch.CandidateBatch, "scores", counting("score", scores)
        )
        monkeypatch.setattr(batch.CandidateBatch, "best", counting("best", best))
        optimizer.optimize(layer)
        return arch, optimizer, counts, block_tiles, calls

    def test_one_allocation_and_one_score_pass_per_level(self, monkeypatch):
        arch, optimizer, counts, block_tiles, calls = self._spied_search(
            monkeypatch, OptimizerOptions()
        )
        assert len(block_tiles) > counts["allocate"] > 1
        assert counts["allocate"] == len(set(block_tiles))
        assert len({tile for tile, _, _ in calls}) == counts["allocate"]
        assert counts["fill"] == (arch.num_levels - 1) * counts["allocate"]
        assert all(
            orders == tuple(optimizer._inner_orders()) for _, orders, _ in calls
        )
        assert len(calls[0][1]) > 1
        assert max(covered for _, _, covered in calls) > 1

    def test_one_score_pass_per_tile_one_best_per_block(self, monkeypatch):
        """Unbudgeted: one scored table per allocator call, while
        ``CandidateBatch.best`` still runs once per block with drained
        rows (each picks its winner from its own rows of the table)."""
        _, _, counts, block_tiles, _ = self._spied_search(
            monkeypatch, OptimizerOptions()
        )
        assert counts["score"] == counts["allocate"]
        assert counts["best"] == counts["drained_blocks"]
        assert counts["best"] > counts["score"]
        assert len(block_tiles) >= counts["drained_blocks"]

    def test_budgeted_search_scores_one_table_per_visited_block(
        self, monkeypatch
    ):
        """A budgeted search (here one that never runs out) allocates and
        tables only the block it visits."""
        _, _, counts, block_tiles, calls = self._spied_search(
            monkeypatch, OptimizerOptions(budget_ms=1e9)
        )
        assert counts["allocate"] == len(block_tiles)
        assert all(covered == 1 for _, _, covered in calls)
        assert counts["score"] == counts["best"] == counts["drained_blocks"]
