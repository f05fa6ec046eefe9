"""SynthesisEngine tests: shared state, multi-start, accounting."""

import pytest

from repro.benchmarks import get_benchmark
from repro.core.design import DesignPoint
from repro.core.engine import SynthesisEngine
from repro.core.search import SearchConfig, iterative_improvement
from repro.sched.engine import ScheduleOptions

FAST = SearchConfig(max_depth=3, max_candidates=8, max_iterations=3, seed=0)


@pytest.fixture
def gcd_engine():
    bench = get_benchmark("gcd")
    return SynthesisEngine(bench.cdfg(), bench.stimulus(8, seed=3),
                           options=ScheduleOptions(clock_ns=bench.clock_ns))


class TestSharedState:
    def test_store_and_initial_simulated_once(self, gcd_engine):
        first = gcd_engine.run(mode="area", laxity=2.0, search=FAST)
        second = gcd_engine.run(mode="power", laxity=2.0, search=FAST)
        assert second.store is first.store
        assert second.initial is first.initial

    def test_second_run_hits_the_cache(self, gcd_engine):
        gcd_engine.run(mode="power", laxity=2.0, search=FAST)
        again = gcd_engine.run(mode="power", laxity=2.0, search=FAST)
        # An identical run replays entirely from the memo tables.
        total = again.cache_stats["total"]
        assert total["hits"] > 0
        assert total["hit_rate"] > 0.5

    def test_adopted_starts_share_the_cache(self, gcd_engine):
        area = gcd_engine.run(mode="area", laxity=2.0, search=FAST)
        power = gcd_engine.run(mode="power", laxity=2.0, search=FAST,
                               starts=[area.design])
        assert area.design.cache is gcd_engine.cache
        assert power.design.cache is gcd_engine.cache


class TestMultiStart:
    def test_evaluations_accumulate_across_all_starts(self, gcd_engine):
        """Every start's effort counts, whichever start wins (regression:
        counts from already-accumulated losers were dropped when a later
        start won)."""
        area = gcd_engine.run(mode="area", laxity=2.0, search=FAST)
        result = gcd_engine.run(mode="power", laxity=2.0, search=FAST,
                                starts=[area.design])
        expected = 0
        for start in (gcd_engine.initial, area.design):
            _, history = iterative_improvement(start, "power",
                                               result.enc_budget, FAST)
            expected += history.evaluations
        assert result.history.evaluations == expected


class TestLazyDesignPoint:
    def test_architecture_built_on_demand(self, gcd_engine):
        initial = gcd_engine.initial
        binding = initial.binding.clone()
        derived = initial.with_binding(binding, reschedule=False)
        assert derived._arch is None
        assert derived._lazy_traces is None
        arch = derived.arch
        assert derived._arch is arch
        assert derived._lazy_traces.value is None
        derived.traces
        assert derived._lazy_traces.value is not None

    def test_rejected_share_never_builds_architecture(self, gcd_engine):
        """An interfering register share must fail before RTL construction."""
        from repro.core.moves import ShareRegisters, generate_moves
        from repro.errors import BindingError

        initial = gcd_engine.initial
        built = {"count": 0}
        real = DesignPoint.arch.fget

        def counting(self):
            built["count"] += 1
            return real(self)

        share_moves = [m for m in generate_moves(initial)
                       if isinstance(m, ShareRegisters)]
        rejected = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DesignPoint, "arch", property(counting))
            for move in share_moves:
                try:
                    move.apply(initial)
                except BindingError:
                    rejected += 1
        assert rejected > 0, "expected at least one interfering share on gcd"
        assert built["count"] == 0
