"""Cache-layer tests: memo tables, content signatures, bit-identical runs."""

import pytest

from repro.benchmarks import get_benchmark
from repro.core.binding import Binding
from repro.core.cache import MemoTable, SynthesisCache, cache_stats
from repro.core.engine import SynthesisEngine
from repro.core.profile import PROFILER
from repro.core.search import SearchConfig
from repro.library import default_library
from repro.sched.engine import ScheduleOptions

FAST = SearchConfig(max_depth=3, max_candidates=8, max_iterations=3, seed=0)


def _hits_misses(table: MemoTable, window) -> tuple[int, int]:
    """(hits, misses) of ``table`` in the profiler window after ``window``."""
    stage = PROFILER.window(window).get(f"memo.{table.name}", {})
    return stage.get("incremental", 0), stage.get("full", 0)


class TestMemoTable:
    def test_miss_then_hit_shares_value(self):
        table = MemoTable("t")
        window = PROFILER.snapshot()
        calls = []
        first = table.get_or_compute("k", lambda: calls.append(1) or [1, 2])
        second = table.get_or_compute("k", lambda: calls.append(1) or [1, 2])
        assert second is first
        assert calls == [1]
        assert _hits_misses(table, window) == (1, 1)

    def test_disabled_recomputes_but_counts_misses(self):
        table = MemoTable("t", enabled=False)
        window = PROFILER.snapshot()
        first = table.get_or_compute("k", lambda: [1])
        second = table.get_or_compute("k", lambda: [1])
        assert second is not first
        assert _hits_misses(table, window) == (0, 2)
        assert len(table) == 0

    def test_distinct_keys_distinct_values(self):
        table = MemoTable("t")
        window = PROFILER.snapshot()
        assert table.get_or_compute("a", lambda: 1) == 1
        assert table.get_or_compute("b", lambda: 2) == 2
        assert _hits_misses(table, window) == (0, 2)


class TestSynthesisCacheStats:
    def test_window_delta(self):
        cache = SynthesisCache()
        cache.designs.get_or_compute("x", lambda: 1)
        window = PROFILER.snapshot()
        cache.designs.get_or_compute("x", lambda: 1)
        cache.replay.get_or_compute("y", lambda: 2)
        stats = cache_stats(PROFILER.window(window))
        assert stats["design"]["hits"] == 1
        assert stats["replay"]["misses"] == 1
        assert stats["total"] == {"hits": 1, "misses": 1, "hit_rate": 0.5}

    def test_lifetime_stats_shape(self):
        # Every table reports, lookups or not.
        stats = cache_stats({})
        assert set(stats) == {"replay", "design", "total"}
        assert stats["design"] == {"hits": 0, "misses": 0, "hit_rate": 0.0}


class TestSignatures:
    def test_full_signature_distinguishes_partitions(self, gcd_cdfg):
        library = default_library()
        base = Binding.initial_parallel(gcd_cdfg, library)
        regs = sorted(base.regs)
        merged = base.clone()
        merged.merge_regs(regs[0], regs[1])
        assert merged.signature() != base.signature()

    def test_stg_signatures_stable_and_memoized(self, gcd_cdfg):
        from repro.sched import wavesched

        binding = Binding.initial_parallel(gcd_cdfg, default_library())
        stg = wavesched(gcd_cdfg, binding)
        again = wavesched(gcd_cdfg, binding)
        assert stg.signature() is stg.signature()
        assert stg.signature() == again.signature()
        assert stg.replay_signature() == again.replay_signature()


@pytest.mark.parametrize("name", ["gcd", "loops"])
def test_caching_is_bit_identical_on_registry_benchmarks(name):
    """Identical Evaluation numbers with caching enabled vs disabled."""
    bench = get_benchmark(name)
    cdfg = bench.cdfg()
    stimulus = bench.stimulus(8, seed=3)
    options = ScheduleOptions(clock_ns=bench.clock_ns)

    evaluations = {}
    histories = {}
    for caching in (True, False):
        engine = SynthesisEngine(cdfg, stimulus, options=options,
                                 cache=SynthesisCache(enabled=caching))
        result = engine.run(mode="power", laxity=2.0, search=FAST)
        ev = result.design.evaluate()
        evaluations[caching] = (ev.enc, ev.legal, ev.area, ev.slack_ratio,
                                ev.vdd, ev.power_5v, ev.power_scaled)
        histories[caching] = result
    assert evaluations[True] == evaluations[False]
    assert histories[True].history.evaluations == histories[False].history.evaluations

    cached = histories[True]
    uncached = histories[False]
    # With caching on, the run both hits and misses; off, it never hits
    # but still counts every full computation as a miss.
    assert cached.cache_stats["total"]["hits"] > 0
    assert cached.cache_stats["total"]["misses"] > 0
    assert uncached.cache_stats["total"]["hits"] == 0
    assert uncached.cache_stats["total"]["misses"] > 0
    # Caching strictly reduces full computations.
    assert (cached.cache_stats["total"]["misses"]
            < uncached.cache_stats["total"]["misses"])
    # The same counters surface on the summary.
    assert cached.summary()["cache_hits"] == cached.cache_stats["total"]["hits"]
