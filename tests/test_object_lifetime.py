"""The search's object graph is acyclic, so reference counting frees it.

Design points sit in their engine's memo tables, and every candidate the
search builds is one.  If any of them sat in a reference cycle, a finished
engine and every rejected candidate could only be freed by a full pass of
the garbage collector.  These tests run with the collector off and check
that dropping the last reference frees everything at once.
"""

import gc
import weakref

import pytest

from repro.core.search import SearchConfig
from repro.explore import engine_for_benchmark
from repro.rtl.mux import MuxSource, balanced_tree

SEARCH = SearchConfig(max_depth=4, max_candidates=10, max_iterations=5, seed=0)


@pytest.fixture
def collector_off():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_dropped_engine_frees_its_tables_and_points(collector_off):
    # An area search leaves its candidates' power unestimated; the power
    # search from its result estimates most of its own.
    engine = engine_for_benchmark("gcd", n_passes=8)
    visited = []

    def observer(design, _evaluation):
        visited.append(weakref.ref(design))

    area = engine.run("area", 2.0, search=SEARCH, observer=observer)
    result = engine.run("power", 2.0, search=SEARCH, starts=[area.design],
                        observer=observer)
    assert result.design is not engine.initial
    assert len(engine.cache.designs) > 0
    refs = [weakref.ref(engine.cache), weakref.ref(engine.initial),
            weakref.ref(result.design), *visited]
    del engine, area, result
    assert [ref for ref in refs if ref() is not None] == []


def test_timing_and_mux_activity_leave_no_cycles(collector_off):
    engine = engine_for_benchmark("gcd", n_passes=8)
    arch = engine.initial.arch
    tree = balanced_tree([MuxSource(k, 0.1 * k, 0.2) for k in range(5)])
    stats = {k: (0.2, 0.2) for k in range(5)}
    gc.collect()
    arch.invalidate_timing()  # recomputes every state's critical path
    tree.activity_with(stats)
    tree.with_stats(stats)
    tree.sources()
    assert gc.collect() == 0


def test_point_outliving_its_engine_computes_uncached():
    engine = engine_for_benchmark("gcd", n_passes=8)
    orphan = engine.run("area", 2.0, search=SEARCH).design
    del engine
    assert not orphan.cache.enabled
    evaluation = orphan.evaluate()
    assert not evaluation.power_materialized  # an area search skips it
    kept = engine_for_benchmark("gcd", n_passes=8)
    reference = kept.run("area", 2.0, search=SEARCH).design.evaluate()
    assert evaluation.power_5v == reference.power_5v
