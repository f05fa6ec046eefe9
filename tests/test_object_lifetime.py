"""The search's object graph is acyclic, so reference counting frees it.

Design points sit in their engine's memo tables, and every candidate the
search builds is one.  If any of them sat in a reference cycle, a finished
engine and every rejected candidate could only be freed by a full pass of
the garbage collector.  These tests run with the collector off and check
that dropping the last reference frees everything at once, for the search
and for the conformance and fuzzing flows around it.

``SynthesisEngine.run`` and ``run_laxity_sweep`` pause the cyclic
collector, which is safe only while the above holds; the last tests check
the pause and that the run gives the collector back in the state it found
it.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.cdfg.interpreter import simulate
from repro.core.search import SearchConfig
from repro.experiments.laxity import run_laxity_sweep
from repro.explore import engine_for_benchmark
from repro.genprog.fuzz import fuzz_run
from repro.rtl.mux import MuxSource, balanced_tree
from repro.verify.conformance import minimize_stimulus, verify_benchmark

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


def assert_no_cycle_garbage() -> None:
    """Nothing is left that only a collection frees; on failure, tally it
    by type."""
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        found = gc.collect()
        tally = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert found == 0, f"{found} objects in cycles: {tally.most_common(12)}"


def _simulate_histogram():
    engine = engine_for_benchmark("histogram", n_passes=4)
    assert simulate(engine.cdfg, engine.stimulus).mem_final


def _minimize_broken_gcd():
    """Minimize a divergence: gcd's result register loads input ``a``."""
    engine = engine_for_benchmark("gcd", n_passes=4)
    arch = engine.initial.arch
    binding = arch.binding
    port = arch.datapath.ports[("reg_in", binding.reg_of("g").id)]
    wrong = ("reg", binding.reg_of("a").id)
    port.drivers[next(iter(port.drivers))] = wrong
    port.sources.append(wrong)
    port.build_default_tree()
    minimized = minimize_stimulus(engine.cdfg, arch, {"a": 12, "b": 18})
    assert minimized != {"a": 12, "b": 18}


@pytest.mark.parametrize("flow", [
    pytest.param(lambda _tmp: run_laxity_sweep("gcd", laxities=(1.0, 2.0),
                                               n_passes=8), id="sweep"),
    pytest.param(lambda _tmp: verify_benchmark("gcd", n_passes=10,
                                               use_iverilog="off"),
                 id="verify-gcd"),
    pytest.param(lambda _tmp: verify_benchmark("histogram", n_passes=10,
                                               use_iverilog="off"),
                 id="verify-histogram"),
    pytest.param(lambda tmp: fuzz_run(1, 0, results_dir=tmp), id="fuzz"),
    pytest.param(lambda _tmp: _simulate_histogram(), id="simulate"),
    pytest.param(lambda _tmp: _minimize_broken_gcd(), id="minimize"),
])
def test_flow_leaves_nothing_in_cycles(flow, tmp_path, collector_off):
    flow(tmp_path)
    assert_no_cycle_garbage()


@pytest.fixture
def collector_on():
    enabled = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        if not enabled:
            gc.disable()


def test_run_triggers_no_collection(collector_on):
    engine = engine_for_benchmark("gcd", n_passes=8)
    generations = []

    def count(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.callbacks.append(count)
    try:
        engine.run("power", 2.0, search=SEARCH)
    finally:
        gc.callbacks.remove(count)
    assert generations == []
    assert gc.isenabled()


def test_sweep_triggers_no_collection_and_leaves_no_cycles(collector_on):
    """One pause spans the whole sweep, not one per run: no collection
    starts between its runs or during its measurements."""
    generations = []

    def count(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        sweep = run_laxity_sweep("gcd", laxities=(1.0, 2.0), n_passes=8,
                                 search=SEARCH)
    finally:
        gc.callbacks.remove(count)
    assert generations == []
    assert gc.isenabled()
    assert len(sweep.points) == 2
    del sweep
    assert_no_cycle_garbage()


class Stop(Exception):
    pass


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_run_restores_the_collector_state(enabled, raises):
    engine = engine_for_benchmark("gcd", n_passes=8)
    during = []

    def observer(_design, _evaluation):
        during.append(gc.isenabled())
        if raises:
            raise Stop

    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if raises:
            with pytest.raises(Stop):
                engine.run("power", 2.0, search=SEARCH, observer=observer)
        else:
            engine.run("power", 2.0, search=SEARCH, observer=observer)
        after = gc.isenabled()
    finally:
        (gc.enable if before else gc.disable)()
    assert during and not any(during)
    assert after is enabled
