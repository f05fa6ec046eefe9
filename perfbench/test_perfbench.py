"""Tests for the benchmark's own code: helpers, wrappers and layer metrics.

The traced runs use one small item per workload, so the whole file runs
in a few seconds.
"""

from __future__ import annotations

import ast
import dataclasses
import gc
import math
import sys
from pathlib import Path

import pytest

from perfbench import measure, tracing
from perfbench.run import run_round
from perfbench.workloads import (FIG13_LAXITIES, FIG13_PASSES,
                                 HEADLINE_SEARCH, WORKLOADS)
from repro.core.profile import PROFILER

#: The small item each workload is traced on.
SMALL = {"fig13": "gcd", "conform": "gcd", "fuzz": "fuzz_seed0",
         "explore": "gcd"}

#: Per-layer metrics each workload must drive above zero.  A wrapper
#: patched on a namespace the workload never calls through reads 0 here.
EXERCISED = {
    "fig13": (
        "lang.parse_s", "lang.parse_calls", "cdfg.simulate_s",
        "cdfg.simulate_passes", "core.initial_s", "core.search_s",
        "core.evaluations", "core.accept_ratio", "core.cache_hit_rate",
        "core.schedule_replay_computes", "sched.schedule_s",
        "sched.schedule_calls", "sched.replay_s", "sched.replay_calls",
        "rtl.arch_build_s", "rtl.arch_build_calls",
        "rtl.arch_build_incremental", "power.trace_merge_s",
        "power.trace_merge_calls", "power.estimate_s", "power.estimate_calls",
        "gatesim.s", "gatesim.calls", "gatesim.cycles",
        "qor.power_reduction_vs_base", "qor.power_reduction_vs_apower",
        "qor.area_overhead_max"),
    "conform": (
        "hdl.lower_s", "hdl.netsim_s", "hdl.netsim_calls",
        "hdl.netsim_cycles", "gatesim.s", "gatesim.calls", "gatesim.cycles",
        "verify.self_s", "cdfg.simulate_s", "cdfg.simulate_passes"),
    "fuzz": (
        "lang.parse_s", "lang.parse_calls", "genprog.generate_s",
        "genprog.roundtrip_s", "genprog.programs", "cdfg.simulate_s",
        "sched.schedule_incremental", "sched.replay_incremental",
        "hdl.netsim_s", "hdl.netsim_calls", "core.search_s"),
    "explore": (
        "explore.cold_s", "explore.warm_s", "explore.jobs",
        "explore.offered", "explore.warm_hits", "store.objects",
        "store.bytes", "qor.hypervolume"),
}

#: Metrics no workload is required to move: divergences are 0 on a
#: conformant program, and the residual and traced wall are derived.
NEVER_REQUIRED = {"verify.divergences", "unattributed_s", "traced_wall_s"}


def traced_small_round(name: str, tmp_path):
    workload = WORKLOADS[name]
    small = dataclasses.replace(
        workload, items=lambda seed: [item for item in workload.items(seed)
                                      if item[0] == SMALL[name]])
    tracer = tracing.install(tracing.Tracer())
    window = PROFILER.snapshot()
    try:
        rnd = run_round(small, 0, tracer, tmp_path)
    finally:
        tracer.close()
    qor = small.qor([o.counts for o in rnd.outcomes])
    return rnd, tracer.metrics(rnd.wall_s, PROFILER.window(window), qor)


def _bindings() -> dict:
    return {(name, key): value
            for name, mod in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
            for key, value in list(vars(mod).items()) if callable(value)}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    from repro.core.engine import SynthesisEngine

    tracing.install(tracing.Tracer()).close()  # import every wrapped module
    before = _bindings(), dict(vars(SynthesisEngine))
    rounds = {name: traced_small_round(name, tmp_path_factory.mktemp(name))
              for name in WORKLOADS}
    rounds["bindings"] = before, (_bindings(), dict(vars(SynthesisEngine)))
    return rounds


# -- aggregation helpers --------------------------------------------------------------


def test_geomean():
    assert measure.geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert measure.geomean([3.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        measure.geomean([])
    with pytest.raises(ValueError):
        measure.geomean([1.0, 0.0])


def test_p50():
    assert measure.p50([3.0, 1.0, 2.0]) == 2.0
    assert measure.p50([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        measure.p50([])


def test_failed_frac():
    assert measure.failed_frac(0, 7) == 0.0
    assert measure.failed_frac(2, 8) == 0.25
    with pytest.raises(ValueError):
        measure.failed_frac(0, 0)
    with pytest.raises(ValueError):
        measure.failed_frac(3, 2)


def test_at_reference():
    assert measure.at_reference(3.0, measure.REFERENCE_S) == 3.0
    # A host on which the reference loop runs twice as slow halves times.
    assert measure.at_reference(3.0, 2 * measure.REFERENCE_S) == \
        pytest.approx(1.5)
    with pytest.raises(ValueError):
        measure.at_reference(1.0, 0.0)


def test_reference_loop_leaves_the_collector_as_it_was():
    assert measure.reference_loop() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        measure.reference_loop()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_quartile_spread():
    assert measure.quartile_spread([10.0] * 10) == 0.0
    assert measure.quartile_spread(range(1, 10)) == pytest.approx(5.0 / 5.0)


def test_fingerprint_drift_is_flagged(tmp_path):
    record = tmp_path / "fingerprints.json"
    digest = measure.fingerprint({"evaluations": 10, "hv": 0.1})
    assert digest == measure.fingerprint({"hv": 0.1, "evaluations": 10})
    assert measure.check_fingerprint(record, "fig13:0", digest) is None
    assert measure.check_fingerprint(record, "fig13:0", digest) is None
    other = measure.fingerprint({"evaluations": 11, "hv": 0.1})
    assert measure.check_fingerprint(record, "fig13:0", other) == digest
    assert measure.check_fingerprint(record, "fig13:1", other) is None


# -- wrappers ------------------------------------------------------------------------


def test_wrappers_patch_calling_namespaces_and_are_restored():
    import repro.experiments.laxity as laxity
    import repro.verify.conformance as conformance
    from repro.core.design import DesignPoint
    from repro.core.engine import SynthesisEngine

    before = _bindings()
    methods = (SynthesisEngine.__dict__["run"],
               DesignPoint.__dict__["initial"])
    originals = (laxity.simulate_architecture, conformance.simulate_netlist,
                 conformance.simulate)
    tracer = tracing.install(tracing.Tracer())
    try:
        assert laxity.simulate_architecture is not originals[0]
        assert conformance.simulate_netlist is not originals[1]
        assert conformance.simulate is not originals[2]
        assert SynthesisEngine.__dict__["run"] is not methods[0]
    finally:
        tracer.close()
    assert (laxity.simulate_architecture, conformance.simulate_netlist,
            conformance.simulate) == originals
    assert (SynthesisEngine.__dict__["run"],
            DesignPoint.__dict__["initial"]) == methods
    after = _bindings()
    assert {k: v for k, v in after.items() if k in before} == before


def test_wrappers_are_restored_after_traced_rounds(traced):
    (modules, engine), (modules_after, engine_after) = traced["bindings"]
    # The rounds import more modules lazily; every earlier name is back.
    assert {k: modules_after[k] for k in modules} == modules
    assert engine_after == engine


# -- layer metrics --------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_round_is_correct(traced, name):
    rnd, _metrics = traced[name]
    assert [o.ok for o in rnd.outcomes] == [True], rnd.outcomes
    assert len(rnd.reference) >= 16 and min(rnd.reference) > 0


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_layers_are_nonzero_on_their_workload(traced, name):
    _rnd, metrics = traced[name]
    assert set(metrics) == set(tracing.PER_LAYER)
    zero = [m for m in EXERCISED[name] if metrics[m] == 0]
    assert not zero, f"{name}: layers read 0: {zero}"


def test_every_layer_is_exercised_somewhere():
    covered = set().union(*EXERCISED.values()) | NEVER_REQUIRED
    assert set(tracing.PER_LAYER) - covered == set()


def test_netsim_and_explore_stay_zero_on_fig13(traced):
    _rnd, metrics = traced["fig13"]
    for name in ("hdl.netsim_s", "hdl.netsim_calls", "hdl.lower_s",
                 "explore.jobs", "genprog.programs"):
        assert metrics[name] == 0, name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_and_unattributed_add_up_to_wall(traced, name):
    rnd, metrics = traced[name]
    seconds = [value for metric, value in metrics.items()
               if tracing.PER_LAYER[metric] == "s"
               and metric != "traced_wall_s"]
    assert math.isclose(sum(seconds), rnd.wall_s, rel_tol=1e-9,
                        abs_tol=1e-9)
    assert metrics["traced_wall_s"] == rnd.wall_s
    # A wrapper that double-counts a layer or overlaps another one leaves
    # a large residual of either sign.  The residual is under 1% of the
    # small item on conform, fuzz and explore, and 5-8% on fig13, whose
    # sweep does that much outside every layer.
    assert abs(metrics["unattributed_s"]) < 0.15 * rnd.wall_s, metrics


# -- fig13 against the headline ---------------------------------------------------------


def _headline_call(name: str) -> dict:
    """Keyword arguments of the first call to ``name`` in bench_headline.py."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / \
        "bench_headline.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == name:
            return {kw.arg: ast.literal_eval(kw.value) for kw in node.keywords
                    if not isinstance(kw.value, ast.Name)}
    raise AssertionError(f"no call to {name} in {path}")


def test_fig13_sweep_matches_the_headline():
    assert _headline_call("SearchConfig") == HEADLINE_SEARCH
    sweep = _headline_call("run_laxity_sweep")
    assert (sweep["laxities"], sweep["n_passes"]) == (FIG13_LAXITIES,
                                                      FIG13_PASSES)
