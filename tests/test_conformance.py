"""Differential cosimulation conformance tests.

Property-based stimulus (hypothesis, derandomized so CI is reproducible)
drives every registry benchmark through the full oracle chain —
behavioral interpreter, duration-normalized STG replay, gatesim, and the
emitted Verilog's netlist simulator — asserting output-value and
cycle-count agreement; plus direct tests of the harness mechanics
(divergence detection, stimulus minimization, ``repro verify``, and
``SynthesisEngine.verify``).
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ConformanceError
from repro.benchmarks import BENCHMARKS, get_benchmark
from repro.cdfg.interpreter import simulate
from repro.core.design import DesignPoint
from repro.core.engine import SynthesisEngine
from repro.hdl import lower_architecture
from repro.library import default_library
from repro.sched.engine import ScheduleOptions
from repro.sim.stimulus import random_stimulus
from repro.cli import main as cli_main
from repro.verify.conformance import (
    minimize_stimulus,
    verify_architecture,
    verify_benchmark,
    visits_from_cycle_trace,
)

#: Pinned seed for every randomized stimulus in this module.
SEED = 20260727

_ARCH_CACHE: dict = {}


def _bench_design(name):
    """One architecture + netlist per benchmark for the whole module."""
    if name not in _ARCH_CACHE:
        bench = get_benchmark(name)
        cdfg = bench.cdfg()
        store = simulate(cdfg, bench.stimulus(4, seed=SEED))
        dp = DesignPoint.initial(cdfg, default_library(), store,
                                 ScheduleOptions(clock_ns=bench.clock_ns))
        _ARCH_CACHE[name] = (cdfg, dp.arch, lower_architecture(dp.arch, name=name))
    return _ARCH_CACHE[name]


class TestPropertyConformance:
    """All four execution models agree on randomized benchmark stimulus."""

    @pytest.mark.parametrize("bench_name", sorted(BENCHMARKS))
    @settings(max_examples=5, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           n_passes=st.integers(min_value=1, max_value=6))
    def test_backends_agree_on_random_stimulus(self, bench_name, seed, n_passes):
        cdfg, arch, _nl = _bench_design(bench_name)
        stimulus = get_benchmark(bench_name).stimulus(n_passes, seed=seed)
        report = verify_architecture(cdfg, arch, stimulus, name=bench_name,
                                     use_iverilog="off", minimize=False)
        assert report.ok, "\n".join(str(d) for d in report.divergences)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(a=st.integers(min_value=1, max_value=63),
           b=st.integers(min_value=1, max_value=63))
    def test_gcd_agrees_on_direct_inputs(self, a, b):
        import math

        cdfg, arch, _nl = _bench_design("gcd")
        report = verify_architecture(cdfg, arch, [{"a": a, "b": b}],
                                     name="gcd", use_iverilog="off",
                                     minimize=False)
        assert report.ok
        # And the whole chain agrees with ground truth, not just itself.
        store = simulate(cdfg, [{"a": a, "b": b}])
        assert int(store.outputs["g"][0]) == math.gcd(a, b)


class TestRegistrySweep:
    """The acceptance-criteria entry point, at test-sized pass counts."""

    @pytest.mark.parametrize("bench_name", sorted(BENCHMARKS))
    def test_verify_benchmark_passes(self, bench_name):
        report = verify_benchmark(bench_name, n_passes=20, seed=SEED,
                                  use_iverilog="auto")
        report.raise_if_failed()
        assert report.n_passes == 20
        assert set(report.backends) >= {"interpreter", "replay",
                                        "gatesim", "netsim"}


class TestEmptyStimulus:
    """A verdict over zero passes would be vacuous, so it is an error."""

    def test_verify_benchmark_zero_passes_raises(self):
        with pytest.raises(ConformanceError, match="no stimulus"):
            verify_benchmark("gcd", n_passes=0, use_iverilog="off")

    def test_verify_architecture_empty_stimulus_raises(self):
        cdfg, arch, _nl = _bench_design("gcd")
        with pytest.raises(ConformanceError, match="no stimulus"):
            verify_architecture(cdfg, arch, [], use_iverilog="off")


class TestEngineVerify:
    def test_engine_verify_default_design(self):
        bench = get_benchmark("gcd")
        cdfg = bench.cdfg()
        engine = SynthesisEngine(cdfg, bench.stimulus(15, seed=SEED),
                                 options=ScheduleOptions(clock_ns=bench.clock_ns))
        report = engine.verify(use_iverilog="off", name="gcd")
        assert report.ok
        assert report.n_passes == 15

    def test_engine_verify_searched_design(self):
        bench = get_benchmark("gcd")
        cdfg = bench.cdfg()
        engine = SynthesisEngine(cdfg, bench.stimulus(10, seed=SEED),
                                 options=ScheduleOptions(clock_ns=bench.clock_ns))
        result = engine.run(mode="power", laxity=2.0)
        report = engine.verify(design=result.design, use_iverilog="off")
        assert report.ok, "\n".join(str(d) for d in report.divergences)

    def test_engine_verify_custom_stimulus(self):
        bench = get_benchmark("gcd")
        cdfg = bench.cdfg()
        engine = SynthesisEngine(cdfg, bench.stimulus(5, seed=SEED),
                                 options=ScheduleOptions(clock_ns=bench.clock_ns))
        report = engine.verify(stimulus=[{"a": 9, "b": 6}], use_iverilog="off")
        assert report.ok
        assert report.n_passes == 1


class TestVisitReconstruction:
    """Per-cycle FSM traces fold back into per-visit sequences by state
    duration — a plain dedup would collapse 1-cycle self-loops."""

    def test_multi_cycle_state_folds_to_one_visit(self):
        assert visits_from_cycle_trace([0, 3, 3, 5], {0: 1, 3: 2, 5: 1}) \
            == [0, 3, 5]

    def test_single_cycle_self_loop_keeps_every_visit(self):
        assert visits_from_cycle_trace([0, 2, 2, 2, 5], {0: 1, 2: 1, 5: 1}) \
            == [0, 2, 2, 2, 5]

    def test_mixed_run_splits_by_duration(self):
        # Three consecutive visits of a 2-cycle state: six trace entries.
        assert visits_from_cycle_trace([4] * 6, {4: 2}) == [4, 4, 4]

    def test_ragged_run_rounds_up(self):
        # A diverged netlist stuck mid-state still yields whole visits.
        assert visits_from_cycle_trace([4] * 5, {4: 2}) == [4, 4, 4]
        assert visits_from_cycle_trace([], {}) == []


def _corrupt_output_path(arch):
    """Make the 'g' result register load the raw input a instead."""
    g_reg = arch.binding.reg_of("g").id
    port = arch.datapath.ports[("reg_in", g_reg)]
    key = next(iter(port.drivers))
    port.drivers[key] = ("reg", arch.binding.reg_of("a").id)
    port.sources.append(("reg", arch.binding.reg_of("a").id))
    port.build_default_tree()


class TestDivergenceDetection:
    def _broken_gcd(self):
        bench = get_benchmark("gcd")
        cdfg = bench.cdfg()
        stim = random_stimulus(cdfg, 6, seed=SEED,
                               ranges={"a": (1, 12), "b": (1, 12)})
        store = simulate(cdfg, stim)
        dp = DesignPoint.initial(cdfg, default_library(), store,
                                 ScheduleOptions(clock_ns=bench.clock_ns))
        _corrupt_output_path(dp.arch)
        return cdfg, dp.arch, stim

    def test_injected_bug_is_caught_and_minimized(self):
        cdfg, arch, stim = self._broken_gcd()
        report = verify_architecture(cdfg, arch, stim, name="gcd_broken",
                                     use_iverilog="off")
        assert not report.ok
        first = report.divergences[0]
        assert first.kind == "output"
        assert first.backend == "netsim"
        assert first.minimized is not None
        # The minimized stimulus still reproduces, and is no larger.
        assert sum(map(abs, first.minimized.values())) <= \
            sum(map(abs, first.stimulus.values()))
        single = verify_architecture(cdfg, arch, [first.minimized],
                                     use_iverilog="off", minimize=False)
        assert not single.ok

    def test_raise_if_failed(self):
        cdfg, arch, stim = self._broken_gcd()
        report = verify_architecture(cdfg, arch, stim, use_iverilog="off",
                                     minimize=False)
        with pytest.raises(ConformanceError):
            report.raise_if_failed()

    def test_minimize_rejects_behaviorally_invalid_shrinks(self):
        # Shrinking gcd inputs to 0 makes the behavior non-terminating;
        # minimization must never land there.
        cdfg, arch, _stim = self._broken_gcd()
        minimized = minimize_stimulus(cdfg, arch, {"a": 8, "b": 4},
                                      netlist=lower_architecture(arch))
        assert minimized["a"] != 0 and minimized["b"] != 0

    def test_minimization_compiles_the_netlist_once(self, monkeypatch):
        import repro.hdl.netsim as netsim
        import repro.verify.conformance as conf

        compiles, runs = [], []
        real_run = conf.simulate_netlist

        def counting_compile(*args, **kwargs):
            compiles.append(args[1])
            return compile(*args, **kwargs)

        def counting_run(netlist, stimulus, **kwargs):
            runs.append(len(stimulus))
            return real_run(netlist, stimulus, **kwargs)

        monkeypatch.setattr(netsim, "compile", counting_compile, raising=False)
        monkeypatch.setattr(conf, "simulate_netlist", counting_run)
        cdfg, arch, stim = self._broken_gcd()
        report = verify_architecture(cdfg, arch, stim, use_iverilog="off")
        assert report.divergences[0].minimized is not None
        assert runs.count(1) > 1  # the minimization trials
        assert len(compiles) == 1

    def test_iverilog_require_without_tool(self):
        from repro.hdl import iverilog_available

        if iverilog_available():
            pytest.skip("iverilog installed; the require path succeeds")
        cdfg, arch, _nl = _bench_design("gcd")
        with pytest.raises(ConformanceError):
            verify_architecture(cdfg, arch, [{"a": 4, "b": 2}],
                                use_iverilog="require")


class TestCommandLine:
    """``repro verify``, the one conformance CLI."""

    def test_single_benchmark_json(self, tmp_path, capsys):
        code = cli_main(["verify", "--benchmark", "gcd", "--passes", "10",
                         "--stimulus-seed", str(SEED), "--iverilog", "off",
                         "--results-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "verify_cli.json").read_text(
            encoding="utf-8"))
        assert payload["ok"] is True
        assert payload["rows"][0]["name"] == "gcd"
        assert payload["rows"][0]["n_passes"] == 10
        model_s = payload["rows"][0]["model_s"]
        assert set(model_s) == {"interpreter", "replay", "gatesim", "netsim"}
        assert all(seconds >= 0 for seconds in model_s.values())
        assert "gcd" in capsys.readouterr().out

    def test_all_flag_covers_registry(self, tmp_path, capsys):
        code = cli_main(["verify", "--all", "--passes", "2", "--iverilog",
                         "off", "--results-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "verify_cli.json").read_text(
            encoding="utf-8"))
        assert {row["name"] for row in payload["rows"]} == set(BENCHMARKS)

    def test_divergences_print_under_their_row_and_fail(self, tmp_path,
                                                          capsys,
                                                          monkeypatch):
        import repro.verify.conformance as conf

        real = conf.verify_benchmark

        def diverging(name, **kwargs):
            report = real(name, **kwargs)
            report.divergences.append(conf.Divergence(
                3, "cycles", "netsim", "9 cycles, replay says 8"))
            return report

        monkeypatch.setattr(conf, "verify_benchmark", diverging)
        code = cli_main(["verify", "-b", "gcd", "--passes", "4",
                         "--iverilog", "off", "--results-dir", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "gcd:\n    pass 3: netsim cycles divergence" in out
        payload = json.loads((tmp_path / "verify_cli.json").read_text(
            encoding="utf-8"))
        assert payload["ok"] is False
