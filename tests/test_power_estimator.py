"""Power estimator tests: composition, scaling laws, fidelity vs gatesim."""

import pytest

from repro.benchmarks import BENCHMARKS
from repro.explore import engine_for_benchmark
from repro.lang import parse
from repro.cdfg.interpreter import simulate
from repro.core.binding import Binding
from repro.gatesim import simulate_architecture
from repro.library import default_library
from repro.power import estimate_power, merge_unit_traces
from repro.power.glitch import chain_glitch_factor, skew_glitch_factor
from repro.rtl import build_architecture
from repro.sched import replay, wavesched
from repro.sim.stimulus import random_stimulus


def _design(cdfg, passes, binding=None):
    binding = binding or Binding.initial_parallel(cdfg, default_library())
    store = simulate(cdfg, passes)
    stg = wavesched(cdfg, binding)
    rep = replay(stg, cdfg, store)
    arch = build_architecture(cdfg, binding, stg)
    traces = merge_unit_traces(arch, store, rep)
    return arch, traces, store


class TestComposition:
    def test_total_is_sum_of_components(self, gcd_cdfg):
        arch, traces, _ = _design(gcd_cdfg, [{"a": 12, "b": 18}] * 3)
        est = estimate_power(arch, traces)
        assert est.total == pytest.approx(
            est.fus + est.registers + est.muxes + est.controller)

    def test_all_components_nonnegative(self, loops_cdfg):
        stim = random_stimulus(loops_cdfg, 10, seed=2,
                               ranges={"a": (0, 3), "b": (0, 3), "d": (0, 15)})
        arch, traces, _ = _design(loops_cdfg, stim)
        est = estimate_power(arch, traces)
        for value in est.breakdown().values():
            assert value >= 0.0

    def test_vdd_scaling_is_quadratic(self, gcd_cdfg):
        arch, traces, _ = _design(gcd_cdfg, [{"a": 12, "b": 18}] * 3)
        p5 = estimate_power(arch, traces, vdd=5.0).total
        p25 = estimate_power(arch, traces, vdd=2.5).total
        assert p25 == pytest.approx(p5 / 4.0, rel=1e-6)

    def test_constant_inputs_cost_less_than_toggling(self, simple_cdfg):
        quiet = [{"a": 10, "b": 20}] * 20
        busy = [{"a": 10 if i % 2 else -10, "b": 20 if i % 2 else -20}
                for i in range(20)]
        arch_q, traces_q, _ = _design(simple_cdfg, quiet)
        arch_b, traces_b, _ = _design(simple_cdfg, busy)
        assert estimate_power(arch_q, traces_q).total < \
            estimate_power(arch_b, traces_b).total

    def test_zero_cycles_rejected(self, simple_cdfg):
        from repro.errors import PowerModelError
        from repro.power.trace_manip import UnitTraces

        arch, _traces, _ = _design(simple_cdfg, [{"a": 1, "b": 2}])
        with pytest.raises(PowerModelError):
            estimate_power(arch, UnitTraces(total_cycles=0))


class TestGlitchModel:
    def test_unchained_factor_is_one(self):
        assert chain_glitch_factor(0.0) == 1.0
        assert skew_glitch_factor(0.0) == 1.0

    def test_factors_grow(self):
        assert chain_glitch_factor(1.0) > chain_glitch_factor(0.5) > 1.0
        assert skew_glitch_factor(10.0) > skew_glitch_factor(5.0) > 1.0

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            chain_glitch_factor(1.5)
        with pytest.raises(ValueError):
            skew_glitch_factor(-1.0)


class TestFidelity:
    """The estimator must track the bit-level measurement (Section 2.3's
    purpose: a cheap model accurate enough to drive synthesis)."""

    @pytest.mark.parametrize("bench_name", sorted(BENCHMARKS))
    def test_estimate_tracks_gatesim_on_searched_designs(self, bench_name):
        """On the initial design and the power-searched designs at laxity 1
        and 2, the estimate stays within [0.70, 1.35] of the measurement,
        and no estimated cut of more than 1% is measured as an increase of
        more than 1%."""
        engine = engine_for_benchmark(bench_name, n_passes=15)
        initial = engine.initial
        designs = [initial] + [engine.run("power", laxity).design
                               for laxity in (1, 2)]
        measured = {}
        for design in designs:
            if id(design) not in measured:
                meas = simulate_architecture(
                    design.arch, engine.stimulus,
                    expected_outputs=engine.store.outputs, vdd=5.0)
                assert meas.output_mismatches == 0
                measured[id(design)] = meas.power_mw
        est0, meas0 = initial.evaluate().power_5v, measured[id(initial)]
        for design in designs:
            est, meas = design.evaluate().power_5v, measured[id(design)]
            assert 0.70 <= est / meas <= 1.35, (bench_name, est, meas)
            if est / est0 - 1.0 < -0.01:
                assert meas / meas0 - 1.0 <= 0.01, (bench_name, est, meas)

    def test_estimator_ranks_designs_like_gatesim(self, gcd_cdfg):
        """Relative accuracy is what drives the search: sharing-vs-parallel
        ordering must agree between estimator and measurement."""
        from repro.cdfg.node import OpKind

        lib = default_library()
        stim = [{"a": int(7 + 11 * i) % 50 + 1, "b": (3 + 17 * i) % 50 + 1}
                for i in range(12)]
        parallel = Binding.initial_parallel(gcd_cdfg, lib)
        shared = parallel.clone()
        subs = [f.id for f in shared.fus.values()
                if f.kinds(gcd_cdfg) == {OpKind.SUB}]
        shared.merge_fus(subs[0], subs[1])

        results = {}
        for name, binding in (("parallel", parallel), ("shared", shared)):
            arch, traces, store = _design(gcd_cdfg, stim, binding)
            est = estimate_power(arch, traces).total
            meas = simulate_architecture(arch, stim,
                                         expected_outputs=store.outputs).power_mw
            results[name] = (est, meas)
        est_order = results["parallel"][0] < results["shared"][0]
        meas_order = results["parallel"][1] < results["shared"][1]
        assert est_order == meas_order
