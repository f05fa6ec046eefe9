"""The flat-plan simulator against the reference simulator it replaced.

``tests/gatesim_reference.py`` keeps the plan-and-dispatch simulator
that ``repro.gatesim`` used before it ran from flat per-state step plans.
Every :class:`GateSimResult` field must come out identical, float for
float, and every :class:`ArchitectureError` must carry the same message.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gatesim_reference
from repro.benchmarks import BENCHMARKS
from repro.cdfg.interpreter import simulate
from repro.cdfg.node import OpKind
from repro.core.binding import Binding
from repro.core.engine import SynthesisEngine
from repro.core.search import SearchConfig
from repro.errors import ArchitectureError
from repro.explore import engine_for_benchmark
from repro.gatesim import simulate_architecture, simulator
from repro.genprog import GenConfig, generate_program
from repro.lang import parse
from repro.library import default_library
from repro.rtl import build_architecture
from repro.sched import wavesched
from repro.sched.engine import ScheduleOptions

SEARCH = SearchConfig(max_depth=3, max_candidates=8, max_iterations=3, seed=0)


def assert_same_result(got, want):
    assert got.raw_breakdown == want.raw_breakdown
    assert list(got.raw_breakdown) == list(want.raw_breakdown)
    assert got.breakdown == want.breakdown
    assert list(got.breakdown) == list(want.breakdown)
    assert got.power_mw == want.power_mw
    assert got.cycles.dtype == want.cycles.dtype
    assert np.array_equal(got.cycles, want.cycles)
    assert got.total_cycles == want.total_cycles
    assert got.time_ns == want.time_ns
    assert got.output_mismatches == want.output_mismatches
    assert list(got.outputs) == list(want.outputs)
    for name, values in want.outputs.items():
        assert got.outputs[name].dtype == values.dtype
        assert np.array_equal(got.outputs[name], values)
    assert got.mems == want.mems
    assert got.state_seq == want.state_seq


def both(arch, stimulus, **kwargs):
    """Run both simulators; returns (flat result, reference result)."""
    return (simulate_architecture(arch, stimulus, **kwargs),
            gatesim_reference.simulate_architecture(arch, stimulus, **kwargs))


def same_error(arch, stimulus, **kwargs) -> str:
    """Both simulators raise the same ArchitectureError; its message."""
    with pytest.raises(ArchitectureError) as got:
        simulate_architecture(arch, stimulus, **kwargs)
    with pytest.raises(ArchitectureError) as want:
        gatesim_reference.simulate_architecture(arch, stimulus, **kwargs)
    assert str(got.value) == str(want.value)
    return str(got.value)


@pytest.fixture(scope="module")
def registry_designs():
    """Per registry benchmark: stimulus, store, initial and L=2 power arch."""
    designs = {}
    for name in BENCHMARKS:
        engine = engine_for_benchmark(name, n_passes=12, seed=3)
        power = engine.run(mode="power", laxity=2.0, search=SEARCH)
        designs[name] = (engine.stimulus, engine.store,
                         engine.initial.arch, power.design.arch)
    return designs


class TestRegistry:
    @pytest.mark.parametrize("record_states", [False, True])
    @pytest.mark.parametrize("design", ["initial", "power"])
    @pytest.mark.parametrize("bench_name", list(BENCHMARKS))
    def test_identical_results(self, registry_designs, bench_name, design,
                               record_states):
        stimulus, store, initial, power = registry_designs[bench_name]
        arch = initial if design == "initial" else power
        got, want = both(arch, stimulus, expected_outputs=store.outputs,
                         record_states=record_states)
        assert_same_result(got, want)
        assert got.output_mismatches == 0

    def test_other_supply_and_no_expected_outputs(self, registry_designs):
        stimulus, _store, _initial, power = registry_designs["histogram"]
        got, want = both(power, stimulus, vdd=3.3)
        assert_same_result(got, want)

    def test_no_passes(self, registry_designs):
        _stimulus, _store, initial, _power = registry_designs["gcd"]
        got, want = both(initial, [], record_states=True)
        assert_same_result(got, want)
        assert got.total_cycles == 0 and got.power_mw == 0.0


class TestGeneratedPrograms:
    @settings(max_examples=12, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           laxity=st.sampled_from([1.0, 2.0]))
    def test_identical_results(self, seed, laxity):
        program = generate_program(dataclasses.replace(
            GenConfig(), seed=seed, array_density=0.15))
        cdfg = parse(program.source)
        stimulus = program.stimulus(6, seed=0)
        engine = SynthesisEngine(cdfg, stimulus,
                                 options=ScheduleOptions(clock_ns=10.0))
        power = engine.run(mode="power", laxity=laxity, search=SearchConfig(
            max_depth=2, max_candidates=4, max_iterations=2, seed=0))
        for arch in (engine.initial.arch, power.design.arch):
            got, want = both(arch, stimulus,
                             expected_outputs=engine.store.outputs,
                             record_states=True)
            assert_same_result(got, want)


def _arch(cdfg, binding=None):
    binding = binding or Binding.initial_parallel(cdfg, default_library())
    return build_architecture(cdfg, binding, wavesched(cdfg, binding))


def test_one_input_op_holds_a_shared_units_second_port():
    """A `!` on a logic unit shared with `&` presents nothing on the
    unit's second port, which keeps the `&`'s operand (no toggles)."""
    cdfg = parse("""
process un(a: int8, b: int8, c: bool) -> (x: bool, y: int8) {
  var t: int8 = a & b;
  x = !c;
  y = t | a;
}
""")
    binding = Binding.initial_parallel(cdfg, default_library())
    unit = {kind: fu.id for fu in binding.fus.values()
            for kind in fu.kinds(cdfg)}
    binding.merge_fus(unit[OpKind.BAND], unit[OpKind.LNOT])
    arch = _arch(cdfg, binding)
    stimulus = [{"a": 37 * i % 200 - 100, "b": 53 * i % 200 - 100, "c": i % 2}
                for i in range(8)]
    store = simulate(cdfg, stimulus)
    got, want = both(arch, stimulus, expected_outputs=store.outputs)
    assert_same_result(got, want)
    assert got.output_mismatches == 0


class TestErrors:
    """Each of gatesim's run-time ArchitectureErrors, as the reference
    simulator raises it."""

    def test_chained_read_of_idle_unit(self, gcd_cdfg, monkeypatch):
        arch = _arch(gcd_cdfg)
        original = simulator.edge_source
        # Route the first operand of the first unit op to read its own
        # unit's chained output, which no earlier op in the state drove.
        victim = next(op.node for sid in sorted(arch.stg.states)
                      for op in arch.stg.states[sid].ops
                      if arch.binding.fu_of(op.node) is not None)
        fu_id = arch.binding.fu_of(victim).id

        def rerouted(arch_, edge, state_id):
            if edge.dst == victim:
                return ("fu", fu_id)
            return original(arch_, edge, state_id)

        monkeypatch.setattr(simulator, "edge_source", rerouted)
        monkeypatch.setattr(gatesim_reference, "edge_source", rerouted)
        message = same_error(arch, [{"a": 12, "b": 18}])
        assert message == f"chained read of idle FU {fu_id}"

    def test_conflicting_register_writes(self):
        cdfg = parse("""
process two(a: int8, b: int8) -> (x: int8, y: int8) {
  x = a + b;
  y = a - b;
}
""")
        arch = _arch(cdfg)
        start = arch.stg.states[arch.stg.start]
        writers = [cdfg.node(op.node) for op in start.ops
                   if cdfg.node(op.node).carrier is not None]
        first, second = writers[0].carrier, writers[1].carrier
        # Share one register between two carriers written in one state.
        arch.binding.carrier_to_reg[second] = arch.binding.carrier_to_reg[first]
        message = same_error(arch, [{"a": 3, "b": 3}, {"a": 5, "b": 2}])
        assert "written twice with conflicting values" in message
        # Equal values are not a conflict: a = a + 0 = a - 0.
        got, want = both(arch, [{"a": 3, "b": 0}])
        assert_same_result(got, want)

    def test_state_matching_no_transition(self, gcd_cdfg):
        arch = _arch(gcd_cdfg)
        branching = next(sid for sid in sorted(arch.stg.states)
                         if len(arch.stg.out_transitions(sid)) > 1)
        # Drop every transition that leaves on a false condition.
        arch.stg.out_transitions(branching)[:] = [
            t for t in arch.stg.out_transitions(branching)
            if all(want for _cond, want in t.conds)]
        # gcd's first loop test is false only when a == b.
        message = same_error(arch, [{"a": 12, "b": 18}, {"a": 7, "b": 7}])
        assert message == f"gatesim: state {branching} matched 0 transitions"

    def test_state_matching_two_transitions(self, gcd_cdfg):
        arch = _arch(gcd_cdfg)
        transition = arch.stg.out_transitions(arch.stg.start)[0]
        arch.stg.add_transition(transition.src, transition.dst, transition.conds)
        message = same_error(arch, [{"a": 12, "b": 18}])
        assert message == f"gatesim: state {arch.stg.start} matched 2 transitions"

    def test_pass_over_the_cycle_cap(self, gcd_cdfg, monkeypatch):
        arch = _arch(gcd_cdfg)
        monkeypatch.setattr(simulator, "MAX_CYCLES_PER_PASS", 40)
        monkeypatch.setattr(gatesim_reference, "MAX_CYCLES_PER_PASS", 40)
        # gcd(1, 60) loops 59 times; gcd(12, 18) fits under the cap.
        stimulus = [{"a": 12, "b": 18}, {"a": 1, "b": 60}]
        message = same_error(arch, stimulus)
        assert message == "gatesim: pass 1 exceeded 40 cycles"
        store = simulate(gcd_cdfg, stimulus[:1])
        got, want = both(arch, stimulus[:1], expected_outputs=store.outputs)
        assert_same_result(got, want)
