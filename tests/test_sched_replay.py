"""Replay unit tests: stream consumption, timing arrays, error paths."""

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.cdfg.interpreter import simulate
from repro.core.binding import Binding
from repro.core.profile import PROFILER
from repro.library import default_library
from repro.sched import replay, wavesched
from repro.sched.stg import ScheduledOp


class TestReplayArrays:
    def test_all_timing_arrays_aligned(self, gcd_cdfg):
        binding = Binding.initial_parallel(gcd_cdfg, default_library())
        store = simulate(gcd_cdfg, [{"a": 12, "b": 18}, {"a": 7, "b": 3}])
        stg = wavesched(gcd_cdfg, binding)
        rep = replay(stg, gcd_cdfg, store)
        for node_id, occ in store.occurrences.items():
            assert len(rep.op_cycle[node_id]) == len(occ)
            assert len(rep.op_start[node_id]) == len(occ)
            assert len(rep.op_state[node_id]) == len(occ)

    def test_cycles_monotone_per_node(self, gcd_cdfg):
        binding = Binding.initial_parallel(gcd_cdfg, default_library())
        store = simulate(gcd_cdfg, [{"a": 12, "b": 18}])
        stg = wavesched(gcd_cdfg, binding)
        rep = replay(stg, gcd_cdfg, store)
        for cycles in rep.op_cycle.values():
            if cycles.size >= 2:
                assert (np.diff(cycles) >= 0).all()

    def test_state_visits_sum_to_total_cycles_with_durations(self, gcd_cdfg):
        binding = Binding.initial_parallel(gcd_cdfg, default_library())
        store = simulate(gcd_cdfg, [{"a": 12, "b": 18}])
        stg = wavesched(gcd_cdfg, binding)
        rep = replay(stg, gcd_cdfg, store)
        total = sum(visits * stg.states[sid].duration
                    for sid, visits in rep.state_visits.items())
        assert total == rep.total_cycles

    def test_enc_statistics(self, gcd_cdfg):
        binding = Binding.initial_parallel(gcd_cdfg, default_library())
        passes = [{"a": 12, "b": 18}, {"a": 9, "b": 6}, {"a": 60, "b": 1}]
        store = simulate(gcd_cdfg, passes)
        stg = wavesched(gcd_cdfg, binding)
        rep = replay(stg, gcd_cdfg, store)
        assert rep.enc <= rep.max_cycles
        assert rep.cycles.shape == (3,)


class TestReplayErrors:
    def test_overactive_stg_detected(self, simple_cdfg):
        """An STG that executes an op more often than the behavior did."""
        binding = Binding.initial_parallel(simple_cdfg, default_library())
        store = simulate(simple_cdfg, [{"a": 1, "b": 2}])
        stg = wavesched(simple_cdfg, binding)
        add_op = stg.states[stg.start].ops[0]
        # Duplicate the op into a second state on the path.
        for state in stg.states.values():
            if state.id not in (stg.start, stg.done):
                state.ops.append(ScheduledOp(add_op.node, add_op.fu, 0.0, 1.0))
        # If there is no intermediate state, append to start twice instead.
        if all(s.id in (stg.start, stg.done) for s in stg.states.values()):
            stg.states[stg.start].ops.append(
                ScheduledOp(add_op.node, add_op.fu, 0.0, 1.0))
        with pytest.raises(ScheduleError):
            replay(stg, simple_cdfg, store)

    def test_overactive_stg_detected_on_a_recorded_walk(self, gcd_cdfg):
        """Over-activity in a non-condition op leaves the walk's path
        signature unchanged, so the recorded walk serves the replay; the
        consumption check must still fail it."""
        binding = Binding.initial_parallel(gcd_cdfg, default_library())
        store = simulate(gcd_cdfg, [{"a": 12, "b": 18}, {"a": 7, "b": 3}])
        replay(wavesched(gcd_cdfg, binding), gcd_cdfg, store)
        walks = list(store._walk_cache)
        stg = wavesched(gcd_cdfg, binding)
        conds = stg.condition_inputs()
        extra = next(op for state in stg.states.values() for op in state.ops
                     if op.node not in conds)
        stg.states[stg.start].ops.append(
            ScheduledOp(extra.node, extra.fu, 0.0, 1.0))
        window = PROFILER.snapshot()
        with pytest.raises(ScheduleError, match="more often than the behavior"):
            replay(stg, gcd_cdfg, store)
        assert PROFILER.window(window)["replay"]["incremental"] == 1
        assert list(store._walk_cache) == walks

    def test_underactive_stg_detected(self, simple_cdfg):
        """An STG that never executes a recorded op fails the check."""
        binding = Binding.initial_parallel(simple_cdfg, default_library())
        store = simulate(simple_cdfg, [{"a": 1, "b": 2}])
        stg = wavesched(simple_cdfg, binding)
        stg.states[stg.start].ops.clear()
        with pytest.raises(ScheduleError):
            replay(stg, simple_cdfg, store)


class TestStateSequences:
    """Per-pass state traces and duration recosting (the conformance
    harness compares these against gatesim and the HDL netlist)."""

    def test_state_seq_consistent_with_cycles(self, gcd_cdfg):
        binding = Binding.initial_parallel(gcd_cdfg, default_library())
        store = simulate(gcd_cdfg, [{"a": 12, "b": 18}, {"a": 9, "b": 6}])
        stg = wavesched(gcd_cdfg, binding)
        rep = replay(stg, gcd_cdfg, store)
        assert len(rep.state_seq) == 2
        for seq, cycles in zip(rep.state_seq, rep.cycles):
            assert seq[0] == stg.start
            assert stg.done not in seq
            assert sum(stg.states[s].duration for s in seq) == int(cycles)

    def test_cycles_under_identity_matches_replay(self, gcd_cdfg):
        binding = Binding.initial_parallel(gcd_cdfg, default_library())
        store = simulate(gcd_cdfg, [{"a": 12, "b": 18}, {"a": 7, "b": 3}])
        stg = wavesched(gcd_cdfg, binding)
        rep = replay(stg, gcd_cdfg, store)
        identity = {sid: s.duration for sid, s in stg.states.items()}
        assert list(rep.cycles_under(identity)) == list(rep.cycles)

    def test_cycles_under_recosts_durations(self, gcd_cdfg):
        binding = Binding.initial_parallel(gcd_cdfg, default_library())
        store = simulate(gcd_cdfg, [{"a": 12, "b": 18}])
        stg = wavesched(gcd_cdfg, binding)
        rep = replay(stg, gcd_cdfg, store)
        doubled = {sid: 2 * s.duration for sid, s in stg.states.items()}
        assert list(rep.cycles_under(doubled)) == [2 * int(c) for c in rep.cycles]
