"""Scheduling engine tests: structure, constraints, Wavesched features."""

import numpy as np
import pytest

from repro.lang import parse
from repro.cdfg.interpreter import simulate
from repro.cdfg.node import OpKind
from repro.core.binding import Binding
from repro.library import default_library
from repro.sched import (
    ScheduleOptions,
    loop_directed_schedule,
    path_based_schedule,
    replay,
    schedule,
    wavesched,
)


def _pipeline(source, passes, scheduler=wavesched, **sched_kwargs):
    cdfg = parse(source)
    binding = Binding.initial_parallel(cdfg, default_library())
    store = simulate(cdfg, passes)
    stg = scheduler(cdfg, binding, **sched_kwargs)
    rep = replay(stg, cdfg, store)
    return cdfg, binding, stg, rep


class TestBasicStructure:
    def test_single_state_for_one_add(self, simple_cdfg):
        binding = Binding.initial_parallel(simple_cdfg, default_library())
        stg = wavesched(simple_cdfg, binding)
        assert stg.n_states == 1

    def test_every_op_scheduled_at_least_once(self, gcd_cdfg):
        binding = Binding.initial_parallel(gcd_cdfg, default_library())
        stg = wavesched(gcd_cdfg, binding)
        scheduled = {op.node for s in stg.states.values() for op in s.ops}
        expected = {n.id for n in gcd_cdfg.op_nodes()}
        assert expected <= scheduled

    def test_stg_validates(self, loops_cdfg):
        binding = Binding.initial_parallel(loops_cdfg, default_library())
        for scheduler in (wavesched, loop_directed_schedule, path_based_schedule):
            scheduler(loops_cdfg, binding).validate()

    def test_data_dependencies_within_state_are_chained(self, gcd_cdfg):
        binding = Binding.initial_parallel(gcd_cdfg, default_library())
        stg = wavesched(gcd_cdfg, binding)
        for state in stg.states.values():
            ends = {op.node: op.end for op in state.ops}
            starts = {op.node: op.start for op in state.ops}
            for op in state.ops:
                for edge in gcd_cdfg.in_edges(op.node):
                    if edge.carried:
                        continue
                    if edge.src in ends:
                        assert starts[op.node] >= ends[edge.src] - 1e-9


class TestResourceConstraints:
    def test_shared_fu_never_double_booked(self, gcd_cdfg):
        from repro.cdfg.analysis import mutually_exclusive

        lib = default_library()
        binding = Binding.initial_parallel(gcd_cdfg, lib)
        subs = [f.id for f in binding.fus.values()
                if f.kinds(gcd_cdfg) == {OpKind.SUB}]
        binding.merge_fus(subs[0], subs[1])
        stg = wavesched(gcd_cdfg, binding)
        for state in stg.states.values():
            by_fu: dict[int, list[int]] = {}
            for op in state.ops:
                if op.fu is not None:
                    by_fu.setdefault(op.fu, []).append(op.node)
            for nodes in by_fu.values():
                for i, a in enumerate(nodes):
                    for b in nodes[i + 1:]:
                        assert mutually_exclusive(gcd_cdfg, a, b)

    def test_sharing_still_verifies(self, gcd_cdfg):
        lib = default_library()
        binding = Binding.initial_parallel(gcd_cdfg, lib)
        subs = [f.id for f in binding.fus.values()
                if f.kinds(gcd_cdfg) == {OpKind.SUB}]
        binding.merge_fus(subs[0], subs[1])
        store = simulate(gcd_cdfg, [{"a": 12, "b": 18}, {"a": 9, "b": 6}])
        stg = wavesched(gcd_cdfg, binding)
        rep = replay(stg, cdfg=gcd_cdfg, store=store)
        assert rep.enc > 0

    def test_multicycle_state_for_slow_multiplier(self):
        source = """
        process p(a: int8, b: int8) -> (z: int16) { z = a * b; }
        """
        cdfg = parse(source)
        lib = default_library()
        binding = Binding.initial_parallel(cdfg, lib)
        mul_fu = next(f for f in binding.fus.values())
        binding.substitute_module(mul_fu.id, lib.get("mul_array"))
        stg = schedule(cdfg, binding, ScheduleOptions(clock_ns=15.0))
        durations = [s.duration for s in stg.states.values() if s.ops]
        assert max(durations) >= 2  # 28 ns array multiplier needs 2 cycles


class TestWaveschedFeatures:
    LOOP_PAIR = """
    process p(d: int8) -> (z: int16) {
      var s1: int16 = 0;
      var s2: int16 = 0;
      for (i = 0; i < 10; i++) { s1 = s1 + d; }
      for (j = 0; j < 8; j++) { s2 = s2 + 2; }
      z = s1 + s2;
    }
    """

    def test_concurrent_loops_beat_sequential(self):
        passes = [{"d": 3}, {"d": -5}]
        _c, _b, _s, rep_wave = _pipeline(self.LOOP_PAIR, passes, wavesched)
        _c, _b, _s, rep_path = _pipeline(self.LOOP_PAIR, passes, path_based_schedule)
        # Fused loops run 10+8 iterations in max(10,8) kernel visits.
        assert rep_wave.enc < rep_path.enc * 0.75

    def test_loop_hoisting_beats_separate_test_states(self):
        source = """
        process p(n: int8) -> (z: int16) {
          var z: int16 = 0;
          for (i = 0; i < n; i++) { z = z + i; }
        }
        """
        passes = [{"n": 10}, {"n": 5}]
        _c, _b, _s, rep_ld = _pipeline(source, passes, loop_directed_schedule)
        _c, _b, _s, rep_pb = _pipeline(source, passes, path_based_schedule)
        assert rep_ld.enc < rep_pb.enc

    def test_fused_outputs_still_correct(self):
        cdfg = parse(self.LOOP_PAIR)
        store = simulate(cdfg, [{"d": 3}])
        assert list(store.outputs["z"]) == [3 * 10 + 2 * 8]

    def test_branch_parallel_packs_outside_ops(self, branch_cdfg):
        # With branch_parallel, an op independent of the branch may share
        # the arm states; ENC must never exceed the non-parallel variant.
        source = """
        process p(a: int8, b: int8, c: bool) -> (z: int16, w: int16) {
          if (c == 1) { z = a + b; } else { z = a - b; }
          w = a * 3;
        }
        """
        passes = [{"a": 5, "b": 2, "c": 1}, {"a": 5, "b": 2, "c": 0}]
        _c, _b, _s, rep_wave = _pipeline(source, passes, wavesched)
        _c, _b, _s, rep_pb = _pipeline(source, passes, path_based_schedule)
        assert rep_wave.enc <= rep_pb.enc

    def test_enc_ordering_on_benchmarks(self, loops_cdfg):
        from repro.sim.stimulus import random_stimulus

        binding = Binding.initial_parallel(loops_cdfg, default_library())
        stim = random_stimulus(loops_cdfg, 30, seed=5,
                               ranges={"a": (0, 3), "b": (0, 3), "d": (0, 15)})
        store = simulate(loops_cdfg, stim)
        encs = {}
        for name, fn in (("wave", wavesched), ("ld", loop_directed_schedule),
                         ("pb", path_based_schedule)):
            encs[name] = replay(fn(loops_cdfg, binding), loops_cdfg, store).enc
        assert encs["wave"] <= encs["ld"] <= encs["pb"]


class TestReplayConsistency:
    def test_replay_counts_match_behavior(self, gcd_cdfg):
        binding = Binding.initial_parallel(gcd_cdfg, default_library())
        store = simulate(gcd_cdfg, [{"a": 48, "b": 36}, {"a": 7, "b": 21}])
        stg = wavesched(gcd_cdfg, binding)
        rep = replay(stg, gcd_cdfg, store)  # raises on mismatch
        assert rep.cycles.shape == (2,)

    def test_analytic_enc_close_to_empirical_for_branches(self, branch_cdfg):
        binding = Binding.initial_parallel(branch_cdfg, default_library())
        passes = [{"a": 1, "b": 1, "c": i % 2} for i in range(10)]
        store = simulate(branch_cdfg, passes)
        stg = wavesched(branch_cdfg, binding)
        rep = replay(stg, branch_cdfg, store)
        probs = {c: branch_probability(store, c) for c in stg_conditions(stg)}
        assert stg.enc_analytic(probs) == pytest.approx(rep.enc, rel=0.01)

    def test_state_timestamps_align_with_occurrences(self, gcd_cdfg):
        binding = Binding.initial_parallel(gcd_cdfg, default_library())
        store = simulate(gcd_cdfg, [{"a": 12, "b": 18}])
        stg = wavesched(gcd_cdfg, binding)
        rep = replay(stg, gcd_cdfg, store)
        for node_id, cycles in rep.op_cycle.items():
            assert len(cycles) == store.count(node_id)


def stg_conditions(stg):
    return {c for t in stg.transitions for c, _v in t.conds}


def branch_probability(store, cond_node: int) -> float:
    """Fraction of a condition node's evaluations that were true."""
    array = store.occurrences.get(cond_node)
    if array is None or len(array) == 0:
        return 0.0
    return float(np.count_nonzero(array.out)) / float(len(array))
