"""Trace-manipulation tests, including the paper's Section 2.3 example."""

import numpy as np
import pytest

from repro.benchmarks import get_benchmark
from repro.lang import parse
from repro.cdfg.interpreter import simulate
from repro.cdfg.node import OpKind
from repro.core.binding import Binding
from repro.core.cache import SynthesisCache
from repro.core.engine import SynthesisEngine
from repro.core.moves import RestructureMux, SubstituteModule, generate_moves
from repro.library import default_library
from repro.power.trace_manip import merge_unit_traces
from repro.rtl import build_architecture
from repro.sched import replay, wavesched
from repro.sched.engine import ScheduleOptions
from repro.experiments.trace_example import (
    EXAMPLE_PASSES,
    TRACE_EXAMPLE_SOURCE,
    trace_worked_example,
)


class TestWorkedExample:
    """The shared adder's merged trace under e8 = [T, T, F, T]."""

    def test_condition_sequence(self):
        cdfg = parse(TRACE_EXAMPLE_SOURCE)
        store = simulate(cdfg, EXAMPLE_PASSES)
        cond = next(n.id for n in cdfg.nodes.values() if n.kind is OpKind.LT)
        assert list(store.occ(cond).out) == [1, 1, 0, 1]

    def test_merged_op_interleaving(self):
        result = trace_worked_example()
        # Per pass: the base add (+1) then the selected branch add.
        # Paper table: (+1,+3), (+1,+3), (+1,+2), (+1,+3) -- our builder
        # numbers the then-arm add +2 and the else-arm add +3.
        assert result.op_sequence == ["+1", "+2", "+1", "+2", "+1", "+3", "+1", "+2"]

    def test_merged_values_match_behavior(self):
        result = trace_worked_example()
        # Pass 1: t = 3+4 = 7, then-arm: 7+8 = 15.
        assert result.rows[0] == (3, 4, 7)
        assert result.rows[1] == (7, 8, 15)
        # Pass 3 (condition false): 1 + t = 1 + 14 = 15.
        assert result.rows[5] == (1, 14, 15)

    def test_trace_length_is_two_per_pass(self):
        result = trace_worked_example()
        assert len(result.rows) == 2 * len(EXAMPLE_PASSES)


class TestMergeMechanics:
    def _design(self, cdfg, binding, passes):
        store = simulate(cdfg, passes)
        stg = wavesched(cdfg, binding)
        rep = replay(stg, cdfg, store)
        arch = build_architecture(cdfg, binding, stg)
        return arch, store, rep

    def test_fu_stream_lengths_match_occurrences(self, gcd_cdfg):
        binding = Binding.initial_parallel(gcd_cdfg, default_library())
        arch, store, rep = self._design(gcd_cdfg, binding,
                                        [{"a": 12, "b": 18}, {"a": 9, "b": 3}])
        traces = merge_unit_traces(arch, store, rep)
        for fu in binding.fus.values():
            stream = traces.fu_streams[fu.id]
            assert stream.executions == sum(store.count(op) for op in fu.ops)

    def test_merged_stream_ordered_by_time(self, gcd_cdfg):
        lib = default_library()
        binding = Binding.initial_parallel(gcd_cdfg, lib)
        subs = [f.id for f in binding.fus.values()
                if f.kinds(gcd_cdfg) == {OpKind.SUB}]
        binding.merge_fus(subs[0], subs[1])
        arch, store, rep = self._design(gcd_cdfg, binding, [{"a": 35, "b": 14}])
        traces = merge_unit_traces(arch, store, rep)
        stream = traces.fu_streams[subs[0]]
        ops = sorted(binding.fus[subs[0]].ops)
        cycles = np.sort(np.concatenate([rep.op_cycle[op] for op in ops]))
        # Stream is ordered by execution time.
        assert stream.executions == cycles.size

    def test_register_stream_is_write_sequence(self, gcd_cdfg):
        binding = Binding.initial_parallel(gcd_cdfg, default_library())
        arch, store, rep = self._design(gcd_cdfg, binding, [{"a": 12, "b": 18}])
        traces = merge_unit_traces(arch, store, rep)
        x_reg = binding.reg_of("x").id
        stream = traces.reg_streams[("reg", x_reg)]
        # x: input load 12, then subtract results ending at gcd = 6.
        assert stream.values[0] == 12
        assert stream.values[-1] == 6

    def test_port_probabilities_sum_to_one(self, gcd_cdfg):
        binding = Binding.initial_parallel(gcd_cdfg, default_library())
        arch, store, rep = self._design(
            gcd_cdfg, binding, [{"a": 12, "b": 18}, {"a": 7, "b": 21}])
        traces = merge_unit_traces(arch, store, rep)
        for key, stats in traces.port_stats.items():
            if traces.port_samples[key] == 0:
                continue
            total = sum(p for _s, _a, p in stats)
            assert total == pytest.approx(1.0)

    def test_const_sources_have_zero_activity(self, gcd_cdfg):
        binding = Binding.initial_parallel(gcd_cdfg, default_library())
        arch, store, rep = self._design(gcd_cdfg, binding, [{"a": 12, "b": 18}])
        traces = merge_unit_traces(arch, store, rep)
        for stats in traces.port_stats.values():
            for source, activity, _p in stats:
                if source[0] == "const":
                    assert activity == 0.0

    def test_no_resimulation_needed_for_binding_change(self, gcd_cdfg):
        """The core Section 2.3 property: merging reuses the one recorded
        simulation -- the trace store is not touched by binding changes."""
        lib = default_library()
        store = simulate(gcd_cdfg, [{"a": 12, "b": 18}])
        total_before = total_occurrences(store)

        parallel = Binding.initial_parallel(gcd_cdfg, lib)
        stg = wavesched(gcd_cdfg, parallel)
        rep = replay(stg, gcd_cdfg, store)

        shared = parallel.clone()
        subs = [f.id for f in shared.fus.values()
                if f.kinds(gcd_cdfg) == {OpKind.SUB}]
        shared.merge_fus(subs[0], subs[1])
        arch = build_architecture(gcd_cdfg, shared, stg)
        merge_unit_traces(arch, store, rep)
        assert total_occurrences(store) == total_before


def total_occurrences(store) -> int:
    """Occurrences recorded over every node of a trace store."""
    return sum(len(a) for a in store.occurrences.values())


@pytest.mark.parametrize("caching", [True, False],
                         ids=["cache-on", "cache-off"])
def test_derived_point_shares_unchanged_streams(caching):
    """A point derived without rescheduling holds its parent's streams.

    Module substitutions that keep the schedule and mux restructurings
    change nothing a unit's merge reads, so the derived point's merge
    hands back the parent's stream objects, the substituted unit's too.
    A from-scratch merge (``incremental=False``) of the same points gives
    equal arrays and an equal power estimate.
    """
    bench = get_benchmark("dealer")
    cdfg = bench.cdfg()
    stimulus = bench.stimulus(8, seed=3)
    options = ScheduleOptions(clock_ns=bench.clock_ns)
    inc_engine = SynthesisEngine(cdfg, stimulus, options=options,
                                 cache=SynthesisCache(enabled=caching))
    full_engine = SynthesisEngine(cdfg, stimulus, options=options,
                                  cache=SynthesisCache(enabled=caching),
                                  incremental=False, store=inc_engine.store)
    inc, full = inc_engine.initial, full_engine.initial
    moves = [m for m in generate_moves(inc)
             if isinstance(m, (SubstituteModule, RestructureMux))]
    kinds = set()
    for move in moves:
        derived = move.apply(inc)
        if derived.stg is not inc.stg:
            continue  # a slower module that rescheduled
        kinds.add(type(move))
        parent, traces = inc.traces, derived.traces
        assert traces.fu_streams.keys() == parent.fu_streams.keys()
        for fu_id, stream in traces.fu_streams.items():
            assert stream is parent.fu_streams[fu_id], (move, fu_id)

        reference = move.apply(full)
        assert not reference.incremental
        ref_streams = reference.traces.fu_streams
        assert ref_streams.keys() == traces.fu_streams.keys()
        for fu_id, stream in traces.fu_streams.items():
            other = ref_streams[fu_id]
            assert stream.stat_key == other.stat_key
            assert stream.chained_fraction == other.chained_fraction
            for got, want in zip((*stream.ins, stream.out),
                                 (*other.ins, other.out), strict=True):
                assert np.array_equal(got, want)
        assert (derived.evaluate().estimate.total
                == reference.evaluate().estimate.total), move
    assert kinds == {SubstituteModule, RestructureMux}
