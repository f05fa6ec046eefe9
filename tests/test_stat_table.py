"""The trace store's statistics table and the bulk per-state op counts.

Every activity statistic the estimator reads is served from one table per
trace store, keyed by stream content.  These tests check that distinct
merge orders get distinct entries and equal content shares one, and hold
the bulk ``op_state_count`` table against per-node counting.  That every
served value equals a recomputation on the design's own arrays is
checked on every registry benchmark by
``tests/test_power_estimator.py::TestFidelity``, on the designs it
already searches.
"""

import dataclasses

import numpy as np
import pytest

from repro.cdfg.interpreter import simulate
from repro.cdfg.node import OpKind
from repro.core.binding import Binding
from repro.explore import engine_for_benchmark
from repro.library import default_library
from repro.power import merge_unit_traces
from repro.rtl import build_architecture
from repro.sched import replay, wavesched
from repro.sim.statistics import stream_activity


def _shared_sub_design(gcd_cdfg, passes):
    binding = Binding.initial_parallel(gcd_cdfg, default_library())
    subs = [f.id for f in binding.fus.values()
            if f.kinds(gcd_cdfg) == {OpKind.SUB}]
    binding.merge_fus(subs[0], subs[1])
    store = simulate(gcd_cdfg, passes)
    stg = wavesched(gcd_cdfg, binding)
    rep = replay(stg, gcd_cdfg, store)
    arch = build_architecture(gcd_cdfg, binding, stg)
    return arch, store, rep, subs[0]


def test_merge_orders_get_distinct_entries(gcd_cdfg):
    """One op set merged in two orders: two keys, each serving its own
    stream's statistics."""
    arch, store, rep, fu_id = _shared_sub_design(
        gcd_cdfg, [{"a": 12, "b": 18}, {"a": 35, "b": 14}, {"a": 9, "b": 27}])
    first, second = sorted(arch.binding.fus[fu_id].ops)
    # Push every execution of the second op after all of the first's:
    # same op set and width, a different interleaving.
    late = dataclasses.replace(
        rep, op_cycle={**rep.op_cycle,
                       second: rep.op_cycle[second] + rep.total_cycles})
    a = merge_unit_traces(arch, store, rep)
    b = merge_unit_traces(arch, store, late)
    stream_a, stream_b = a.fu_streams[fu_id], b.fu_streams[fu_id]
    assert not np.array_equal(stream_a.out, stream_b.out)
    assert stream_a.stat_key[:3] == stream_b.stat_key[:3]
    assert stream_a.stat_key != stream_b.stat_key
    for traces, stream in ((a, stream_a), (b, stream_b)):
        assert traces.fu_activity(fu_id) == tuple(
            stream_activity(col, stream.width)
            for col in (*stream.ins, stream.out))
    assert store._stat_table[stream_a.stat_key] != \
        store._stat_table[stream_b.stat_key]


def test_equal_content_shares_one_entry(gcd_cdfg):
    """Re-merging the same design in a fresh merge reuses the entry."""
    passes = [{"a": 12, "b": 18}, {"a": 35, "b": 14}]
    arch, store, rep, fu_id = _shared_sub_design(gcd_cdfg, passes)
    a = merge_unit_traces(arch, store, rep)
    activity = a.fu_activity(fu_id)
    b = merge_unit_traces(arch, store, rep)
    assert b.fu_streams[fu_id] is not a.fu_streams[fu_id]
    assert b.fu_streams[fu_id].stat_key == a.fu_streams[fu_id].stat_key
    assert b.fu_activity(fu_id) is activity


def _per_node_counts(rep, node_id):
    states = rep.op_state.get(node_id)
    if states is None:
        return {}
    ids, counts = np.unique(states, return_counts=True)
    return {int(i): int(c) for i, c in zip(ids, counts)}


def _assert_counts_like_per_node(rep, node_id):
    """Every state, plus ids just outside the visited range (which must
    not alias another node's entry in the flat table), counts as a
    per-node ``np.unique`` does."""
    expected = _per_node_counts(rep, node_id)
    highest = max(int(seq.max()) for seq in rep.state_seq if seq.size)
    for state_id in range(-1, highest + 3):
        assert rep.op_state_count(node_id, state_id) == \
            expected.get(state_id, 0), (node_id, state_id)


@pytest.mark.parametrize("bench_name", ["gcd", "dealer", "histogram"])
def test_bulk_state_counts_equal_per_node_counts(bench_name):
    engine = engine_for_benchmark(bench_name, n_passes=10)
    cdfg, rep = engine.cdfg, engine.initial.rep
    for node_id in cdfg.nodes:
        _assert_counts_like_per_node(rep, node_id)


def test_bulk_state_counts_cover_inputs_and_idle_nodes(branch_cdfg):
    """Input nodes and an arm that never executes count like per node."""
    cdfg = branch_cdfg
    store = simulate(cdfg, [{"a": 3, "b": 4, "c": 1}, {"a": 5, "b": 1, "c": 1}])
    binding = Binding.initial_parallel(cdfg, default_library())
    rep = replay(wavesched(cdfg, binding), cdfg, store)
    idle = [n for n in cdfg.nodes if n not in store.occurrences]
    assert any(cdfg.node(n).kind is OpKind.SUB for n in idle)
    assert cdfg.input_nodes
    for node_id in [*cdfg.input_nodes, *idle, *cdfg.nodes]:
        _assert_counts_like_per_node(rep, node_id)
    start = int(rep.state_seq[0][0])
    for node_id in cdfg.input_nodes:
        assert _per_node_counts(rep, node_id) == {start: 2}
        assert rep.op_state_count(node_id, start) == 2
