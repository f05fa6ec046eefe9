"""STG replay against recorded behavioral traces.

Replay walks the STG once per stimulus pass, consuming each node's
occurrence stream in order and steering transitions with the recorded
condition values.  It produces:

* the exact cycle count of every pass (the empirical ENC numerator);
* a global timestamp (cycle, in-state start time) for every operation
  occurrence — the ordering information trace manipulation (Section 2.3)
  needs to merge per-unit traces without re-simulation.

Replay also *verifies* the schedule: it asserts that every occurrence
stream is consumed exactly — i.e. the STG executes every operation
exactly as often as the behavior did, on every profiled path — and
raises :class:`~repro.errors.ScheduleError` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ScheduleError
from repro.cdfg.graph import CDFG
from repro.cdfg.node import OpKind
from repro.sched.stg import STG
from repro.sim.traces import TraceStore

#: Safety cap on cycles per pass during replay.
MAX_CYCLES_PER_PASS = 1_000_000


@dataclass
class ReplayResult:
    """Timing of every operation occurrence under one STG."""

    cycles: np.ndarray                       # per-pass cycle counts
    op_cycle: dict[int, np.ndarray]          # node -> global cycle per occurrence
    op_start: dict[int, np.ndarray]          # node -> in-state start (ns)
    op_state: dict[int, np.ndarray]          # node -> executing state id
    total_cycles: int
    state_visits: dict[int, int] = field(default_factory=dict)
    #: Per-pass sequence of visited state ids (excluding the done state).
    state_seq: list[np.ndarray] = field(default_factory=list)
    #: Every node's per-state occurrence counts, built on the first
    #: :meth:`op_state_count` call: ``(span, {node * span + state:
    #: count})``, ``span`` being one past the highest executing state.
    _state_counts: tuple[int, dict[int, int]] | None = field(
        default=None, init=False, repr=False)

    def op_state_count(self, node_id: int, state_id: int) -> int:
        """How often a node executed in a state.

        The first call counts every node at once, with one ``np.unique``
        over all emitted (node, state) pairs of the replay, into one flat
        table; it is then shared by every port and every design point
        that replays this schedule.  Replays nobody asks (conformance)
        never pay for it.  A node that never executed, or is not in the
        store, counts 0 in every state.
        """
        if self._state_counts is None:
            self._state_counts = self._count_states()
        span, table = self._state_counts
        if not 0 <= state_id < span:
            return 0
        return table.get(node_id * span + state_id, 0)

    def _count_states(self) -> tuple[int, dict[int, int]]:
        columns = [a for a in self.op_state.values() if a.size]
        if not columns:
            return 0, {}
        nodes = np.array([n for n, a in self.op_state.items() if a.size],
                         dtype=np.int64)
        states = np.concatenate(columns).astype(np.int64)
        span = int(states.max()) + 1
        pairs = np.repeat(nodes, [a.size for a in columns]) * span + states
        keys, counts = np.unique(pairs, return_counts=True)
        return span, dict(zip(keys.tolist(), counts.tolist()))

    @property
    def enc(self) -> float:
        """Empirical expected number of cycles per pass."""
        return float(self.cycles.mean()) if self.cycles.size else 0.0

    @property
    def max_cycles(self) -> int:
        return int(self.cycles.max()) if self.cycles.size else 0

    @property
    def min_cycles(self) -> int:
        return int(self.cycles.min()) if self.cycles.size else 0

    def cycles_under(self, durations: dict[int, int]) -> np.ndarray:
        """Per-pass cycle counts under a *different* duration assignment.

        The replayed path through the STG is schedule-determined; only the
        per-state cycle budget changes when the architecture normalizes
        durations to real critical paths.  This recosts every pass under
        ``durations`` (e.g. ``Architecture.duration_map()``) so replay
        cycle counts are comparable with gatesim and the Verilog netlist,
        which both run normalized durations.
        """
        lut = np.zeros(max(durations) + 1, dtype=np.int64)
        for sid, duration in durations.items():
            lut[sid] = duration
        return np.array([int(lut[seq].sum()) for seq in self.state_seq],
                        dtype=np.int64)


def replay(stg: STG, cdfg: CDFG, store: TraceStore) -> ReplayResult:
    """Execute the STG over every profiled pass (see module docstring)."""
    from repro.core.profile import PROFILER

    with PROFILER.stage("replay") as token:
        return _replay_impl(stg, cdfg, store, token)


def _replay_impl(stg: STG, cdfg: CDFG, store: TraceStore,
                 token) -> ReplayResult:
    """Full replay, in two phases.

    The state path of a pass depends only on the recorded *condition*
    values, so the walk consumes just the condition streams (plus the
    per-pass input sync).  Every other per-occurrence array — the bulk of
    the work — is then reconstructed from the visit sequence with
    vectorized numpy lookups: a node's k-th occurrence is the k-th visit
    of any state that schedules it, at that visit's cycle base, with the
    node's in-state start.  Consumption errors are detected against the
    reconstruction at the same (pass, state) the sequential walk would
    have raised them.

    The walk itself is memoized on the store: the visit sequence is a
    function of (condition placement per state, transition structure,
    recorded condition values) alone — state *durations* only shift the
    cycle bases.  STGs that differ merely in durations or in the
    non-condition ops they schedule (the common case across binding
    moves over one benchmark) share one recorded walk; only the
    duration-dependent guard against runaway passes is re-checked.  A
    replay served by a recorded walk marks the profiler ``token``
    incremental.
    """
    cond_nodes = stg.condition_inputs()
    states = stg.states
    done = stg.done
    start_state = stg.start
    state_conds = {sid: [op.node for op in state.ops if op.node in cond_nodes]
                   for sid, state in stg.states.items()}

    # Duration-independent path signature (see docstring).  Transition
    # lists keep their ``out_transitions`` order: first-match precedence
    # is part of the walk's semantics.
    sig = (id(cdfg), start_state, done, tuple(sorted(
        (sid, tuple(sorted(state_conds[sid])),
         tuple((t.conds, t.dst) for t in stg.out_transitions(sid)))
        for sid in states)))
    walk_cache = store._walk_cache
    cached_walk = walk_cache.get(sig)
    token.incremental = cached_walk is not None

    max_state = max(states)
    dur_tab: list[int] = [0] * (max_state + 1)
    for sid, state in states.items():
        dur_tab[sid] = state.duration
    dur_lut = np.array(dur_tab, dtype=np.int64)

    if cached_walk is not None:
        # The first same-signature walk validated stream consumption and
        # transition steering; both are store-determined, so only the
        # duration-dependent runaway guard needs re-checking.
        visit_state, pass_bounds = cached_walk
        visit_dur = dur_lut[visit_state]
        cycles_per_pass = []
        for p in range(store.n_passes):
            c = int(visit_dur[pass_bounds[p]:pass_bounds[p + 1]].sum())
            if c > MAX_CYCLES_PER_PASS:
                raise ScheduleError(
                    f"replay exceeded {MAX_CYCLES_PER_PASS} cycles "
                    f"(pass {p}) — STG does not terminate")
            cycles_per_pass.append(c)
    else:
        # Per-state tables indexed by state id: condition nodes to
        # consume and the transition dispatch — a bare ``int``
        # destination for the dominant single-unconditional case, else
        # the guarded ``[(conds, dst), ...]`` list.
        conds_tab: list[list[int]] = [[]] * (max_state + 1)
        trans_tab: list = [None] * (max_state + 1)
        for sid in states:
            conds_tab[sid] = state_conds[sid]
            ts = stg.out_transitions(sid)
            if len(ts) == 1 and not ts[0].conds:
                trans_tab[sid] = ts[0].dst
            else:
                trans_tab[sid] = [(t.conds, t.dst) for t in ts]

        occ_lists = {n: (occ.pass_idx.tolist(), occ.out.tolist(), len(occ))
                     for n, occ in store.occurrences.items()
                     if n in cond_nodes or n in cdfg.input_nodes}
        pointers: dict[int, int] = {n: 0 for n in occ_lists}
        last_val: dict[int, int] = {}
        for node in cdfg.nodes.values():
            if node.kind is OpKind.CONST:
                last_val[node.id] = node.value

        all_states: list[int] = []
        pass_bounds_l: list[int] = [0]
        cycles_per_pass = []

        for pass_idx in range(store.n_passes):
            for node_id in cdfg.input_nodes:
                entry = occ_lists.get(node_id)
                if entry is None:
                    continue
                occ_pass, occ_out, n_occ = entry
                ptr = pointers[node_id]
                if ptr >= n_occ or occ_pass[ptr] != pass_idx:
                    raise ScheduleError(
                        f"input {cdfg.node(node_id).name}: occurrence stream "
                        f"out of sync at pass {pass_idx}")
                last_val[node_id] = occ_out[ptr]
                pointers[node_id] = ptr + 1

            state_id = start_state
            cycles = 0
            append_state = all_states.append
            while True:
                cycles += dur_tab[state_id]
                if cycles > MAX_CYCLES_PER_PASS:
                    raise ScheduleError(
                        f"replay exceeded {MAX_CYCLES_PER_PASS} cycles "
                        f"(pass {pass_idx}) — STG does not terminate")
                append_state(state_id)
                for node_id in conds_tab[state_id]:
                    entry = occ_lists.get(node_id)
                    ptr = pointers.get(node_id, 0)
                    if entry is None or ptr >= entry[2] or entry[0][ptr] != pass_idx:
                        raise ScheduleError(
                            f"node {cdfg.node(node_id).name}: STG executes it "
                            f"more often than the behavior did (pass "
                            f"{pass_idx}, state {state_id})")
                    last_val[node_id] = entry[1][ptr]
                    pointers[node_id] = ptr + 1

                tr = trans_tab[state_id]
                if type(tr) is int:
                    next_id = tr
                else:
                    match = None
                    multi = False
                    for conds, dst in tr:
                        ok = True
                        for cond, want in conds:
                            if cond not in last_val:
                                raise ScheduleError(
                                    f"transition uses condition node {cond} "
                                    f"with no value yet")
                            if bool(last_val[cond]) != want:
                                ok = False
                                break
                        if ok:
                            if match is None:
                                match = dst
                            else:
                                multi = True
                                break
                    if match is None or multi:
                        transitions = stg.out_transitions(state_id)
                        matching = [t for t in transitions
                                    if _matches(t, last_val)]
                        raise ScheduleError(
                            f"state {state_id}: {len(matching)} transitions "
                            f"match at pass {pass_idx} (conditions "
                            f"{[sorted(t.conds) for t in transitions]})")
                    next_id = match
                state_id = next_id
                if state_id == done:
                    break
            cycles_per_pass.append(cycles)
            pass_bounds_l.append(len(all_states))

        visit_state = np.array(all_states, dtype=np.int32)
        pass_bounds = np.array(pass_bounds_l, dtype=np.int64)
        visit_dur = dur_lut[visit_state]
        walk_cache[sig] = (visit_state, pass_bounds)

    # Global visit cycles follow from the durations alone: passes are
    # contiguous, so the exclusive prefix sum over every visit's duration
    # reproduces the sequential global-cycle counter exactly.
    visit_cycle = np.concatenate(
        ([0], np.cumsum(visit_dur)))[:-1] if visit_state.size else \
        np.zeros(0, dtype=np.int64)
    visit_pass = np.repeat(np.arange(store.n_passes, dtype=np.int32),
                           np.diff(pass_bounds))
    pass_start_cycles = [int(visit_cycle[pass_bounds[p]])
                         for p in range(store.n_passes)]
    global_cycle = int(visit_dur.sum())
    state_seq = [visit_state[pass_bounds[p]:pass_bounds[p + 1]]
                 for p in range(store.n_passes)]
    ids, counts = np.unique(visit_state, return_counts=True)
    state_visits = {int(i): int(c) for i, c in zip(ids, counts)}

    # -- phase 2: reconstruct per-occurrence arrays from the visit path.
    # Flatten every state's scheduled ops in chaining order; the visit
    # sequence then *emits* ops as (visit, slot) pairs, and one stable
    # sort by node groups each node's occurrences in visit order — the
    # exact stream the sequential walk would have consumed, duplicates
    # (over-active STGs) included.
    max_sid = max(states) if states else 0
    ops_count = np.zeros(max_sid + 1, dtype=np.int64)
    ops_offset = np.zeros(max_sid + 1, dtype=np.int64)
    flat_nodes_l: list[int] = []
    flat_starts_l: list[float] = []
    scheduled: set[int] = set()
    off = 0
    for sid, state in states.items():
        ops = sorted(state.ops, key=lambda op: (op.start, op.node))
        ops_offset[sid] = off
        ops_count[sid] = len(ops)
        off += len(ops)
        for op in ops:
            flat_nodes_l.append(op.node)
            flat_starts_l.append(op.start)
            scheduled.add(op.node)
    flat_nodes = np.array(flat_nodes_l, dtype=np.int64)
    flat_starts = np.array(flat_starts_l, dtype=np.float64)

    emit_counts = ops_count[visit_state]
    total = int(emit_counts.sum())
    rep_idx = np.repeat(np.arange(visit_state.size), emit_counts)
    within = np.arange(total) - np.repeat(
        np.cumsum(emit_counts) - emit_counts, emit_counts)
    slot = ops_offset[visit_state[rep_idx]] + within
    order = np.argsort(flat_nodes[slot], kind="stable")
    em_visit = rep_idx[order]
    em_node = flat_nodes[slot][order]
    em_cycle = visit_cycle[em_visit]
    em_start = flat_starts[slot[order]]
    em_state = visit_state[em_visit].astype(np.int32, copy=False)
    em_pass = visit_pass[em_visit]
    group_nodes = em_node[np.concatenate(
        ([0], np.flatnonzero(np.diff(em_node)) + 1))] if total else \
        np.zeros(0, dtype=np.int64)
    group_bounds = np.searchsorted(em_node, group_nodes)

    empty_c = np.array([], dtype=np.int64)
    empty_s = np.array([], dtype=np.float64)
    empty_t = np.array([], dtype=np.int32)
    op_cycle = {n: empty_c for n in store.occurrences}
    op_start = {n: empty_s for n in store.occurrences}
    op_state = {n: empty_t for n in store.occurrences}

    input_set = set(cdfg.input_nodes)
    n_passes = store.n_passes
    in_cycle = np.array(pass_start_cycles, dtype=np.int64)
    in_start = np.zeros(n_passes, dtype=np.float64)
    in_state = np.full(n_passes, start_state, dtype=np.int32)
    for n in store.occurrences:
        if n in input_set:
            op_cycle[n] = in_cycle
            op_start[n] = in_start
            op_state[n] = in_state

    for g, n in enumerate(group_nodes.tolist()):
        lo = int(group_bounds[g])
        hi = int(group_bounds[g + 1]) if g + 1 < group_nodes.size else total
        occ = store.occurrences.get(n)
        recon_pass = em_pass[lo:hi]
        size = hi - lo
        if occ is None:
            k = 0
        else:
            shared = min(size, len(occ))
            bad = np.flatnonzero(recon_pass[:shared] != occ.pass_idx[:shared])
            k = int(bad[0]) if bad.size else (
                shared if size > len(occ) else None)
        if k is not None:
            raise ScheduleError(
                f"node {cdfg.node(n).name}: STG executes it more often than "
                f"the behavior did (pass {int(recon_pass[k])}, "
                f"state {int(em_state[lo + k])})")
        op_cycle[n] = em_cycle[lo:hi]
        op_start[n] = em_start[lo:hi]
        op_state[n] = em_state[lo:hi]

    for node_id in store.occurrences:
        node = cdfg.node(node_id)
        if not node.is_schedulable:
            continue
        consumed = len(op_cycle[node_id]) if node_id in scheduled else 0
        expected = store.count(node_id)
        if consumed != expected:
            raise ScheduleError(
                f"node {node.name}: STG executed it {consumed} times but "
                f"the behavior executed it {expected} times")

    return ReplayResult(
        cycles=np.array(cycles_per_pass, dtype=np.int64),
        op_cycle=op_cycle,
        op_start=op_start,
        op_state=op_state,
        total_cycles=global_cycle,
        state_visits=state_visits,
        state_seq=state_seq,
    )


def _matches(transition, last_val: dict[int, int]) -> bool:
    for cond, want in transition.conds:
        if cond not in last_val:
            raise ScheduleError(f"transition uses condition node {cond} with no value yet")
        if bool(last_val[cond]) != want:
            return False
    return True
