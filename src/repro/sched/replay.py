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
from repro.cdfg.analysis import schedulable_nodes
from repro.cdfg.graph import CDFG
from repro.cdfg.node import OpKind
from repro.sched.stg import STG, _complementary
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
    #: Every visited state id (excluding the done state), pass after pass.
    visit_state: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int32), repr=False)
    #: Pass ``p`` visits ``visit_state[pass_bounds[p]:pass_bounds[p + 1]]``.
    pass_bounds: np.ndarray = field(
        default_factory=lambda: np.zeros(1, dtype=np.int64), repr=False)
    _state_seq: list[np.ndarray] | None = field(
        default=None, init=False, repr=False)
    #: Every node's per-state occurrence counts, built on the first
    #: :meth:`op_state_count` call: ``(span, {node * span + state:
    #: count})``, ``span`` being one past the highest executing state.
    _state_counts: tuple[int, dict[int, int]] | None = field(
        default=None, init=False, repr=False)

    @property
    def state_seq(self) -> list[np.ndarray]:
        """Per-pass sequence of visited state ids (excluding the done state).

        Sliced from :attr:`visit_state` on first use: only conformance
        and coverage read it.
        """
        if self._state_seq is None:
            visits, bounds = self.visit_state, self.pass_bounds
            self._state_seq = [visits[bounds[p]:bounds[p + 1]]
                               for p in range(len(bounds) - 1)]
        return self._state_seq

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
        return _pass_sums(lut[self.visit_state], self.pass_bounds)


def _pass_sums(visit_values: np.ndarray, pass_bounds: np.ndarray) -> np.ndarray:
    """Per-pass sums of a per-visit int64 column (exact: integer sums)."""
    total = np.zeros(visit_values.size + 1, dtype=np.int64)
    np.cumsum(visit_values, out=total[1:])
    return total[pass_bounds[1:]] - total[pass_bounds[:-1]]


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
    start_state = stg.start
    state_conds = {sid: [op.node for op in state.ops if op.node in cond_nodes]
                   for sid, state in states.items()}

    # Duration-independent path signature (see docstring).  Transition
    # lists keep their ``out_transitions`` order: first-match precedence
    # is part of the walk's semantics.
    sig = (id(cdfg), start_state, stg.done, tuple(sorted(
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
    if cached_walk is None:
        cached_walk = walk_cache[sig] = _walk(stg, cdfg, store, state_conds,
                                              dur_tab)
    visit_state, pass_bounds = cached_walk

    # Global visit cycles follow from the durations alone: passes are
    # contiguous, so the exclusive prefix sum over every visit's duration
    # reproduces the sequential global-cycle counter exactly.  A recorded
    # walk validated stream consumption and steering, both
    # store-determined; only the duration-dependent runaway guard is
    # re-checked here.
    visit_dur = np.array(dur_tab, dtype=np.int64)[visit_state]
    cumulative = np.zeros(visit_state.size + 1, dtype=np.int64)
    np.cumsum(visit_dur, out=cumulative[1:])
    cycles = cumulative[pass_bounds[1:]] - cumulative[pass_bounds[:-1]]
    runaway = np.flatnonzero(cycles > MAX_CYCLES_PER_PASS)
    if runaway.size:
        raise ScheduleError(
            f"replay exceeded {MAX_CYCLES_PER_PASS} cycles "
            f"(pass {int(runaway[0])}) — STG does not terminate")
    visit_cycle = cumulative[:-1]
    n_passes = store.n_passes
    visit_pass = np.repeat(np.arange(n_passes, dtype=np.int32),
                           np.diff(pass_bounds))
    counts = np.bincount(visit_state)
    visited = np.flatnonzero(counts)
    state_visits = dict(zip(visited.tolist(), counts[visited].tolist()))

    # -- phase 2: reconstruct per-occurrence arrays from the visit path.
    # Flatten every state's scheduled ops in chaining order; the visit
    # sequence then *emits* ops as (visit, slot) pairs, and one stable
    # sort by node groups each node's occurrences in visit order — the
    # exact stream the sequential walk would have consumed, duplicates
    # (over-active STGs) included.
    count_tab = [0] * (max_state + 1)
    offset_tab = [0] * (max_state + 1)
    flat_nodes_l: list[int] = []
    flat_starts_l: list[float] = []
    for sid, state in states.items():
        offset_tab[sid] = len(flat_nodes_l)
        count_tab[sid] = len(state.ops)
        for start, node in sorted([(op.start, op.node) for op in state.ops]):
            flat_nodes_l.append(node)
            flat_starts_l.append(start)
    scheduled = set(flat_nodes_l)
    ops_count = np.array(count_tab, dtype=np.int64)
    ops_offset = np.array(offset_tab, dtype=np.int64)
    # Node ids that fit 16 bits sort by radix, ten times faster.
    flat_nodes = np.array(flat_nodes_l, dtype=np.int16 if max(
        flat_nodes_l, default=0) < 1 << 15 else np.int64)
    flat_starts = np.array(flat_starts_l, dtype=np.float64)

    emit_counts = ops_count[visit_state]
    total = int(emit_counts.sum())
    rep_idx = np.repeat(np.arange(visit_state.size), emit_counts)
    within = np.arange(total) - np.repeat(
        np.cumsum(emit_counts) - emit_counts, emit_counts)
    slot = ops_offset[visit_state[rep_idx]] + within
    emitted = flat_nodes[slot]
    order = np.argsort(emitted, kind="stable")
    em_visit = rep_idx[order]
    em_node = emitted[order]
    em_cycle = visit_cycle[em_visit]
    em_start = flat_starts[slot[order]]
    em_state = visit_state[em_visit].astype(np.int32, copy=False)
    em_pass = visit_pass[em_visit]
    group_starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(em_node)) + 1)) if total else \
        np.zeros(0, dtype=np.int64)
    group_nodes = em_node[group_starts].tolist()
    group_bounds = group_starts.tolist() + [total]

    occurrences = store.occurrences
    empty_c = np.array([], dtype=np.int64)
    empty_s = np.array([], dtype=np.float64)
    empty_t = np.array([], dtype=np.int32)
    op_cycle = dict.fromkeys(occurrences, empty_c)
    op_start = dict.fromkeys(occurrences, empty_s)
    op_state = dict.fromkeys(occurrences, empty_t)

    in_cycle = visit_cycle[pass_bounds[:-1]]
    in_start = np.zeros(n_passes, dtype=np.float64)
    in_state = np.full(n_passes, start_state, dtype=np.int32)
    for n in cdfg.input_nodes:
        if n in occurrences:
            op_cycle[n] = in_cycle
            op_start[n] = in_start
            op_state[n] = in_state

    # Consumption check: every emitting node's stream must be exactly its
    # recorded one, pass by pass.  One compare against the recorded
    # streams, concatenated in node order, settles the common case; on a
    # mismatch the per-node scan names the first faulty occurrence.
    streams = [occurrences.get(n) for n in group_nodes]
    streams_match = all(occ is not None and occ.out.shape[0] == hi - lo
                        for occ, lo, hi in zip(streams, group_bounds,
                                               group_bounds[1:])) \
        and (not total or np.array_equal(
            em_pass, np.concatenate([occ.pass_idx for occ in streams])))
    for g, n in enumerate(group_nodes):
        lo = group_bounds[g]
        hi = group_bounds[g + 1]
        if not streams_match:
            _check_stream(cdfg, n, occurrences.get(n), em_pass[lo:hi],
                          em_state[lo:hi])
        op_cycle[n] = em_cycle[lo:hi]
        op_start[n] = em_start[lo:hi]
        op_state[n] = em_state[lo:hi]

    schedulable = schedulable_nodes(cdfg)
    for node_id, occ in occurrences.items():
        if node_id not in schedulable:
            continue
        consumed = op_cycle[node_id].size if node_id in scheduled else 0
        expected = occ.out.shape[0]
        if consumed != expected:
            raise ScheduleError(
                f"node {cdfg.node(node_id).name}: STG executed it {consumed} "
                f"times but the behavior executed it {expected} times")

    return ReplayResult(
        cycles=cycles,
        op_cycle=op_cycle,
        op_start=op_start,
        op_state=op_state,
        total_cycles=int(cumulative[-1]),
        state_visits=state_visits,
        visit_state=visit_state,
        pass_bounds=pass_bounds,
    )


def _check_stream(cdfg: CDFG, node_id: int, occ, recon_pass: np.ndarray,
                  recon_state: np.ndarray) -> None:
    """Raise unless a node's reconstructed passes prefix its recorded ones.

    Names the first occurrence the sequential walk would have failed on:
    one the behavior never executed, or executed in another pass.  A
    stream shorter than the record passes here; the count check after it
    reports the shortfall.
    """
    size = recon_pass.size
    if occ is None:
        k = 0
    else:
        shared = min(size, len(occ))
        bad = np.flatnonzero(recon_pass[:shared] != occ.pass_idx[:shared])
        k = int(bad[0]) if bad.size else (shared if size > len(occ) else None)
    if k is not None:
        raise ScheduleError(
            f"node {cdfg.node(node_id).name}: STG executes it more often than "
            f"the behavior did (pass {int(recon_pass[k])}, "
            f"state {int(recon_state[k])})")


def _walk(stg: STG, cdfg: CDFG, store: TraceStore,
          state_conds: dict[int, list[int]],
          dur_tab: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Walk the STG over every pass; ``(visit states, pass bounds)``.

    Consumes the condition streams (and syncs the inputs) state by state
    and raises where the walk runs off the recorded behavior: a stream
    consumed past its pass, a guard with no value yet, no or several
    matching transitions, or a pass that does not terminate.
    """
    states = stg.states
    done = stg.done
    max_state = len(dur_tab) - 1
    # Per-state tables indexed by state id: condition nodes to consume
    # and the transition dispatch — a bare ``int`` destination for the
    # dominant single-unconditional case, ``(cond, dst if true, dst if
    # false)`` for a plain two-way branch, else the guarded ``[(conds,
    # dst), ...]`` list.
    conds_tab: list[list] = [[]] * (max_state + 1)
    trans_tab: list = [None] * (max_state + 1)
    for sid in states:
        conds_tab[sid] = state_conds[sid]
        ts = stg.out_transitions(sid)
        if len(ts) == 1 and not ts[0].conds:
            trans_tab[sid] = ts[0].dst
        elif len(ts) == 2 and _complementary(ts[0].conds, ts[1].conds):
            (cond, want), = ts[0].conds
            trans_tab[sid] = (cond, ts[0].dst, ts[1].dst) if want else \
                (cond, ts[1].dst, ts[0].dst)
        else:
            trans_tab[sid] = [(t.conds, t.dst) for t in ts]

    # Each consumed stream as an iterator of (pass, value) occurrences.
    cond_nodes = stg.condition_inputs()
    streams = {n: iter(zip(occ.pass_idx.tolist(), occ.out.tolist()))
               for n, occ in store.occurrences.items()
               if n in cond_nodes or n in cdfg.input_nodes}
    input_streams = [(n, streams[n]) for n in cdfg.input_nodes if n in streams]
    for sid in states:
        conds_tab[sid] = [(n, streams.get(n)) for n in conds_tab[sid]]
    last_val: dict[int, int] = {}
    for node in cdfg.nodes.values():
        if node.kind is OpKind.CONST:
            last_val[node.id] = node.value

    all_states: list[int] = []
    pass_bounds: list[int] = [0]
    append_state = all_states.append
    for pass_idx in range(store.n_passes):
        for node_id, stream in input_streams:
            occ = next(stream, None)
            if occ is None or occ[0] != pass_idx:
                raise ScheduleError(
                    f"input {cdfg.node(node_id).name}: occurrence stream "
                    f"out of sync at pass {pass_idx}")
            last_val[node_id] = occ[1]

        state_id = stg.start
        cycles = 0
        while True:
            cycles += dur_tab[state_id]
            if cycles > MAX_CYCLES_PER_PASS:
                raise ScheduleError(
                    f"replay exceeded {MAX_CYCLES_PER_PASS} cycles "
                    f"(pass {pass_idx}) — STG does not terminate")
            append_state(state_id)
            for node_id, stream in conds_tab[state_id]:
                occ = next(stream, None) if stream is not None else None
                if occ is None or occ[0] != pass_idx:
                    raise ScheduleError(
                        f"node {cdfg.node(node_id).name}: STG executes it "
                        f"more often than the behavior did (pass "
                        f"{pass_idx}, state {state_id})")
                last_val[node_id] = occ[1]

            tr = trans_tab[state_id]
            if type(tr) is int:
                state_id = tr
            elif type(tr) is tuple:
                value = last_val.get(tr[0], _NO_VALUE)
                if value is _NO_VALUE:
                    raise ScheduleError(
                        f"transition uses condition node {tr[0]} "
                        f"with no value yet")
                state_id = tr[1] if value else tr[2]
            else:
                state_id = _match(stg, state_id, tr, last_val, pass_idx)
            if state_id == done:
                break
        pass_bounds.append(len(all_states))

    return (np.array(all_states, dtype=np.int32),
            np.array(pass_bounds, dtype=np.int64))


#: Marks a condition with no recorded value yet.
_NO_VALUE = object()


def _match(stg: STG, state_id: int, guarded: list, last_val: dict[int, int],
           pass_idx: int) -> int:
    """The one destination of ``guarded`` whose guard holds; raises
    unless exactly one does."""
    match = None
    multi = False
    for conds, dst in guarded:
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
        matching = [t for t in transitions if _matches(t, last_val)]
        raise ScheduleError(
            f"state {state_id}: {len(matching)} transitions "
            f"match at pass {pass_idx} (conditions "
            f"{[sorted(t.conds) for t in transitions]})")
    return match


def _matches(transition, last_val: dict[int, int]) -> bool:
    for cond, want in transition.conds:
        if cond not in last_val:
            raise ScheduleError(f"transition uses condition node {cond} with no value yet")
        if bool(last_val[cond]) != want:
            return False
    return True
