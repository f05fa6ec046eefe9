"""The state transition graph (STG) and its analyses.

An STG state executes a set of scheduled operations in one clock cycle;
transitions are guarded by condition-node values (empty guard =
unconditional).  ENC — the expected number of cycles per pass, the paper's
performance metric [9] — is computed two ways:

* *analytically*: the STG plus profiled branch probabilities form an
  absorbing Markov chain; ENC is the expected absorption time (a linear
  solve with numpy); exact when condition outcomes are independent across
  states;
* *empirically*: by replaying the STG against recorded condition traces
  (:mod:`repro.sched.replay`), which is exact for the profiled stimulus and
  is what drives synthesis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ScheduleError


@dataclass
class ScheduledOp:
    """One operation instance inside a state, with its chaining window."""

    node: int
    fu: int | None
    start: float
    end: float


@dataclass
class State:
    """One STG state.

    ``duration`` is the number of clock cycles the state occupies — the
    paper's worked example has combinational paths longer than the clock
    period ("... > 15 ns and hence require two cycles"), so states whose
    critical path exceeds the clock are multi-cycled by the controller.
    """

    id: int
    ops: list[ScheduledOp] = field(default_factory=list)
    duration: int = 1

    def node_ids(self) -> list[int]:
        return [op.node for op in self.ops]

    def critical_delay(self) -> float:
        return max((op.end for op in self.ops), default=0.0)

    def slack_ratio(self, clock_ns: float) -> float:
        """window / critical path — the Vdd-scaling headroom of this state."""
        delay = self.critical_delay()
        if delay <= 0.0:
            return float("inf")
        return (self.duration * clock_ns) / delay


@dataclass(frozen=True)
class Transition:
    src: int
    dst: int
    conds: frozenset[tuple[int, bool]] = frozenset()

    def matches(self, values: dict[int, bool]) -> bool:
        return all(values.get(cond) == want for cond, want in self.conds)


class STG:
    """States + guarded transitions, with a start state and a done state."""

    def __init__(self) -> None:
        self.states: dict[int, State] = {}
        self.transitions: list[Transition] = []
        self._out: dict[int, list[Transition]] = {}
        self.start: int = -1
        self.done: int = -1
        self._next_id = 0
        self._state_nodes: dict[int, frozenset[int]] = {}

    # -- construction -----------------------------------------------------------

    def new_state(self) -> State:
        state = State(id=self._next_id)
        self._next_id += 1
        self.states[state.id] = state
        return state

    def add_transition(self, src: int, dst: int,
                       conds: frozenset[tuple[int, bool]] = frozenset()) -> Transition:
        if src not in self.states or dst not in self.states:
            raise ScheduleError(f"transition {src}->{dst} references unknown state")
        transition = Transition(src, dst, conds)
        self.transitions.append(transition)
        self._out.setdefault(src, []).append(transition)
        return transition

    def out_transitions(self, state_id: int) -> list[Transition]:
        return self._out.get(state_id, [])

    def ordered_transitions(self, state_id: int) -> list[Transition]:
        """Outgoing transitions in a deterministic priority order.

        Most-specific guards first (more condition terms), ties broken by
        the sorted condition terms and destination.  Because
        :meth:`validate` guarantees exactly one transition matches any
        condition assignment, evaluating these in order with a final
        else-branch realizes the STG exactly — this is the order the
        Verilog backend emits next-state logic in.
        """
        return sorted(self.out_transitions(state_id),
                      key=lambda t: (-len(t.conds), sorted(t.conds), t.dst))

    def condition_inputs(self) -> set[int]:
        """All condition nodes steering any transition (controller inputs)."""
        return {c for t in self.transitions for c, _ in t.conds}

    def __len__(self) -> int:
        return len(self.states)

    @property
    def n_states(self) -> int:
        """Number of real (non-done) states."""
        return len(self.states) - (1 if self.done in self.states else 0)

    def ops_in_state(self, state_id: int) -> list[ScheduledOp]:
        return self.states[state_id].ops

    def state_nodes(self, state_id: int) -> frozenset[int]:
        """Set of node ids scheduled in a state, memoized.

        Safe to memoize for the same reason as :meth:`signature`.
        """
        nodes = self._state_nodes.get(state_id)
        if nodes is None:
            nodes = frozenset(self.states[state_id].node_ids())
            self._state_nodes[state_id] = nodes
        return nodes

    def signature(self) -> tuple:
        """Content signature of the whole STG (hashable, memoized).

        Two STGs with equal signatures replay identically against the same
        trace store and wire identical architectures under the same
        binding; the replay and trace memo tables key on it.  Safe to
        memoize because an STG is never mutated once the scheduler returns
        it (per-design state durations live on the Architecture).
        """
        cached = getattr(self, "_signature", None)
        if cached is None:
            states = tuple(
                (sid, state.duration,
                 tuple((op.node, op.fu, op.start, op.end) for op in state.ops))
                for sid, state in sorted(self.states.items())
            )
            transitions = tuple(sorted(
                (t.src, t.dst, tuple(sorted(t.conds))) for t in self.transitions
            ))
            cached = (self.start, self.done, states, transitions)
            self._signature = cached
        return cached

    def replay_signature(self) -> tuple:
        """Signature of exactly what replay reads (hashable, memoized).

        Replay consumes state durations, each state's ops in chaining
        order (start, node), and the guarded transitions — never the unit
        assignment (``op.fu``) or the path ends — so schedules that differ
        only in those replay identically and share one result.
        """
        cached = getattr(self, "_replay_signature", None)
        if cached is None:
            states = tuple(
                (sid, state.duration,
                 tuple(sorted((op.start, op.node) for op in state.ops)))
                for sid, state in sorted(self.states.items())
            )
            transitions = tuple(sorted(
                (t.src, t.dst, tuple(sorted(t.conds))) for t in self.transitions
            ))
            cached = (self.start, self.done, states, transitions)
            self._replay_signature = cached
        return cached

    def states_of_node(self, node_id: int) -> list[int]:
        return [s.id for s in self.states.values() if node_id in s.node_ids()]

    # -- validation --------------------------------------------------------------

    def validate(self) -> None:
        """Check transition completeness/disjointness and reachability."""
        if self.start not in self.states or self.done not in self.states:
            raise ScheduleError("STG missing start or done state")
        for state_id in self.states:
            if state_id == self.done:
                continue
            outs = self.out_transitions(state_id)
            if not outs:
                raise ScheduleError(f"state {state_id} has no outgoing transition")
            cond_vars = sorted({c for t in outs for c, _ in t.conds})
            for values in itertools.product((False, True), repeat=len(cond_vars)):
                assignment = dict(zip(cond_vars, values))
                matching = [t for t in outs if t.matches(assignment)]
                if len(matching) != 1:
                    raise ScheduleError(
                        f"state {state_id}: {len(matching)} transitions match "
                        f"assignment {assignment} (need exactly 1)")
        reachable = self._reachable()
        unreachable = set(self.states) - reachable
        if unreachable:
            raise ScheduleError(f"unreachable states: {sorted(unreachable)}")

    def _reachable(self) -> set[int]:
        seen = {self.start}
        stack = [self.start]
        while stack:
            for transition in self.out_transitions(stack.pop()):
                if transition.dst not in seen:
                    seen.add(transition.dst)
                    stack.append(transition.dst)
        return seen

    # -- analyses -----------------------------------------------------------------

    def enc_analytic(self, branch_probs: dict[int, float]) -> float:
        """Expected cycles from start to done as an absorbing Markov chain.

        ``branch_probs`` maps condition node -> P(true).  Conditions absent
        from the map are treated as fair coins.  States' self-structure may
        be cyclic (loops); the expectation is the absorbing chain's
        fundamental-matrix row sum, solved as a linear system.
        """
        ids = [s for s in self.states if s != self.done]
        index = {s: i for i, s in enumerate(ids)}
        n = len(ids)
        q = np.zeros((n, n))
        durations = np.array([float(self.states[s].duration) for s in ids])
        for state_id in ids:
            for transition in self.out_transitions(state_id):
                prob = 1.0
                for cond, want in transition.conds:
                    p_true = branch_probs.get(cond, 0.5)
                    prob *= p_true if want else (1.0 - p_true)
                if transition.dst != self.done:
                    q[index[state_id], index[transition.dst]] += prob
        try:
            t = np.linalg.solve(np.eye(n) - q, durations)
        except np.linalg.LinAlgError as exc:
            raise ScheduleError(f"ENC system is singular (never-exiting loop?): {exc}")
        return float(t[index[self.start]])

    def worst_state_delay(self) -> float:
        """Longest combinational path over all states (ns, at 5 V)."""
        return max((s.critical_delay() for s in self.states.values()), default=0.0)

    def summary(self) -> dict[str, float]:
        return {
            "states": self.n_states,
            "transitions": len(self.transitions),
            "ops": sum(len(s.ops) for s in self.states.values()),
            "worst_delay_ns": round(self.worst_state_delay(), 3),
        }
