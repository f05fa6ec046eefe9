"""STG model tests: validation, analytic ENC, durations."""

import pytest

from repro.errors import ScheduleError
from repro.sched.stg import STG, ScheduledOp, State, Transition


def _linear_stg(n_states: int) -> STG:
    stg = STG()
    states = [stg.new_state() for _ in range(n_states + 1)]
    stg.start = states[0].id
    stg.done = states[-1].id
    for a, b in zip(states, states[1:]):
        stg.add_transition(a.id, b.id)
    return stg


def _branch_stg(p_cond_node: int = 99) -> STG:
    """start --(c)--> then/else --> join --> done."""
    stg = STG()
    start = stg.new_state()
    then_s = stg.new_state()
    else_s = stg.new_state()
    join = stg.new_state()
    done = stg.new_state()
    stg.start, stg.done = start.id, done.id
    stg.add_transition(start.id, then_s.id, frozenset({(p_cond_node, True)}))
    stg.add_transition(start.id, else_s.id, frozenset({(p_cond_node, False)}))
    stg.add_transition(then_s.id, join.id)
    stg.add_transition(else_s.id, join.id)
    stg.add_transition(join.id, done.id)
    return stg


def _loop_stg(cond_node: int = 42) -> STG:
    """start -> test --(c)--> body -> test; test --(!c)--> done."""
    stg = STG()
    start = stg.new_state()
    body = stg.new_state()
    done = stg.new_state()
    stg.start, stg.done = start.id, done.id
    stg.add_transition(start.id, body.id, frozenset({(cond_node, True)}))
    stg.add_transition(start.id, done.id, frozenset({(cond_node, False)}))
    stg.add_transition(body.id, body.id, frozenset({(cond_node, True)}))
    stg.add_transition(body.id, done.id, frozenset({(cond_node, False)}))
    return stg


class TestValidation:
    def test_linear_validates(self):
        _linear_stg(3).validate()

    def test_branch_validates(self):
        _branch_stg().validate()

    def test_missing_transition_rejected(self):
        stg = _linear_stg(2)
        # Remove a transition by rebuilding without one.
        broken = STG()
        a = broken.new_state()
        b = broken.new_state()
        broken.start, broken.done = a.id, b.id
        with pytest.raises(ScheduleError):
            broken.validate()

    def test_ambiguous_transitions_rejected(self):
        stg = STG()
        a = stg.new_state()
        b = stg.new_state()
        stg.start, stg.done = a.id, b.id
        stg.add_transition(a.id, b.id)
        stg.add_transition(a.id, b.id)  # duplicate unconditional
        with pytest.raises(ScheduleError):
            stg.validate()

    def test_unreachable_state_rejected(self):
        stg = _linear_stg(2)
        stg.new_state()  # orphan
        with pytest.raises(ScheduleError):
            stg.validate()

    def test_unknown_state_in_transition(self):
        stg = STG()
        a = stg.new_state()
        with pytest.raises(ScheduleError):
            stg.add_transition(a.id, 12345)


class TestAnalyticEnc:
    def test_linear_chain(self):
        assert _linear_stg(4).enc_analytic({}) == pytest.approx(4.0)

    def test_branch_is_three_cycles_either_way(self):
        stg = _branch_stg()
        for p in (0.1, 0.5, 0.9):
            assert stg.enc_analytic({99: p}) == pytest.approx(3.0)

    def test_geometric_loop(self):
        # P(continue) = p: ENC = 1 (test) + p/(1-p) body visits... solved
        # exactly by the absorbing chain; check against closed form.
        stg = _loop_stg(42)
        p = 0.75
        # E = 1 + p*(E_body) where body loops with prob p each visit:
        # expected body visits = p/(1-p); each costs 1 cycle.
        expected = 1.0 + p / (1.0 - p)
        assert stg.enc_analytic({42: p}) == pytest.approx(expected)

    def test_never_exiting_loop_raises(self):
        stg = _loop_stg(42)
        with pytest.raises(ScheduleError):
            stg.enc_analytic({42: 1.0})

    def test_duration_weighting(self):
        stg = _linear_stg(2)
        first = stg.states[stg.start]
        first.duration = 3
        assert stg.enc_analytic({}) == pytest.approx(4.0)


class TestGraphMetrics:
    def test_states_of_node(self):
        stg = _linear_stg(2)
        stg.states[stg.start].ops.append(ScheduledOp(7, None, 0.0, 1.0))
        assert stg.states_of_node(7) == [stg.start]

    def test_worst_state_delay(self):
        stg = _linear_stg(1)
        stg.states[stg.start].ops.append(ScheduledOp(1, 0, 0.0, 9.5))
        assert stg.worst_state_delay() == pytest.approx(9.5)


class TestTransitionHelpers:
    """Deterministic transition ordering and condition-input extraction
    (consumed by the Verilog backend's next-state logic)."""

    def test_ordered_transitions_specific_guards_first(self):
        stg = STG()
        a, b, c, d = (stg.new_state() for _ in range(4))
        stg.start, stg.done = a.id, d.id
        stg.add_transition(a.id, b.id, frozenset({(1, True)}))
        stg.add_transition(a.id, c.id, frozenset({(1, False), (2, True)}))
        stg.add_transition(a.id, d.id, frozenset({(1, False), (2, False)}))
        ordered = stg.ordered_transitions(a.id)
        assert [len(t.conds) for t in ordered] == [2, 2, 1]
        # Deterministic: same STG, same order, every call.
        assert stg.ordered_transitions(a.id) == ordered

    def test_condition_inputs(self):
        stg = STG()
        a, b = stg.new_state(), stg.new_state()
        stg.start, stg.done = a.id, b.id
        stg.add_transition(a.id, b.id, frozenset({(5, True)}))
        stg.add_transition(a.id, a.id, frozenset({(5, False)}))
        assert stg.condition_inputs() == {5}

    def test_condition_inputs_empty_for_unconditional(self):
        stg = STG()
        a, b = stg.new_state(), stg.new_state()
        stg.start, stg.done = a.id, b.id
        stg.add_transition(a.id, b.id)
        assert stg.condition_inputs() == set()
