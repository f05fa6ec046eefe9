"""Incremental == full evaluation, bit for bit.

The delta-based evaluation layer (dirty sets -> shared ports/streams;
the power estimate is always recomputed in full) is only admissible
because it is *exactly* equivalent to recomputing everything: these
tests apply random legal move sequences to two registry benchmarks —
once through a design-point chain with incremental derivation enabled,
once with it disabled — and assert
the full :class:`~repro.core.design.Evaluation` bundle (including the
per-component power breakdown) is identical at every step, with the
pipeline cache both on and off, and that whole searches in both
optimization modes walk identical trajectories.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.benchmarks import get_benchmark
from repro.core.cache import SynthesisCache
from repro.core.engine import SynthesisEngine
from repro.core.moves import generate_moves
from repro.core.search import SearchConfig, design_cost
from repro.errors import ReproError
from repro.sched.engine import ScheduleOptions

BENCHMARKS = ("gcd", "loops")
N_PASSES = 8
MAX_MOVES = 10

_PAIRS: dict = {}


def get_pair(name: str, caching: bool):
    """(incremental initial, full initial) on shared CDFG and trace store."""
    key = (name, caching)
    if key not in _PAIRS:
        bench = get_benchmark(name)
        cdfg = bench.cdfg()
        stimulus = bench.stimulus(N_PASSES, seed=3)
        options = ScheduleOptions(clock_ns=bench.clock_ns)
        inc_engine = SynthesisEngine(cdfg, stimulus, options=options,
                                     cache=SynthesisCache(enabled=caching),
                                     incremental=True)
        full_engine = SynthesisEngine(cdfg, stimulus, options=options,
                                      cache=SynthesisCache(enabled=caching),
                                      incremental=False,
                                      store=inc_engine.store)
        _PAIRS[key] = (inc_engine.initial, full_engine.initial)
    return _PAIRS[key]


def bundle(design) -> tuple:
    """Everything the search could consume about a design point."""
    ev = design.evaluate()
    est = ev.estimate
    return (
        ev.enc, ev.legal, ev.area, ev.slack_ratio, ev.vdd,
        ev.power_5v, ev.power_scaled,
        est.fus, est.registers, est.muxes, est.controller,
        tuple(sorted(est.per_fu.items())),
        tuple(sorted(est.per_port.items())),
        design.arch.datapath.total_mux_count(),
        tuple(sorted(design.arch.duration_map().items())),
    )


def stg_digest(stg) -> tuple:
    """Full structural identity of an STG: ids, ops, order, transitions."""
    return (
        stg.start, stg.done,
        tuple((sid, state.duration,
               tuple((o.node, o.fu, o.start, o.end) for o in state.ops))
              for sid, state in sorted(stg.states.items())),
        tuple((t.src, t.dst, t.conds) for t in stg.transitions),
    )


def replay_digest(rep) -> tuple:
    """Bit-level identity of a replay: every occurrence of every op."""
    return (
        rep.total_cycles,
        tuple(rep.cycles.tolist()),
        tuple(sorted((n, tuple(a.tolist())) for n, a in rep.op_cycle.items())),
        tuple(sorted((n, tuple(a.tolist())) for n, a in rep.op_start.items())),
        tuple(sorted((n, tuple(a.tolist())) for n, a in rep.op_state.items())),
        tuple(sorted(rep.state_visits.items())),
        tuple(tuple(seq.tolist()) for seq in rep.state_seq),
    )


@pytest.mark.parametrize("caching", [True, False],
                         ids=["cache-on", "cache-off"])
@pytest.mark.parametrize("name", BENCHMARKS)
@settings(max_examples=5, deadline=None, derandomize=True,
          suppress_health_check=list(HealthCheck))
@given(seed=st.integers(0, 10**6))
def test_rescheduling_chains_splice_equivalent(name, caching, seed):
    """ShareFU / violating-SubstituteModule chains, incremental vs full.

    These are the *rescheduling* moves: both chains schedule and replay
    from scratch, while under ``incremental=True`` a substitution still
    derives its pre-escalation candidate by patching the parent.  At every
    step of the chain the two STGs must be structurally equal, the replay
    traces bit-identical, and the power bundle equal — with the pipeline
    cache both on and off, and with rejection parity on illegal moves.
    """
    from repro.core.moves import ShareFU, SubstituteModule
    from repro.library.module import scale_delay

    def is_slower(design, move) -> bool:
        fu = design.binding.fus[move.fu]
        return (scale_delay(design.library.get(move.module_name), fu.width)
                > scale_delay(fu.module, fu.width))

    inc, full = get_pair(name, caching)
    rng = random.Random(seed)
    applied = 0
    while applied < MAX_MOVES:
        moves = generate_moves(inc)
        resched = [m for m in moves
                   if isinstance(m, (ShareFU, SubstituteModule))]
        if not resched:
            break
        # Alternate preference between unit merges and slower-module
        # substitutions: ShareFU always re-schedules, and a substitution
        # re-schedules exactly when the slower module breaks a state's
        # cycle window — the two rescheduling chains this suite covers.
        shares = [m for m in resched if isinstance(m, ShareFU)]
        slow_subs = [m for m in resched
                     if isinstance(m, SubstituteModule) and is_slower(inc, m)]
        pool = (shares if applied % 2 == 0 else slow_subs) or slow_subs \
            or shares or resched
        move = rng.choice(pool)
        try:
            next_inc = move.apply(inc)
        except ReproError:
            # Rejection parity: the full path must reject it too.
            with pytest.raises(ReproError):
                move.apply(full)
            applied += 1
            continue
        next_full = move.apply(full)
        assert next_inc.incremental and not next_full.incremental
        assert stg_digest(next_inc.stg) == stg_digest(next_full.stg), \
            (name, caching, move)
        assert replay_digest(next_inc.rep) == replay_digest(next_full.rep), \
            (name, caching, move)
        assert bundle(next_inc) == bundle(next_full), (name, caching, move)
        inc, full = next_inc, next_full
        applied += 1
    # The whole trajectory must have advanced through real reschedules.
    assert applied > 0


@pytest.mark.parametrize("caching", [True, False],
                         ids=["cache-on", "cache-off"])
@pytest.mark.parametrize("name", BENCHMARKS)
@settings(max_examples=5, deadline=None, derandomize=True,
          suppress_health_check=list(HealthCheck))
@given(seed=st.integers(0, 10**6))
def test_random_move_sequences_equivalent(name, caching, seed):
    inc, full = get_pair(name, caching)
    rng = random.Random(seed)
    enc_budget = inc.enc * 2.0
    applied = 0
    while applied < MAX_MOVES:
        moves = generate_moves(inc)
        if not moves:
            break
        move = rng.choice(moves)
        try:
            next_inc = move.apply(inc)
        except ReproError:
            # Rejection parity: the full path must reject it too.
            with pytest.raises(ReproError):
                move.apply(full)
            applied += 1
            continue
        next_full = move.apply(full)
        assert next_inc.incremental and not next_full.incremental
        assert bundle(next_inc) == bundle(next_full), (name, caching, move)
        # Both optimization modes read identical costs.
        for mode in ("area", "power"):
            assert design_cost(next_inc, mode, enc_budget) == \
                design_cost(next_full, mode, enc_budget)
        inc, full = next_inc, next_full
        applied += 1
    assert applied > 0


@pytest.mark.parametrize("mode", ["power", "area"])
def test_search_trajectory_identical(mode):
    """Whole searches walk the same moves and land on the same design."""
    bench = get_benchmark("gcd")
    cdfg = bench.cdfg()
    stimulus = bench.stimulus(N_PASSES, seed=3)
    options = ScheduleOptions(clock_ns=bench.clock_ns)
    search = SearchConfig(max_depth=3, max_candidates=8, max_iterations=3,
                          seed=1)
    results = {}
    for incremental in (True, False):
        engine = SynthesisEngine(cdfg, stimulus, options=options,
                                 incremental=incremental)
        results[incremental] = engine.run(mode=mode, laxity=2.0, search=search)
    inc_res, full_res = results[True], results[False]

    def trajectory(result):
        return [(step.move_signature, step.cost, step.gain, step.legal,
                 step.within_budget)
                for steps in result.history.iterations for step in steps]

    assert trajectory(inc_res) == trajectory(full_res)
    assert inc_res.history.committed == full_res.history.committed
    assert inc_res.history.evaluations == full_res.history.evaluations
    assert bundle(inc_res.design) == bundle(full_res.design)
    assert inc_res.design.summary() == full_res.design.summary()


def test_every_move_kind_declares_consistent_dirty_set():
    """A scripted pass over each move class, checked step by step."""
    from repro.core.moves import (RestructureMux, ShareFU, ShareRegisters,
                                  SplitFU, SplitRegister, SubstituteModule)

    inc, full = get_pair("gcd", True)
    seen: set[type] = set()
    rng = random.Random(11)
    for _ in range(60):
        moves = generate_moves(inc)
        if not moves:
            break
        # Prefer a move kind not yet exercised.
        fresh = [m for m in moves if type(m) not in seen]
        move = rng.choice(fresh or moves)
        dirty = move.affected(inc)
        assert dirty.reschedule == isinstance(move, ShareFU)
        try:
            next_inc = move.apply(inc)
        except ReproError:
            continue
        next_full = move.apply(full)
        assert bundle(next_inc) == bundle(next_full), move
        seen.add(type(move))
        inc, full = next_inc, next_full
    exercised = {ShareFU, SplitFU, SubstituteModule, ShareRegisters,
                 SplitRegister, RestructureMux} & seen
    # The walk must have covered the incremental move kinds at minimum.
    assert {SplitFU, SubstituteModule, ShareRegisters, SplitRegister} <= seen, (
        f"walk exercised only {sorted(t.__name__ for t in exercised)}")
