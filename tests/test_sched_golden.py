"""Golden digests of the scheduler and replay on the search's own inputs.

For every registry benchmark, a seeded short power search at laxity 1
records each binding it reschedules; the test schedules and replays
them all again against the engine's trace store and digests every STG
and every replay array.  The search's own replays walked those STGs
and recorded the walks on the store, so the digest covers both the
walk (through the visit sequences) and the recorded-walk path.  A digest pins what the rest of the pipeline consumes,
bit for bit: a change to ``schedule()`` or ``replay()`` that alters any
state, transition, duration, cycle count or per-occurrence timestamp
fails here, on a few hundred real schedules, in a few seconds.

The digests were recorded with the previous, slower scheduler and
replay; regenerate them only for an intended change of schedules, with
``PYTHONPATH=src python tests/test_sched_golden.py``.
"""

import hashlib

import pytest

import repro.core.design as design_module
from repro.benchmarks import BENCHMARKS
from repro.core.search import SearchConfig
from repro.errors import ReproError
from repro.explore import engine_for_benchmark
from repro.sched import replay, schedule

SEARCH = SearchConfig(max_depth=4, max_candidates=8, max_iterations=3, seed=0)
N_PASSES = 4

GOLDEN = {
    'cordic': (8, '59beb1c555721d038e41b567'),
    'dealer': (46, '42a96250a089386b5cd034e0'),
    'gcd': (15, '36b256767dbe0bbb9827431d'),
    'histogram': (32, 'c878e32c058854bf3d4eb502'),
    'loops': (29, 'b6e69caeac752719a65535fc'),
    'paulin': (6, '25319aa2087d3e1c7e61b99a'),
    'synth_0': (64, '9767edfb76bb3dbb93257073'),
    'synth_1': (59, '4377e6e74163a8c6ce7be5f5'),
    'synth_2': (38, '2d409f014ab05edde5150eb2'),
    'synth_3': (58, '9f28ff50c5fb0ba5bbfb0afe'),
    'x25_send': (23, 'd1da6749f9cbe666456cdad9'),
}


def _array(h, array) -> None:
    h.update(str(array.dtype).encode())
    h.update(repr(array.shape).encode())
    h.update(array.tobytes())


def _digest_replay(h, rep) -> None:
    _array(h, rep.cycles)
    h.update(repr((rep.total_cycles, sorted(rep.state_visits.items()))).encode())
    for seq in rep.state_seq:
        _array(h, seq)
    for table in (rep.op_cycle, rep.op_start, rep.op_state):
        h.update(repr(list(table)).encode())
        for array in table.values():
            _array(h, array)


def rescheduled_bindings(name: str):
    """The engine and every binding a short power search reschedules."""
    engine = engine_for_benchmark(name, n_passes=N_PASSES)
    engine.initial  # the initial schedule is not a search move
    bindings = []
    real = design_module.schedule

    def recording(cdfg, binding, options=None):
        bindings.append(binding.clone())
        return real(cdfg, binding, options)

    design_module.schedule = recording
    try:
        engine.run("power", 1.0, search=SEARCH)
    finally:
        design_module.schedule = real
    return engine, bindings


def golden_digest(name: str) -> tuple[int, str]:
    engine, bindings = rescheduled_bindings(name)
    store = engine.store
    h = hashlib.sha256()
    for binding in bindings:
        try:
            stg = schedule(engine.cdfg, binding, engine.options)
        except ReproError as exc:
            h.update(f"schedule: {exc}".encode())
            continue
        h.update(repr(stg.signature()).encode())
        h.update(repr([(sid, state.duration)
                       for sid, state in sorted(stg.states.items())]).encode())
        try:
            rep = replay(stg, engine.cdfg, store)
        except ReproError as exc:
            h.update(f"replay: {exc}".encode())
            continue
        _digest_replay(h, rep)
    return len(bindings), h.hexdigest()[:24]


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_schedules_and_replays_match_their_golden_digest(name):
    assert golden_digest(name) == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(BENCHMARKS):
        print(f"    {name!r}: {golden_digest(name)!r},")
