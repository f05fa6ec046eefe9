"""End-to-end property test: random programs through the whole pipeline.

Hypothesis generates random behavioral programs (straight-line arithmetic,
nested conditionals, bounded counted loops); for each one we check the
strongest invariant the system offers: the synthesized architecture,
simulated bit-by-bit, produces exactly the behavioral outputs — under all
three schedulers, for parallel and randomly-shared bindings.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.lang import parse
from repro.cdfg.interpreter import simulate
from repro.core.binding import Binding
from repro.errors import BindingError
from repro.gatesim import simulate_architecture
from repro.library import default_library
from repro.rtl import build_architecture
from repro.sched import loop_directed_schedule, path_based_schedule, replay, wavesched

VARS = ["v0", "v1", "v2"]
INPUTS = ["a", "b"]


@st.composite
def _expr(draw, depth=0):
    choice = draw(st.integers(0, 5 if depth < 2 else 2))
    if choice == 0:
        return str(draw(st.integers(0, 15)))
    if choice == 1:
        return draw(st.sampled_from(INPUTS))
    if choice == 2:
        return draw(st.sampled_from(VARS))
    left = draw(_expr(depth + 1))
    right = draw(_expr(depth + 1))
    op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
    return f"({left} {op} {right})"


@st.composite
def _cond(draw):
    left = draw(st.sampled_from(VARS + INPUTS))
    right = draw(st.sampled_from(VARS + INPUTS + ["0", "3"]))
    op = draw(st.sampled_from(["<", ">", "==", "!=", "<=", ">="]))
    return f"({left} {op} {right})"


@st.composite
def _stmt(draw, depth=0):
    kinds = ["assign", "assign"]
    if depth < 2:
        kinds += ["if", "for"]
    kind = draw(st.sampled_from(kinds))
    if kind == "assign":
        var = draw(st.sampled_from(VARS))
        return f"{var} = {draw(_expr())};"
    if kind == "if":
        then_body = " ".join(draw(st.lists(_stmt(depth + 1), min_size=1, max_size=2)))
        has_else = draw(st.booleans())
        else_part = ""
        if has_else:
            else_body = " ".join(draw(st.lists(_stmt(depth + 1), min_size=1, max_size=2)))
            else_part = f" else {{ {else_body} }}"
        return f"if {draw(_cond())} {{ {then_body} }}{else_part}"
    iterator = f"i{depth}"
    bound = draw(st.integers(1, 5))
    body = " ".join(draw(st.lists(_stmt(depth + 1), min_size=1, max_size=2)))
    return f"for ({iterator} = 0; {iterator} < {bound}; {iterator}++) {{ {body} }}"


@st.composite
def random_program(draw):
    body = " ".join(draw(st.lists(_stmt(), min_size=1, max_size=4)))
    decls = " ".join(f"var {v}: int8 = 0;" for v in VARS)
    out = " ".join(f"out{i} = {v};" for i, v in enumerate(VARS))
    outputs = ", ".join(f"out{i}: int16" for i in range(len(VARS)))
    return (f"process rand(a: int8, b: int8) -> ({outputs}) "
            f"{{ {decls} {body} {out} }}")


@given(random_program(),
       st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
                min_size=2, max_size=4))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                                 HealthCheck.filter_too_much])
# Regression: a write after an if whose *then* arm reads the same variable
# used to deadlock Wavesched — the branch-parallel mirror placed the write
# in the else arm, where the then-arm reader (its weak write-after-read
# dependency) can never run.
@example(
    source='process rand(a: int8, b: int8) -> (out0: int16, out1: int16, '
           'out2: int16) { var v0: int8 = 0; var v1: int8 = 0; '
           'var v2: int8 = 0; if (v0 < v0) { v0 = v2; } v2 = 0; '
           'out0 = v0; out1 = v1; out2 = v2; }',
    raw_inputs=[(0, 0), (0, 0)],
)
def test_random_programs_bit_exact_through_all_schedulers(source, raw_inputs):
    cdfg = parse(source)
    passes = [{"a": a, "b": b} for a, b in raw_inputs]
    store = simulate(cdfg, passes)
    library = default_library()
    binding = Binding.initial_parallel(cdfg, library)
    for scheduler in (wavesched, loop_directed_schedule, path_based_schedule):
        stg = scheduler(cdfg, binding)
        replay(stg, cdfg, store)  # stream consumption exact
        arch = build_architecture(cdfg, binding, stg)
        result = simulate_architecture(arch, passes, expected_outputs=store.outputs)
        assert result.output_mismatches == 0, (
            f"hardware/behavior mismatch under {scheduler.__name__}\n{source}")


@given(random_program(),
       st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
                min_size=2, max_size=3),
       st.randoms(use_true_random=False))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                                 HealthCheck.filter_too_much])
def test_random_sharing_stays_bit_exact(source, raw_inputs, rng):
    """Randomly merge compatible FUs and registers; outputs must survive."""
    from repro.core.liveness import carrier_liveness, carriers_interfere
    from repro.core.design import DesignPoint
    from repro.sched.engine import ScheduleOptions

    cdfg = parse(source)
    passes = [{"a": a, "b": b} for a, b in raw_inputs]
    store = simulate(cdfg, passes)
    library = default_library()
    design = DesignPoint.initial(cdfg, library, store, ScheduleOptions())

    binding = design.binding.clone()
    fu_ids = sorted(binding.fus)
    rng.shuffle(fu_ids)
    merged = 0
    for i in range(0, len(fu_ids) - 1, 2):
        a, b = fu_ids[i], fu_ids[i + 1]
        kinds = binding.fus[a].kinds(cdfg) | binding.fus[b].kinds(cdfg)
        candidates = library.candidates(kinds)
        if not candidates:
            continue
        try:
            binding.merge_fus(a, b, candidates[0])
            merged += 1
        except BindingError:
            continue
        if merged >= 2:
            break

    stg = wavesched(cdfg, binding)
    replay(stg, cdfg, store)
    arch = build_architecture(cdfg, binding, stg)
    result = simulate_architecture(arch, passes, expected_outputs=store.outputs)
    assert result.output_mismatches == 0
