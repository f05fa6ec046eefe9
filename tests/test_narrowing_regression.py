"""Regression: gatesim/netsim signed→unsigned narrowing divergence.

The coverage fleet filed triage digest ``dbbb3103d434``: a chain of
COPY nodes scheduled into one state used to resolve straight through to
the origin register (``rtl.builder.producer_signal``), dropping every
intermediate re-typing wrap — ``var v1: uint4 = a2`` with ``a2: int6 =
-1`` read -1 instead of 15 in both gatesim and the emitted netlist.
Narrowing (or sign-changing) COPYs now materialize a wrap wire; this
suite pins the fleet's shrunk reproducer (tracked as
``tests/regressions/narrowing_dbbb3103d434.src``) and the transparency
predicate.
"""

from pathlib import Path

import pytest

from repro.core.engine import SynthesisEngine
from repro.core.search import SearchConfig
from repro.cdfg.interpreter import simulate
from repro.lang import parse
from repro.rtl.builder import copy_is_transparent
from repro.sched.engine import ScheduleOptions

REPRO = Path(__file__).parent / "regressions" / "narrowing_dbbb3103d434.src"


def test_reproducer_file_is_committed():
    assert REPRO.exists(), "fleet reproducer must stay in the repo"
    text = REPRO.read_text(encoding="utf-8")
    assert "var v1: uint4 = a2" in text
    assert "a2: int6" in text


def test_narrowing_copy_chain_conforms_at_laxity_1():
    """The fleet's shrunk reproducer passes the full oracle chain."""
    cdfg = parse(REPRO.read_text(encoding="utf-8"))
    stimulus = [{"a0": 0, "a1": 0, "a2": -1},
                {"a0": -512, "a1": 15, "a2": -32},
                {"a0": 511, "a1": 7, "a2": 31},
                {"a0": 3, "a1": 1, "a2": 0}]
    engine = SynthesisEngine(cdfg, stimulus,
                             options=ScheduleOptions(clock_ns=10.0))
    search = SearchConfig(max_depth=3, max_candidates=8, max_iterations=4,
                          seed=0)
    result = engine.run(mode="power", laxity=1.0, search=search)
    report = engine.verify(design=result.design, use_iverilog="off",
                           minimize=False, name="narrowing")
    assert report.ok, str(report.divergences[:3])


def test_interpreter_value_is_the_reference():
    cdfg = parse(REPRO.read_text(encoding="utf-8"))
    store = simulate(cdfg, [{"a0": 0, "a1": 0, "a2": -1}])
    # int6 -1 re-typed through uint4 then uint8 is 15, not -1.
    assert int(store.outputs["o1"][0]) == 15


@pytest.mark.parametrize("src,dst,transparent", [
    ((6, True), (4, False), False),    # the filed bug: narrow + sign flip
    ((4, False), (8, False), True),    # pure widening, same sign
    ((4, False), (8, True), True),     # unsigned into strictly wider signed
    ((4, False), (4, True), False),    # uint4 15 is not int4 15
    ((8, True), (4, True), False),     # narrowing loses high bits
    ((8, True), (8, False), False),    # signed view as unsigned
    ((8, True), (8, True), True),      # identity
])
def test_copy_transparency_predicate(src, dst, transparent):
    assert copy_is_transparent(src[0], src[1], dst[0], dst[1]) is transparent
