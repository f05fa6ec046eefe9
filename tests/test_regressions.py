"""Every tracked fleet reproducer passes the full oracle chain.

Each ``tests/regressions/*.src`` file is a shrunk program the fuzzing
fleet once filed as a failure.  Here each one is synthesized and
differentially verified (interpreter, replay, gatesim, netsim) at every
laxity the fuzz CLI runs by default, on the stimulus ``repro fuzz
--replay FILE`` feeds it, so a fixed bug cannot silently return.
"""

from pathlib import Path

import pytest

from repro.core.engine import SynthesisEngine
from repro.core.search import SearchConfig
from repro.genprog import program_from_source
from repro.genprog.fuzz import DEFAULT_LAXITIES
from repro.lang import parse
from repro.sched.engine import ScheduleOptions

REGRESSIONS = sorted((Path(__file__).parent / "regressions").glob("*.src"))


def test_corpus_is_not_empty():
    assert REGRESSIONS


@pytest.mark.parametrize("laxity", DEFAULT_LAXITIES)
@pytest.mark.parametrize("path", REGRESSIONS, ids=lambda p: p.stem)
def test_reproducer_conforms(path, laxity):
    source = path.read_text(encoding="utf-8")
    stimulus = program_from_source(source).stimulus(10, seed=0)
    engine = SynthesisEngine(parse(source), stimulus,
                             options=ScheduleOptions(clock_ns=10.0))
    # The fuzz CLI's default search.
    search = SearchConfig(max_depth=3, max_candidates=8, max_iterations=4,
                          seed=0)
    result = engine.run(mode="power", laxity=laxity, search=search)
    report = engine.verify(design=result.design, use_iverilog="off")
    assert report.ok, "\n".join(str(d) for d in report.divergences[:3])
