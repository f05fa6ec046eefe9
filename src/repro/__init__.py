"""IMPACT: low-power high-level synthesis for CFI circuits (DATE 1998).

Public API (one import per concept a user needs):

>>> import repro
>>> cdfg = repro.parse(source_text)             # behavioral code -> CDFG
>>> store = repro.simulate(cdfg, stimulus)      # behavioral profiling
>>> result = repro.synthesize(cdfg, stimulus, mode="power", laxity=2.0)
>>> measured = repro.simulate_architecture(result.design.arch, stimulus,
...                                        expected_outputs=store.outputs)
>>> frontier = repro.explore("gcd", steal=4)    # Pareto design-space sweep

The same surface is reachable from the shell via ``python -m repro``
(synth / explore / verify / bench — see docs/cli.md).  docs/tutorial.md
is the end-to-end walk-through and docs/architecture.md the system map.
"""

from repro.lang import parse
from repro.cdfg.interpreter import simulate
from repro.cdfg.graph import CDFG
from repro.core.binding import Binding
from repro.core.cache import SynthesisCache
from repro.core.design import DesignPoint
from repro.core.engine import SynthesisEngine
from repro.core.impact import SynthesisResult, synthesize
from repro.core.search import SearchConfig, WeightedObjective
from repro.explore import (
    ExploreResult,
    ParetoFront,
    ParetoPoint,
    engine_for_benchmark,
    explore,
    verify_frontier,
)
from repro.gatesim import simulate_architecture
from repro.power.estimator import PowerEstimate, estimate_power
from repro.hdl import (
    emit_testbench,
    emit_verilog,
    iverilog_available,
    lower_architecture,
    simulate_netlist,
)
from repro.library import ModuleLibrary, default_library
from repro.sched import (
    ScheduleOptions,
    loop_directed_schedule,
    path_based_schedule,
    replay,
    wavesched,
)
from repro.benchmarks import BENCHMARKS, get_benchmark
from repro.genprog import GenConfig, generate_program
from repro.verify import verify_architecture, verify_benchmark

__version__ = "1.3.0"

__all__ = [
    "parse",
    "simulate",
    "CDFG",
    "Binding",
    "DesignPoint",
    "SynthesisCache",
    "SynthesisEngine",
    "SynthesisResult",
    "synthesize",
    "SearchConfig",
    "WeightedObjective",
    "explore",
    "verify_frontier",
    "engine_for_benchmark",
    "ExploreResult",
    "ParetoFront",
    "ParetoPoint",
    "estimate_power",
    "PowerEstimate",
    "simulate_architecture",
    "emit_testbench",
    "emit_verilog",
    "iverilog_available",
    "lower_architecture",
    "simulate_netlist",
    "verify_architecture",
    "verify_benchmark",
    "ModuleLibrary",
    "default_library",
    "ScheduleOptions",
    "wavesched",
    "loop_directed_schedule",
    "path_based_schedule",
    "replay",
    "BENCHMARKS",
    "get_benchmark",
    "GenConfig",
    "generate_program",
    "__version__",
]
