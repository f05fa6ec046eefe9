"""Random CFI program generation, shrinking, and the fuzz harness.

The subsystem behind ``python -m repro fuzz`` and the ``synth_*``
benchmark corpus:

* :class:`GenConfig` / :func:`generate_program` — seeded random
  control-flow-intensive programs, well-typed and terminating by
  construction, semantically round-trip-checked against the frontend;
* :func:`evaluate_process` — the direct AST evaluator used as the
  generator's independent reference model;
* :func:`shrink_process` — greedy minimizer turning any failing program
  into a small reproducer;
* :mod:`repro.genprog.corpus` — the pinned-seed ``synth_N`` benchmark
  family registered into ``repro.benchmarks``;
* :mod:`repro.genprog.fuzz` / :func:`fuzz_run` — the one generate →
  synthesize → conformance → shrink → file loop behind
  ``python -m repro fuzz``, with :func:`triage_digest` naming each
  shrunk failure;
* :mod:`repro.genprog.coverage` / :func:`extract_coverage` — structural
  coverage bins read off the pipeline's own artifacts, measured by
  every fuzz run.

See ``docs/fuzzing.md``.
"""

from repro.genprog.config import DEFAULT_WIDTHS, GenConfig
from repro.genprog.coverage import bin_families, coverage_digest, extract_coverage
from repro.genprog.emit import emit_source, strip_positions
from repro.genprog.evaluate import evaluate_process
from repro.genprog.fuzz import FuzzReport, fuzz_run, triage_digest
from repro.genprog.generator import (
    GeneratedProgram,
    check_roundtrip,
    generate_program,
    program_from_source,
)
from repro.genprog.shrink import shrink_process

__all__ = [
    "DEFAULT_WIDTHS",
    "FuzzReport",
    "GenConfig",
    "GeneratedProgram",
    "bin_families",
    "check_roundtrip",
    "coverage_digest",
    "emit_source",
    "evaluate_process",
    "extract_coverage",
    "fuzz_run",
    "generate_program",
    "program_from_source",
    "shrink_process",
    "strip_positions",
    "triage_digest",
]
