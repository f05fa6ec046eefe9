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
  ``python -m repro fuzz`` (``--coverage`` lets coverage steer it);
* :mod:`repro.genprog.coverage` / :func:`extract_coverage` — structural
  coverage bins read off the pipeline's own artifacts;
* :mod:`repro.genprog.mutate` / :func:`mutate` — AST-level splice /
  graft / widen / nest mutators over generated programs;
* :mod:`repro.genprog.fleet` — the corpus policy of guided runs:
  :class:`Corpus`, mutant breeding and :func:`triage_digest`.

See ``docs/fuzzing.md``.
"""

from repro.genprog.config import DEFAULT_WIDTHS, GenConfig
from repro.genprog.coverage import bin_families, coverage_digest, extract_coverage
from repro.genprog.emit import emit_source, strip_positions
from repro.genprog.evaluate import evaluate_process
from repro.genprog.fleet import Corpus, triage_digest
from repro.genprog.fuzz import FuzzReport, fuzz_run
from repro.genprog.generator import (
    GeneratedProgram,
    check_roundtrip,
    generate_program,
    program_from_source,
)
from repro.genprog.mutate import MUTATORS, mutate
from repro.genprog.shrink import shrink_process

__all__ = [
    "Corpus",
    "DEFAULT_WIDTHS",
    "FuzzReport",
    "GenConfig",
    "GeneratedProgram",
    "MUTATORS",
    "bin_families",
    "check_roundtrip",
    "coverage_digest",
    "emit_source",
    "evaluate_process",
    "extract_coverage",
    "fuzz_run",
    "generate_program",
    "mutate",
    "program_from_source",
    "shrink_process",
    "strip_positions",
    "triage_digest",
]
