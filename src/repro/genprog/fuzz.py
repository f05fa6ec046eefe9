"""The fuzz pipeline: generate -> synthesize -> conformance -> shrink -> file.

:func:`fuzz_run` is the one fuzz driver.  It drives ``count`` programs
through the whole stack: each is compiled by the real frontend,
cross-checked against the AST evaluator over the fuzz stimulus,
synthesized at every requested laxity, and every synthesized design is
pushed through the differential conformance oracle chain (interpreter
<-> replay <-> gatesim <-> netsim, plus iverilog when enabled).  Every
run is folded into structural coverage bins
(:mod:`repro.genprog.coverage`); with ``guided=True`` the bins also
steer, and later slots are mutants bred from the corpus
(:mod:`repro.genprog.fleet`).

Any failure — generation invariant, evaluator disagreement, synthesis
error, or conformance divergence — is shrunk to a minimal reproducer
program that still fails the same stage and filed under its triage
digest as ``<results_dir>/fuzz_repro_<digest>.src``, so runs with
different seeds that share a results directory never overwrite each
other, and two programs that shrink to the same bug share one file.

Everything is deterministic in ``(seed, knobs)``: program seeds derive
from the run seed, searches are seeded, and the report rows carry no
wall-clock data and no absolute paths — ``results/fuzz.json`` is
bit-identical across runs with the same arguments (a CI-enforced
property).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import GenerationError, ReproError
from repro.genprog.config import GenConfig
from repro.genprog.coverage import bin_families, coverage_digest, extract_coverage
from repro.genprog.emit import emit_source
from repro.genprog.fleet import (
    FRESH_PATIENCE,
    TRIAGE_NAME,
    Corpus,
    breed_mutant,
    corpus_file,
    triage_digest,
)
from repro.genprog.generator import (
    GeneratedProgram,
    check_roundtrip,
    generate_program,
)
from repro.genprog.shrink import shrink_process

#: Laxity factors each program is synthesized at (ISSUE: 2-3 points).
DEFAULT_LAXITIES: tuple[float, ...] = (1.0, 2.0)

#: Multiplier deriving per-program seeds from the run seed (a large odd
#: constant so nearby run seeds produce disjoint program families).
SEED_STRIDE = 1_000_003


@dataclass
class ProgramVerdict:
    """Per-program fuzz outcome (JSON-serializable via :meth:`row`)."""

    name: str
    seed: int
    status: str                      # "ok" | "generate" | "semantic" |
    #                                  "synthesis" | "divergence"
    n_statements: int = 0
    detail: str = ""
    #: laxity -> "ok" | "diverged(N)" | "error: ..." per synthesis run.
    laxities: dict[float, str] = field(default_factory=dict)
    #: File name (no directory) of the shrunk reproducer source, if any.
    reproducer: str | None = None
    #: "fresh" | "mutant:<op>:<parent corpus file>".
    origin: str = "fresh"
    #: Structural coverage bins this program's run lit up.
    bins: frozenset[str] = frozenset()
    #: The bins no earlier program in the run had hit.
    new_bins: frozenset[str] = frozenset()
    #: Whether the program joined the corpus (it found new bins).
    kept: bool = False
    #: File name (no directory) of the kept source under
    #: ``fuzz_corpus/``; guided runs only.
    corpus: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def row(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "status": self.status,
            "statements": self.n_statements,
            "laxities": ",".join(f"{lax:g}:{verdict}"
                                 for lax, verdict in
                                 sorted(self.laxities.items())),
            "detail": self.detail,
            "reproducer": self.reproducer or "",
            "origin": self.origin,
            "bins": len(self.bins),
            "new_bins": sorted(self.new_bins),
            "kept": self.kept,
            "corpus": self.corpus or "",
        }


@dataclass
class FuzzReport:
    """Outcome of one fuzz run (JSON-stable: no ids, no wall clock)."""

    count: int
    seed: int
    guided: bool
    laxities: tuple[float, ...]
    n_passes: int
    verdicts: list[ProgramVerdict] = field(default_factory=list)
    covered: set[str] = field(default_factory=set)
    #: triage digest -> names of the programs that shrank to it.
    triage: dict[str, list[str]] = field(default_factory=dict)
    corpus_size: int = 0

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def n_ok(self) -> int:
        return sum(v.ok for v in self.verdicts)

    @property
    def n_bins(self) -> int:
        return len(self.covered)

    def rows(self) -> list[dict]:
        return [v.row() for v in self.verdicts]

    def summary(self) -> dict:
        return {
            "count": self.count,
            "seed": self.seed,
            "guided": self.guided,
            "laxities": list(self.laxities),
            "n_passes": self.n_passes,
            "ok": self.ok,
            "n_ok": self.n_ok,
            "bins": self.n_bins,
            "bin_families": bin_families(self.covered),
            "coverage_digest": coverage_digest(frozenset(self.covered)),
            "corpus_size": self.corpus_size,
            "triage": {digest: sorted(names)
                       for digest, names in sorted(self.triage.items())},
        }


def _search_config(args_search):
    from repro.core.search import SearchConfig

    if args_search is not None:
        return args_search
    return SearchConfig(max_depth=3, max_candidates=8, max_iterations=4,
                        seed=0)


def _chain_failure(program: GeneratedProgram, laxities, n_passes: int,
                   search, use_iverilog: str, *, cdfg, store,
                   stop_on_failure: bool = False,
                   ) -> tuple[dict[float, str], str | None, str, set[str]]:
    """Run synth+conformance at every laxity.

    Returns ``(verdicts, stage, detail, bins)``: ``stage`` is None when
    everything agreed, else "synthesis" or "divergence"; ``detail``
    describes the first failure; ``bins`` is the structural coverage of
    every laxity that synthesized.  ``stop_on_failure`` skips the
    remaining laxities once a failure is recorded — the shrinker's
    predicate only needs the first one.

    ``cdfg`` and ``store`` are what :func:`check_roundtrip` returned
    for the chain's stimulus (``n_passes`` passes, seed 0): passing them
    through saves a second frontend pass and a second simulation per
    program.
    """
    from repro.core.engine import SynthesisEngine
    from repro.sched.engine import ScheduleOptions

    verdicts: dict[float, str] = {}
    stage: str | None = None
    detail = ""
    bins: set[str] = set()
    stimulus = program.stimulus(n_passes, seed=0)
    engine = SynthesisEngine(cdfg, stimulus, store=store,
                             options=ScheduleOptions(clock_ns=10.0))
    for laxity in laxities:
        try:
            result = engine.run(mode="power", laxity=laxity, search=search)
            report = engine.verify(design=result.design,
                                   use_iverilog=use_iverilog)
        except ReproError as exc:
            verdicts[laxity] = f"error: {type(exc).__name__}"
            if stage is None:
                stage, detail = "synthesis", f"laxity {laxity:g}: {exc}"
            continue
        bins |= extract_coverage(cdfg=result.design.cdfg,
                                 history=result.history,
                                 stg=result.design.stg,
                                 replay=result.design.rep)
        if report.ok:
            verdicts[laxity] = "ok"
        else:
            verdicts[laxity] = f"diverged({len(report.divergences)})"
            if stage is None:
                stage = "divergence"
                detail = f"laxity {laxity:g}: {report.divergences[0]}"
        if stage is not None and stop_on_failure:
            break
    return verdicts, stage, detail, bins


def _shape_bins(program: GeneratedProgram) -> frozenset[str]:
    """Coverage of a program that failed before any laxity synthesized.

    The region shape is still coverage (and often the interesting part).
    """
    from repro.lang import parse

    try:
        return extract_coverage(cdfg=parse(program.source))
    except ReproError:
        return frozenset()


def _still_fails(process, config: GenConfig, laxities, n_passes: int,
                 search, use_iverilog: str) -> bool:
    """Shrink predicate: the candidate still fails somewhere in the chain.

    The round-trip check runs over the *same* stimulus (n_passes, seed
    0) that detected the original failure — a drift that only manifests
    on specific input vectors must stay visible while shrinking.
    """
    candidate = GeneratedProgram(name=process.name, config=config,
                                 process=process,
                                 source=emit_source(process))
    try:
        cdfg, store = check_roundtrip(candidate, n_passes=n_passes, seed=0)
    except GenerationError:
        return True  # still a frontend-semantics failure: keep it
    except ReproError:
        return False
    try:
        _verdicts, stage, _detail, _bins = _chain_failure(
            candidate, laxities, n_passes, search, use_iverilog,
            stop_on_failure=True, cdfg=cdfg, store=store)
    except ReproError:
        return False
    return stage is not None


def _file_reproducer(program: GeneratedProgram, stage: str, laxities,
                     n_passes: int, search, use_iverilog: str,
                     results_dir: Path, max_trials: int) -> tuple[str, str]:
    """Shrink a failure and file it under its triage digest.

    Returns ``(digest, file name)``.  Two failures that shrink to the
    same minimal program at the same stage share a digest — the second
    filing rewrites identical bytes.  The row records the bare file
    name, not the path, so reports stay byte-identical across checkout
    locations.
    """
    small = shrink_process(
        program.process,
        lambda proc: _still_fails(proc, program.config, laxities, n_passes,
                                  search, use_iverilog),
        max_trials=max_trials)
    small = dataclasses.replace(small, name=TRIAGE_NAME)
    digest = triage_digest(stage, small)
    path = results_dir / f"fuzz_repro_{digest}.src"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(emit_source(small), encoding="utf-8")
    return digest, path.name


def fuzz_program(program: GeneratedProgram, *,
                 laxities=DEFAULT_LAXITIES, n_passes: int = 10,
                 search=None, use_iverilog: str = "off") -> ProgramVerdict:
    """Fuzz one already-generated program (also the --replay entry point).

    The verdict carries the program's coverage bins; the corpus fields
    (``origin``, ``new_bins``, ``kept``) are the run loop's to fill.
    """
    search = _search_config(search)
    verdict = ProgramVerdict(name=program.name, seed=program.config.seed,
                             status="ok", n_statements=program.n_statements)
    try:
        # check_roundtrip compiles and simulates the source over the
        # chain's stimulus as part of its invariant; reuse that CDFG and
        # trace so the synthesis chain neither re-parses nor re-simulates.
        cdfg, store = check_roundtrip(program, n_passes=n_passes, seed=0)
    except GenerationError as exc:
        verdict.status, verdict.detail = "semantic", str(exc)
        verdict.bins = _shape_bins(program)
        return verdict
    verdicts, stage, detail, bins = _chain_failure(
        program, laxities, n_passes, search, use_iverilog, cdfg=cdfg,
        store=store)
    verdict.laxities = verdicts
    verdict.bins = frozenset(bins) or _shape_bins(program)
    if stage is not None:
        verdict.status, verdict.detail = stage, detail
    return verdict


def fuzz_run(count: int, seed: int, *, guided: bool = False,
             laxities=DEFAULT_LAXITIES, n_passes: int = 10,
             gen: GenConfig | None = None, search=None,
             use_iverilog: str = "off",
             results_dir: Path | str = "results",
             shrink_trials: int = 200) -> FuzzReport:
    """Fuzz ``count`` programs; shrink and file every failure.

    The i-th slot's generator seed is ``seed * SEED_STRIDE + i`` and
    every downstream stage is seeded, so the run is deterministic in all
    arguments.  Coverage is always measured.  ``guided=False`` samples
    only fresh generator programs; ``guided=True`` switches to mutants
    bred from the corpus once :data:`~repro.genprog.fleet.FRESH_PATIENCE`
    fresh programs in a row found no new bin, and writes every kept
    entry's source to ``<results_dir>/fuzz_corpus/<digest>.src`` (see
    :func:`~repro.genprog.fleet.corpus_file`), the name its row's
    ``corpus`` field and its mutants' ``origin`` carry.
    """
    results_dir = Path(results_dir)
    template = (gen or GenConfig()).validated()
    search = _search_config(search)
    report = FuzzReport(count=count, seed=seed, guided=guided,
                        laxities=tuple(laxities), n_passes=n_passes)
    corpus = Corpus()
    fresh_dry = 0  # consecutive fresh programs with zero new bins
    for index in range(count):
        name = f"fuzz{index}"
        config = dataclasses.replace(template,
                                     seed=seed * SEED_STRIDE + index)
        bred = verdict = None
        if guided and corpus.entries and fresh_dry >= FRESH_PATIENCE:
            bred = breed_mutant(corpus, seed, index, name, config, n_passes)
        if bred is not None:
            program, origin = bred
        else:
            origin = "fresh"
            try:
                program = generate_program(config, name=name)
            except GenerationError as exc:
                # The generator's own invariant tripped: the emitted
                # source is itself the bug reproducer.
                program = generate_program(config, name=name, check=False)
                verdict = ProgramVerdict(
                    name=name, seed=config.seed, status="generate",
                    n_statements=program.n_statements, detail=str(exc),
                    bins=_shape_bins(program))
        if verdict is None:
            verdict = fuzz_program(program, laxities=laxities,
                                   n_passes=n_passes, search=search,
                                   use_iverilog=use_iverilog)
        verdict.origin = origin
        verdict.new_bins = corpus.consider(program, verdict.bins, origin)
        verdict.kept = bool(verdict.new_bins)
        if origin == "fresh":
            fresh_dry = 0 if verdict.kept else fresh_dry + 1
        if verdict.kept and guided:
            verdict.corpus = corpus_file(program.source)
            corpus_dir = results_dir / "fuzz_corpus"
            corpus_dir.mkdir(parents=True, exist_ok=True)
            (corpus_dir / verdict.corpus).write_text(program.source,
                                                     encoding="utf-8")
        if not verdict.ok:
            digest, verdict.reproducer = _file_reproducer(
                program, verdict.status, laxities, n_passes, search,
                use_iverilog, results_dir, shrink_trials)
            report.triage.setdefault(digest, []).append(name)
        report.verdicts.append(verdict)
    report.covered = set(corpus.covered)
    report.corpus_size = len(corpus.entries)
    return report
