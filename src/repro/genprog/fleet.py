"""Corpus policy for coverage-guided fuzzing over structural bins.

Plain fuzzing samples independent programs from the generator; every
program exercises roughly the same slice of the pipeline.  With
``fuzz_run(..., guided=True)`` (``repro fuzz --coverage``) coverage
closes the loop: each program's run is folded into a set of
**structural coverage bins** (:mod:`repro.genprog.coverage`), programs
that lit up bins nobody had hit before are kept in a :class:`Corpus`,
and once fresh programs stop paying off, later slots are filled by
:func:`breed_mutant` — rare corpus entries spliced, grafted, widened
and nested by :mod:`repro.genprog.mutate`, with the mutator choice
biased toward bin families the corpus is short on — so the run climbs
toward region shapes, STG patterns and conformance paths the generator
alone would take far longer to reach.

:func:`triage_digest` names every failure: a stable hash of ``(failure
stage, shrunk AST)`` with the process name normalized, so two programs
that shrink to the same minimal reproducer share one
``results/fuzz_repro_<digest>.src`` file.

This module holds the policy only; the generate -> fuzz -> file loop is
:func:`repro.genprog.fuzz.fuzz_run`.  Everything here is deterministic:
the breeding RNG is ``random.Random(f"fleet:{seed}:{index}")`` and
corpus evolution is a pure function of the verdict stream.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from repro.errors import ReproError
from repro.genprog.config import GenConfig
from repro.genprog.coverage import bin_families
from repro.genprog.emit import emit_source, strip_positions
from repro.genprog.generator import GeneratedProgram, check_roundtrip
from repro.genprog.mutate import MUTATORS, mutate

#: How many mutation attempts (validation failures) before falling back
#: to a fresh generated program for the slot.
MUTATION_RETRIES = 8

#: Consecutive *fresh* programs that discovered no new bin before the
#: scheduler switches from sampling the generator to breeding mutants.
#: Fresh programs are cheap diversity early on; mutants only beat them
#: once the generator's own bin space is close to saturated.
FRESH_PATIENCE = 2

#: Bin-family -> mutators most likely to light up new bins in it.  The
#: scheduler weights each mutator by the families it serves, scaled by
#: how *few* bins that family has so far (deficit bias).
_FAMILY_MUTATORS: dict[str, tuple[str, ...]] = {
    "shape": ("nest", "graft"),
    "depth": ("nest",),
    "stg": ("nest", "widen", "splice"),
    "move": ("widen", "graft"),
    "commit": ("graft", "splice"),
    "path": ("nest", "splice"),
}


@dataclass
class CorpusEntry:
    """One kept program: it discovered bins nobody had hit before."""

    program: GeneratedProgram
    bins: frozenset[str]
    new_bins: frozenset[str]
    origin: str  # "fresh" | "mutant:<op>:<parent corpus file>"


class Corpus:
    """The guided run's seed pool plus the global covered-bin set.

    ``consider`` keeps a program iff it contributed at least one new
    bin; ``pick`` samples an entry weighted by *rarity* — the summed
    inverse frequency of its bins across the corpus — so programs whose
    structure few others share get mutated more often.
    """

    def __init__(self) -> None:
        self.entries: list[CorpusEntry] = []
        self.covered: set[str] = set()
        self._bin_counts: dict[str, int] = {}

    def consider(self, program: GeneratedProgram, bins: frozenset[str],
                 origin: str) -> frozenset[str]:
        """Fold one run's bins in; returns the newly-discovered bins."""
        new = frozenset(bins - self.covered)
        self.covered |= bins
        if new:
            self.entries.append(CorpusEntry(program=program, bins=bins,
                                            new_bins=new, origin=origin))
            for name in bins:
                self._bin_counts[name] = self._bin_counts.get(name, 0) + 1
        return new

    def pick(self, rng) -> CorpusEntry:
        weights = []
        for entry in self.entries:
            weights.append(sum(1.0 / self._bin_counts[name]
                               for name in entry.bins))
        return rng.choices(self.entries, weights=weights, k=1)[0]

    def mutator_weights(self) -> dict[str, float]:
        """Deficit-biased mutator weights from the covered-bin families."""
        families = bin_families(self.covered)
        weights = {op: 1.0 for op in MUTATORS}
        most = max(families.values(), default=0)
        for family, ops in _FAMILY_MUTATORS.items():
            deficit = most - families.get(family, 0)
            for op in ops:
                weights[op] += deficit
        return weights


#: The process name every filed reproducer carries: the shrinker keeps
#: the failing program's own name, which must not split one bug in two.
TRIAGE_NAME = "repro"


def triage_digest(stage: str, process) -> str:
    """Stable short digest of (failure stage, shrunk AST) for dedup.

    Source positions and the process name are ignored, so two programs
    that shrink to the same body share a digest.
    """
    from repro.store import digest_key

    process = dataclasses.replace(process, name=TRIAGE_NAME)
    return digest_key((stage, strip_positions(process)))[:12]


def corpus_file(source: str) -> str:
    """File name a kept program's ``source`` is written under.

    A digest of the source, like a reproducer's triage digest, so guided
    runs that share a results directory never overwrite each other's
    corpus, and one program kept twice is one file.
    """
    from repro.store import digest_key

    return f"{digest_key(('corpus', source))[:12]}.src"


def breed_mutant(corpus: Corpus, seed: int, index: int, name: str,
                 config: GenConfig, n_passes: int):
    """Try to breed a validated mutant for slot ``index``; None on give-up.

    Returns ``(program, origin)``.  Mutator choice is deficit-biased
    toward under-covered bin families; a mutant must survive the full
    round-trip check (compile + AST/interpreter agreement over the fuzz
    stimulus) to be scheduled — the check *executes* the program, so
    accepted mutants also terminate.
    """
    rng = random.Random(f"fleet:{seed}:{index}")
    weights = corpus.mutator_weights()
    ops = list(MUTATORS)
    for _ in range(MUTATION_RETRIES):
        parent = corpus.pick(rng)
        donor = corpus.pick(rng)
        op = rng.choices(ops, weights=[weights[o] for o in ops], k=1)[0]
        mutant = mutate(parent.program.process, op, rng,
                        donor=donor.program.process)
        if mutant is None:
            continue
        mutant = dataclasses.replace(mutant, name=name)
        candidate = GeneratedProgram(name=name, config=config,
                                     process=mutant,
                                     source=emit_source(mutant))
        try:
            check_roundtrip(candidate, n_passes=n_passes, seed=0)
        except ReproError:
            continue
        return candidate, f"mutant:{op}:{corpus_file(parent.program.source)}"
    return None
