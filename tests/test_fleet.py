"""Coverage-guided fuzzing: corpus policy, triage dedup, guided runs.

The expensive guided-vs-plain comparison runs at a pinned seed with the
CLI's generator family — the run is deterministic, so the strict
inequality asserted here is a property of the code, not of luck.
"""

import dataclasses

import pytest

from repro.core.search import SearchConfig
from repro.genprog import (
    GenConfig,
    emit_source,
    fuzz_run,
    generate_program,
    triage_digest,
)
from repro.genprog import fuzz as fuzz_mod
from repro.genprog.fleet import TRIAGE_NAME, Corpus, corpus_file
from repro.genprog.fuzz import ProgramVerdict
from repro.lang.frontend import parse_process

TINY = SearchConfig(max_depth=2, max_candidates=6, max_iterations=2, seed=0)

MINIMAL = parse_process("""
process m(a: uint4) -> (o: uint4) {
  o = (a + 1);
}
""")


class TestCorpus:
    def _program(self, seed):
        return generate_program(GenConfig(seed=seed), check=False)

    def test_keeps_only_new_bin_contributors(self):
        corpus = Corpus()
        new = corpus.consider(self._program(0), frozenset({"a", "b"}), "fresh")
        assert new == {"a", "b"}
        assert len(corpus.entries) == 1
        # A strict subset of covered bins is not kept.
        assert corpus.consider(self._program(1), frozenset({"a"}),
                               "fresh") == frozenset()
        assert len(corpus.entries) == 1
        assert corpus.covered == {"a", "b"}

    def test_pick_is_deterministic_per_rng(self):
        import random

        corpus = Corpus()
        corpus.consider(self._program(0), frozenset({"a", "b"}), "fresh")
        corpus.consider(self._program(1), frozenset({"b", "c"}), "fresh")
        picks = [corpus.pick(random.Random(7)).program.name
                 for _ in range(3)]
        assert len(set(picks)) == 1

    def test_mutator_weights_favor_deficit_families(self):
        corpus = Corpus()
        # Lots of shape coverage, almost no stg coverage: the mutators
        # serving the stg family must outweigh their base weight.
        corpus.covered = {f"shape:{i}" for i in range(6)} | {"stg:states:2"}
        weights = corpus.mutator_weights()
        assert set(weights) == {"splice", "graft", "widen", "nest"}
        assert all(w >= 1.0 for w in weights.values())
        assert weights["widen"] > 1.0  # widen serves stg + move deficits

    def test_empty_corpus_weights_are_uniform(self):
        assert set(Corpus().mutator_weights().values()) == {1.0}


class TestTriage:
    def test_digest_ignores_source_positions(self):
        other = parse_process(
            "process m(a: uint4) -> (o: uint4)\n{\n  o = (a + 1);\n}\n")
        assert triage_digest("divergence", MINIMAL) == triage_digest(
            "divergence", other)

    def test_digest_ignores_process_name(self):
        # The shrinker keeps each program's own name, so two programs
        # that shrink to the same body must still share a digest.
        renamed = dataclasses.replace(MINIMAL, name="fuzz7")
        assert triage_digest("divergence", MINIMAL) == triage_digest(
            "divergence", renamed)

    def test_digest_separates_stages(self):
        assert triage_digest("divergence", MINIMAL) != triage_digest(
            "synthesis", MINIMAL)

    def test_same_shrunk_failure_files_once(self, tmp_path, monkeypatch):
        # Two distinct programs whose failures shrink to the same body
        # must share one digest-named file, with both program names
        # recorded under the digest.  Like the real shrinker, the stub
        # keeps each program's own process name.
        def fake_fuzz(program, **_kw):
            return ProgramVerdict(name=program.name, seed=program.config.seed,
                                  status="divergence", detail="stubbed")

        monkeypatch.setattr(fuzz_mod, "fuzz_program", fake_fuzz)
        monkeypatch.setattr(
            fuzz_mod, "shrink_process",
            lambda process, predicate, max_trials: dataclasses.replace(
                MINIMAL, name=process.name))
        report = fuzz_run(2, 0, n_passes=4, search=TINY,
                          results_dir=tmp_path)
        digest = triage_digest("divergence", MINIMAL)
        assert report.triage == {digest: ["fuzz0", "fuzz1"]}
        filed = sorted(tmp_path.glob("fuzz_repro_*.src"))
        assert [p.name for p in filed] == [f"fuzz_repro_{digest}.src"]
        assert filed[0].read_text(encoding="utf-8") == emit_source(
            dataclasses.replace(MINIMAL, name=TRIAGE_NAME))
        assert all(v.reproducer == filed[0].name for v in report.verdicts)


class TestFleetRun:
    GEN = GenConfig(ops_budget=14, max_depth=2)

    def test_kept_entries_land_in_corpus_dir(self, tmp_path):
        report = fuzz_run(4, 0, guided=True, gen=self.GEN, n_passes=4,
                          search=TINY, results_dir=tmp_path)
        kept = [v for v in report.verdicts if v.kept]
        assert kept, "no program discovered a new bin"
        names = {p.name for p in (tmp_path / "fuzz_corpus").glob("*.src")}
        assert names == {v.corpus for v in kept}
        assert all(not v.corpus for v in report.verdicts if not v.kept)
        assert report.corpus_size == len(kept)

    def test_runs_sharing_a_dir_keep_each_others_corpus(self, tmp_path):
        reports = [fuzz_run(3, seed, guided=True, gen=self.GEN, n_passes=4,
                            search=TINY, results_dir=tmp_path)
                   for seed in (0, 1)]
        listed = {v.corpus for r in reports for v in r.verdicts if v.kept}
        # Both seeds name programs fuzz0..fuzz2, yet no file is shared...
        assert len(listed) == sum(r.corpus_size for r in reports)
        # ...and each still holds the source its name is the digest of.
        for name in listed:
            source = (tmp_path / "fuzz_corpus" / name).read_text(
                encoding="utf-8")
            assert corpus_file(source) == name

    def test_mutant_origin_names_a_written_parent(self, tmp_path):
        report = fuzz_run(10, 0, guided=True, gen=self.GEN, n_passes=4,
                          search=TINY, results_dir=tmp_path)
        mutants = [v for v in report.verdicts if v.origin != "fresh"]
        assert mutants, "the run bred no mutant"
        for verdict in mutants:
            parent = verdict.origin.split(":")[2]
            assert (tmp_path / "fuzz_corpus" / parent).is_file()

    def test_summary_shape(self, tmp_path):
        report = fuzz_run(2, 0, guided=True, gen=self.GEN, n_passes=4,
                          search=TINY, results_dir=tmp_path)
        summary = report.summary()
        assert summary["count"] == 2 and summary["seed"] == 0
        assert summary["guided"] is True
        assert summary["bins"] == len(report.covered) > 0
        assert isinstance(summary["coverage_digest"], str)
        assert sum(summary["bin_families"].values()) == summary["bins"]
        rows = report.rows()
        assert all({"origin", "bins", "new_bins", "kept"} <= set(row)
                   for row in rows)

    def test_blind_never_mutates(self, tmp_path):
        report = fuzz_run(4, 0, guided=False, gen=self.GEN, n_passes=4,
                          search=TINY, results_dir=tmp_path)
        assert all(v.origin == "fresh" for v in report.verdicts)
        # Nothing is bred, so no corpus is written.
        assert not (tmp_path / "fuzz_corpus").exists()


class TestGuidedBeatsBlind:
    def test_guided_discovers_strictly_more_bins(self, tmp_path):
        # Pinned seed, default generator family: deterministic, so the
        # strict inequality is stable.  Guided switches to breeding
        # mutants once fresh programs stop paying off.
        guided = fuzz_run(28, 0, guided=True, n_passes=6, search=TINY,
                          results_dir=tmp_path / "guided")
        blind = fuzz_run(28, 0, guided=False, n_passes=6, search=TINY,
                         results_dir=tmp_path / "blind")
        assert guided.ok and blind.ok
        assert any(v.origin != "fresh" for v in guided.verdicts)
        assert guided.n_bins > blind.n_bins, (
            f"guided {guided.n_bins} bins vs blind {blind.n_bins}")
        # Guided reaches structure the blind run never saw.
        assert set(guided.covered) - set(blind.covered)
