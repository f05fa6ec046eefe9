"""Property suite for the random program generator, shrinker and fuzz CLI."""

import dataclasses
import json

import pytest

from repro.cdfg.builder import build_cdfg
from repro.cdfg.interpreter import simulate
from repro.core.search import SearchConfig
from repro.errors import ExperimentError, GenerationError
from repro.genprog import (
    GenConfig,
    check_roundtrip,
    emit_source,
    evaluate_process,
    fuzz_run,
    generate_program,
    program_from_source,
    shrink_process,
    strip_positions,
    triage_digest,
)
from repro.genprog import fuzz as fuzz_mod
from repro.genprog.fuzz import TRIAGE_NAME, ProgramVerdict
from repro.lang import ast_nodes as ast
from repro.lang.frontend import parse_process
from repro.lang.tokens import tokenize

SEEDS = list(range(25))

TINY = SearchConfig(max_depth=2, max_candidates=6, max_iterations=2, seed=0)

MINIMAL = parse_process("""
process m(a: uint4) -> (o: uint4) {
  o = (a + 1);
}
""")


class TestGeneration:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_always_tokenizes_parses_typechecks(self, seed):
        program = generate_program(GenConfig(seed=seed), check=False)
        assert tokenize(program.source)
        process = parse_process(program.source)  # parse + typecheck
        cdfg = build_cdfg(process)
        cdfg.validate()
        assert cdfg.fu_nodes(), "generated program with no functional ops"

    @pytest.mark.parametrize("seed", SEEDS[:10])
    def test_roundtrip_invariant_holds(self, seed):
        # generate_program(check=True) raises GenerationError on any
        # emission/parse/CDFG/interpreter drift; run it explicitly too.
        program = generate_program(GenConfig(seed=seed))
        check_roundtrip(program, n_passes=4, seed=99)

    def test_bit_reproducible_per_seed(self):
        a = generate_program(GenConfig(seed=13))
        b = generate_program(GenConfig(seed=13))
        assert a.source == b.source
        assert strip_positions(a.process) == strip_positions(b.process)
        assert a.stimulus(7, seed=3) == b.stimulus(7, seed=3)

    def test_different_seeds_differ(self):
        assert (generate_program(GenConfig(seed=0)).source
                != generate_program(GenConfig(seed=1)).source)

    def test_stimulus_seed_changes_values(self):
        program = generate_program(GenConfig(seed=2))
        assert program.stimulus(5, seed=3) != program.stimulus(5, seed=4)

    def test_stimulus_respects_input_ranges(self):
        program = generate_program(GenConfig(seed=4))
        types = {p.name: p.type for p in program.process.inputs}
        for inputs in program.stimulus(50, seed=0):
            for name, value in inputs.items():
                vtype = types[name]
                if vtype.signed:
                    assert -(1 << (vtype.width - 1)) <= value \
                        < (1 << (vtype.width - 1))
                else:
                    assert 0 <= value < (1 << vtype.width)

    def test_parse_of_emission_is_structurally_identical(self):
        program = generate_program(GenConfig(seed=6))
        reparsed = parse_process(program.source)
        assert strip_positions(reparsed) == strip_positions(program.process)

    def test_multi_output_and_mixed_signedness(self):
        program = generate_program(GenConfig(seed=9, n_inputs=3, n_outputs=2))
        assert len(program.process.outputs) == 2
        assert len({p.type.signed for p in program.process.inputs}) == 2

    def test_evaluator_matches_interpreter(self):
        program = generate_program(GenConfig(seed=17))
        cdfg = build_cdfg(parse_process(program.source))
        stimulus = program.stimulus(12, seed=5)
        store = simulate(cdfg, stimulus)
        for idx, inputs in enumerate(stimulus):
            expected = evaluate_process(program.process, inputs)
            for name, value in expected.items():
                assert int(store.outputs[name][idx]) == value

    def test_config_validation_rejects_nonsense(self):
        with pytest.raises(ExperimentError):
            GenConfig(n_inputs=0).validated()
        with pytest.raises(ExperimentError):
            GenConfig(branch_density=1.5).validated()
        with pytest.raises(ExperimentError):
            GenConfig(max_while_bits=1).validated()

    def test_while_loops_are_bounded_countdowns(self):
        # Every generated while condition is `counter > 0` with the
        # counter an unsigned variable — the termination guarantee.
        for seed in SEEDS[:12]:
            program = generate_program(GenConfig(seed=seed, loop_density=0.5),
                                       check=False)
            for stmt in ast.walk_statements(program.process.body):
                if isinstance(stmt, ast.While):
                    assert isinstance(stmt.cond, ast.BinaryOp)
                    assert stmt.cond.op == ">"
                    assert isinstance(stmt.cond.left, ast.VarRef)
                    assert isinstance(stmt.cond.right, ast.IntLit)
                    assert stmt.cond.right.value == 0


class TestRoundtripInvariant:
    def test_detects_semantic_drift(self):
        # A program whose recorded AST disagrees with its source text
        # must be rejected — the generator-level invariant.
        program = generate_program(GenConfig(seed=1))
        import dataclasses

        out_name = program.process.outputs[0].name
        drifted_body = program.process.body[:-len(program.process.outputs)] \
            + tuple(
                dataclasses.replace(
                    stmt, value=ast.BinaryOp(line=0, op="+", left=stmt.value,
                                             right=ast.IntLit(line=0, value=1)))
                if isinstance(stmt, ast.Assign) and stmt.name == out_name
                else stmt
                for stmt in program.process.body[-len(program.process.outputs):])
        drifted = dataclasses.replace(
            program, process=dataclasses.replace(program.process,
                                                 body=drifted_body))
        with pytest.raises(GenerationError):
            check_roundtrip(drifted)


class TestShrinker:
    def _program_with_while(self):
        for seed in range(30):
            program = generate_program(GenConfig(seed=seed), check=False)
            if any(isinstance(s, ast.While)
                   for s in ast.walk_statements(program.process.body)):
                return program
        pytest.fail("no while-bearing program in the first 30 seeds")

    @staticmethod
    def _has_while(process):
        return any(isinstance(s, ast.While)
                   for s in ast.walk_statements(process.body))

    def test_shrunk_output_still_fails_predicate(self):
        program = self._program_with_while()
        small = shrink_process(program.process, self._has_while,
                               max_trials=250)
        assert self._has_while(small), "shrinker lost the failure"
        # Shrunk output is still a valid program...
        reparsed = parse_process(emit_source(small))
        build_cdfg(reparsed).validate()
        # ...and no larger than the original.
        n_before = sum(1 for _ in ast.walk_statements(program.process.body))
        n_after = sum(1 for _ in ast.walk_statements(small.body))
        assert n_after <= n_before
        assert n_after < 10, f"shrinker barely reduced: {n_after} statements"

    def test_non_reproducing_predicate_returns_original(self):
        program = generate_program(GenConfig(seed=0), check=False)
        small = shrink_process(program.process, lambda _p: False)
        assert small is program.process

    def test_shrink_is_deterministic(self):
        program = self._program_with_while()
        one = shrink_process(program.process, self._has_while, max_trials=150)
        two = shrink_process(program.process, self._has_while, max_trials=150)
        assert strip_positions(one) == strip_positions(two)

    LAXITY_SENSITIVE = """
process shr(a: uint4) -> (o: uint4) {
  var x: uint4 = a;
  var junk: uint4 = (a + 1);
  junk = (junk + 2);
  while ((x > 0)) {
    x = (x - 1);
  }
  o = (junk + x);
}
"""

    def test_laxity_specific_failure_survives_shrink(self, monkeypatch):
        # A failure that only reproduces at laxity 2.0 (and only while
        # the loop is present): the shrink predicate must keep probing
        # the full laxity tuple, or the bug "disappears" mid-shrink and
        # the reported reproducer no longer fails.
        program = program_from_source(self.LAXITY_SENSITIVE)
        probed: list[tuple[float, ...]] = []

        def fake_chain(prog, laxities, n_passes, search, use_iverilog, **kw):
            probed.append(tuple(laxities))
            if 2.0 in laxities and self._has_while(prog.process):
                return ({2.0: "diverged(1)"}, "divergence", "laxity 2: stub",
                        set())
            return {lax: "ok" for lax in laxities}, None, "", set()

        monkeypatch.setattr(fuzz_mod, "_chain_failure", fake_chain)

        def still_fails(laxities):
            return lambda proc: fuzz_mod._still_fails(
                proc, program.config, laxities, 4, None, "off")

        # The failure is laxity-specific: invisible when only 1.0 is run.
        assert not still_fails((1.0,))(program.process)
        assert still_fails((1.0, 2.0))(program.process)

        small = shrink_process(program.process, still_fails((1.0, 2.0)),
                               max_trials=120)
        assert self._has_while(small), "shrinker lost the laxity-2 failure"
        assert still_fails((1.0, 2.0))(small)
        # The junk around the loop went away.
        n_after = sum(1 for _ in ast.walk_statements(small.body))
        assert n_after < sum(
            1 for _ in ast.walk_statements(program.process.body))
        # Every probe while shrinking carried the full laxity tuple.
        assert set(probed) == {(1.0,), (1.0, 2.0)}
        assert probed.count((1.0,)) == 1

    def test_no_progress_terminates_within_budget(self):
        # A predicate satisfied *only* by the original program offers no
        # legal edit: the shrinker must stop at the trial bound instead
        # of rescanning the unchanged candidate list forever.
        program = generate_program(GenConfig(seed=0), check=False)
        reference = strip_positions(program.process)
        calls = 0

        def only_original(proc):
            nonlocal calls
            calls += 1
            return strip_positions(proc) == reference

        small = shrink_process(program.process, only_original, max_trials=30)
        assert strip_positions(small) == reference
        assert calls <= 30

    def test_zero_budget_returns_original_untouched(self):
        program = generate_program(GenConfig(seed=1), check=False)
        calls = 0

        def pred(_proc):
            nonlocal calls
            calls += 1
            return True

        small = shrink_process(program.process, pred, max_trials=0)
        assert small is program.process
        assert calls == 0

    def test_everything_fails_reaches_a_fixpoint(self):
        # predicate == True for every valid candidate: the shrinker runs
        # until no edit yields a valid program, well inside the budget.
        program = self._program_with_while()
        small = shrink_process(program.process, lambda _p: True,
                               max_trials=400)
        again = shrink_process(small, lambda _p: True, max_trials=400)
        assert strip_positions(again) == strip_positions(small)
        # Only the mandatory output assignments (plus at most one
        # supporting statement) can survive an accept-everything shrink.
        assert sum(1 for _ in ast.walk_statements(small.body)) <= 4


class TestFuzzRun:
    def test_small_run_clean_and_deterministic(self, tmp_path):
        kwargs = dict(laxities=(1.0,), n_passes=4,
                      gen=GenConfig(ops_budget=6, max_depth=1), search=TINY)
        one = fuzz_run(12, 0, results_dir=tmp_path / "one", **kwargs)
        assert one.ok and one.n_ok == 12
        two = fuzz_run(12, 0, results_dir=tmp_path / "two", **kwargs)

        def report_bytes(report):
            return json.dumps({"summary": report.summary(),
                               "rows": report.rows()}, sort_keys=True)

        assert report_bytes(one) == report_bytes(two)

    def test_new_bins_are_the_running_set_difference(self, tmp_path,
                                                     monkeypatch):
        # Each row's new_bins are its bins minus every earlier row's;
        # the report's covered set is their union.
        bins = [{"a", "b"}, {"a"}, {"b", "c"}, set(), {"a", "c", "d"}]

        def fake_fuzz(program, **_kw):
            index = int(program.name.removeprefix("fuzz"))
            return ProgramVerdict(name=program.name, seed=program.config.seed,
                                  status="ok", bins=frozenset(bins[index]))

        monkeypatch.setattr(fuzz_mod, "fuzz_program", fake_fuzz)
        report = fuzz_run(len(bins), 0, gen=GenConfig(ops_budget=6),
                          results_dir=tmp_path)
        assert [v.new_bins for v in report.verdicts] == [
            {"a", "b"}, set(), {"c"}, set(), {"d"}]
        assert [row["new_bins"] for row in report.rows()] == [
            ["a", "b"], [], ["c"], [], ["d"]]
        union = set().union(*(v.new_bins for v in report.verdicts))
        assert report.covered == union == set().union(*bins)
        assert report.summary()["bins"] == 4

    def test_each_program_is_interpreted_twice(self, monkeypatch):
        """The generator's own check (6 passes, seed 1) and the round
        trip over the chain's stimulus, whose trace the synthesis engine
        reuses instead of simulating the same CDFG again."""
        from repro.cdfg.interpreter import Interpreter
        from repro.genprog.fuzz import fuzz_program

        runs = []
        original = Interpreter.run

        def counted(self, input_passes):
            runs.append(len(input_passes))
            return original(self, input_passes)

        monkeypatch.setattr(Interpreter, "run", counted)
        for seed in range(3):
            runs.clear()
            program = generate_program(GenConfig(seed=seed, array_density=0.15))
            verdict = fuzz_program(program, laxities=(1.0, 2.0), n_passes=5,
                                   search=SearchConfig(max_depth=2,
                                                       max_candidates=4,
                                                       max_iterations=2,
                                                       seed=0))
            assert verdict.status == "ok"
            assert runs == [program.config.validate_passes, 5]

    def test_failure_is_shrunk_to_reproducer(self, tmp_path, monkeypatch):
        # Force the semantic invariant to fail for every program: the
        # driver must record the failure and file a shrunk reproducer
        # under its triage digest.
        def broken_roundtrip(_program, **_kwargs):
            raise GenerationError("forced failure")

        monkeypatch.setattr(fuzz_mod, "check_roundtrip", broken_roundtrip)
        report = fuzz_mod.fuzz_run(1, 5, laxities=(1.0,), n_passes=3,
                                   gen=GenConfig(ops_budget=8),
                                   results_dir=tmp_path, shrink_trials=40)
        assert not report.ok
        verdict = report.verdicts[0]
        assert verdict.status == "semantic"
        (digest,) = report.triage
        assert report.triage[digest] == [verdict.name]
        # The row holds the bare, digest-named file name.
        assert verdict.reproducer == f"fuzz_repro_{digest}.src"
        source = (tmp_path / verdict.reproducer).read_text()
        process = parse_process(source)
        assert process.name == TRIAGE_NAME
        assert triage_digest("semantic", process) == digest
        # The reproducer is itself a valid program...
        build_cdfg(process).validate()
        # ...and much smaller than a typical generated one.
        assert source.count(";") <= 12


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


class TestFuzzCLI:
    def test_subcommand_writes_reports(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["fuzz", "--count", "1", "--seed", "0", "--passes", "4",
                     "--laxities", "1.0", "--max-ops", "8",
                     "--results-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "fuzz.json").read_text())
        assert payload["ok"] is True
        assert payload["count"] == 1
        assert payload["rows"][0]["status"] == "ok"
        assert (tmp_path / "fuzz.csv").exists()
        assert (tmp_path / "fuzz.md").exists()

    def test_replay_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        program = generate_program(GenConfig(seed=3, ops_budget=8))
        path = tmp_path / "repro.src"
        path.write_text(program.source)
        assert main(["fuzz", "--replay", str(path), "--passes", "4",
                     "--laxities", "1.0"]) == 0

    @pytest.mark.parametrize("argv", [
        ["fuzz", "--count", "0"],
        ["fuzz", "--count", "-3"],
        ["fuzz", "--count", "x"],
        ["fuzz", "--passes", "0"],
        ["fuzz", "--laxities", "0.5"],
        ["fuzz", "--laxities", ""],
        ["fuzz", "--branch-density", "1.5"],
        ["fuzz", "--max-ops", "0"],
        ["fuzz", "--coverage"],
    ])
    def test_bad_arguments_exit_2(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_generator_invariant_failure_is_a_verdict(
            self, tmp_path, monkeypatch, capsys):
        import repro.genprog.generator as generator_mod
        from repro.cli import main

        # The generator's own round-trip invariant trips for every
        # program: the run must record `generate` verdicts and file
        # reproducers, not abort.
        def broken_roundtrip(_program, **_kwargs):
            raise GenerationError("forced generator failure")

        monkeypatch.setattr(generator_mod, "check_roundtrip",
                            broken_roundtrip)
        code = main(["fuzz", "--count", "2", "--seed", "0",
                     "--passes", "3", "--laxities", "1.0", "--max-ops", "8",
                     "--search-depth", "1", "--search-candidates", "2",
                     "--search-iterations", "1", "--shrink-trials", "2",
                     "--results-dir", str(tmp_path)])
        assert code == 1
        payload = json.loads((tmp_path / "fuzz.json").read_text())
        assert [row["status"] for row in payload["rows"]] == ["generate"] * 2
        for row in payload["rows"]:
            assert (tmp_path / row["reproducer"]).is_file()
            assert row["bins"] > 0  # the region shape still counts
        assert "--replay" in capsys.readouterr().out

    def test_missing_replay_file_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["fuzz", "--replay", str(tmp_path / "nope.src")]) == 2


class TestCorpus:
    """The pinned synth_N programs skip validation at import time; this
    is where their round-trip invariant is actually enforced."""

    def test_every_pinned_program_roundtrips(self):
        from repro.genprog.corpus import SYNTH_SPECS, _program

        for name in SYNTH_SPECS:
            check_roundtrip(_program(name), n_passes=8, seed=0)

    def test_corpus_is_registered_and_reachable(self):
        from repro.benchmarks import get_benchmark
        from repro.genprog.corpus import SYNTH_SPECS

        for name in SYNTH_SPECS:
            bench = get_benchmark(name)
            assert bench.stimulus(3, seed=0) == bench.stimulus(3, seed=0)
            inputs = bench.stimulus(1, seed=0)[0]
            assert isinstance(bench.reference(**inputs), dict)


class TestProgramFromSource:
    def test_wraps_external_source(self):
        program = generate_program(GenConfig(seed=2))
        wrapped = program_from_source(program.source)
        assert strip_positions(wrapped.process) == \
            strip_positions(program.process)
        assert wrapped.reference(**wrapped.stimulus(1, seed=0)[0])
