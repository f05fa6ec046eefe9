"""The ``python -m repro`` CLI: parsing, reports, exit codes."""

import json

import pytest

from repro.cli import _parse_objectives, build_parser, main


class TestParsing:
    def test_objectives_mixed_spec(self):
        assert _parse_objectives("area,power,0.5:0.5:0") == (
            "area", "power", (0.5, 0.5, 0.0))

    def test_objectives_bad_triple_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_objectives("0.5:0.5")

    def test_weights_require_exactly_three(self):
        import argparse

        from repro.cli import _parse_weights

        assert _parse_weights("1,0.5,0") == (1.0, 0.5, 0.0)
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_weights("1,0")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_weights("1,2,3,4")

    def test_subcommands_exist(self):
        parser = build_parser()
        subactions = next(
            a for a in parser._actions
            if isinstance(a, __import__("argparse")._SubParsersAction))
        assert set(subactions.choices) == {
            "synth", "explore", "verify", "bench", "fuzz", "serve", "list"}

    def test_unknown_benchmark_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["synth", "-b", "nope"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gcd" in out and "paulin" in out

    def test_synth_writes_reports(self, tmp_path, capsys):
        code = main(["synth", "-b", "loops", "--passes", "6", "--laxity",
                     "2.0", "--depth", "2", "--candidates", "5",
                     "--iterations", "2",
                     "--results-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "synth_loops.json").read_text())
        assert payload["rows"][0]["mode"] == "power"
        assert payload["enc_budget"] == pytest.approx(
            2.0 * payload["enc_min"])
        assert (tmp_path / "synth_loops.csv").exists()
        assert (tmp_path / "synth_loops.md").exists()

    def test_synth_weighted_mode(self, tmp_path, capsys):
        code = main(["synth", "-b", "loops", "--passes", "6",
                     "--weights", "1,0,1", "--depth", "2", "--candidates",
                     "5", "--iterations", "2",
                     "--results-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "synth_loops.json").read_text())
        assert payload["rows"][0]["mode"] == "weighted(1,0,1)"

    def test_explore_report_roundtrip(self, tmp_path, capsys):
        args = ["explore", "-b", "loops", "--passes", "6",
                "--laxities", "1.0,2.0", "--objectives", "area,power",
                "--depth", "2", "--candidates", "5", "--iterations", "2",
                "--seed", "0", "--no-verify",
                "--results-dir", str(tmp_path)]
        assert main(args + ["--steal", "1"]) == 0
        one = json.loads((tmp_path / "explore_loops.json").read_text())
        assert main(args + ["--steal", "2"]) == 0
        stolen = json.loads((tmp_path / "explore_loops.json").read_text())
        assert one["rows"] == stolen["rows"]
        assert one["jobs"] == stolen["jobs"]
        assert one["rows"], "frontier report is empty"
        # --no-verify leaves the verification verdict unset, not false.
        assert one["verified"] is None

    def test_verify_writes_verdicts(self, tmp_path, capsys):
        code = main(["verify", "-b", "loops", "--passes", "10",
                     "--results-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "verify_cli.json").read_text())
        assert payload["ok"] is True
        assert payload["rows"][0]["name"] == "loops"
        assert (tmp_path / "verify_cli.csv").exists()
        assert (tmp_path / "verify_cli.md").exists()

    def test_verify_requires_target(self, capsys):
        assert main(["verify"]) == 2

    def test_bench_writes_sweep(self, tmp_path, capsys):
        code = main(["bench", "-b", "loops", "--passes", "6",
                     "--laxities", "1.0,2.0", "--depth", "2",
                     "--candidates", "5", "--iterations", "2",
                     "--results-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "bench_loops.json").read_text())
        assert [r["laxity"] for r in payload["rows"]] == [1.0, 2.0]
        assert payload["mismatches"] == 0


class TestRejectedArguments:
    """Values that would run nothing, and options a subcommand lacks,
    exit 2 at parse time."""

    @pytest.mark.parametrize("argv", [
        ["verify", "-b", "gcd", "--passes", "0"],
        ["synth", "-b", "gcd", "--passes", "0"],
        ["explore", "-b", "loops", "--passes", "0"],
        ["bench", "-b", "gcd", "--passes", "0"],
        ["bench", "-b", "gcd", "--points", "0"],
        ["explore", "-b", "loops", "--laxities", ","],
        ["explore", "-b", "loops", "--laxities", "0.5"],
        ["bench", "-b", "gcd", "--laxities", ","],
        ["serve", "--timeout", "0"],
        ["serve", "--timeout", "-1"],
        # -1 workers would silently mean "accept but never run", and a
        # negative drain timeout would journal every queued job at once.
        ["serve", "--workers", "-1"],
        ["serve", "--drain-timeout", "-1"],
        ["serve", "--drain-timeout", "nan"],
        # A search with zero effort would report 0 moves as a result.
        ["synth", "-b", "gcd", "--depth", "0"],
        ["synth", "-b", "gcd", "--candidates", "0"],
        ["synth", "-b", "gcd", "--iterations", "-1"],
        ["explore", "-b", "loops", "--depth", "0"],
        ["bench", "-b", "gcd", "--candidates", "0"],
        # Only explore and serve keep the checkpoint store.
        ["synth", "-b", "gcd", "--store", "store"],
        ["bench", "-b", "gcd", "--store", "store"],
        ["verify", "--all", "--store", "store"],
        ["fuzz", "--store", "store"],
    ])
    def test_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
