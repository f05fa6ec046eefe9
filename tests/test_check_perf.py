"""The CI perf gate (``benchmarks/check_perf.py``) on canned perfbench runs.

Each canned file mimics one ``perfbench/run.py --trace 0`` output: the
header line, the metric lines (``qor.*`` among them), the fingerprint
line and the closing JSON line.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_perf", ROOT / "benchmarks" / "check_perf.py")
check_perf = importlib.util.module_from_spec(_SPEC)
sys.modules["check_perf"] = check_perf
_SPEC.loader.exec_module(check_perf)

BASE = {"wall_ref_s": 10.0, "setup_s": 0.6, "peak_rss_mb": 128.0}
BASE_QOR = {"qor.power_reduction_vs_base": 7.0,
            "qor.area_overhead_max": 0.25, "qor.hypervolume": 1.0e6}


def _output(seed: int, *, correct: bool = True, failed: int = 0,
            fingerprint: str = "ef343e0a6aaa710b", qor=None, **metrics) -> str:
    e2e = {**BASE, **metrics}
    lines = [f"perfbench fig13 seed {seed}: 2 rounds of 7 items, {failed} "
             "failed; round walls [10.3, 9.4] s; reference loop 23.6 ms"]
    lines += [f"  {name:<32s} {value:>16.6g} s" for name, value in e2e.items()]
    lines += [f"  {name:<32s} {value:>16.6g} x"
              for name, value in {**BASE_QOR, **(qor or {})}.items()]
    lines.append(f"  {'fingerprint':<32s} {fingerprint:>16s} steady")
    lines.append(json.dumps({
        "correct": correct, "attempted": 14, "failed": failed,
        "metrics": {name: {"value": value, "unit": "s"}
                    for name, value in e2e.items()}}))
    return "\n".join(lines) + "\n"


def _gate(tmp_path, change, parent=None, **kw) -> int:
    """Gate three canned runs per side; a side is one spec or one per run."""
    paths = {"parent": [], "change": []}
    for side, specs in (("parent", parent or {}), ("change", change)):
        if isinstance(specs, dict):
            specs = [specs] * 3
        for seed, spec in enumerate(specs):
            path = tmp_path / f"{side}-{seed}.txt"
            path.write_text(_output(seed, **spec), encoding="utf-8")
            paths[side].append(str(path))
    return check_perf.main(["--parent", *paths["parent"],
                            "--change", *paths["change"]], **kw)


def test_gate_passes_within_ratio_and_fails_on_regression(tmp_path, capsys):
    assert _gate(tmp_path, {"wall_ref_s": 11.5, "setup_s": 0.5}) == 0
    out = capsys.readouterr().out
    assert "wall_ref_s" in out and "ratio  1.150" in out
    assert "perf gate: pass on fig13" in out
    # wall_ref_s is bounded at 25%.
    assert _gate(tmp_path, {"wall_ref_s": 12.6}) == 1
    assert "FAIL fig13: wall_ref_s median" in capsys.readouterr().out


def test_one_noisy_record_does_not_loosen_the_median(tmp_path):
    # Median of [10, 30, 10] is 10: 12 s passes and 12.6 s fails.
    parent = [{"wall_ref_s": wall} for wall in (10.0, 30.0, 10.0)]
    assert _gate(tmp_path, {"wall_ref_s": 12.0}, parent) == 0
    assert _gate(tmp_path, {"wall_ref_s": 12.6}, parent) == 1


def test_correct_false_fails(tmp_path, capsys):
    assert _gate(tmp_path, {"correct": False}) == 1
    assert "printed \"correct\": false" in capsys.readouterr().out


def test_a_larger_failed_share_fails(tmp_path, capsys):
    # Both sides print "correct": true here, so only the share can fail.
    assert _gate(tmp_path, {"failed": 2}, parent={"failed": 1}) == 1
    assert "failed share 0.143 exceeds the parent's 0.071" in \
        capsys.readouterr().out


def test_lower_is_better_qor_up_by_three_percent_fails(tmp_path, capsys):
    assert _gate(tmp_path, {"qor": {"qor.area_overhead_max": 0.2575}}) == 1
    assert "FAIL fig13: qor.area_overhead_max" in capsys.readouterr().out
    # The same move downward is a gain.
    assert _gate(tmp_path, {"qor": {"qor.area_overhead_max": 0.2425}}) == 0


def test_higher_is_better_qor_down_by_three_percent_fails(tmp_path, capsys):
    assert _gate(tmp_path, {"qor": {"qor.hypervolume": 0.97e6}}) == 1
    assert "FAIL fig13: qor.hypervolume" in capsys.readouterr().out
    assert _gate(tmp_path, {"qor": {"qor.hypervolume": 0.99e6}}) == 0


def test_a_fingerprint_change_is_reported_but_passes(tmp_path, capsys):
    assert _gate(tmp_path, {"fingerprint": "0123456789abcdef"}) == 0
    out = capsys.readouterr().out
    assert "0123456789abcdef" in out and "differ (not gated)" in out


def test_the_bounds_come_from_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rules = check_perf.load_rules()
    for metric in spec["end_to_end"]:
        assert rules[metric["name"]] == (metric["better"], metric["bound"])
    assert rules["qor.hypervolume"] == ("higher", check_perf.QOR_BOUND)
    assert rules["qor.area_overhead_max"] == ("lower", check_perf.QOR_BOUND)

    # Tightening the bound in the file tightens the gate.
    for metric in spec["end_to_end"]:
        metric["bound"] = 0.05
    tight = tmp_path / "BENCHMARK.json"
    tight.write_text(json.dumps(spec), encoding="utf-8")
    change = {"wall_ref_s": 11.0}
    assert _gate(tmp_path, change) == 0
    assert _gate(tmp_path, change, benchmark=tight) == 1


def test_an_unfinished_run_is_unreadable(tmp_path):
    partial = tmp_path / "partial.txt"
    partial.write_text(_output(0).rsplit("\n", 2)[0], encoding="utf-8")
    whole = tmp_path / "whole.txt"
    whole.write_text(_output(0), encoding="utf-8")
    assert check_perf.main(["--parent", str(whole),
                            "--change", str(partial)]) == 2
