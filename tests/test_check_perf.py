"""The perf-gate baseline selection (``benchmarks/check_perf.py``).

Regression coverage for two ``find_baselines`` bugs: a current record
missing ``recorded_at`` used to match *nothing* (the strict ``<`` put
every record "after" the empty string) and fail the gate spuriously, and
records sharing the current timestamp — sub-second CI reruns — were
silently dropped from the baseline window.  The current run's own
record, appended to the trajectory before the gate runs, must still be
excluded.
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


def _record(ts: str | None, wall: float = 10.0, *, smoke: bool = True,
            benchmarks=("loops", "gcd")) -> dict:
    rec = {"smoke": smoke, "benchmarks": list(benchmarks),
           "wall_time_s": wall}
    if ts is not None:
        rec["recorded_at"] = ts
    return rec


def test_missing_current_timestamp_matches_all_earlier_records():
    records = [_record("2026-01-01T00:00:00+00:00"),
               _record("2026-01-02T00:00:00+00:00")]
    current = _record(None, wall=11.0)
    assert check_perf.find_baselines(records, current) == records


def test_tied_timestamps_stay_in_the_window():
    ts = "2026-01-03T00:00:00+00:00"
    tied = _record(ts, wall=9.0)
    records = [_record("2026-01-01T00:00:00+00:00"), tied]
    current = _record(ts, wall=12.0)
    assert tied in check_perf.find_baselines(records, current)


def test_current_runs_own_appended_record_is_excluded():
    # bench_headline.py appends the current record before the gate runs;
    # the gate must never compare the run against itself.
    current = _record("2026-01-04T00:00:00+00:00", wall=12.0)
    records = [_record("2026-01-01T00:00:00+00:00"), dict(current)]
    baselines = check_perf.find_baselines(records, current)
    assert baselines == [records[0]]


def test_mode_mismatch_and_future_records_are_excluded():
    current = _record("2026-01-02T00:00:00+00:00")
    records = [
        _record("2026-01-01T00:00:00+00:00", smoke=False),     # mode
        _record("2026-01-01T00:00:00+00:00",
                benchmarks=("loops",)),                        # bench set
        _record("2026-01-09T00:00:00+00:00"),                  # future
        {"smoke": True, "benchmarks": ["loops", "gcd"],
         "recorded_at": "2026-01-01T00:00:00+00:00"},          # no wall time
        _record("2026-01-01T12:00:00+00:00", wall=8.0),        # the keeper
    ]
    assert check_perf.find_baselines(records, current) == [records[-1]]


def test_window_keeps_the_most_recent_matches():
    records = [_record(f"2026-01-0{i}T00:00:00+00:00", wall=float(i))
               for i in range(1, 6)]
    current = _record("2026-01-09T00:00:00+00:00")
    baselines = check_perf.find_baselines(records, current, window=3)
    assert [r["wall_time_s"] for r in baselines] == [3.0, 4.0, 5.0]


# -- main() end to end ----------------------------------------------------------------


def _run_gate(tmp_path, records, current, max_ratio="1.25") -> int:
    baseline = tmp_path / "BENCH_headline.json"
    baseline.write_text(json.dumps({"records": records}), encoding="utf-8")
    current_path = tmp_path / "headline.json"
    current_path.write_text(json.dumps(current), encoding="utf-8")
    return check_perf.main(["--baseline", str(baseline),
                            "--current", str(current_path),
                            "--max-ratio", max_ratio])


def test_gate_passes_within_ratio_and_fails_on_regression(tmp_path, capsys):
    records = [_record(f"2026-01-0{i}T00:00:00+00:00", wall=10.0)
               for i in range(1, 4)]
    assert _run_gate(tmp_path, records, _record(None, wall=11.0)) == 0
    assert _run_gate(tmp_path, records, _record(None, wall=20.0)) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_gate_fails_clearly_with_no_matching_mode(tmp_path, capsys):
    records = [_record("2026-01-01T00:00:00+00:00", smoke=False)]
    assert _run_gate(tmp_path, records, _record(None)) == 1
    assert "no records matching" in capsys.readouterr().out


def test_one_noisy_record_does_not_loosen_the_median(tmp_path):
    # Median of [10, 30, 10] is 10: 12 s passes at 1.25 and fails at 1.1.
    records = [_record(f"2026-01-0{i}T00:00:00+00:00", wall=wall)
               for i, wall in enumerate((10.0, 30.0, 10.0), start=1)]
    assert _run_gate(tmp_path, records, _record(None, wall=12.0)) == 0
    assert _run_gate(tmp_path, records, _record(None, wall=12.0),
                     max_ratio="1.1") == 1


def test_missing_baseline_file_passes_as_a_seed_run(tmp_path):
    current = tmp_path / "headline.json"
    current.write_text(json.dumps(_record(None, wall=12.0)), encoding="utf-8")
    assert check_perf.main(["--baseline", str(tmp_path / "missing.json"),
                            "--current", str(current)]) == 0
