"""CI perf gate: fail on a wall-time regression against the baseline.

Compares the freshly measured headline run (``results/headline.json``,
written by ``bench_headline.py``) against the checked-in perf trajectory
(``BENCH_headline.json``): the baseline is the **median of the last 3**
earlier records matching the current run's mode (same ``smoke`` flag and
benchmark set), and the gate fails when the current wall time exceeds
``--max-ratio`` times that median (default 1.25, i.e. a >25 %
regression).  A single-record comparison flakes on noisy runners; the
median absorbs one outlier calibration run.  When the baseline file has
no records matching the current mode, the gate fails with a clear
message naming the mode — run the bench once in that mode to seed the
trajectory (the CI job seeds it with three runs of the parent commit).

Wall time is machine-dependent; the default ratio leaves headroom for
runner jitter while still catching the order-of-magnitude mistakes
(accidentally disabled caching, a quadratic loop) the gate exists for.

Usage::

    python benchmarks/check_perf.py [--baseline BENCH_headline.json]
                                    [--current results/headline.json]
                                    [--max-ratio 1.25]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: How many recent matching records the baseline median is taken over.
BASELINE_WINDOW = 3


def find_baselines(records: list[dict], current: dict,
                   window: int = BASELINE_WINDOW) -> list[dict]:
    """The most recent earlier records matching the current run's mode.

    A record matches when it covers the same benchmark set under the same
    ``smoke`` flag — comparing a smoke run against a full run (or vice
    versa) would measure the mode switch, not a regression.

    A current run missing ``recorded_at`` is treated as newer than every
    record (previously it matched nothing and the gate failed spuriously),
    and records sharing the current timestamp count too (sub-second CI
    reruns used to silently lose their whole baseline window).  The
    current run's own record — appended to the trajectory by
    ``bench_headline.py`` before the gate runs — is excluded so it never
    gates against itself.
    """
    cur_ts = current.get("recorded_at")
    matches = [
        r for r in records
        if r != current
        and bool(r.get("smoke")) == bool(current.get("smoke"))
        and r.get("benchmarks") == current.get("benchmarks")
        and (cur_ts is None or r.get("recorded_at", "") <= cur_ts)
        and "wall_time_s" in r
    ]
    return matches[-window:]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default=str(ROOT / "BENCH_headline.json"))
    parser.add_argument("--current", default=str(ROOT / "results" / "headline.json"))
    parser.add_argument("--max-ratio", type=float, default=1.25)
    args = parser.parse_args(argv)

    current = json.loads(pathlib.Path(args.current).read_text(encoding="utf-8"))
    baseline_path = pathlib.Path(args.baseline)
    if not baseline_path.exists():
        print(f"perf gate: no baseline file {baseline_path}; passing (seed run)")
        return 0
    records = json.loads(baseline_path.read_text(encoding="utf-8")).get("records", [])
    baselines = find_baselines(records, current)
    if not baselines:
        print(f"perf gate: {baseline_path.name} has no records matching "
              f"smoke={bool(current.get('smoke'))} benchmarks="
              f"{current.get('benchmarks')} — run bench_headline.py once in "
              "this mode to seed the trajectory before gating")
        return 1

    wall = current["wall_time_s"]
    base = statistics.median(r["wall_time_s"] for r in baselines)
    ratio = wall / base if base else float("inf")
    verdict = "OK" if ratio <= args.max_ratio else "REGRESSION"
    window = ", ".join(f"{r['wall_time_s']:.2f}s" for r in baselines)
    print(f"perf gate: current {wall:.2f}s vs median {base:.2f}s of last "
          f"{len(baselines)} matching records [{window}] -> {ratio:.2f}x "
          f"[{verdict}, limit {args.max_ratio:.2f}x]")
    if verdict == "REGRESSION":
        print("perf gate: headline wall time regressed by more than "
              f"{(args.max_ratio - 1.0):.0%} — see results/profile.json for "
              "the per-stage breakdown")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
