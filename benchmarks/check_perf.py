"""CI perf gate: compare perfbench runs of a change against its parent.

Each input file is the output of one ``perfbench/run.py --trace 0`` run:
its metric lines, its fingerprint line and, last, its JSON line.  Runs
are grouped by workload, and within a workload the change's runs are
compared against the parent's.  The gate fails when

- any change run prints ``"correct": false``;
- the change fails a larger share of items than the parent;
- the median of an end-to-end metric is worse than the parent's by more
  than its bound in ``BENCHMARK.json``;
- the median of a printed ``qor.*`` metric is worse than the parent's
  by more than :data:`QOR_BOUND`, in the direction ``BENCHMARK.json``
  gives it.

It prints every metric's medians and ratio, and both sides' work
fingerprints with whether they match, without gating on them: a change
may do different work on purpose.

Usage::

    python benchmarks/check_perf.py --parent PARENT_RUN... --change CHANGE_RUN...
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import re
import statistics
import sys
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"

#: Largest tolerated relative loss of a quality-of-result metric.
QOR_BOUND = 0.02

_HEADER = re.compile(r"^perfbench (\S+) seed \d+:")
_QOR = re.compile(r"^\s+(qor\.\S+)\s+(\S+)\s")
_FINGERPRINT = re.compile(r"^\s+fingerprint\s+(\S+)")


@dataclass
class Run:
    """What the gate reads from one run's output."""

    path: str
    workload: str
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    fingerprint: str


def parse_run(path: pathlib.Path) -> Run:
    """Read one run's output; raise ``ValueError`` when it is incomplete."""
    workload, fingerprint, report, metrics = None, "", None, {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if m := _HEADER.match(line):
            workload = m.group(1)
        elif m := _QOR.match(line):
            metrics[m.group(1)] = float(m.group(2))
        elif m := _FINGERPRINT.match(line):
            fingerprint = m.group(1)
        elif line.startswith("{"):
            report = json.loads(line)
    if workload is None or report is None:
        raise ValueError(f"{path}: not the output of a finished perfbench run")
    metrics.update({name: entry["value"]
                    for name, entry in report["metrics"].items()})
    return Run(str(path), workload, report["correct"], report["attempted"],
               report["failed"], metrics, fingerprint)


def load_rules(path: pathlib.Path = BENCHMARK) -> dict[str, tuple[str, float]]:
    """``{metric: (better, bound)}`` for every metric the gate compares.

    End-to-end metrics carry their bound from ``BENCHMARK.json``; the
    ``qor.*`` metrics take their direction from it and :data:`QOR_BOUND`.
    """
    spec = json.loads(path.read_text(encoding="utf-8"))
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rules.update({m["name"]: (m["better"], QOR_BOUND)
                  for m in spec["per_layer"] if m["name"].startswith("qor.")})
    return rules


def worse_by(parent: float, change: float, better: str) -> float:
    """Relative loss of ``change`` against ``parent``; negative is a gain."""
    loss = change - parent if better == "lower" else parent - change
    if not parent:
        return math.copysign(math.inf, loss) if loss else 0.0
    return loss / abs(parent)


def failed_share(runs: list[Run]) -> float:
    attempted = sum(r.attempted for r in runs)
    return sum(r.failed for r in runs) / attempted if attempted else 0.0


def compare(workload: str, parent: list[Run], change: list[Run],
            rules: dict) -> list[str]:
    """Print the comparison of one workload; return its failures."""
    failures = []
    print(f"perf gate: {workload}: {len(parent)} parent runs, "
          f"{len(change)} change runs")
    for run in change:
        if not run.correct:
            failures.append(f"{run.path} printed \"correct\": false")
    shares = failed_share(parent), failed_share(change)
    print(f"  failed share: parent {shares[0]:.3f}, change {shares[1]:.3f}")
    if shares[1] > shares[0]:
        failures.append(f"failed share {shares[1]:.3f} exceeds the "
                        f"parent's {shares[0]:.3f}")
    for name, (better, bound) in rules.items():
        before = [r.metrics[name] for r in parent if name in r.metrics]
        after = [r.metrics[name] for r in change if name in r.metrics]
        if not before:
            continue
        if len(after) < len(change):
            failures.append(f"{name} missing from a change run")
            continue
        p, c = statistics.median(before), statistics.median(after)
        loss = worse_by(p, c, better)
        verdict = "REGRESSION" if loss > bound else "ok"
        ratio = c / p if p else math.inf
        print(f"  {name:<32s} parent {p:>12.6g}  change {c:>12.6g}  "
              f"ratio {ratio:6.3f}  ({better} is better, bound "
              f"{bound:.0%}) {verdict}")
        if loss > bound:
            failures.append(f"{name} median {c:.6g} is {loss:.1%} worse "
                            f"than the parent's {p:.6g} (bound {bound:.0%})")
    prints = ({r.fingerprint for r in parent}, {r.fingerprint for r in change})
    print(f"  fingerprint: parent {sorted(prints[0])}, change "
          f"{sorted(prints[1])}: "
          f"{'match' if prints[0] == prints[1] else 'differ (not gated)'}")
    return failures


def main(argv: list[str] | None = None, benchmark: pathlib.Path = BENCHMARK
         ) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True,
                        type=pathlib.Path, help="outputs of parent runs")
    parser.add_argument("--change", nargs="+", required=True,
                        type=pathlib.Path, help="outputs of change runs")
    args = parser.parse_args(argv)
    try:
        parent = [parse_run(p) for p in args.parent]
        change = [parse_run(p) for p in args.change]
    except (OSError, ValueError, KeyError) as exc:
        print(f"perf gate: unreadable run output: {exc}")
        return 2
    rules = load_rules(benchmark)

    failures = []
    workloads = sorted({r.workload for r in parent + change})
    for workload in workloads:
        before = [r for r in parent if r.workload == workload]
        after = [r for r in change if r.workload == workload]
        if not before or not after:
            failures.append(f"{workload}: runs on one side only")
            continue
        failures += [f"{workload}: {f}"
                     for f in compare(workload, before, after, rules)]
    for failure in failures:
        print(f"perf gate: FAIL {failure}")
    print(f"perf gate: {'FAIL' if failures else 'pass'} on "
          f"{', '.join(workloads)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
