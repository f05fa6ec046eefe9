"""Run workloads over several seeds and print each metric's spread.

From the repository root::

    python3 perfbench/spread.py --workloads fig13 conform --seeds 10

For every end-to-end metric it prints the median and the distance
between the first and third quartile as a share of the median, next to
the metric's bound in ``BENCHMARK.json``.  A spread near the bound makes
a regression check on that metric unreliable.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.measure import p50, quartile_spread  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in range(args.seeds):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result: {result}")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, series in values.items():
            spread = quartile_spread(series)
            worst = max(worst, spread / bounds[name])
            print(f"{workload:<8s} {name:<12s} median {p50(series):10.4f}  "
                  f"spread {spread:6.3f}  bound {bounds[name]:.2f}  "
                  f"values {[round(v, 3) for v in series]}", flush=True)
    print(f"largest spread over bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
