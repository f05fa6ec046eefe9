"""Design-space exploration: build a benchmark's Pareto frontier.

Runs the multi-objective explorer (the same engine behind
``python -m repro explore``): a grid of area- / power- / weighted-
objective searches across a laxity sweep, every feasible visited design
offered to a Pareto archive, merged into one (area, power, latency)
frontier.  Prints the frontier, the per-job accounting and an ASCII
projection of the area/power trade-off, then writes the JSON/CSV/
markdown reports under ``results/``.

Run:  python examples/design_space_exploration.py [benchmark] [workers]
      (default: gcd, 2 worker processes — any worker count yields the
      identical frontier; see docs/cli.md)
"""

import sys

from repro.benchmarks import BENCHMARKS
from repro.core.search import SearchConfig
from repro.experiments.report import ascii_series, format_table, write_report
from repro.explore import explore, verify_frontier


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "gcd"
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    if name not in BENCHMARKS:
        raise SystemExit(f"unknown benchmark {name!r}; pick one of {sorted(BENCHMARKS)}")

    search = SearchConfig(max_depth=5, max_candidates=12, max_iterations=6)
    print(f"Exploring {name} on {workers} worker process(es) ...")
    result = explore(name, steal=workers, n_passes=20, search=search)
    summary = result.summary()

    print()
    print(format_table(result.rows(), title=(
        f"{name}: {summary['frontier_size']}-point Pareto frontier "
        f"(area, power, latency)")))
    print(f"\n{summary['jobs']} jobs, {summary['evaluations']} candidate "
          f"evaluations, {summary['offered']} archive offers, "
          f"hypervolume {summary['hypervolume']:.4g}, "
          f"{result.wall_time_s:.2f}s wall")

    points = result.front.points
    if len(points) > 1:
        xs = [p.area for p in points]
        print("\narea (x) vs power (y) projection of the frontier:")
        print(ascii_series(xs, {"frontier": [p.power for p in points]}))

    reports = verify_frontier(result)
    print(f"\nconformance: {sum(r.ok for r in reports)}/{len(reports)} "
          f"frontier points agree across every execution model")

    written = write_report(result.rows(), f"results/explore_{name}",
                           title=f"explore {name}",
                           extra={"summary": summary, "jobs": result.jobs})
    print("reports: " + ", ".join(str(p) for p in written.values()))


if __name__ == "__main__":
    main()
