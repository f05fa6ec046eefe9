"""Pareto-frontier quality on gcd and paulin.

Runs the multi-objective explorer over its default (objective x laxity)
grid — on the supervised worker pool, so the pool path gets nightly
coverage — for the control-dominated GCD and the data-dominated Paulin
solver and reports the two standard frontier-quality indicators:

* **frontier size** — how many mutually non-dominated (area, power,
  latency) design variants the archive-guided searches surfaced;
* **hypervolume** — the objective-space volume the front dominates up to
  a *fixed* per-benchmark reference point (committed below, comfortably
  beyond each benchmark's reachable region), the scalar that grows only
  when the front advances or spreads — comparable across runs precisely
  because the reference never moves.

The **hypervolume-over-time trace** (frontier hypervolume after each
grid cell's merge, fixed reference) is appended with the final numbers
to the checked-in trajectory ``BENCH_pareto.json``; the CI gate
(``check_search.py``) fails when the final hypervolume drops below the
median of recent matching records — a search-quality regression, caught
the same way ``check_perf.py`` catches wall-time regressions.

The frontier is deterministic for any worker count (the determinism
tests enforce bit-identity), so these metrics are stable
across machines; wall time is the only machine-dependent column.
Results land in ``results/pareto.txt`` and ``results/pareto.json``.

Set ``PARETO_SMOKE=1`` for the PR-gate mode: gcd only, a lighter search
— the trajectory keeps smoke and full records apart by their mode.
"""

import datetime
import json
import os
import pathlib

from conftest import RESULTS_DIR, publish, run_once
from repro.core.search import SearchConfig
from repro.experiments.report import format_table
from repro.explore import explore
from repro.store.atomic import write_json

SEARCH = SearchConfig(max_depth=4, max_candidates=10, max_iterations=5, seed=0)
NAMES = ("gcd", "paulin")
N_PASSES = 15
STEAL_WORKERS = 2
if os.environ.get("PARETO_SMOKE"):
    NAMES = ("gcd",)
    N_PASSES = 8
    SEARCH = SearchConfig(max_depth=3, max_candidates=8, max_iterations=3,
                          seed=0)

BENCH_LOG = pathlib.Path(__file__).resolve().parent.parent / "BENCH_pareto.json"

#: The checked-in trajectory keeps only this many most-recent records.
MAX_RECORDS = 50

#: Fixed hypervolume reference points (area, power mW, latency cycles),
#: chosen well outside each benchmark's reachable objective region so
#: every frontier point contributes volume and runs stay comparable.
REFERENCES = {
    "gcd": (1500.0, 4.0, 150.0),
    "paulin": (40000.0, 25.0, 250.0),
}


def append_run_record(record: dict) -> None:
    """Append one run record to the checked-in search-quality trajectory."""
    log = {"records": []}
    if BENCH_LOG.exists():
        log = json.loads(BENCH_LOG.read_text(encoding="utf-8"))
    log["records"] = (log.get("records", []) + [record])[-MAX_RECORDS:]
    write_json(BENCH_LOG, log)


def bench_pareto(benchmark):
    def run():
        rows = []
        results = {}
        for name in NAMES:
            result = explore(name, steal=STEAL_WORKERS, n_passes=N_PASSES,
                             search=SEARCH, hv_reference=REFERENCES[name])
            summary = result.summary()
            summary["hypervolume"] = result.front.hypervolume(
                REFERENCES[name])
            results[name] = {**summary, "wall_time_s": result.wall_time_s,
                             "reference": REFERENCES[name],
                             "frontier": result.rows()}
            rows.append({
                "benchmark": name,
                "jobs": summary["jobs"],
                "evaluations": summary["evaluations"],
                "offers": summary["offered"],
                "frontier": summary["frontier_size"],
                "hypervolume": f"{summary['hypervolume']:.4g}",
                "warm": summary["warm_hits"],
                "wall_s": f"{result.wall_time_s:.2f}",
            })
        return rows, results

    rows, results = run_once(benchmark, run)
    benchmark.extra_info.update({
        name: {k: results[name][k] for k in
               ("frontier_size", "hypervolume", "evaluations")}
        for name in NAMES
    })
    publish("pareto", format_table(rows, title=(
        f"Pareto frontier quality over the default explore grid "
        f"({STEAL_WORKERS} steal workers; size + hypervolume are "
        f"topology invariant)")))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "pareto.json").write_text(
        json.dumps(results, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    append_run_record({
        "bench": "pareto",
        "benchmarks": list(NAMES),
        "smoke": bool(os.environ.get("PARETO_SMOKE")),
        "recorded_at": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "results": {name: {
            "hypervolume": results[name]["hypervolume"],
            "hv_trace": results[name]["hv_trace"],
            "frontier_size": results[name]["frontier_size"],
            "evaluations": results[name]["evaluations"],
        } for name in NAMES},
    })
    for name in NAMES:
        assert results[name]["frontier_size"] >= 1
        assert results[name]["hypervolume"] > 0.0
