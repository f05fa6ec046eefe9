"""Section 4 headline numbers across the whole suite.

The paper reports: up to 6.7x power reduction over the 5 V area-optimized
base, up to 2.6x over the Vdd-scaled area-optimized designs, and <= 30 %
area overhead.  This bench aggregates the maxima over all six Figure 13
sweeps (coarser grid than the per-benchmark benches, so it stands alone).

Each sweep runs through one :class:`~repro.core.engine.SynthesisEngine`,
so the bench also tracks the performance trajectory of the synthesis hot
path itself: wall time, candidate evaluations, the pipeline-cache hit
rates, and the per-stage timing/incremental-hit breakdown from
:data:`repro.core.profile.PROFILER` (how often the delta-based
incremental evaluation layer short-circuited a full recomputation).
Headline metrics are emitted as a table, as one machine-readable JSON
line (persisted to ``results/headline.json`` with the per-stage profile
mirrored to ``results/profile.json``), and as an appended run record in
``BENCH_headline.json`` — the checked-in perf trajectory the CI
perf-smoke job gates regressions against (see ``check_perf.py``).

The run also differentially cosimulates every benchmark's design across
the four execution models (interpreter / replay / gatesim / emitted-
Verilog netsim) and persists the verdicts to ``results/conformance.json``
— a headline number is only as good as the agreement of the models that
produced it.

Set ``HEADLINE_SMOKE=1`` to restrict the run to the two smallest
benchmarks — the CI smoke/perf-gate mode.
"""

import datetime
import json
import os
import pathlib
import time

from conftest import RESULTS_DIR, publish, run_once
from repro.core.profile import PROFILER
from repro.core.search import SearchConfig
from repro.experiments.laxity import run_laxity_sweep
from repro.experiments.report import format_table
from repro.store.atomic import atomic_write_text, write_json
from repro.verify.conformance import verify_benchmark

SEARCH = SearchConfig(max_depth=4, max_candidates=10, max_iterations=5, seed=0)
NAMES = ("loops", "gcd", "dealer", "x25_send", "cordic", "paulin")
CONFORMANCE_PASSES = 25
if os.environ.get("HEADLINE_SMOKE"):
    NAMES = ("loops", "gcd")
    CONFORMANCE_PASSES = 10

BENCH_LOG = pathlib.Path(__file__).resolve().parent.parent / "BENCH_headline.json"

#: Every pipeline stage with an incremental fast path.  Emitted explicitly
#: (zeros included) in ``incremental_hits`` so trend tooling sees a stage
#: losing its incremental coverage as a 0, not as a missing key.
PIPELINE_STAGES = ("arch_build", "replay", "schedule", "trace_merge")

#: The checked-in trajectory keeps only this many most-recent records.
MAX_RECORDS = 50


def append_run_record(record: dict) -> None:
    """Append one run record to the checked-in perf trajectory.

    The records list is capped at the most recent :data:`MAX_RECORDS`
    entries so the checked-in file stays reviewable.
    """
    log = {"records": []}
    if BENCH_LOG.exists():
        log = json.loads(BENCH_LOG.read_text(encoding="utf-8"))
    log["records"] = (log.get("records", []) + [record])[-MAX_RECORDS:]
    write_json(BENCH_LOG, log)


def bench_headline(benchmark):
    def run():
        rows = []
        totals = {"hits": 0, "misses": 0, "replay_hits": 0,
                  "replay_misses": 0, "evaluations": 0}
        profile_window = PROFILER.snapshot()
        t0 = time.perf_counter()
        for name in NAMES:
            sweep = run_laxity_sweep(name, laxities=(1.0, 2.0, 3.0),
                                     n_passes=15, search=SEARCH)
            assert sweep.total_mismatches() == 0
            stats = sweep.cache_stats
            totals["hits"] += stats["total"]["hits"]
            totals["misses"] += stats["total"]["misses"]
            totals["replay_hits"] += stats["replay"]["hits"]
            totals["replay_misses"] += stats["replay"]["misses"]
            totals["evaluations"] += sweep.evaluations
            rows.append({
                "benchmark": name,
                "vs 5V base": f"{sweep.max_power_reduction_vs_base():.2f}x",
                "vs A-Power": f"{sweep.max_power_reduction_vs_a():.2f}x",
                "area overhead": f"{sweep.max_area_overhead():.1%}",
                "cache hit rate": f"{stats['total']['hit_rate']:.1%}",
            })
        totals["wall_time_s"] = round(time.perf_counter() - t0, 3)
        totals["profile"] = PROFILER.window(profile_window)

        # Differential conformance over the same registry: the oracle
        # chain must agree before any power number above is credible.
        conformance = []
        for name in NAMES:
            report = verify_benchmark(name, n_passes=CONFORMANCE_PASSES,
                                      seed=0, use_iverilog="auto",
                                      minimize=False)
            conformance.append(report.summary())
        totals["conformance"] = conformance
        return rows, totals

    rows, totals = run_once(benchmark, run)
    conformance = totals["conformance"]
    conformance_ok = all(c["ok"] for c in conformance)
    calls = totals["hits"] + totals["misses"]
    profile = totals["profile"]
    # Scheduling is not memoized: every schedule stage call computes.
    schedules = profile.get("schedule", {}).get("calls", 0)
    sched_replay_calls = (schedules + totals["replay_hits"]
                          + totals["replay_misses"])
    sched_replay_computes = schedules + totals["replay_misses"]
    incremental_hits = {stage: profile.get(stage, {}).get("incremental", 0)
                        for stage in PIPELINE_STAGES}
    metrics = {
        "bench": "headline",
        "benchmarks": list(NAMES),
        "smoke": bool(os.environ.get("HEADLINE_SMOKE")),
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "wall_time_s": totals["wall_time_s"],
        "evaluations": totals["evaluations"],
        "cache_hit_rate": round(totals["hits"] / calls, 4) if calls else 0.0,
        "schedule_replay_calls": sched_replay_calls,
        "schedule_replay_computes": sched_replay_computes,
        "compute_reduction": round(sched_replay_calls / sched_replay_computes, 2)
        if sched_replay_computes else 1.0,
        "incremental_hits": incremental_hits,
        "profile": profile,
        "conformance_ok": conformance_ok,
        "conformance_passes": CONFORMANCE_PASSES,
    }
    benchmark.extra_info.update(metrics)

    text = format_table(rows, title=(
        "Section 4 headlines (paper: up to 6.7x vs base, up to 2.6x vs "
        "A-Power, <= 30% area overhead)"))
    text += (
        f"\n\npipeline: {totals['wall_time_s']:.2f}s wall, "
        f"{totals['evaluations']} evaluations, "
        f"{metrics['cache_hit_rate']:.1%} cache hit rate, "
        f"{metrics['compute_reduction']:.2f}x fewer schedule/replay "
        f"computations ({sched_replay_computes}/{sched_replay_calls})")
    stage_bits = []
    for stage in sorted(profile):
        stats = profile[stage]
        stage_bits.append(
            f"{stage} {stats['seconds']:.2f}s"
            f" ({stats['incremental']}/{stats['calls']} incremental)")
    if stage_bits:
        text += "\nstages: " + ", ".join(stage_bits)
    text += (
        f"\nconformance: {sum(c['ok'] for c in conformance)}/{len(conformance)} "
        f"benchmarks agree across interpreter/replay/gatesim/netsim "
        f"({CONFORMANCE_PASSES} passes each)")
    publish("headline", text)

    # One machine-readable line per run, for the perf trajectory.
    json_line = json.dumps(metrics, sort_keys=True)
    print(json_line)
    RESULTS_DIR.mkdir(exist_ok=True)
    atomic_write_text(RESULTS_DIR / "headline.json", json_line + "\n")
    write_json(RESULTS_DIR / "profile.json",
               {"recorded_at": metrics["recorded_at"],
                "wall_time_s": metrics["wall_time_s"],
                "benchmarks": list(NAMES),
                "stages": profile,
                "incremental_hits": incremental_hits})
    write_json(RESULTS_DIR / "conformance.json",
               {"ok": conformance_ok, "passes": CONFORMANCE_PASSES,
                "benchmarks": conformance}, indent=2)
    append_run_record(metrics)
    assert conformance_ok, "conformance divergence — see results/conformance.json"
