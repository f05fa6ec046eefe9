"""The ``python -m repro`` command-line interface.

Six subcommands cover the production entry points (documented in
``docs/cli.md``):

* ``repro synth``   — one IMPACT synthesis run, summary + report files;
* ``repro explore`` — the multi-objective Pareto-frontier explorer
  (grid cells on a supervised worker pool, frontier verified by default);
* ``repro verify``  — the differential-conformance oracle chain;
* ``repro bench``   — a Figure 13 laxity sweep with report emission;
* ``repro fuzz``    — random-program fuzzing through the full synthesize
  + conformance chain (see docs/fuzzing.md), with shrunk reproducers;
* ``repro serve``   — the async synthesis job server (see
  docs/service.md).

``explore`` and ``serve`` take ``--store DIR`` (default:
``$REPRO_STORE_DIR`` when set), the persistent artifact store that
checkpoints explore grid cells, so a repeated exploration warm-starts
from disk.

Every report lands under ``--results-dir`` (default ``results/``) as
JSON + CSV + markdown via :func:`repro.experiments.report.write_report`.
The functions here are importable — ``examples/`` and the docs route
through them so the documented surface stays the executed one.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.benchmarks.registry import BENCHMARKS, get_benchmark
from repro.core.search import SearchConfig
from repro.errors import ReproError
from repro.experiments.report import format_table, write_report
from repro.explore.driver import DEFAULT_LAXITIES, DEFAULT_OBJECTIVES

DEFAULT_RESULTS_DIR = pathlib.Path("results")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _parse_weights(text: str) -> tuple[float, float, float]:
    """Parse ``--weights``: exactly a WA,WP,WL triple."""
    weights = _parse_floats(text)
    if len(weights) != 3:
        raise argparse.ArgumentTypeError(
            f"--weights takes exactly three comma-separated values "
            f"(w_area,w_power,w_latency), got {text!r}")
    return weights


def _parse_objectives(text: str) -> tuple:
    """Parse ``--objectives``: "area,power,0.5:0.5:0" -> mixed spec tuple."""
    specs: list = []
    for item in (x.strip() for x in text.split(",") if x.strip()):
        if item in ("area", "power"):
            specs.append(item)
            continue
        weights = tuple(float(w) for w in item.split(":"))
        if len(weights) != 3:
            raise argparse.ArgumentTypeError(
                f"objective {item!r} is neither area/power nor a "
                f"w_area:w_power:w_latency triple")
        specs.append(weights)
    if not specs:
        raise argparse.ArgumentTypeError("no objectives given")
    return tuple(specs)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value:g}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value:g}")
    return value


def _parse_laxities(text: str) -> tuple[float, ...]:
    """Parse ``--laxities``: a non-empty list of comma floats, each >= 1.0."""
    laxities = _parse_floats(text)
    if not laxities:
        raise argparse.ArgumentTypeError("no laxities given")
    for laxity in laxities:
        if laxity < 1.0:
            raise argparse.ArgumentTypeError(
                f"laxity factors must be >= 1.0, got {laxity:g}")
    return laxities


def _unit_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value:g}")
    return value


def _search_from_args(args) -> SearchConfig:
    return SearchConfig(max_depth=args.depth, max_candidates=args.candidates,
                        max_iterations=args.iterations, seed=args.seed)


def _add_common(parser: argparse.ArgumentParser, *, passes: int) -> None:
    parser.add_argument("-b", "--benchmark", required=True,
                        choices=sorted(BENCHMARKS),
                        help="registry benchmark to run on")
    parser.add_argument("--passes", type=_positive_int, default=passes,
                        help="profiling stimulus passes (default %(default)s)")
    parser.add_argument("--stimulus-seed", type=int, default=7,
                        help="stimulus RNG seed (default %(default)s)")
    parser.add_argument("--results-dir", type=pathlib.Path,
                        default=DEFAULT_RESULTS_DIR,
                        help="report output directory (default %(default)s)")


def _add_store(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", type=pathlib.Path, default=None,
                        metavar="DIR",
                        help="artifact-store directory for explore "
                             "checkpoints (default $REPRO_STORE_DIR when "
                             "set; omit both to run without a store)")


def _add_search(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0,
                        help="search RNG seed (default %(default)s)")
    parser.add_argument("--depth", type=_positive_int, default=5,
                        help="max move-sequence depth (default %(default)s)")
    parser.add_argument("--candidates", type=_positive_int, default=12,
                        help="candidate moves sampled per depth "
                             "(default %(default)s)")
    parser.add_argument("--iterations", type=_positive_int, default=6,
                        help="max search iterations (default %(default)s)")


# -- synth ----------------------------------------------------------------------------


def cmd_synth(args) -> int:
    """One IMPACT flow: synthesize, summarize, optionally verify."""
    from repro.explore import engine_for_benchmark

    from repro.core.search import WeightedObjective

    engine = engine_for_benchmark(args.benchmark, n_passes=args.passes,
                                  seed=args.stimulus_seed)
    mode = args.mode
    if args.weights is not None:
        mode = WeightedObjective.for_engine(engine, args.weights, args.laxity)
    result = engine.run(mode=mode, laxity=args.laxity,
                        search=_search_from_args(args))
    summary = result.summary()
    print(format_table([summary], title=f"repro synth {args.benchmark}"))

    verified = None
    if args.verify:
        report = engine.verify(design=result.design)
        verified = report.ok
        print(f"conformance: {'OK' if report.ok else 'DIVERGED'} "
              f"({len(engine.stimulus)} passes)")

    written = write_report(
        [summary], args.results_dir / f"synth_{args.benchmark}",
        title=f"repro synth {args.benchmark}",
        extra={"benchmark": args.benchmark, "laxity": args.laxity,
               "enc_min": result.enc_min, "enc_budget": result.enc_budget,
               "verified": verified})
    print("reports: " + ", ".join(str(p) for p in written.values()))
    return 0 if verified is not False else 1


# -- explore --------------------------------------------------------------------------


def cmd_explore(args) -> int:
    """Pareto-frontier exploration plus frontier verification."""
    from repro.explore import explore, verify_frontier

    result = explore(
        args.benchmark, objectives=args.objectives, laxities=args.laxities,
        seeds=(args.seed,), steal=args.steal, n_passes=args.passes,
        stimulus_seed=args.stimulus_seed, search=_search_from_args(args),
        store_dir=None if args.store is None else str(args.store))
    summary = result.summary()
    rows = result.rows()
    print(format_table(rows, title=(
        f"repro explore {args.benchmark}: {len(rows)}-point Pareto frontier "
        f"(area, power, latency)")))
    workers = (f"{summary['steal_workers']} worker process(es)"
               if result.steal_workers else "in-process")
    warm = (f", {summary['warm_hits']} warm-started from the store"
            if result.warm_hits else "")
    print(f"\n{summary['jobs']} jobs ({workers}), "
          f"{summary['evaluations']} evaluations, {summary['offered']} "
          f"archive offers, hypervolume {summary['hypervolume']:.4g}{warm}, "
          f"{result.wall_time_s:.2f}s")

    verified = None
    if args.verify:
        reports = verify_frontier(result, use_iverilog=args.iverilog)
        verified = [r.ok for r in reports]
        print(f"conformance: {sum(verified)}/{len(verified)} frontier "
              f"points agree across every execution model")

    written = write_report(
        rows, args.results_dir / f"explore_{args.benchmark}",
        title=f"repro explore {args.benchmark}",
        extra={"summary": summary, "jobs": result.jobs,
               "verified": verified})
    print("reports: " + ", ".join(str(p) for p in written.values()))
    if verified is not None and not all(verified):
        return 1
    return 0


# -- verify ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    """Differential conformance over one or every registry benchmark."""
    from repro.verify.conformance import verify_benchmark

    names = sorted(BENCHMARKS) if args.all else [args.benchmark]
    if names == [None]:
        print("repro verify: pass -b <benchmark> or --all", file=sys.stderr)
        return 2
    reports = [verify_benchmark(name, n_passes=args.passes,
                                seed=args.stimulus_seed,
                                use_iverilog=args.iverilog)
               for name in names]
    rows = [report.summary() for report in reports]
    ok = all(report.ok for report in reports)
    print(format_table(rows, title=f"repro verify ({args.passes} passes)"))
    for report in reports:
        if report.divergences:
            print(f"\n{report.name}:")
            for divergence in report.divergences:
                print(f"    {divergence}")
    written = write_report(
        rows, args.results_dir / "verify_cli",
        title=f"repro verify ({args.passes} passes)",
        extra={"ok": ok, "passes": args.passes})
    print("reports: " + ", ".join(str(p) for p in written.values()))
    return 0 if ok else 1


# -- bench ----------------------------------------------------------------------------


def cmd_bench(args) -> int:
    """One Figure 13 laxity sweep with table + report emission."""
    from repro.experiments.laxity import run_laxity_sweep
    from repro.experiments.report import format_sweep

    laxities = args.laxities or tuple(
        round(1.0 + 2.0 * i / max(args.points - 1, 1), 2)
        for i in range(args.points))
    sweep = run_laxity_sweep(args.benchmark, laxities=laxities,
                             n_passes=args.passes, seed=args.stimulus_seed,
                             search=_search_from_args(args))
    print(format_sweep(sweep))

    # Per-stage incremental rates: how often each pipeline stage took its
    # delta fast path instead of a full recomputation during this sweep
    # (for a ``memo.<table>`` stage, how often a lookup hit).
    stage_rows = []
    for stage in sorted(sweep.profile):
        stats = sweep.profile[stage]
        calls, hits = stats["calls"], stats["incremental"]
        stage_rows.append({
            "stage": stage,
            "calls": calls,
            "incremental": hits,
            "incremental_rate": f"{hits / calls:.1%}" if calls else "n/a",
            "seconds": round(stats["seconds"], 3),
        })
    if stage_rows:
        print(format_table(stage_rows, title="pipeline stages (incremental "
                                             "fast-path hit rates)"))

    written = write_report(
        [p.row() for p in sweep.points],
        args.results_dir / f"bench_{args.benchmark}",
        title=f"repro bench {args.benchmark} (Figure 13 sweep)",
        extra={"benchmark": args.benchmark,
               "evaluations": sweep.evaluations,
               "max_power_reduction_vs_base":
                   sweep.max_power_reduction_vs_base(),
               "max_power_reduction_vs_a": sweep.max_power_reduction_vs_a(),
               "max_area_overhead": sweep.max_area_overhead(),
               "mismatches": sweep.total_mismatches(),
               "incremental_rates": {
                   r["stage"]: r["incremental_rate"] for r in stage_rows}})
    written_stages = write_report(
        stage_rows,
        args.results_dir / f"bench_{args.benchmark}_stages",
        title=f"repro bench {args.benchmark} — pipeline stage "
              "incremental rates",
        extra={"benchmark": args.benchmark})
    print("reports: " + ", ".join(
        str(p) for p in list(written.values()) + list(written_stages.values())))
    return 0 if sweep.total_mismatches() == 0 else 1


# -- fuzz -----------------------------------------------------------------------------


def cmd_fuzz(args) -> int:
    """Random-program fuzzing through synthesis + the conformance chain."""
    import dataclasses

    from repro.genprog import GenConfig, program_from_source
    from repro.genprog.fuzz import fuzz_program, fuzz_run

    search = SearchConfig(max_depth=args.search_depth,
                          max_candidates=args.search_candidates,
                          max_iterations=args.search_iterations, seed=0)
    gen = dataclasses.replace(GenConfig(), ops_budget=args.max_ops,
                              max_depth=args.nesting,
                              branch_density=args.branch_density,
                              loop_density=args.loop_density,
                              array_density=args.array_density,
                              n_arrays=args.arrays)

    if args.replay is not None:
        if not args.replay.exists():
            print(f"repro fuzz: reproducer {args.replay} not found",
                  file=sys.stderr)
            return 2
        # The stimulus family derives from the generator seed, so replay
        # with the failing row's `seed` to feed the reproducer the exact
        # input vectors that exposed it.
        program = program_from_source(
            args.replay.read_text(encoding="utf-8"),
            config=dataclasses.replace(gen, seed=args.seed))
        verdict = fuzz_program(program, laxities=args.laxities,
                               n_passes=args.passes, search=search,
                               use_iverilog=args.iverilog)
        print(format_table([verdict.row()],
                           title=f"repro fuzz --replay {args.replay}"))
        if verdict.detail:
            print(verdict.detail)
        return 0 if verdict.ok else 1

    report = fuzz_run(args.count, args.seed, laxities=args.laxities,
                      n_passes=args.passes, gen=gen, search=search,
                      use_iverilog=args.iverilog,
                      results_dir=args.results_dir,
                      shrink_trials=args.shrink_trials)
    summary = report.summary()
    rows = report.rows()
    print(format_table(rows, title=(
        f"repro fuzz: {report.n_ok}/{report.count} programs "
        f"conformance-clean, {report.n_bins} structural bins "
        f"(seed {report.seed})")))
    families = ", ".join(f"{family}:{count}" for family, count
                         in summary["bin_families"].items())
    print(f"\nbins by family: {families}")
    for verdict in report.verdicts:
        if not verdict.ok:
            path = args.results_dir / verdict.reproducer
            print(f"\n{verdict.name} [{verdict.status}]: {verdict.detail}")
            print(f"  shrunk reproducer: {path} (re-run: python -m repro "
                  f"fuzz --replay {path} --seed {verdict.seed})")
    written = write_report(rows, args.results_dir / "fuzz",
                           title=f"repro fuzz (seed {report.seed})",
                           extra=summary)
    print("reports: " + ", ".join(str(p) for p in written.values()))
    return 0 if report.ok else 1


# -- serve ----------------------------------------------------------------------------


def cmd_serve(args) -> int:
    """Run the async synthesis job server (see docs/service.md)."""
    from repro.service import serve

    return serve(host=args.host, port=args.port,
                 store_dir=None if args.store is None else str(args.store),
                 queue_size=args.queue_size, workers=args.workers,
                 job_timeout_s=args.timeout, retries=args.retries,
                 max_cache_entries=args.max_cache_entries,
                 journal_path=args.journal, resume=args.resume,
                 fault_plan=args.faults,
                 drain_timeout_s=args.drain_timeout)


# -- list -----------------------------------------------------------------------------


def cmd_list(args) -> int:
    """Print the benchmark registry."""
    rows = [{"name": b.name, "clock_ns": b.clock_ns,
             "description": b.description}
            for b in (get_benchmark(n) for n in sorted(BENCHMARKS))]
    print(format_table(rows, title="benchmark registry"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (also used by doc checks)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="IMPACT low-power HLS: synthesis, design-space "
                    "exploration, verification and benchmarking.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="run one IMPACT synthesis flow")
    _add_common(p, passes=40)
    _add_search(p)
    p.add_argument("--mode", choices=("power", "area"), default="power",
                   help="optimization objective (default %(default)s)")
    p.add_argument("--weights", type=_parse_weights, default=None,
                   metavar="WA,WP,WL",
                   help="scalarized objective weights (overrides --mode)")
    p.add_argument("--laxity", type=float, default=2.0,
                   help="ENC budget over the minimum (default %(default)s)")
    p.add_argument("--verify", action="store_true",
                   help="conformance-check the synthesized design")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("explore",
                       help="multi-objective Pareto-frontier exploration")
    _add_common(p, passes=20)
    _add_search(p)
    p.add_argument("--steal", type=int, default=1, metavar="N",
                   help="worker processes: idle workers take the next "
                        "grid cell, 1 runs in-process; the frontier is "
                        "bit-identical for any value (default %(default)s)")
    p.add_argument("--laxities", type=_parse_laxities,
                   default=DEFAULT_LAXITIES, metavar="L1,L2,...",
                   help="laxity grid (default %(default)s)")
    p.add_argument("--objectives", type=_parse_objectives,
                   default=DEFAULT_OBJECTIVES,
                   metavar="SPEC,...",
                   help='comma list of "area", "power" or WA:WP:WL weight '
                        'triples (default %(default)s)')
    p.add_argument("--no-verify", dest="verify", action="store_false",
                   help="skip conformance-checking the frontier")
    p.add_argument("--iverilog", choices=("auto", "off", "require"),
                   default="auto", help="external cosim oracle policy")
    _add_store(p)
    p.set_defaults(fn=cmd_explore, verify=True)

    p = sub.add_parser("verify", help="differential conformance oracle chain")
    p.add_argument("-b", "--benchmark", choices=sorted(BENCHMARKS),
                   default=None)
    p.add_argument("--all", action="store_true",
                   help="verify every registry benchmark")
    p.add_argument("--passes", type=_positive_int, default=100)
    p.add_argument("--stimulus-seed", type=int, default=0)
    p.add_argument("--iverilog", choices=("auto", "off", "require"),
                   default="auto")
    p.add_argument("--results-dir", type=pathlib.Path,
                   default=DEFAULT_RESULTS_DIR)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="Figure 13 laxity sweep + reports")
    _add_common(p, passes=15)
    _add_search(p)
    p.add_argument("--points", type=_positive_int, default=5,
                   help="laxity grid size over [1, 3] (default %(default)s)")
    p.add_argument("--laxities", type=_parse_laxities, default=None,
                   metavar="L1,L2,...", help="explicit laxity grid")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "fuzz", help="fuzz random programs through the whole stack")
    p.add_argument("--count", type=_positive_int, default=10,
                   help="programs to generate (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="fuzz run seed; program seeds derive from it "
                        "(default %(default)s)")
    p.add_argument("--laxities", type=_parse_laxities, default=(1.0, 2.0),
                   metavar="L1,L2,...",
                   help="laxity factors (each >= 1.0) every program is "
                        "synthesized at (default 1.0,2.0)")
    p.add_argument("--passes", type=_positive_int, default=10,
                   help="stimulus passes per program (default %(default)s)")
    p.add_argument("--max-ops", type=_positive_int, default=22,
                   help="generator statement budget (default %(default)s)")
    p.add_argument("--nesting", type=_positive_int, default=3,
                   help="max region nesting depth (default %(default)s)")
    p.add_argument("--branch-density", type=_unit_float, default=0.30,
                   help="if/else probability per slot (default %(default)s)")
    p.add_argument("--loop-density", type=_unit_float, default=0.25,
                   help="loop probability per slot (default %(default)s)")
    p.add_argument("--array-density", type=_unit_float, default=0.15,
                   help="array-access probability per slot; 0 disables "
                        "arrays entirely (default %(default)s)")
    p.add_argument("--arrays", type=_positive_int, default=1,
                   help="arrays declared per program when array density "
                        "is nonzero (default %(default)s)")
    p.add_argument("--search-depth", type=_positive_int, default=3,
                   help="search move depth per synthesis (default %(default)s)")
    p.add_argument("--search-candidates", type=_positive_int, default=8,
                   help="candidates per search depth (default %(default)s)")
    p.add_argument("--search-iterations", type=_positive_int, default=4,
                   help="search iterations per synthesis (default %(default)s)")
    p.add_argument("--shrink-trials", type=_positive_int, default=200,
                   help="shrinker trial budget per failure (default %(default)s)")
    p.add_argument("--iverilog", choices=("auto", "off", "require"),
                   default="off",
                   help="external cosim oracle policy (default %(default)s; "
                        "off keeps results/fuzz.json machine-independent)")
    p.add_argument("--replay", type=pathlib.Path, default=None,
                   metavar="FILE",
                   help="re-run the chain on a saved reproducer source "
                        "instead of generating programs; pass the failing "
                        "row's seed via --seed to replay its exact stimulus")
    p.add_argument("--results-dir", type=pathlib.Path,
                   default=DEFAULT_RESULTS_DIR,
                   help="report output directory (default %(default)s)")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser(
        "serve", help="run the async synthesis job server")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default %(default)s)")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port; 0 picks a free one, announced in the "
                        "serving line (default %(default)s)")
    p.add_argument("--queue-size", type=_positive_int, default=8,
                   help="pending-job bound before 429 rejection "
                        "(default %(default)s)")
    p.add_argument("--workers", type=_nonnegative_int, default=2,
                   help="process-pool workers; 0 accepts jobs without "
                        "running them, for back-pressure testing "
                        "(default %(default)s)")
    p.add_argument("--timeout", type=_positive_float, default=600.0,
                   help="per-job timeout in seconds (default %(default)s)")
    p.add_argument("--retries", type=_positive_int, default=1,
                   help="retries after a timed-out or crashed job "
                        "(default %(default)s)")
    p.add_argument("--max-cache-entries", type=_positive_int, default=256,
                   help="memo-table bound for each synth job's engine; "
                        "every job builds a fresh engine, so this caps "
                        "one job's memory (default %(default)s)")
    p.add_argument("--resume", action="store_true",
                   help="re-enqueue the journal's accepted-but-unfinished "
                        "jobs from a previous (crashed or drained) run")
    p.add_argument("--journal", type=pathlib.Path, default=None,
                   metavar="FILE",
                   help="job journal path (default <store>/journal.ndjson "
                        "when a store is attached)")
    p.add_argument("--faults", default=None, metavar="PLAN",
                   help="deterministic fault-injection plan, e.g. "
                        "'seed=7;kill_worker@1;store_write@2:1' (default "
                        "$REPRO_FAULTS when set; see docs/service.md)")
    p.add_argument("--drain-timeout", type=_nonnegative_float, default=10.0,
                   help="seconds a SIGTERM drain waits for queued jobs "
                        "before journaling the rest (default %(default)s)")
    _add_store(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("list", help="list the benchmark registry")
    p.set_defaults(fn=cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
