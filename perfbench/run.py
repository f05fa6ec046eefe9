"""Run one workload of the repository benchmark and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload fig13 --seed 0 --seconds 14 --trace 0

The run repeats whole rounds of the workload, as many as ``--seconds``
holds at the workload's nominal round time but at least two, and keeps
each item's fastest time: on a shared 2-core VM a fixed loop runs up to
40% slower for seconds at a time, and an item's minimum over rounds
spaced seconds apart filters that out.  Slower phases of the host last
minutes, longer than a run, so between items it also times a fixed
reference loop and rescales each item time to the speed at which that
loop takes ``measure.REFERENCE_S``.  Between rounds it times fresh
interpreters importing what the workload needs.  It prints one line per
metric and, last, one JSON object: ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` runs the same rounds with layer wrappers
installed and reports the per-layer metrics instead.
``perfbench/README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Run-time state (temp dirs, fingerprint record), ignored by git.
STATE = ROOT / ".perfbench"

#: Fresh interpreters timed per run; their median is ``setup_s``.
SETUP_REPEATS = 4

#: Fewest rounds a run makes: one round of the longest workload leaves
#: its wall time exposed to a single slow phase of the host.
MIN_ROUNDS = 2

#: Fewest reference-loop samples per round; their median is the round's
#: measure of host speed.
REFERENCE_SAMPLES = 16

END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    name: str
    ok: bool
    seconds: float
    detail: str = ""
    counts: dict = field(default_factory=dict)


@dataclass
class Round:
    #: Sum of the item times; the reference samples are left out.
    wall_s: float
    outcomes: list[Outcome]
    #: ``PROFILER.window`` over the round.
    stages: dict
    #: Times of the ``reference_loop`` samples taken between the items.
    reference: list[float]


def run_round(workload, seed: int, tracer, tmp: Path) -> Round:
    """Run every item once; a raising item is a failed outcome.

    Before each item it times the reference loop, at least
    ``REFERENCE_SAMPLES`` times per round in all.
    """
    from perfbench.measure import reference_loop
    from repro.core.profile import PROFILER

    items = workload.items(seed)
    per_item = -(-REFERENCE_SAMPLES // len(items))
    window = PROFILER.snapshot()
    outcomes = []
    samples = []
    for name, item in items:
        samples += [reference_loop() for _ in range(per_item)]
        t = time.perf_counter()
        try:
            ok, detail, counts = item(tracer, tmp)
        except Exception:  # one broken item must not end the run
            ok, detail, counts = False, traceback.format_exc(), {}
        outcomes.append(Outcome(name, ok, time.perf_counter() - t, detail,
                                counts))
    return Round(sum(o.seconds for o in outcomes), outcomes,
                 PROFILER.window(window), samples)


def round_counts(workload, rnd: Round) -> dict:
    """The deterministic work counts the fingerprint covers."""
    counts = {"items": {o.name: o.counts for o in rnd.outcomes}}
    if workload.stages_deterministic:
        counts["stages"] = {name: [s["calls"], s["incremental"]]
                            for name, s in rnd.stages.items()}
    return counts


def code_digest() -> str:
    """Digest of the program and benchmark sources, to key the record."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"),
                        *(ROOT / "perfbench").glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A clean environment: no shared store, no fault plan (explore's
    # workers inherit it), temp files inside the checkout, and iverilog
    # stays off in every workload.
    for var in ("REPRO_STORE_DIR", "REPRO_FAULTS"):
        os.environ.pop(var, None)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        from perfbench import measure, tracing
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(STATE / "tmp")
    from repro.core.profile import PROFILER

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    for module in workload.modules:
        importlib.import_module(module)

    tracer = tracing.install(tracing.Tracer()) if args.trace else \
        tracing.NullTracer()
    n_rounds = max(MIN_ROUNDS, round(args.seconds / workload.round_s))
    # The set-up probes are spread evenly over the rounds, so that one
    # slow phase of the host does not hold all of them.
    probes = [0] * n_rounds
    for j in range(SETUP_REPEATS):
        probes[j * n_rounds // SETUP_REPEATS] += 1
    rounds: list[Round] = []
    setup: list[float] = []
    window = PROFILER.snapshot()
    try:
        for i in range(n_rounds):
            with tempfile.TemporaryDirectory(dir=STATE / "tmp") as tmp:
                rounds.append(run_round(workload, args.seed, tracer,
                                        Path(tmp)))
            if i == 0:
                workers_kib = measure.workers_peak_kib()
            setup += measure.time_setup(ROOT, list(workload.modules),
                                        probes[i])
    finally:
        if args.trace:
            tracer.close()
    stages = PROFILER.window(window)
    peak_rss_mb = measure.peak_rss_mb(workers_kib)

    outcomes = [o for r in rounds for o in r.outcomes]
    failed = [o for o in outcomes if not o.ok]
    for o in failed:
        print(f"FAILED {workload.name}/{o.name}: {o.detail}", file=sys.stderr)
    digests = {measure.fingerprint(round_counts(workload, r)) for r in rounds}
    digest = min(digests)
    earlier = measure.check_fingerprint(
        STATE / "fingerprints.json",
        f"{code_digest()}:{workload.name}:{args.seed}", digest)
    drift = len(digests) > 1 or earlier is not None
    if drift:
        print(f"DRIFT {workload.name} seed {args.seed}: work fingerprint "
              f"{sorted(digests)} differs from {earlier or 'another round'}",
              file=sys.stderr)
    scored = [o.counts for o in rounds[0].outcomes if o.ok]
    qor = workload.qor(scored) if len(scored) == len(rounds[0].outcomes) \
        else {}

    # Each item's fastest time over the rounds.  Slow phases of the host
    # outlast a run, so one reference time, the mean of every sample in
    # the run, rescales them all.
    fastest: dict[str, float] = {}
    for o in outcomes:
        fastest[o.name] = min(o.seconds, fastest.get(o.name, o.seconds))
    reference_s = statistics.fmean(s for r in rounds for s in r.reference)
    end_to_end = {
        "wall_ref_s": measure.at_reference(sum(fastest.values()),
                                           reference_s),
        "setup_s": measure.p50(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"perfbench {workload.name} seed {args.seed}: {len(rounds)} "
          f"rounds of {len(fastest)} items, {len(failed)} failed; round "
          f"walls {[round(r.wall_s, 3) for r in rounds]} s; reference "
          f"loop {round(1e3 * reference_s, 2)} ms")
    report = {**end_to_end,
              "wall_s": sum(fastest.values()),
              "item_p50_ref_s": measure.at_reference(
                  measure.p50(fastest.values()), reference_s),
              "failed_frac": measure.failed_frac(len(failed), len(outcomes)),
              **qor}
    units = {**END_TO_END, "wall_s": "s", "item_p50_ref_s": "s",
             "failed_frac": "ratio", **tracing.PER_LAYER}
    if args.trace:
        report = tracer.metrics(sum(r.wall_s for r in rounds), stages, qor,
                                len(rounds))
    for name, value in report.items():
        print(f"  {name:<32s} {value:>16.6g} {units[name]}")
    print(f"  {'fingerprint':<32s} {digest:>16s} "
          f"{'DRIFT' if drift else 'steady'}")

    chosen = report if args.trace else end_to_end
    print(json.dumps({
        "correct": not failed and not drift,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
