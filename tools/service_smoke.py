"""CI smoke for the job server: streamed results == the CLI path.

Starts ``python -m repro serve`` as a subprocess on a free port with a
temporary store, then:

1. submits a ``synth`` job (id 1) and a ``verify`` job (id 2) for
   ``gcd`` and checks the streamed results against the same work run
   in-process through the CLI-path entry points
   (``engine_for_benchmark`` / ``verify_benchmark``);
2. submits one ``explore`` job twice (ids 3 and 4) and asserts the warm
   store answered: the second run warm-starts every grid cell from the
   checkpoints the first wrote (``warm_hits`` equals its job count) and
   streams a frontier identical to the first run's.

With ``--faults PLAN`` (the ``chaos-smoke`` CI job) the server runs
under a pinned :mod:`repro.faults` plan — a worker SIGKILL during the
synth job and an injected store write error on the cold explore job's
first checkpoint — and the smoke additionally asserts the chaos was
survived: both faulted jobs retried (``attempts`` > 1), the pool
rebuilt (``worker_restarts`` > 0), and the streamed results *still*
match the in-process CLI path bit-for-bit.

Exit code is non-zero on any mismatch.  Run from the repository root:

    PYTHONPATH=src python tools/service_smoke.py
    PYTHONPATH=src python tools/service_smoke.py \
        --faults "seed=11;kill_worker@1;store_write@3:1"
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SYNTH_JOB = {"kind": "synth", "benchmark": "gcd", "passes": 6,
             "stimulus_seed": 7, "laxity": 2.0, "mode": "power",
             "verify": True,
             "search": {"depth": 3, "candidates": 6, "iterations": 3,
                        "seed": 0}}
VERIFY_JOB = {"kind": "verify", "benchmark": "gcd", "passes": 10,
              "stimulus_seed": 0, "iverilog": "off"}
EXPLORE_JOB = {"kind": "explore", "benchmark": "gcd", "passes": 6,
               "stimulus_seed": 7, "laxities": [1.0, 2.0], "seed": 0,
               "search": {"depth": 3, "candidates": 6, "iterations": 3}}


def design_summary(summary: dict) -> dict:
    """The run summary minus cache counters (which legitimately vary)."""
    return {k: v for k, v in summary.items() if not k.startswith("cache_")}


def verdict(report: dict) -> dict:
    """A conformance report minus its timings (total and per model)."""
    return {k: v for k, v in report.items() if k not in ("wall_s", "model_s")}


def cli_path_results() -> tuple[dict, dict]:
    """The same synth + verify work, run in-process."""
    from repro.core.search import SearchConfig
    from repro.explore.driver import engine_for_benchmark
    from repro.verify.conformance import verify_benchmark

    engine = engine_for_benchmark(SYNTH_JOB["benchmark"],
                                  n_passes=SYNTH_JOB["passes"],
                                  seed=SYNTH_JOB["stimulus_seed"])
    spec = SYNTH_JOB["search"]
    result = engine.run(mode=SYNTH_JOB["mode"], laxity=SYNTH_JOB["laxity"],
                        search=SearchConfig(max_depth=spec["depth"],
                                            max_candidates=spec["candidates"],
                                            max_iterations=spec["iterations"],
                                            seed=spec["seed"]))
    report = verify_benchmark(VERIFY_JOB["benchmark"],
                              n_passes=VERIFY_JOB["passes"],
                              seed=VERIFY_JOB["stimulus_seed"],
                              use_iverilog="off", minimize=False)
    return result.summary(), report.summary()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--faults", metavar="PLAN", default=None,
                        help="fault plan spec to run the server under "
                             "(e.g. 'seed=11;kill_worker@1;store_write@3:1')")
    opts = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="repro-store-") as store:
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--workers", "1", "--store", store, "--timeout", "300"]
        if opts.faults:
            argv += ["--faults", opts.faults]
        proc = subprocess.Popen(
            argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            env={**__import__("os").environ, "PYTHONPATH": str(SRC)})
        try:
            serving = json.loads(proc.stdout.readline())
            assert serving["event"] == "serving", serving
            print(f"service_smoke: serving on port {serving['port']}, "
                  f"store {store}, faults {serving.get('faults')}")

            from repro.service import ServiceClient

            with ServiceClient(port=serving["port"], timeout=600) as client:
                events = [client.run(job) for job in
                          (SYNTH_JOB, VERIFY_JOB, EXPLORE_JOB, EXPLORE_JOB)]
                stats = client.stats()
        finally:
            proc.terminate()
            proc.wait(timeout=30)

        from repro.service import read_journal

        journal = read_journal(pathlib.Path(store) / "journal.ndjson")

        cli_synth, cli_verify = cli_path_results()
        synth, verify, explore, warm = (event["result"] for event in events)

        failures = []
        if design_summary(synth["summary"]) != design_summary(cli_synth):
            failures.append(
                f"streamed synth result != CLI path:\n  served: "
                f"{design_summary(synth['summary'])}\n  cli:    "
                f"{design_summary(cli_synth)}")
        if not synth.get("conformance_ok"):
            failures.append("served synth job failed conformance")
        if verdict(verify["report"]) != verdict(cli_verify):
            failures.append(
                f"streamed verify report != CLI path:\n  served: "
                f"{verdict(verify['report'])}\n  cli:    "
                f"{verdict(cli_verify)}")
        warm_hits = warm["summary"]["warm_hits"]
        if warm_hits != warm["summary"]["jobs"]:
            failures.append(
                f"warm explore re-submission warm-started {warm_hits} of "
                f"{warm['summary']['jobs']} cells from the store")
        if warm["frontier"] != explore["frontier"]:
            failures.append("warm explore re-submission changed the frontier")
        if not any(rec.get("rec") == "draining" for rec in journal):
            failures.append("SIGTERM did not journal a draining record")

        if opts.faults:
            # The chaos really happened AND was survived: every job the
            # plan faults retried, a killed worker was rebuilt, nothing
            # above mismatched.
            from repro.faults import FaultPlan
            from repro.faults.plan import WORKER_KINDS

            actions = FaultPlan.parse(opts.faults).actions
            for event in events:
                faulted = [a.spec() for a in actions
                           if a.job == event["id"] and a.kind in WORKER_KINDS]
                if faulted and event.get("attempts", 1) < 2:
                    failures.append(
                        f"job {event['id']} ({', '.join(faulted)}) was not "
                        f"retried (attempts={event.get('attempts')})")
            kills = any(a.kind in ("kill_worker", "hang") for a in actions)
            if kills and stats.get("worker_restarts", 0) < 1:
                failures.append(
                    f"pool reported no worker rebuilds under "
                    f"{opts.faults!r} (stats={stats})")
            if stats.get("failed", 0) != 0:
                failures.append(
                    f"jobs failed terminally under the fault plan "
                    f"(stats={stats})")

        if failures:
            print("service_smoke: FAIL")
            print("\n".join(failures))
            return 1
        chaos = f" under faults {opts.faults!r}" if opts.faults else ""
        print(f"service_smoke: OK{chaos} — results match the CLI path, "
              f"warm explore re-submission served {warm_hits} cells from "
              f"the store")
        return 0


if __name__ == "__main__":
    sys.exit(main())
