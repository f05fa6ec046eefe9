"""CI smoke for the job server: streamed results == the CLI path.

Starts ``python -m repro serve`` as a subprocess on a free port with a
temporary store, then:

1. submits a ``synth`` job and a ``verify`` job for ``gcd`` and checks
   the streamed results against the same work run in-process through
   the CLI-path entry points (``engine_for_benchmark`` /
   ``verify_benchmark``);
2. re-submits the synth job and asserts the warm store answered — the
   ``store`` stage must report cross-run disk hits — with the design
   summary bit-identical to the cold run.

With ``--faults PLAN`` (the ``chaos-smoke`` CI job) the server runs
under a pinned :mod:`repro.faults` plan — e.g. a worker SIGKILL during
the cold synth job and an injected store write error during verify —
and the smoke additionally asserts the chaos was survived: the killed
job retried (``attempts`` > 1), the pool rebuilt
(``worker_restarts`` > 0), and the streamed results *still* match the
in-process CLI path bit-for-bit.

Exit code is non-zero on any mismatch.  Run from the repository root:

    PYTHONPATH=src python tools/service_smoke.py
    PYTHONPATH=src python tools/service_smoke.py \
        --faults "seed=11;kill_worker@1;store_write@2:1"
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


def design_summary(summary: dict) -> dict:
    """The run summary minus cache counters (which legitimately vary)."""
    return {k: v for k, v in summary.items() if not k.startswith("cache_")}


def verdict(report: dict) -> dict:
    """A conformance report minus its timings (total and per model)."""
    return {k: v for k, v in report.items() if k not in ("wall_s", "model_s")}


def cli_path_results() -> tuple[dict, dict]:
    """The same synth + verify work, run in-process (no store)."""
    from repro.core.search import SearchConfig
    from repro.explore.driver import engine_for_benchmark
    from repro.verify.conformance import verify_benchmark

    engine = engine_for_benchmark(SYNTH_JOB["benchmark"],
                                  n_passes=SYNTH_JOB["passes"],
                                  seed=SYNTH_JOB["stimulus_seed"],
                                  store_dir="")
    spec = SYNTH_JOB["search"]
    result = engine.run(mode=SYNTH_JOB["mode"], laxity=SYNTH_JOB["laxity"],
                        search=SearchConfig(max_depth=spec["depth"],
                                            max_candidates=spec["candidates"],
                                            max_iterations=spec["iterations"],
                                            seed=spec["seed"]))
    report = verify_benchmark(VERIFY_JOB["benchmark"],
                              n_passes=VERIFY_JOB["passes"],
                              seed=VERIFY_JOB["stimulus_seed"],
                              use_iverilog="off", minimize=False,
                              store_dir="")
    return result.summary(), report.summary()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--faults", metavar="PLAN", default=None,
                        help="fault plan spec to run the server under "
                             "(e.g. 'seed=11;kill_worker@1;store_write@2:1')")
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
                cold_event = client.run(SYNTH_JOB)
                cold = cold_event["result"]
                verify = client.run(VERIFY_JOB)["result"]
                warm = client.run(SYNTH_JOB)["result"]
                stats = client.stats()
        finally:
            proc.terminate()
            proc.wait(timeout=30)

        from repro.service import read_journal

        journal = read_journal(pathlib.Path(store) / "journal.ndjson")

        cli_synth, cli_verify = cli_path_results()

        failures = []
        if design_summary(cold["summary"]) != design_summary(cli_synth):
            failures.append(
                f"streamed synth result != CLI path:\n  served: "
                f"{design_summary(cold['summary'])}\n  cli:    "
                f"{design_summary(cli_synth)}")
        if not cold.get("conformance_ok"):
            failures.append("served synth job failed conformance")
        if verdict(verify["report"]) != verdict(cli_verify):
            failures.append(
                f"streamed verify report != CLI path:\n  served: "
                f"{verdict(verify['report'])}\n  cli:    "
                f"{verdict(cli_verify)}")
        if design_summary(warm["summary"]) != design_summary(cold["summary"]):
            failures.append("warm re-submission changed the design summary")
        warm_hits = warm.get("store_stage", {}).get("incremental", 0)
        if warm_hits <= 0:
            failures.append(
                f"warm re-submission reported no store hits "
                f"(store_stage={warm.get('store_stage')})")
        if not any(rec.get("rec") == "draining" for rec in journal):
            failures.append("SIGTERM did not journal a draining record")

        if opts.faults:
            # The chaos really happened AND was survived: the killed
            # job retried, the pool rebuilt, nothing above mismatched.
            if cold_event.get("attempts", 1) < 2:
                failures.append(
                    f"faulted cold synth was not retried "
                    f"(attempts={cold_event.get('attempts')})")
            if stats.get("worker_restarts", 0) < 1:
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
              f"warm re-submission hit the store {warm_hits} times")
        return 0


if __name__ == "__main__":
    sys.exit(main())
