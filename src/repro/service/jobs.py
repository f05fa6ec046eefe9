"""Job payloads and in-worker execution for the synthesis job server.

A job is a plain JSON object with a ``kind`` plus kind-specific fields
(see ``docs/service.md`` for the full vocabulary).  :func:`validate_job`
rejects malformed payloads before they reach the queue;
:func:`execute_job` runs one job to completion inside a worker process.

Each execution builds a *fresh* :func:`repro.store.attached_cache` over
the server's shared store directory, so nothing is reused through
process-local memory: every artifact a repeated job gets back is a disk
hit, visible in the ``store`` profiler stage the result carries.  An
unreadable store degrades to cold in-process compute (the
``attached_cache`` contract) — jobs still complete, just slower.
"""

from __future__ import annotations

import time

#: Every job kind the server accepts.  ``noop`` exists for protocol and
#: timeout testing: it sleeps ``sleep_s`` seconds and returns.
JOB_KINDS = ("synth", "verify", "explore", "fuzz", "noop")


def validate_job(job) -> str | None:
    """The reason ``job`` is malformed, or ``None`` when acceptable."""
    if not isinstance(job, dict):
        return "job must be a JSON object"
    kind = job.get("kind")
    if kind not in JOB_KINDS:
        return (f"unknown job kind {kind!r} "
                f"(expected one of: {', '.join(JOB_KINDS)})")
    if kind in ("synth", "verify", "explore") \
            and not isinstance(job.get("benchmark"), str):
        return f"{kind} job needs a 'benchmark' string"
    if "passes" in job and (not isinstance(job["passes"], int)
                            or job["passes"] <= 0):
        return (f"job field 'passes' must be a positive integer "
                f"(got {job['passes']!r})")
    if kind == "explore":
        # The server's pool already runs jobs in parallel; one explore
        # job runs in-process inside one worker.
        for name in ("shards", "steal"):
            value = job.get(name, 1)
            if not isinstance(value, int) or value > 1:
                return (f"explore job field {name!r} must be at most 1 "
                        f"(got {value!r}): the server's worker pool "
                        f"supplies the parallelism")
    return None


def _search_from_job(job):
    from repro.core.search import SearchConfig

    spec = job.get("search") or {}
    return SearchConfig(max_depth=int(spec.get("depth", 4)),
                        max_candidates=int(spec.get("candidates", 10)),
                        max_iterations=int(spec.get("iterations", 5)),
                        seed=int(spec.get("seed", 0)))


def execute_job(job: dict, store_dir=None,
                max_cache_entries: int | None = None,
                faults=None) -> dict:
    """Run one validated job in this (worker) process; returns its result.

    The result dict always carries ``kind`` and ``store_stage`` — the
    window of the ``store`` profiler stage over just this job, where
    ``incremental`` counts cross-run disk hits and ``calls`` counts every
    store access.  A warm store shows up as ``incremental > 0``.

    ``faults`` is an optional list of fault payloads from a
    :class:`repro.faults.FaultPlan`, applied around the execution by
    :func:`repro.faults.activate` — only the server's pool tasks pass
    them, and a ``kill_worker`` payload really does SIGKILL the calling
    process, so never pass faults when executing inline.
    """
    if faults:
        from repro.faults import activate

        with activate(faults):
            return _execute(job, store_dir, max_cache_entries)
    return _execute(job, store_dir, max_cache_entries)


def _execute(job: dict, store_dir, max_cache_entries) -> dict:
    kind = job["kind"]
    if kind == "noop":
        time.sleep(float(job.get("sleep_s", 0.0)))
        return {"kind": "noop", "store_stage": {}}

    from repro.core.profile import PROFILER

    window = PROFILER.snapshot()
    if kind == "synth":
        result = _run_synth(job, store_dir, max_cache_entries)
    elif kind == "verify":
        result = _run_verify(job, store_dir)
    elif kind == "explore":
        result = _run_explore(job, store_dir)
    else:
        result = _run_fuzz(job, store_dir)
    result["kind"] = kind
    result["store_stage"] = PROFILER.window(window).get("store", {})
    return result


def _run_synth(job: dict, store_dir, max_cache_entries) -> dict:
    from repro.explore.driver import engine_for_benchmark

    engine = engine_for_benchmark(
        job["benchmark"], n_passes=int(job.get("passes", 20)),
        seed=int(job.get("stimulus_seed", 7)), store_dir=store_dir,
        cache_entries=max_cache_entries)
    result = engine.run(mode=job.get("mode", "power"),
                        laxity=float(job.get("laxity", 2.0)),
                        search=_search_from_job(job))
    payload = {"benchmark": job["benchmark"], "summary": result.summary()}
    if job.get("verify"):
        report = engine.verify(design=result.design,
                               use_iverilog=job.get("iverilog", "off"),
                               minimize=False)
        payload["conformance_ok"] = report.ok
        payload["divergences"] = len(report.divergences)
    return payload


def _run_verify(job: dict, store_dir) -> dict:
    from repro.verify.conformance import verify_benchmark

    report = verify_benchmark(job["benchmark"],
                              n_passes=int(job.get("passes", 25)),
                              seed=int(job.get("stimulus_seed", 0)),
                              use_iverilog=job.get("iverilog", "off"),
                              minimize=False, store_dir=store_dir)
    return {"benchmark": job["benchmark"], "ok": report.ok,
            "report": report.summary()}


def _run_explore(job: dict, store_dir) -> dict:
    from repro.explore.driver import DEFAULT_LAXITIES, explore

    result = explore(job["benchmark"],
                     laxities=tuple(job.get("laxities", DEFAULT_LAXITIES)),
                     seeds=(int(job.get("seed", 0)),),
                     n_passes=int(job.get("passes", 20)),
                     stimulus_seed=int(job.get("stimulus_seed", 7)),
                     search=_search_from_job(job),
                     store_dir=store_dir)
    return {"benchmark": job["benchmark"], "summary": result.summary(),
            "frontier": result.rows()}


def _run_fuzz(job: dict, store_dir) -> dict:
    from repro.genprog.fuzz import fuzz_run

    report = fuzz_run(int(job.get("count", 2)), int(job.get("seed", 0)),
                      n_passes=int(job.get("passes", 6)),
                      use_iverilog=job.get("iverilog", "off"),
                      results_dir=job.get("results_dir", "results"),
                      store_dir=store_dir)
    return {"summary": report.summary(), "rows": report.rows()}
