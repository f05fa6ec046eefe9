"""Work-stealing dispatch of the explore grid onto the supervised pool.

:func:`run_stolen` runs the grid's cells on a
:class:`~repro.workers.SupervisedPool` — the same pool the job server
uses.  One parent thread per slot pops the next pending job index from
a shared deque and blocks on its slot's worker, so a worker that goes
idle "steals" the next cell at once: the wall clock tracks the sum of
cell costs divided by N, not the slowest fixed share.

Determinism is preserved by construction, not by scheduling: every job
is independently deterministic and the driver merges per-job fronts in
job-index order, so **the frontier is bit-identical to an in-process run
no matter which slot ran what, or when** — including runs where a
worker was killed mid-job and its job re-ran on the respawned worker.
The *steal log* (job index, slot) in claim order is recorded on the
result.

Supervision is the pool's: a worker that dies mid-job is respawned and
the job goes back on the deque **clean** (worker faults are consumed at
first dispatch).  A job that *raises* is not retried — the error
re-raises in the parent once every slot thread has stopped.

Checkpointing: :func:`run_cell`, which both the in-process loop and the
pool workers run, looks each cell up in the artifact store (when one is
attached) under a content key covering the benchmark CDFG, stimulus
parameters, search config and the job's grid cell, and publishes the
result on a miss.  A later run over any overlapping grid — same
benchmark, a different worker count, or a *different* benchmark whose
registry entry compiles to the same CDFG — warm-starts from the stored
per-job results instead of re-searching.  Warm hits are counted on the
result but never change it: stored results are the values the search
would recompute.

Fault injection: ``kill_worker@N`` in a :class:`~repro.faults.plan.FaultPlan`
runs the first dispatch of job ``N`` under :func:`repro.faults.activate`,
which SIGKILLs the worker; the retry runs clean.  Other plan kinds are
service-core faults and are ignored here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


@dataclass
class StealOutcome:
    """What a run of the grid hands back to the driver."""

    #: job index -> {"stats": ..., "points": ...} (the :func:`run_cell` record).
    results: dict[int, dict] = field(default_factory=dict)
    #: (job index, slot) in claim order; killed attempts appear too.
    log: list[tuple[int, int]] = field(default_factory=list)
    #: Jobs served from the artifact store's explore checkpoints.
    warm_hits: int = 0
    #: Worker processes spawned over the run (respawns included).
    workers: int = 0


def job_checkpoint_key(cdfg_digest: str, job, search, n_passes: int,
                       stimulus_seed: int) -> str:
    """Content key for one grid cell's result (id-free, topology-free).

    Covers everything the job's outcome is a function of — the compiled
    benchmark (by content digest, so renamed registry entries that parse
    to the same CDFG share checkpoints), the stimulus draw, the search
    config and the cell's objective/laxity/seed.  Worker count and steal
    order are deliberately absent.
    """
    from repro.store import digest_key

    return digest_key((
        "explore-job", cdfg_digest, n_passes, stimulus_seed,
        job.objective, job.laxity, job.seed, search,
    ))


def cell_context(recipe: dict) -> tuple:
    """``(engine, CDFG digest, checkpoint store or None)`` for a recipe.

    ``recipe`` is the engine recipe every cell shares (benchmark /
    n_passes / stimulus_seed / store_dir / search).  A
    ``store_dir`` of ``None`` consults ``$REPRO_STORE_DIR``; ``""``
    means no store.
    """
    from repro.explore.driver import engine_for_benchmark
    from repro.store import STORE_DIR_ENV, ArtifactStore, cdfg_digest

    engine = engine_for_benchmark(
        recipe["benchmark"], n_passes=recipe["n_passes"],
        seed=recipe["stimulus_seed"])
    root = recipe["store_dir"]
    if root is None:
        root = os.environ.get(STORE_DIR_ENV)
    return engine, cdfg_digest(engine.cdfg), ArtifactStore(root) if root else None


#: A pool worker's ``(recipe, cell_context(recipe))``, built on its first
#: cell and reused by every later cell of the same recipe, so the jobs a
#: worker runs share its engine's caches the way a sequential run would.
_WORKER_CONTEXT = None


def run_cell(recipe: dict, job, faults=None, *, context=None,
             keep_designs: bool = False):
    """Run one grid cell; returns ``(record, warm, designs)``.

    Looks the cell up in the checkpoint store, else runs the search and
    publishes the ``{"stats", "points"}`` record.  ``warm`` says the
    record came from the store; ``designs`` maps offer order to design
    for the cell's front (searched cells with ``keep_designs`` only).
    ``context`` is the caller's :func:`cell_context`; without one (a
    pool worker) the context is memoized per recipe in this process.
    ``faults`` are applied around the cell by :func:`repro.faults.activate`.
    """
    global _WORKER_CONTEXT
    from repro.explore.driver import _run_job
    from repro.faults import activate

    with activate(faults):
        if context is None:
            if _WORKER_CONTEXT is None or _WORKER_CONTEXT[0] != recipe:
                _WORKER_CONTEXT = (recipe, cell_context(recipe))
            context = _WORKER_CONTEXT[1]
        engine, digest, store = context
        key = job_checkpoint_key(digest, job, recipe["search"],
                                 recipe["n_passes"], recipe["stimulus_seed"])
        record = store.get(key) if store is not None else None
        if record is not None:
            return record, True, {}
        local, stats, designs = _run_job(engine, job, recipe["search"],
                                         keep_designs)
        record = {
            "stats": stats,
            "points": [{"area": p.area, "power": p.power,
                        "latency": p.latency, "meta": dict(p.meta)}
                       for p in local.points],
        }
        if store is not None:
            store.put(key, record)
        return record, False, designs


def run_stolen(recipe: dict, jobs, *, workers: int,
               fault_plan=None) -> StealOutcome:
    """Run the grid on a supervised worker pool; returns all job results.

    ``recipe`` is the engine recipe (see :func:`cell_context`) shared by
    every worker; ``jobs`` the full grid.  Each of the ``workers`` slots
    pops the next job index from one shared deque, in index order.
    """
    import threading
    from collections import deque

    from repro.workers import SupervisedPool, WorkerCrash

    queue = deque(job.index for job in jobs)
    by_index = {job.index: job for job in jobs}
    fire = {}  # job index -> [kill_worker payloads], consumed at dispatch
    if fault_plan is not None:
        for job in jobs:
            kills = [f for f in fault_plan.take_worker_faults(job.index)
                     if f["kind"] == "kill_worker"]
            if kills:
                fire[job.index] = kills

    outcome = StealOutcome()
    errors: list[tuple[int, BaseException]] = []
    lock = threading.Lock()
    pool = SupervisedPool(workers)

    def drain(slot: int) -> None:
        while True:
            with lock:
                if errors or not queue:
                    return
                index = queue.popleft()
                faults = fire.pop(index, None)
                outcome.log.append((index, slot))
            task = (run_cell, (recipe, by_index[index], faults))
            try:
                status, value = pool.call(slot, task)
            except WorkerCrash:
                with lock:
                    queue.appendleft(index)  # the retry runs clean
                continue
            except Exception as exc:  # never sent, e.g. unpicklable
                status, value = "error", exc
            with lock:
                if status == "error":
                    errors.append((index, value))
                    return
                record, warm, _ = value
                outcome.results[index] = record
                outcome.warm_hits += int(warm)

    threads = [threading.Thread(target=drain, args=(slot,), daemon=True)
               for slot in range(workers)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        outcome.workers = workers + pool.restarts
        pool.shutdown()
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    return outcome

