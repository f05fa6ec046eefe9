"""The multi-objective design-space exploration driver.

:func:`explore` turns the single-point IMPACT flow into a frontier
builder: it enumerates a deterministic grid of search *jobs* — the cross
product of laxity factors, objectives (area / power / weighted
scalarizations) and search seeds — runs each through a
:class:`~repro.core.engine.SynthesisEngine` with an archive observer
(every feasible design the search visits is offered to a per-job
:class:`~repro.explore.pareto.ParetoFront`, not just the winner), and
merges the per-job fronts into one global frontier.

Parallelism: ``steal=N`` runs the grid on N worker *processes* of the
supervised pool (:mod:`repro.explore.steal`); idle workers take the
next pending cell, and each worker keeps one engine,
so the jobs it runs share its content-addressed pipeline caches the way
a sequential run would.  ``N <= 1`` runs in-process.  Because every job
is independently deterministic (cached and uncached evaluation are
bit-identical by construction) and the merge always happens in
job-index order, **the frontier is bit-identical for any worker
count** — the determinism tests in ``tests/test_explore_driver.py`` and
``tests/test_explore_steal.py`` enforce 1 vs N equality.

:func:`verify_frontier` closes the loop: it re-derives the design behind
every frontier point (same job, same seed — the search replays exactly)
and runs it through the full differential-conformance oracle chain via
:meth:`SynthesisEngine.verify`.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

from repro.benchmarks.registry import get_benchmark
from repro.core.cache import SynthesisCache
from repro.core.engine import SynthesisEngine
from repro.core.search import SearchConfig, WeightedObjective
from repro.errors import ExperimentError
from repro.explore.pareto import ParetoFront, ParetoPoint
from repro.explore.steal import StealOutcome, cell_context, run_cell, run_stolen
from repro.sched.engine import ScheduleOptions

#: The default objective grid: the paper's two modes plus a balanced
#: area/power scalarization that fills in the middle of the trade-off.
DEFAULT_OBJECTIVES = ("area", "power", (0.5, 0.5, 0.0))

#: The default laxity grid (a coarse slice of the Figure 13 x-axis).
DEFAULT_LAXITIES = (1.0, 2.0, 3.0)


@dataclass(frozen=True)
class ExploreJob:
    """One cell of the exploration grid: objective x laxity x seed."""

    index: int
    objective: object  # "area" | "power" | (w_area, w_power, w_latency)
    laxity: float
    seed: int

    @property
    def label(self) -> str:
        """The objective's report label ("area", "power", "weighted(...)")."""
        if isinstance(self.objective, str):
            return self.objective
        return WeightedObjective(*self.objective).label


@dataclass
class ExploreResult:
    """The merged frontier plus per-job accounting for one exploration.

    The grid (``objectives``/``laxities``/``seeds``), the ``search``
    config and the stimulus parameters are recorded so
    :func:`verify_frontier` can replay the exact searches that produced
    the frontier — callers never re-supply them (a mismatched re-supply
    would silently verify the wrong designs).  An in-process run
    additionally retains its engine and the frontier designs it searched
    (``_engine``/``_designs``), letting verification skip the replay.
    """

    benchmark: str
    front: ParetoFront
    jobs: list[dict] = field(default_factory=list)
    n_passes: int = 0
    stimulus_seed: int = 0
    wall_time_s: float = 0.0
    objectives: tuple = DEFAULT_OBJECTIVES
    laxities: tuple = DEFAULT_LAXITIES
    seeds: tuple = (0,)
    search: SearchConfig = field(default_factory=SearchConfig)
    #: Pool accounting: worker processes spawned (respawns included;
    #: zero for an in-process run) and ``steal_log``, (job index, slot)
    #: in claim order.
    steal_workers: int = 0
    steal_log: list = field(default_factory=list)
    warm_hits: int = 0
    #: In-process design retention (in-process runs only): engine plus
    #: {(job index, offer order): DesignPoint} for the searched frontier
    #: points (warm-started cells keep none).
    _engine: object = field(default=None, repr=False, compare=False)
    _designs: dict = field(default=None, repr=False, compare=False)

    @property
    def evaluations(self) -> int:
        """Total candidate evaluations across every job's search."""
        return sum(j["evaluations"] for j in self.jobs)

    @property
    def offered(self) -> int:
        """Total archive offers (feasible designs visited) across jobs."""
        return sum(j["offered"] for j in self.jobs)

    def rows(self) -> list[dict]:
        """Frontier report rows in the front's stable order."""
        return self.front.rows()

    def summary(self) -> dict:
        """One JSON-serializable dict describing the exploration."""
        return {
            "benchmark": self.benchmark,
            "jobs": len(self.jobs),
            "n_passes": self.n_passes,
            "stimulus_seed": self.stimulus_seed,
            "evaluations": self.evaluations,
            "offered": self.offered,
            "frontier_size": len(self.front),
            "hypervolume": self.front.hypervolume(),
            "steal_workers": self.steal_workers,
            "warm_hits": self.warm_hits,
        }


def engine_for_benchmark(name: str, *, n_passes: int = 20, seed: int = 7,
                         cache_entries: int | None = None) -> SynthesisEngine:
    """Build a ready-to-run engine for a registry benchmark.

    Parses the benchmark's source, draws ``n_passes`` stimulus passes with
    ``seed``, and configures the designer clock from the registry entry.
    This is the one construction path the CLI, the explorer, the laxity
    sweep, the conformance harness, the job server and the examples
    share, so their engines are always comparable.

    ``cache_entries`` bounds the engine's memo tables (the job server
    caps each synth job's memory with it).
    """
    bench = get_benchmark(name)
    return SynthesisEngine(
        bench.cdfg(), bench.stimulus(n_passes, seed=seed),
        options=ScheduleOptions(clock_ns=bench.clock_ns),
        cache=SynthesisCache(max_entries=cache_entries))


def _resolve_mode(engine: SynthesisEngine, job: ExploreJob):
    """Turn a job's objective spec into an engine ``mode`` value."""
    if isinstance(job.objective, str):
        return job.objective
    return WeightedObjective.for_engine(engine, job.objective, job.laxity)


def _run_job(engine: SynthesisEngine, job: ExploreJob, search: SearchConfig,
             keep_designs: bool = False):
    """Run one grid cell; returns (local front, stats, designs-by-order).

    The observer offers every feasible visited design to a job-local
    :class:`ParetoFront`; the point's ``meta["order"]`` is its offer
    sequence number, which is what lets :func:`verify_frontier` re-run
    the same job and pick out the exact design behind a frontier point.
    """
    local = ParetoFront()
    designs: dict[int, object] = {}

    def observer(design, evaluation):
        order = local.offered
        summary = design.summary()
        point = ParetoPoint(
            area=evaluation.area,
            power=evaluation.power_scaled,
            latency=evaluation.enc,
            meta={
                "job": job.index,
                "objective": job.label,
                "laxity": job.laxity,
                "seed": job.seed,
                "order": order,
                "vdd": summary["vdd"],
                "fus": summary["fus"],
                "registers": summary["registers"],
                "mux2": summary["mux2"],
                "states": summary["states"],
            })
        if local.add(point) and keep_designs:
            designs[order] = design

    result = engine.run(
        mode=_resolve_mode(engine, job), laxity=job.laxity,
        search=dataclasses.replace(search, seed=job.seed),
        observer=observer)
    stats = {
        "index": job.index,
        "objective": job.label,
        "laxity": job.laxity,
        "seed": job.seed,
        "evaluations": result.history.evaluations,
        "offered": local.offered,
        "kept": len(local),
        "best": result.design.summary(),
    }
    return local, stats, designs


def make_jobs(objectives=DEFAULT_OBJECTIVES, laxities=DEFAULT_LAXITIES,
              seeds=(0,)) -> list[ExploreJob]:
    """Enumerate the exploration grid in its canonical (deterministic) order."""
    jobs = []
    for laxity in laxities:
        if laxity < 1.0:
            raise ExperimentError(f"laxity factor must be >= 1.0, got {laxity}")
        for objective in objectives:
            for seed in seeds:
                jobs.append(ExploreJob(len(jobs), objective, laxity, seed))
    return jobs


def explore(benchmark: str, *,
            objectives=DEFAULT_OBJECTIVES,
            laxities=DEFAULT_LAXITIES,
            seeds=(0,),
            steal: int = 1,
            fault_plan=None,
            n_passes: int = 20,
            stimulus_seed: int = 7,
            search: SearchConfig | None = None,
            store_dir=None) -> ExploreResult:
    """Explore a benchmark's design space and return its Pareto frontier.

    Parameters
    ----------
    benchmark:
        A registry name (see ``repro.BENCHMARKS``); workers re-parse it,
        which is what makes process parallelism possible.
    objectives:
        Mix of ``"area"``, ``"power"`` and ``(w_area, w_power, w_latency)``
        weight triples (scalarized via
        :class:`~repro.core.search.WeightedObjective`).
    laxities, seeds:
        The ENC-budget grid and the search seeds; the job grid is their
        cross product with ``objectives``.
    steal:
        Worker processes (see :mod:`repro.explore.steal`), capped at the
        job count.  ``<= 1`` runs in-process; more runs the grid on the
        supervised pool, where idle workers take the next pending cell.
        Any value yields a bit-identical frontier (jobs are independent
        and the merge is in job order) — the steal order is recorded on
        the result, not baked into it.  Every cell checkpoints into the
        artifact store (when attached) and warm-starts later runs.
    fault_plan:
        A :class:`~repro.faults.plan.FaultPlan` injected into the pool
        (so it forces a pool run); ``kill_worker@N`` kills the worker
        that first runs job ``N`` (the retry and every other job run
        clean).
    n_passes, stimulus_seed:
        Profiling stimulus (shared by every job).
    search:
        Base :class:`~repro.core.search.SearchConfig`; each job replaces
        only its ``seed``.
    store_dir:
        Artifact-store root shared by every worker (``None`` consults
        ``$REPRO_STORE_DIR``; pass ``""`` to run without a store).
        Workers publish and reuse per-cell checkpoints through the
        store — concurrency-safe because publication is atomic and
        content-addressed — and the frontier stays bit-identical with or
        without it.

    Returns an :class:`ExploreResult` whose ``front`` holds the merged,
    non-dominated (area, power, latency) points with per-job provenance.
    """
    search = search or SearchConfig()
    jobs = make_jobs(objectives, laxities, seeds)
    workers = max(1, min(steal, len(jobs)))
    recipe = {
        "benchmark": benchmark,
        "n_passes": n_passes,
        "stimulus_seed": stimulus_seed,
        "store_dir": store_dir,
        "search": search,
    }
    t0 = time.perf_counter()

    engine = None
    designs: dict[tuple[int, int], object] = {}
    if workers > 1 or fault_plan is not None:
        outcome = run_stolen(recipe, jobs, workers=workers,
                             fault_plan=fault_plan)
    else:
        # In-process run: keep each searched job's archived designs so a
        # later verify_frontier call can skip re-running the searches.
        context = cell_context(recipe)
        engine = context[0]
        outcome = StealOutcome()
        for job in jobs:
            record, warm, job_designs = run_cell(recipe, job, context=context,
                                                 keep_designs=True)
            outcome.results[job.index] = record
            outcome.warm_hits += int(warm)
            designs.update({(job.index, order): design
                            for order, design in job_designs.items()})

    front = ParetoFront()
    job_stats = []
    # Merge in grid order: the merge sequence (and with it the frontier's
    # stable tie-breaking) is then independent of which worker ran what.
    for index in sorted(outcome.results):
        job_result = outcome.results[index]
        job_stats.append(job_result["stats"])
        for rec in job_result["points"]:
            front.add(ParetoPoint(rec["area"], rec["power"], rec["latency"],
                                  meta=rec["meta"]))

    if engine is not None:
        # Retain only the frontier's designs; evicted archive entries
        # would otherwise pin their architectures and streams.
        keep = {(p.meta["job"], p.meta["order"]) for p in front.points}
        designs = {key: designs[key] for key in keep if key in designs}

    return ExploreResult(
        benchmark=benchmark, front=front, jobs=job_stats, n_passes=n_passes,
        stimulus_seed=stimulus_seed,
        wall_time_s=round(time.perf_counter() - t0, 3),
        objectives=tuple(objectives), laxities=tuple(laxities),
        seeds=tuple(seeds), search=search,
        steal_workers=outcome.workers, steal_log=outcome.log,
        warm_hits=outcome.warm_hits,
        _engine=engine, _designs=designs if engine is not None else None)


def verify_frontier(result: ExploreResult, *,
                    use_iverilog: str = "auto") -> list:
    """Conformance-check the design behind every frontier point.

    The replay recipe (grid, search config, stimulus) is taken from the
    :class:`ExploreResult` itself, so the verified designs are exactly
    the ones the frontier reports.  An in-process result retained its
    searched designs and verifies them directly; a pool (or
    warm-started) result re-runs only the grid cells that own frontier
    points (the search is deterministic, so the re-run visits the same
    designs in the same order) and picks each point's design out by its
    ``meta["order"]``.
    Either way every design goes through :meth:`SynthesisEngine.verify`
    — the differential oracle chain over interpreter / replay / gatesim
    / emitted-Verilog netsim.

    Returns one :class:`~repro.verify.conformance.ConformanceReport` per
    frontier point, in the front's stable order.  Raises
    :class:`~repro.errors.ExperimentError` if a frontier point cannot be
    re-derived (tampered provenance or result fields).
    """
    jobs = {job.index: job
            for job in make_jobs(result.objectives, result.laxities,
                                 result.seeds)}
    needed: dict[int, set[int]] = {}
    for point in result.front.points:
        job = jobs.get(point.meta["job"])
        # Integrity check: each point's provenance must match the job it
        # replays under, or the re-derived design would silently be the
        # wrong one (e.g. a hand-edited result with a reordered grid).
        if (job is None
                or job.label != point.meta["objective"]
                or job.laxity != point.meta["laxity"]
                or job.seed != point.meta["seed"]):
            raise ExperimentError(
                f"frontier point from job {point.meta['job']} "
                f"({point.meta['objective']}, laxity {point.meta['laxity']}, "
                f"seed {point.meta['seed']}) does not match the result's "
                f"recorded objectives/laxities/seeds grid")
        needed.setdefault(point.meta["job"], set()).add(point.meta["order"])

    engine = result._engine
    designs = result._designs
    if engine is None or designs is None or any(
            (index, order) not in designs
            for index, orders in needed.items() for order in orders):
        # Pool (or warm-started, or stripped) result: re-derive by
        # deterministic replay.
        engine = engine_for_benchmark(
            result.benchmark, n_passes=result.n_passes,
            seed=result.stimulus_seed)
        designs = {}
        for index in sorted(needed):
            _, _, job_designs = _run_job(engine, jobs[index], result.search,
                                         keep_designs=True)
            for order in needed[index]:
                if order not in job_designs:
                    raise ExperimentError(
                        f"job {index} re-run did not visit offer {order}; "
                        f"the result's recorded grid or stimulus no longer "
                        f"reproduces its frontier")
                designs[(index, order)] = job_designs[order]

    reports = []
    for point in result.front.points:
        design = designs[(point.meta["job"], point.meta["order"])]
        reports.append(engine.verify(
            design=design, use_iverilog=use_iverilog,
            name=f"{result.benchmark}.j{point.meta['job']}o{point.meta['order']}"))
    return reports
