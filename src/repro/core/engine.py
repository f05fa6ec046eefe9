"""The reusable synthesis engine: one facade over the whole pipeline.

A :class:`SynthesisEngine` owns everything that is shared between the
synthesis runs of one behavioral description — the module library, the
profiled trace store, the minimum-ENC initial design point, and the
content-addressed memo tables of :mod:`repro.core.cache` — so laxity
sweeps, multi-start searches and repeated experiments stop recomputing
identical design points, replays and merged traces.

:meth:`SynthesisEngine.run` executes one IMPACT flow (Figure 7) and is the
single entry point behind :func:`repro.core.impact.synthesize`; it searches
from each start in turn; repeated runs on one engine share its state.
Results are bit-identical with caching off
(``cache=SynthesisCache(enabled=False)``): every cached artifact is
immutable and content-addressed.  The memo tables live as long as the
engine and are never written to disk; the artifact store keeps only
explore checkpoints (:mod:`repro.explore.steal`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConstraintError
from repro.cdfg.graph import CDFG
from repro.cdfg.interpreter import simulate
from repro.core.cache import SynthesisCache, cache_stats
from repro.core.design import DesignPoint
from repro.core.profile import PROFILER
from repro.core.search import (
    SearchConfig,
    SearchHistory,
    design_cost,
    iterative_improvement,
)
from repro.library.library import ModuleLibrary
from repro.library.modules_data import default_library
from repro.sched.engine import ScheduleOptions
from repro.sim.traces import TraceStore


@dataclass
class SynthesisResult:
    """Everything a caller needs about one synthesis run."""

    design: DesignPoint
    initial: DesignPoint
    #: "power", "area", or the WeightedObjective the search minimized.
    mode: object
    laxity: float
    enc_min: float
    enc_budget: float
    history: SearchHistory
    store: TraceStore
    #: Memo-table counters over the run window: {"replay"|"traces"|
    #: "design"|"total": {"hits", "misses", "hit_rate"}} (see
    #: :func:`repro.core.cache.cache_stats`).  Like every ``PROFILER``
    #: window they cover all memo lookups made in the process during the
    #: run, not only this engine's cache.
    cache_stats: dict = field(default_factory=dict)

    @property
    def enc(self) -> float:
        return self.design.enc

    def summary(self) -> dict:
        """One JSON-serializable dict of the run's headline numbers."""
        total = self.cache_stats.get("total", {})
        mode = getattr(self.mode, "label", self.mode)
        return {
            "mode": mode,
            "laxity": self.laxity,
            "enc_min": round(self.enc_min, 2),
            "enc": round(self.design.enc, 2),
            **self.design.summary(),
            "moves": self.history.total_moves(),
            "evaluations": self.history.evaluations,
            "cache_hits": total.get("hits", 0),
            "cache_misses": total.get("misses", 0),
            "cache_hit_rate": total.get("hit_rate", 0.0),
        }


class SynthesisEngine:
    """Shared-state facade for synthesizing one behavioral description.

    Parameters
    ----------
    cdfg, stimulus:
        The behavioral description and the profiling stimulus.
    library, options:
        Module library and schedule options shared by every run.
    incremental:
        The config flag for delta-based candidate evaluation: moves with
        a dirty set derive architecture and traces by patching the
        parent design point's (the power estimate is always computed in
        full).  ``False`` forces the full path for every candidate;
        results are bit-identical either way (the equivalence suite
        enforces it).
    cache:
        An optional pre-built :class:`~repro.core.cache.SynthesisCache`,
        e.g. one bounded with ``max_entries``, or
        ``SynthesisCache(enabled=False)``, which recomputes every memoized
        stage (results are bit-identical either way) while still counting
        computations, so speedups stay measurable.  ``None`` builds a
        default cache.
    store, initial:
        Optional pre-computed trace store / initial design point (e.g.
        from an earlier engine); both are lazily built when omitted.
    """

    def __init__(self, cdfg: CDFG, stimulus: list[dict[str, int]], *,
                 library: ModuleLibrary | None = None,
                 options: ScheduleOptions | None = None,
                 incremental: bool = True,
                 cache: SynthesisCache | None = None,
                 store: TraceStore | None = None,
                 initial: DesignPoint | None = None):
        self.cdfg = cdfg
        self.stimulus = stimulus
        self.library = library or default_library()
        self.options = options or ScheduleOptions()
        self.cache = cache or SynthesisCache()
        self.incremental = incremental
        self._store = store
        self._initial = self._adopt(initial)

    # -- shared state ---------------------------------------------------------------

    @property
    def store(self) -> TraceStore:
        """The behavioral profile, simulated once per engine."""
        if self._store is None:
            self._store = simulate(self.cdfg, self.stimulus)
        return self._store

    @property
    def initial(self) -> DesignPoint:
        """The minimum-ENC fully-parallel design point, built once."""
        if self._initial is None:
            self._initial = DesignPoint.initial(
                self.cdfg, self.library, self.store, self.options,
                cache=self.cache, incremental=self.incremental)
        return self._initial

    def _adopt(self, design: DesignPoint | None) -> DesignPoint | None:
        """Point an externally-built design at this engine's cache.

        Guards the memo tables first: keys embed ``id(cdfg)``/``id(store)``,
        so a design built on foreign objects must be rejected rather than
        allowed to seed entries that could alias a later object at the
        same address.  Re-binding is in place so object identity survives
        (callers hold references); it only changes which memo tables
        future derivations consult, never any synthesized value.
        """
        if design is None:
            return None
        if design.cdfg is not self.cdfg:
            raise ConstraintError(
                "design point was built on a different CDFG than the engine's")
        if self._store is None:
            self._store = design.store
        elif design.store is not self._store:
            raise ConstraintError(
                "design point was profiled against a different trace store "
                "than the engine's")
        if design.cache is not self.cache:
            design.cache = self.cache
        return design

    # -- the IMPACT flow ------------------------------------------------------------

    def run(self, mode="power", laxity: float = 1.0, *,
            search: SearchConfig | None = None,
            starts: list[DesignPoint] | None = None,
            area_cap: float | None = None,
            observer=None) -> SynthesisResult:
        """Run the full IMPACT flow once (see :func:`repro.core.impact.synthesize`).

        ``mode`` is ``"power"``, ``"area"`` or a
        :class:`~repro.core.search.WeightedObjective`.  ``starts`` adds
        extra search starting points (the initial design is always
        included and always defines ``enc_min``); the search runs from
        each in turn and the best final design wins, with ties broken in
        start order.  Every start's evaluation count lands in the returned
        history, including the losers'.

        ``observer`` is forwarded to every start's
        :func:`~repro.core.search.iterative_improvement` as the archive
        hook (called for each feasible visited design).

        Returns a :class:`SynthesisResult`.
        """
        if laxity < 1.0:
            raise ConstraintError(f"laxity factor must be >= 1.0, got {laxity}")
        initial = self.initial
        enc_min = initial.enc
        enc_budget = laxity * enc_min
        window = PROFILER.snapshot()

        def feasible(design: DesignPoint) -> bool:
            evaluation = design.evaluate()
            if not evaluation.legal or evaluation.enc > enc_budget + 1e-9:
                return False
            return area_cap is None or evaluation.area <= area_cap + 1e-9

        start_points = [initial] + [
            self._adopt(s) for s in (starts or [])
            if s.evaluate().legal and s.enc <= enc_budget + 1e-9
        ]
        results = [iterative_improvement(start, mode, enc_budget, search,
                                         area_cap=area_cap, observer=observer)
                   for start in start_points]

        best_design: DesignPoint | None = None
        best_history: SearchHistory | None = None
        best_key = (True, float("inf"))  # (infeasible, cost) -- feasible wins
        for design, history in results:
            key = (not feasible(design), design_cost(design, mode, enc_budget))
            if best_design is None or key < best_key:
                best_key = key
                best_design = design
                best_history = history
        # Losing starts' effort counts toward the run, whichever start won.
        best_history.evaluations = sum(h.evaluations for _, h in results)

        return SynthesisResult(
            design=best_design,
            initial=initial,
            mode=mode,
            laxity=laxity,
            enc_min=enc_min,
            enc_budget=enc_budget,
            history=best_history,
            store=self.store,
            cache_stats=cache_stats(PROFILER.window(window)),
        )

    # -- differential verification ----------------------------------------------------

    def verify(self, *, design: DesignPoint | None = None,
               stimulus: list[dict[str, int]] | None = None,
               use_iverilog: str = "auto", minimize: bool = True,
               name: str | None = None):
        """Differentially cosimulate a design point across every execution
        model (see :mod:`repro.verify.conformance`).

        Drives ``stimulus`` (default: the engine's profiling stimulus)
        through the CDFG interpreter, duration-normalized STG replay,
        gatesim, and the emitted Verilog's netlist simulator — plus
        iverilog on the printed text when available — and reports any
        output-value or cycle-count disagreement with the first divergent
        stimulus minimized.  Defaults to the initial design point; pass
        ``design`` to verify a searched result.

        Returns a :class:`~repro.verify.conformance.ConformanceReport`;
        call ``report.raise_if_failed()`` to turn divergence into an
        exception.
        """
        from repro.verify.conformance import verify_architecture

        design = self.initial if design is None else self._adopt(design)
        if stimulus is None:
            stimulus, store = self.stimulus, self.store
        else:
            store = None
        return verify_architecture(
            self.cdfg, design.arch, stimulus, store=store,
            name=name or getattr(self.cdfg, "name", None) or "impact",
            use_iverilog=use_iverilog, minimize=minimize)
