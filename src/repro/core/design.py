"""A design point: one (binding, schedule, architecture) triple.

The iterative-improvement search explores a graph of design points; this
class makes each point cheap to derive from its predecessor:

* moves that change only the binding or the multiplexer shapes reuse the
  STG *and* the replay (replay depends only on the schedule, not the
  binding), and — when they declare a :class:`~repro.core.delta.DirtySet`
  — derive the architecture and the merged unit traces *incrementally*:
  clean ports are shared with the parent point, every stream the move
  left unchanged is shared too (the rule is stated once, in
  :func:`~repro.power.trace_manip.merge_unit_traces`), and only the rest
  is rebuilt (Section 2.3's trace manipulation applied to the
  architecture and the traces); the power estimate is always computed
  in full from them;
* moves that change the resource constraints re-schedule first and take
  the full path.

The evaluation bundle (ENC, legality, area, Vdd-scaled power) is computed
once per point and cached; its power half and its Vdd are *lazy*, so
area-mode searches never pay for a power estimate and no search pays
for a Vdd root-find it does not read.  Incremental and full
evaluation are bit-identical — the randomized equivalence suite
(``tests/test_incremental_equivalence.py``) enforces it.
"""

from __future__ import annotations

import weakref

from repro.cdfg.graph import CDFG
from repro.core.binding import Binding
from repro.core.cache import SynthesisCache
from repro.core.delta import DirtySet
from repro.core.mux_restructure import huffman_tree
from repro.library.library import ModuleLibrary
from repro.library.voltage import max_vdd_scaling
from repro.power.estimator import PowerEstimate, estimate_power
from repro.power.trace_manip import UnitTraces, merge_unit_traces
from repro.rtl.architecture import Architecture
from repro.rtl.builder import build_architecture, derive_architecture
from repro.rtl.mux import MuxSource
from repro.sched.engine import ScheduleOptions, schedule
from repro.sched.replay import ReplayResult, replay
from repro.sched.stg import STG
from repro.sim.traces import TraceStore


class Evaluation:
    """The numbers the search needs about one design point.

    ``slack_ratio`` is the *in-cycle* headroom (cycle window over real
    critical path); ``vdd``/``power_scaled`` use it alone.  The search and
    the Figure 13 experiment additionally exploit *cycle* slack — a design
    whose ENC is under the laxity budget may scale Vdd further at equal
    throughput (see :func:`equal_throughput_vdd`).

    Two parts of the bundle are lazy.  ``estimate`` (and with it
    ``power_5v``/``power_scaled``) is materialized on first access, so
    area-only consumers never trigger trace merging or power estimation.
    ``vdd``, a root-find over ``slack_ratio``, is computed on first read
    too: the search never reads it, only ``power_scaled``, reports and
    observers do.  The lazy estimate calls the design point's merged-trace
    stage, never the point itself, which holds this evaluation.
    """

    __slots__ = ("enc", "legal", "area", "slack_ratio", "_vdd",
                 "_power_fn", "_estimate")

    def __init__(self, enc: float, legal: bool, area: float,
                 slack_ratio: float, power_fn=None,
                 estimate: PowerEstimate | None = None):
        self.enc = enc
        self.legal = legal
        self.area = area
        self.slack_ratio = slack_ratio
        self._vdd: float | None = None
        self._power_fn = power_fn
        self._estimate = estimate

    @property
    def vdd(self) -> float:
        """Lowest legal Vdd after consuming the in-cycle slack.

        Equal to ``Architecture.scaled_vdd()`` for a legal design; an
        illegal one has ``slack_ratio`` 1.0 and so stays at 5 V.
        """
        if self._vdd is None:
            self._vdd = max_vdd_scaling(self.slack_ratio)
        return self._vdd

    @property
    def estimate(self) -> PowerEstimate:
        """The 5 V power estimate, materialized on first use."""
        if self._estimate is None:
            self._estimate = self._power_fn()
        return self._estimate

    @property
    def power_materialized(self) -> bool:
        return self._estimate is not None

    @property
    def power_5v(self) -> float:
        return self.estimate.total

    @property
    def power_scaled(self) -> float:
        scale = (self.vdd / 5.0) ** 2
        return self.estimate.total * scale


def equal_throughput_vdd(evaluation: Evaluation, enc_budget: float) -> float:
    """Lowest Vdd at which the design still meets the real-time budget.

    The comparison of Section 4 equalizes performance: every design gets
    ``enc_budget`` cycles of real time per pass, so a design finishing in
    fewer cycles may slow down by ``enc_budget / enc`` on top of its
    in-cycle slack.
    """
    if evaluation.enc <= 0:
        return 5.0
    total = evaluation.slack_ratio * max(1.0, enc_budget / evaluation.enc)
    return max_vdd_scaling(total)


def energy_cost(design: "DesignPoint", enc_budget: float) -> float:
    """Power-mode cost: energy per pass at the equal-throughput Vdd.

    Proportional to the average power at fixed throughput (the denominator
    ``enc_budget x Tclk`` is shared by every candidate), so minimizing it
    minimizes the paper's I-Power.
    """
    evaluation = design.evaluate()
    vdd = equal_throughput_vdd(evaluation, enc_budget)
    return evaluation.power_5v * evaluation.enc * (vdd / 5.0) ** 2


#: The cache of a point whose engine is gone: it computes every lookup
#: and counts it as a miss, like any disabled cache.
_DETACHED = SynthesisCache(enabled=False)


class _LazyTraces:
    """One design point's merged unit traces, built on first use.

    It is kept apart from the point so that the point's lazy
    :class:`Evaluation` can build the traces without referring back to
    the point, which holds the evaluation: the search's object graph
    stays acyclic, so reference counting frees every point it drops.

    A point derived incrementally holds its parent's ``_LazyTraces``
    until its own traces are merged, then lets it go, so a committed
    chain does not pin every ancestor's streams.
    """

    __slots__ = ("arch", "store", "rep", "parent", "dirty", "dirty_ports",
                 "value")

    def __init__(self, arch: Architecture, store: TraceStore,
                 rep: ReplayResult, parent: "_LazyTraces | None" = None,
                 dirty: DirtySet | None = None,
                 dirty_ports: frozenset | None = None):
        self.arch = arch
        self.store = store
        self.rep = rep
        self.parent = parent
        self.dirty = dirty
        self.dirty_ports = dirty_ports
        self.value: UnitTraces | None = None

    def get(self) -> UnitTraces:
        """Merged traces, from the parent's when there is one."""
        if self.value is None:
            delta = {}
            if self.parent is not None:
                delta = dict(parent=self.parent.get(), dirty=self.dirty,
                             dirty_ports=self.dirty_ports)
            self.value = merge_unit_traces(self.arch, self.store, self.rep,
                                           **delta)
            self.parent = self.dirty = self.dirty_ports = None
        return self.value

    def estimate_5v(self) -> PowerEstimate:
        """The 5 V power estimate, always computed in full."""
        return estimate_power(self.arch, self.get(), vdd=5.0)


def _memo_replay(cache: SynthesisCache, stg: STG, cdfg: CDFG,
                 store: TraceStore) -> ReplayResult:
    """Replay, memoized on (store, CDFG, the STG's replay signature).

    Replay never reads the binding, so points that re-bind without
    re-scheduling, and distinct bindings whose schedules coincide up to
    unit assignment, share one :class:`ReplayResult`.
    """
    key = (id(store), id(cdfg), stg.replay_signature())
    return cache.replay.get_or_compute(key, lambda: replay(stg, cdfg, store))


class DesignPoint:
    """One point in the design space; immutable once evaluated.

    Construction is *lazy*: only the schedule and its replay (the inputs a
    derivation needs for legality checks) are materialized eagerly.  The
    architecture, the merged unit traces and the evaluation bundle are
    cached properties built on first use, so candidates the search rejects
    early — an interfering register share, an illegal derivation — never
    pay for RTL construction or trace merging.

    Every point uses a :class:`~repro.core.cache.SynthesisCache`, shared
    with the points derived from it, and owns its key policy: derived
    points are memoized on (binding, STG, tree policy), replays on the
    STG's replay signature.  Scheduling and trace merging are not
    memoized.

    The cache's tables hold the derived points, so a point refers to its
    cache only weakly; the cache's owner — the engine, or the point
    :meth:`initial` made it for — keeps it alive.  Once the owner is
    gone, the point still works, uncached.

    A point derived with a :class:`~repro.core.delta.DirtySet` (and
    ``incremental`` enabled) keeps a reference to its parent until its
    architecture is built, and builds its architecture and traces by
    patching the parent's, rebuilding only the dirty units/ports; its
    power estimate is computed in full.
    """

    def __init__(self, cdfg: CDFG, library: ModuleLibrary, store: TraceStore,
                 options: ScheduleOptions, binding: Binding, stg: STG,
                 rep: ReplayResult, cache: SynthesisCache,
                 tree_policy: frozenset = frozenset(),
                 parent: "DesignPoint | None" = None,
                 dirty: DirtySet | None = None, incremental: bool = True):
        self.cdfg = cdfg
        self.library = library
        self.store = store
        self.options = options
        self.binding = binding
        self.stg = stg
        self.rep = rep
        self.tree_policy = tree_policy  # port keys with Huffman-restructured trees
        self._cache = weakref.ref(cache)
        #: The cache, held strongly by the one point :meth:`initial`
        #: made it for; every other point's cache has another owner.
        self._owned_cache: SynthesisCache | None = None
        self.incremental = incremental
        self._parent = parent if (incremental and dirty is not None
                                  and not dirty.reschedule) else None
        self._dirty = dirty
        self._arch: Architecture | None = None
        self._lazy_traces: _LazyTraces | None = None
        self._liveness: dict[int, set[str]] | None = None
        self._evaluation: Evaluation | None = None

    @property
    def cache(self) -> SynthesisCache:
        """The memo tables, or a disabled cache once their owner is gone."""
        cache = self._cache()
        return _DETACHED if cache is None else cache

    @cache.setter
    def cache(self, cache: SynthesisCache) -> None:
        self._cache = weakref.ref(cache)

    # -- construction ---------------------------------------------------------------

    @classmethod
    def initial(cls, cdfg: CDFG, library: ModuleLibrary, store: TraceStore,
                options: ScheduleOptions | None = None,
                cache: SynthesisCache | None = None,
                incremental: bool = True) -> "DesignPoint":
        """The paper's starting point: fully parallel, fastest modules.

        Without a ``cache`` the point and everything derived from it
        share a fresh :class:`~repro.core.cache.SynthesisCache`, which
        lives as long as this point.
        """
        options = options or ScheduleOptions()
        owned = None
        if cache is None:
            cache = owned = SynthesisCache()
        binding = Binding.initial_parallel(cdfg, library)
        stg = schedule(cdfg, binding, options)
        rep = _memo_replay(cache, stg, cdfg, store)
        point = cls(cdfg, library, store, options, binding, stg, rep, cache,
                    incremental=incremental)
        point._owned_cache = owned
        return point

    def with_binding(self, binding: Binding, reschedule: bool,
                     dirty: DirtySet | None = None) -> "DesignPoint":
        """Derive a new point after a binding edit.

        Re-scheduling invalidates earlier register-sharing legality proofs
        (lifetimes are a property of the schedule), so the derived point is
        re-checked and rejected if any shared register's carriers now
        interfere.  Rejection happens before any architecture is built.

        ``dirty`` is the applying move's declaration of what it touched;
        for non-rescheduling moves it enables the incremental evaluation
        path.  Rescheduling derivations always take the full path:
        ``schedule()`` runs from scratch and ``replay()`` is memoized on
        the STG's replay signature.  Passing no dirty set falls back to
        full evaluation.
        """
        memo = self.cache.designs
        if reschedule:
            # The schedule is a function of (CDFG, binding, options), so
            # the binding signature alone keys the derived point — a hit
            # skips scheduling and replay entirely.  A disabled memo
            # still counts the derivation as a miss, keeping cached and
            # uncached miss counters comparable.
            key = (id(self.cdfg), id(self.store), self.options,
                   binding.signature(), self.tree_policy, True)
            return memo.get_or_compute(
                key, lambda: self._derive_rescheduled(binding))
        # A non-rescheduling derivation keeps this point's STG, which is
        # a product of its move history, not of ``binding`` — the key
        # needs the STG signature too.
        key = (id(self.cdfg), id(self.store), self.options,
               binding.signature(), self.tree_policy, False,
               self.stg.signature())
        return memo.get_or_compute(
            key, lambda: self._derive_rebound(binding, dirty))

    def _derive_rescheduled(self, binding: Binding) -> "DesignPoint":
        stg = schedule(self.cdfg, binding, self.options)
        rep = _memo_replay(self.cache, stg, self.cdfg, self.store)
        derived = DesignPoint(self.cdfg, self.library, self.store, self.options,
                              binding, stg, rep, self.cache, self.tree_policy,
                              incremental=self.incremental)
        derived.check_register_sharing()
        return derived

    def _derive_rebound(self, binding: Binding,
                        dirty: DirtySet | None) -> "DesignPoint":
        derived = DesignPoint(self.cdfg, self.library, self.store, self.options,
                              binding, self.stg, self.rep, self.cache,
                              self.tree_policy, parent=self, dirty=dirty,
                              incremental=self.incremental)
        # Liveness depends only on (CDFG, STG), both shared.
        derived._liveness = self._liveness
        return derived

    def check_register_sharing(self) -> None:
        """Raise if two carriers of one register are simultaneously alive."""
        from itertools import combinations

        from repro.errors import BindingError
        from repro.core.liveness import carriers_interfere

        shared = [r for r in self.binding.regs.values() if len(r.carriers) > 1]
        if not shared:
            return
        liveness = self.liveness()
        for reg in shared:
            for a, b in combinations(sorted(reg.carriers), 2):
                if carriers_interfere(liveness, a, b):
                    raise BindingError(
                        f"register {reg.id}: carriers {a!r} and {b!r} interfere "
                        f"under the new schedule")

    def with_tree_policy(self, port_key: tuple) -> "DesignPoint":
        """Derive a new point with one more Huffman-restructured mux tree."""
        policy = self.tree_policy | {port_key}
        # Same key space as the non-rescheduling binding derivation:
        # (binding, STG, policy) determine the point either way.
        key = (id(self.cdfg), id(self.store), self.options,
               self.binding.signature(), policy, False,
               self.stg.signature())
        return self.cache.designs.get_or_compute(
            key, lambda: self._derive_policy(policy, port_key))

    def _derive_policy(self, policy: frozenset,
                       port_key: tuple) -> "DesignPoint":
        derived = DesignPoint(self.cdfg, self.library, self.store, self.options,
                              self.binding, self.stg, self.rep, self.cache,
                              policy, parent=self,
                              dirty=DirtySet.for_ports(port_key),
                              incremental=self.incremental)
        derived._liveness = self._liveness
        return derived

    # -- lazy pipeline stages --------------------------------------------------------

    @property
    def arch(self) -> Architecture:
        """The RT architecture, built (and tree-restructured) on first use."""
        if self._arch is None:
            parent = self._parent
            if parent is not None:
                arch, rebuilt = derive_architecture(parent.arch, self.binding,
                                                    self._dirty)
                lazy = _LazyTraces(arch, self.store, self.rep,
                                   parent._lazy_traces, self._dirty, rebuilt)
                # Only re-wired ports can carry a stale balanced tree; a
                # shared port inherited its (possibly restructured) tree
                # — and the critical paths computed with it — wholesale.
                pending = [k for k in self.tree_policy if k in rebuilt]
                self._parent = None
            else:
                arch = build_architecture(self.cdfg, self.binding, self.stg,
                                          clock_ns=self.options.clock_ns)
                lazy = _LazyTraces(arch, self.store, self.rep)
                pending = list(self.tree_policy)
            self._lazy_traces = lazy
            if pending:
                # Restructuring needs the merged port statistics, and
                # changes timing — invalidate the affected states after.
                self._apply_tree_policy(arch, lazy.get(), pending)
            self._arch = arch
        return self._arch

    @property
    def traces(self) -> UnitTraces:
        """Merged per-unit traces, computed on first use."""
        self.arch  # building the architecture sets up _lazy_traces
        return self._lazy_traces.get()

    def liveness(self) -> dict[int, set[str]]:
        """Carrier liveness over this point's STG, computed once.

        Depends only on (CDFG, STG), so every register-sharing candidate
        generated from this point reuses one fixpoint solve.
        """
        if self._liveness is None:
            from repro.core.liveness import carrier_liveness

            self._liveness = carrier_liveness(self)
        return self._liveness

    def _apply_tree_policy(self, arch: Architecture, traces: UnitTraces,
                           pending: list[tuple]) -> None:
        touched: set[int] = set()
        for key in pending:
            port = arch.datapath.ports.get(key)
            if port is None or port.tree is None:
                continue  # the port vanished under a later binding change
            stats = {s: (a, p) for s, a, p in traces.port_stats.get(key, [])}
            sources = [MuxSource(s, *stats.get(s, (0.0, 0.0))) for s in port.sources]
            arch.set_tree(key, huffman_tree(sources), invalidate=False)
            touched |= arch.datapath.ports[key].driver_states()
        arch.invalidate_timing(sorted(touched))

    # -- evaluation -----------------------------------------------------------------

    def evaluate(self) -> Evaluation:
        if self._evaluation is None:
            legal = not self.arch.check_timing()
            slack = self.arch.worst_slack_ratio() if legal else 1.0
            if slack == float("inf"):
                slack = 5.0
            self._evaluation = Evaluation(
                enc=self.enc,
                legal=legal,
                area=self.arch.area(),
                slack_ratio=slack,
                power_fn=self._lazy_traces.estimate_5v,
            )
        return self._evaluation

    @property
    def enc(self) -> float:
        """Empirical ENC under the architecture's (normalized) durations."""
        total = sum(visits * self.arch.state_duration(sid)
                    for sid, visits in self.rep.state_visits.items())
        return total / self.store.n_passes if self.store.n_passes else 0.0

    def summary(self) -> dict[str, float]:
        ev = self.evaluate()
        return {
            "enc": round(ev.enc, 2),
            "area": round(ev.area, 1),
            "vdd": round(ev.vdd, 2),
            "power_5v_mw": round(ev.power_5v, 4),
            "power_scaled_mw": round(ev.power_scaled, 4),
            "legal": ev.legal,
            "fus": len(self.binding.fus),
            "registers": len(self.binding.regs),
            "mux2": self.arch.datapath.total_mux_count(),
            "states": self.stg.n_states,
        }
