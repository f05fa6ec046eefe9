"""Per-layer tracing from outside the program.

The traced run wraps public entry points from the benchmark's own files;
nothing under ``src/`` records a span.  A wrapper has to replace the name
in the namespace that *calls* it: ``from repro.gatesim import
simulate_architecture`` copies the binding into
``repro.experiments.laxity``, so patching ``repro.gatesim`` alone would
miss every call the sweep makes.  :meth:`Tracer.wrap_function` therefore
rebinds every ``repro.*`` module attribute that holds the original
function, and :meth:`Tracer.close` puts each one back.

The search's inner stages (schedule, replay, architecture build, trace
merge, power estimate) are already timed inside the program by
:data:`repro.core.profile.PROFILER`; the tracer reads them from a
``PROFILER.window`` instead of wrapping them again.

A span's self time is its duration minus the spans and profiler stages
that ran inside it.  Profiler stages that run in the search's worker
threads land inside the span open on the calling thread, and because
the interpreter lock serializes those threads their stage seconds can
add up to more than the span's own duration, which makes the span's
self time — and ``unattributed_s`` — negative.  Both are kept signed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

from repro.core.profile import PROFILER

#: PROFILER stage -> per-layer metric prefix.
STAGES = {
    "schedule": "sched.schedule",
    "replay": "sched.replay",
    "arch_build": "rtl.arch_build",
    "trace_merge": "power.trace_merge",
    "power_estimate": "power.estimate",
}

#: Stages whose incremental-path hits are reported.
INCREMENTAL_STAGES = ("schedule", "replay", "arch_build")

#: Every per-layer metric, in report order, with its unit.
PER_LAYER = {
    "lang.parse_s": "s", "lang.parse_calls": "count",
    "genprog.generate_s": "s", "genprog.roundtrip_s": "s",
    "genprog.programs": "count",
    "cdfg.simulate_s": "s", "cdfg.simulate_passes": "count",
    "core.initial_s": "s", "core.search_s": "s",
    "core.evaluations": "count", "core.accept_ratio": "ratio",
    "core.cache_hit_rate": "ratio", "core.schedule_replay_computes": "count",
    "sched.schedule_s": "s", "sched.schedule_calls": "count",
    "sched.schedule_incremental": "count",
    "sched.replay_s": "s", "sched.replay_calls": "count",
    "sched.replay_incremental": "count",
    "rtl.arch_build_s": "s", "rtl.arch_build_calls": "count",
    "rtl.arch_build_incremental": "count",
    "power.trace_merge_s": "s", "power.trace_merge_calls": "count",
    "power.estimate_s": "s", "power.estimate_calls": "count",
    "gatesim.s": "s", "gatesim.calls": "count", "gatesim.cycles": "count",
    "hdl.lower_s": "s", "hdl.netsim_s": "s", "hdl.netsim_calls": "count",
    "hdl.netsim_cycles": "count",
    "verify.self_s": "s", "verify.divergences": "count",
    "explore.cold_s": "s", "explore.warm_s": "s", "explore.jobs": "count",
    "explore.offered": "count", "explore.warm_hits": "count",
    "store.objects": "count", "store.bytes": "bytes",
    "unattributed_s": "s", "traced_wall_s": "s",
    "qor.power_reduction_vs_base": "x", "qor.power_reduction_vs_apower": "x",
    "qor.area_overhead_max": "ratio", "qor.hypervolume": "volume",
}


def _stage_seconds() -> float:
    return sum(seconds for name, (_calls, seconds, _inc)
               in PROFILER.snapshot().items() if name in STAGES)


class NullTracer:
    """The untraced run's stand-in: spans and counts cost nothing."""

    def span(self, name: str):
        return nullcontext()

    def add(self, name: str, n: float = 1) -> None:
        pass


class Tracer(NullTracer):
    """Self-time spans and counters around the program's public entry points."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        #: Work counters; names starting with ``_`` only feed ratios.
        self.counts: dict[str, float] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Time a block as layer ``name`` (its self time is recorded)."""
        stack = self._local.__dict__.setdefault("stack", [])
        frame = [0.0, 0.0]  # inner span seconds, inner stage seconds
        stages0 = _stage_seconds()
        t0 = time.perf_counter()
        stack.append(frame)
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            stages = _stage_seconds() - stages0
            stack.pop()
            own = elapsed - frame[0] - (stages - frame[1])
            with self._lock:
                self.seconds[name] += own
            if stack:
                stack[-1][0] += elapsed
                stack[-1][1] += stages

    def add(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # -- patching -------------------------------------------------------------

    def _wrapper(self, func, span: str | None, count):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(span) if span else nullcontext():
                result = func(*args, **kwargs)
            if count is not None:
                count(self, args, result)
            return result
        return wrapper

    def wrap_function(self, module: str, attr: str, span: str | None = None,
                      count=None) -> None:
        """Wrap ``module.attr`` in every ``repro`` namespace that binds it.

        ``count(tracer, args, result)`` runs after each call to record
        work counters from the arguments or the result.
        """
        original = getattr(importlib.import_module(module), attr)
        wrapper = self._wrapper(original, span, count)
        for name, mod in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def wrap_method(self, cls, attr: str, span: str | None = None,
                    count=None) -> None:
        """Wrap a method or classmethod on its class."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrapper(raw.__func__, span, count))
        else:
            new = self._wrapper(raw, span, count)
        setattr(cls, attr, new)
        self._patches.append((cls, attr, raw))

    def close(self) -> None:
        """Put back every wrapped name, last patch first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- report ---------------------------------------------------------------

    def metrics(self, wall_s: float, stages: dict, qor: dict,
                rounds: int = 1) -> dict:
        """Every :data:`PER_LAYER` metric, zero where the layer did not run.

        ``stages`` is the ``PROFILER.window`` over the traced rounds and
        ``wall_s`` their total wall time.  Times and counts are reported
        per round.
        """
        out = dict.fromkeys(PER_LAYER, 0.0)
        out.update(self.seconds)
        out.update((k, v) for k, v in self.counts.items()
                   if not k.startswith("_"))
        for stage, prefix in STAGES.items():
            stats = stages.get(stage, {})
            out[f"{prefix}_s"] = stats.get("seconds", 0.0)
            out[f"{prefix}_calls"] = stats.get("calls", 0)
            if stage in INCREMENTAL_STAGES:
                out[f"{prefix}_incremental"] = stats.get("incremental", 0)
        accepted = self.counts.get("_accepted_moves", 0)
        evaluated = out["core.evaluations"]
        out["core.accept_ratio"] = accepted / evaluated if evaluated else 0.0
        hits = self.counts.get("_cache_hits", 0)
        lookups = hits + self.counts.get("_cache_misses", 0)
        out["core.cache_hit_rate"] = hits / lookups if lookups else 0.0
        attributed = sum(self.seconds.values()) + sum(
            out[f"{prefix}_s"] for prefix in STAGES.values())
        out["unattributed_s"] = wall_s - attributed
        out["traced_wall_s"] = wall_s
        for name, unit in PER_LAYER.items():
            if unit in ("s", "count", "bytes"):
                out[name] /= rounds
        out.update(qor)
        unknown = set(out) - set(PER_LAYER)
        if unknown:
            raise KeyError(f"metrics outside PER_LAYER: {sorted(unknown)}")
        return out


def _count_search(tracer: Tracer, args, result) -> None:
    total = result.cache_stats.get("total", {})
    tracer.add("_cache_hits", total.get("hits", 0))
    tracer.add("_cache_misses", total.get("misses", 0))
    tracer.add("core.schedule_replay_computes",
               result.cache_stats.get("schedule", {}).get("misses", 0)
               + result.cache_stats.get("replay", {}).get("misses", 0))


def _count_start(tracer: Tracer, args, result) -> None:
    _design, history = result
    tracer.add("core.evaluations", history.evaluations)
    tracer.add("_accepted_moves", history.total_moves())


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the workloads cross; returns ``tracer``."""
    from repro.core.design import DesignPoint
    from repro.core.engine import SynthesisEngine

    t = tracer
    # parse() calls parse_process() and then builds the CDFG; wrapping both
    # under one layer keeps the builder in it and counts each source once.
    t.wrap_function("repro.lang.frontend", "parse", "lang.parse_s")
    t.wrap_function("repro.lang.frontend", "parse_process", "lang.parse_s",
                    lambda t, a, r: t.add("lang.parse_calls"))
    t.wrap_function("repro.genprog.generator", "generate_program",
                    "genprog.generate_s",
                    lambda t, a, r: t.add("genprog.programs"))
    t.wrap_function("repro.genprog.generator", "check_roundtrip",
                    "genprog.roundtrip_s")
    t.wrap_function("repro.cdfg.interpreter", "simulate", "cdfg.simulate_s",
                    lambda t, a, r: t.add("cdfg.simulate_passes", len(a[1])))
    t.wrap_method(DesignPoint, "initial", "core.initial_s")
    t.wrap_method(SynthesisEngine, "run", "core.search_s", _count_search)
    t.wrap_function("repro.core.search", "iterative_improvement",
                    count=_count_start)
    t.wrap_function("repro.gatesim", "simulate_architecture", "gatesim.s",
                    lambda t, a, r: (t.add("gatesim.calls"),
                                     t.add("gatesim.cycles", r.total_cycles)))
    t.wrap_function("repro.hdl.lower", "lower_architecture", "hdl.lower_s")
    t.wrap_function("repro.hdl.netsim", "run_passes", "hdl.netsim_s",
                    lambda t, a, r: (t.add("hdl.netsim_calls"),
                                     t.add("hdl.netsim_cycles",
                                           r.total_cycles)))
    t.wrap_function("repro.verify.conformance", "verify_architecture",
                    "verify.self_s",
                    lambda t, a, r: t.add("verify.divergences",
                                          len(r.divergences)))
    return tracer
