"""Lightweight per-stage timing for the synthesis hot path.

The iterative-improvement search funnels every candidate evaluation
through the same pipeline stages (schedule, replay, architecture build,
trace merge, power estimate); knowing where the wall time goes — and how
often the incremental evaluation layer short-circuits a stage — is what
lets successive PRs attack the right bottleneck.  A :class:`Profiler` is
a thread-safe bag of per-stage counters with windowed deltas, mirroring
the :class:`~repro.core.cache.SynthesisCache` accounting style, so the
engine can attach an exact per-run breakdown to each
:class:`~repro.core.engine.SynthesisResult`.

Timing uses ``time.perf_counter`` around stage bodies; the overhead is a
dict update under a lock per stage call (microseconds against stage
bodies that run for milliseconds).  The module-level :data:`PROFILER` is
what the pipeline stages record into by default.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class StageToken:
    """Mutable marker yielded by :meth:`Profiler.stage`.

    Stages that only discover mid-flight whether they took the
    incremental path (a reused replay walk, a persistent-store hit) set
    ``incremental`` on the token before the block exits.
    """

    incremental: bool = False


@dataclass
class StageStats:
    """Accumulated timing of one pipeline stage."""

    calls: int = 0
    seconds: float = 0.0
    #: Calls served by the delta-based incremental path (a strict subset
    #: of ``calls``; the rest ran the full recomputation).
    incremental: int = 0

    def as_dict(self) -> dict[str, float]:
        return {
            "calls": self.calls,
            "seconds": round(self.seconds, 4),
            "incremental": self.incremental,
            "full": self.calls - self.incremental,
        }


class Profiler:
    """Thread-safe per-stage wall-time and incremental-hit accounting."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stages: dict[str, StageStats] = {}

    @contextmanager
    def stage(self, name: str, incremental: bool = False):
        """Time one stage execution (``incremental`` marks a delta path).

        Yields a :class:`StageToken`; a stage that only knows *after* the
        fact whether it short-circuited (e.g. a reused replay walk)
        may set ``token.incremental`` inside the block instead of passing
        the flag up front.
        """
        token = StageToken(incremental=incremental)
        t0 = time.perf_counter()
        try:
            yield token
        finally:
            elapsed = time.perf_counter() - t0
            with self._lock:
                stats = self._stages.get(name)
                if stats is None:
                    stats = self._stages[name] = StageStats()
                stats.calls += 1
                stats.seconds += elapsed
                if token.incremental:
                    stats.incremental += 1

    def record(self, name: str, seconds: float = 0.0,
               incremental: bool = False) -> None:
        """Count one stage event without timing a block.

        The counter-only entry point for stages whose cost is not the
        interesting part — coverage extraction in fuzz runs,
        explore checkpoint hits — where callers want the event visible
        in :meth:`stats` next to the timed stages.
        """
        with self._lock:
            stats = self._stages.get(name)
            if stats is None:
                stats = self._stages[name] = StageStats()
            stats.calls += 1
            stats.seconds += seconds
            if incremental:
                stats.incremental += 1

    # -- windows ---------------------------------------------------------------

    def snapshot(self) -> dict[str, tuple[int, float, int]]:
        """(calls, seconds, incremental) per stage — for windowed deltas."""
        with self._lock:
            return {name: (s.calls, s.seconds, s.incremental)
                    for name, s in self._stages.items()}

    def window(self, since: dict[str, tuple[int, float, int]]) -> dict[str, dict]:
        """Per-stage stats accumulated after a :meth:`snapshot`."""
        out: dict[str, dict] = {}
        with self._lock:
            for name, stats in self._stages.items():
                calls0, seconds0, inc0 = since.get(name, (0, 0.0, 0))
                delta = StageStats(stats.calls - calls0,
                                   stats.seconds - seconds0,
                                   stats.incremental - inc0)
                if delta.calls:
                    out[name] = delta.as_dict()
        return out

    def stats(self) -> dict[str, dict]:
        """Lifetime per-stage stats."""
        with self._lock:
            return {name: s.as_dict() for name, s in self._stages.items()}

    def incremental_hits(self) -> dict[str, int]:
        """Incremental-path call counts per stage (lifetime)."""
        with self._lock:
            return {name: s.incremental for name, s in self._stages.items()
                    if s.incremental}

    def reset(self) -> None:
        with self._lock:
            self._stages.clear()


#: The process-wide profiler every pipeline stage records into.
PROFILER = Profiler()
