"""Lightweight per-stage timing for the synthesis hot path.

The iterative-improvement search funnels every candidate evaluation
through the same pipeline stages (schedule, replay, architecture build,
trace merge, power estimate); knowing where the wall time goes — and how
often the incremental evaluation layer short-circuits a stage — is what
lets later changes attack the right bottleneck.  A :class:`Profiler` is
a thread-safe bag of per-stage counters with windowed deltas.  It is the
one counter mechanism of the package: the memo tables of
:mod:`repro.core.cache` count their lookups into it as ``memo.<table>``
stages (a hit is an incremental call), and the artifact store times its
reads and writes under ``store`` (a disk hit is an incremental call).

Timing uses ``time.perf_counter`` around stage bodies; the overhead is a
dict update under a lock per stage call (microseconds against stage
bodies that run for milliseconds).  The module-level :data:`PROFILER` is
what the pipeline stages record into by default.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass


class StageToken:
    """One timed stage execution, as returned by :meth:`Profiler.stage`.

    It is both the context manager that times the block and the mutable
    marker the block sees: stages that only discover mid-flight whether
    they took the incremental path (a reused replay walk, a
    persistent-store hit) set ``incremental`` on the token before the
    block exits.  One plain object per call keeps the hot stages cheap
    (a generator-based context manager builds three).
    """

    __slots__ = ("incremental", "_profiler", "_name", "_t0")

    def __init__(self, profiler: "Profiler", name: str,
                 incremental: bool = False):
        self.incremental = incremental
        self._profiler = profiler
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "StageToken":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._profiler.record(self._name, time.perf_counter() - self._t0,
                              self.incremental)


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

    def stage(self, name: str, incremental: bool = False) -> StageToken:
        """Time one stage execution (``incremental`` marks a delta path).

        Use as ``with profiler.stage(name) as token``; the block is
        counted on exit, also when it raises.  A stage that only knows
        *after* the fact whether it short-circuited (e.g. a reused replay
        walk) may set ``token.incremental`` inside the block instead of
        passing the flag up front.
        """
        return StageToken(self, name, incremental)

    def record(self, name: str, seconds: float = 0.0,
               incremental: bool = False) -> None:
        """Count one stage event without timing a block.

        The counter-only entry point for stages whose cost is not the
        interesting part — memo-table lookups, coverage extraction in
        fuzz runs — where callers want the event visible in a
        :meth:`window` next to the timed stages; every timed stage ends
        here too.
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


#: The process-wide profiler every pipeline stage records into.
PROFILER = Profiler()
