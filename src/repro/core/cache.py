"""Content-addressed memo tables for the synthesis hot path.

The iterative-improvement search evaluates hundreds of candidate design
points per run, and distinct candidates very often share intermediate
artifacts: two moves that arrive at the same binding need the same
schedule, two schedules with identical STGs replay identically, and any
(binding, STG) pair merges the same unit traces.  A :class:`SynthesisCache`
keys each stage on a content signature of exactly its inputs:

* **schedule** — (CDFG id, binding signature, schedule options);
* **replay**   — (trace-store id, CDFG id, STG signature);
* **traces**   — (trace-store id, CDFG id, binding signature, STG
  signature, clock period);
* **design**   — (CDFG id, trace-store id, options, binding signature,
  STG signature, mux tree policy) -> the whole derived
  :class:`~repro.core.design.DesignPoint`.  The search revisits
  candidates constantly (the same move from the same point in a later
  iteration, or the same binding reached along two move orders), and a
  revisited point's architecture, merged traces and power estimate are
  already materialized — a hit skips the entire evaluation pipeline.
  Rescheduling derivations drop the STG term: the schedule is itself a
  function of (CDFG, binding, options), so the binding signature alone
  determines the point.

All cached values are immutable once published (STG states, replay arrays
and merged traces are never mutated after construction — per-architecture
state durations live on :class:`~repro.rtl.architecture.Architecture`
precisely so STGs can be shared), so returning a shared object is
bit-identical to recomputing it.  A disabled cache recomputes every call
but still counts it as a miss, which is what lets benches report "full
computations avoided" by comparing hit/miss totals.

Each lookup counts as one ``memo.<table>`` call of
:data:`~repro.core.profile.PROFILER`, a hit marked incremental;
:func:`cache_stats` turns a profiler window into per-table hit/miss
counters.

Tables are lock-guarded so threads sharing one cache stay safe; a racing
miss at worst computes a value twice and publishes identical content.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.core.profile import PROFILER


def cache_stats(window: dict[str, dict]) -> dict[str, dict[str, float]]:
    """Per-table and total hit/miss counters of a ``PROFILER.window``.

    Returns ``{"schedule"|"replay"|"traces"|"design"|"total": {"hits",
    "misses", "hit_rate"}}``; a table with no lookups in the window
    reports zeros.
    """
    counts = {}
    for table in ("schedule", "replay", "traces", "design"):
        stage = window.get(f"memo.{table}", {})
        hits = stage.get("incremental", 0)
        counts[table] = (hits, stage.get("calls", 0) - hits)
    counts["total"] = (sum(h for h, _ in counts.values()),
                       sum(m for _, m in counts.values()))
    return {name: {"hits": hits, "misses": misses,
                   "hit_rate": (round(hits / (hits + misses), 4)
                                if hits + misses else 0.0)}
            for name, (hits, misses) in counts.items()}


class MemoTable:
    """One keyed memo table whose lookups count as ``memo.<name>`` calls.

    ``enabled=False`` turns the table into a counter-only pass-through:
    every call recomputes and registers as a miss, so the *number of full
    computations* stays measurable with caching off.

    ``max_entries`` optionally bounds the table with FIFO eviction
    (python dicts iterate in insertion order, so the oldest entry is the
    first key).  Off by default — a search-lifetime engine wants every
    artifact — and enabled by long-lived owners such as the job-server
    worker pool, whose engines would otherwise grow without bound.
    Eviction only drops the in-process reference; correctness is
    untouched (a re-request recomputes or re-reads the same content).
    """

    def __init__(self, name: str, enabled: bool = True,
                 max_entries: int | None = None):
        self.name = name
        self.enabled = enabled
        self.max_entries = max_entries
        self._stage = f"memo.{name}"
        self._table: dict[Any, Any] = {}
        self._lock = threading.Lock()

    def get_or_compute(self, key: Any, compute: Callable[[], Any]) -> Any:
        if not self.enabled:
            PROFILER.record(self._stage)
            return compute()
        with self._lock:
            hit = key in self._table
            value = self._table.get(key)
        PROFILER.record(self._stage, incremental=hit)
        if hit:
            return value
        value = compute()
        with self._lock:
            return self._publish_locked(key, value)

    def _publish_locked(self, key: Any, value: Any) -> Any:
        """Insert under the held lock; FIFO-evict past ``max_entries``.

        A racing thread may have published first; the first value is kept
        so every caller sees one shared object.
        """
        value = self._table.setdefault(key, value)
        excess = (len(self._table) - self.max_entries
                  if self.max_entries is not None else 0)
        if excess > 0:
            # Oldest-first, never the entry being returned.
            for oldest in [k for k in self._table if k != key][:excess]:
                del self._table[oldest]
        return value

    def clear(self) -> None:
        with self._lock:
            self._table.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._table)


class SynthesisCache:
    """The four memo tables of the synthesis pipeline.

    One instance is owned by a :class:`~repro.core.engine.SynthesisEngine`
    (or created ad hoc by :func:`~repro.core.impact.synthesize`) and
    threaded through every :class:`~repro.core.design.DesignPoint` it
    derives, so laxity sweeps and multi-start searches share artifacts.
    """

    def __init__(self, enabled: bool = True, max_entries: int | None = None):
        self.enabled = enabled
        self.max_entries = max_entries
        self.schedule = MemoTable("schedule", enabled, max_entries)
        self.replay = MemoTable("replay", enabled, max_entries)
        self.traces = MemoTable("traces", enabled, max_entries)
        self.designs = MemoTable("design", enabled, max_entries)

    @property
    def tables(self) -> tuple[MemoTable, ...]:
        return (self.schedule, self.replay, self.traces, self.designs)

    def clear(self) -> None:
        for table in self.tables:
            table.clear()
