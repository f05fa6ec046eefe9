"""Content-addressed memo tables for the synthesis hot path.

The iterative-improvement search evaluates hundreds of candidate design
points per run, and distinct candidates very often share intermediate
artifacts: two schedules with identical STGs replay identically, and the
search revisits the same candidate again and again.  A
:class:`SynthesisCache` holds one table per memoized stage; the keys — a
content signature of exactly the stage's inputs — are built by
:class:`~repro.core.design.DesignPoint`, the only caller:

* **replay**   — (trace-store id, CDFG id, STG replay signature);
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

Merged unit traces are not memoized: a point derived without
rescheduling merges its traces from its parent's, and that merge shares
every stream whose inputs the move left unchanged
(:func:`~repro.power.trace_manip.merge_unit_traces`), which is what a
table keyed on those inputs returned.

Scheduling is not memoized: over the Figure 13 sweep, distinct bindings
share a schedule on only about 3% of lookups, and a schedule costs about
half a millisecond (fig13's 1,654 calls take 0.8–0.9 s at perfbench's
reference speed), so a table would save under 1% of the sweep.

All cached values are immutable once published (STG states, replay arrays
and merged traces are never mutated after construction — per-architecture
state durations live on :class:`~repro.rtl.architecture.Architecture`
precisely so STGs can be shared), so returning a shared object is
bit-identical to recomputing it.  A disabled cache recomputes every call
but still counts it as a miss, which is what lets benches report "full
computations avoided" by comparing hit/miss totals; it is the one way to
turn caching off.

Each lookup counts as one ``memo.<table>`` call of
:data:`~repro.core.profile.PROFILER`, a hit marked incremental;
:func:`cache_stats` turns a profiler window into per-table hit/miss
counters.

Tables take no lock: a cache belongs to one engine, and an engine runs
in one thread (explore's and the job server's threads only hand work to
worker processes, each with engines of its own).  Every table is
in-process only: the keys hold ``id()`` values.

A cache has one strong owner: the
:class:`~repro.core.engine.SynthesisEngine` it was given to, or the
initial design point that built it.  Design points, which the tables
hold, refer to their cache only weakly, so the tables and every point in
them are freed by reference counting as soon as the owner is dropped; a
point that outlives the owner computes its remaining stages uncached.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.profile import PROFILER


def cache_stats(window: dict[str, dict]) -> dict[str, dict[str, float]]:
    """Per-table and total hit/miss counters of a ``PROFILER.window``.

    Returns ``{"replay"|"design"|"total": {"hits", "misses",
    "hit_rate"}}``; a table with no lookups in the window
    reports zeros.
    """
    counts = {}
    for table in ("replay", "design"):
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
    artifact.  The job server sets it (``--max-cache-entries``) to cap
    the memory one job's engine holds; every job builds a fresh engine,
    so nothing carries over between jobs either way.  Eviction only
    drops the reference; correctness is untouched (a re-request
    recomputes the same content).
    """

    def __init__(self, name: str, enabled: bool = True,
                 max_entries: int | None = None):
        self.name = name
        self.enabled = enabled
        self.max_entries = max_entries
        self._stage = f"memo.{name}"
        self._table: dict[Any, Any] = {}

    def get_or_compute(self, key: Any, compute: Callable[[], Any]) -> Any:
        if not self.enabled:
            PROFILER.record(self._stage)
            return compute()
        hit = key in self._table
        PROFILER.record(self._stage, incremental=hit)
        if hit:
            return self._table[key]
        # A compute that published this key itself keeps its value, so
        # every caller sees one shared object.
        value = self._table.setdefault(key, compute())
        if self.max_entries is not None and len(self._table) > self.max_entries:
            # Oldest-first, never the entry being returned.
            excess = len(self._table) - self.max_entries
            for oldest in [k for k in self._table if k != key][:excess]:
                del self._table[oldest]
        return value

    def __len__(self) -> int:
        return len(self._table)


class SynthesisCache:
    """The two memo tables of the synthesis pipeline.

    One instance is owned by a :class:`~repro.core.engine.SynthesisEngine`
    (or created by :meth:`~repro.core.design.DesignPoint.initial` when
    none is given) and threaded through every
    :class:`~repro.core.design.DesignPoint` derived from it, so laxity
    sweeps and multi-start searches share artifacts.
    """

    def __init__(self, enabled: bool = True, max_entries: int | None = None):
        self.enabled = enabled
        self.max_entries = max_entries
        self.replay = MemoTable("replay", enabled, max_entries)
        self.designs = MemoTable("design", enabled, max_entries)
