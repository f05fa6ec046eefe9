"""Aggregation helpers, set-up timing, memory and the work fingerprint."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Seconds one pass of ``reference_loop`` stands for.  The reported times
#: are rescaled to a host on which the loop takes exactly this long.
REFERENCE_S = 0.02


class _Cell:
    __slots__ = ("a", "b", "value")

    def __init__(self, a: int, b: int):
        self.a, self.b, self.value = a, b, 0


def _reference_graph(n: int = 2000) -> tuple[list, dict]:
    rng = random.Random(1)
    return ([_Cell(rng.randrange(n), rng.randrange(n)) for _ in range(n)],
            {i: i & 255 for i in range(n)})


_GRAPH: tuple[list, dict] | None = None


def reference_loop() -> float:
    """Seconds one pass of a fixed pure-Python kernel takes right now.

    The kernel updates a 2000-cell graph through attribute and dict
    reads, like a netlist simulation step.  It calls no code under test,
    so its time moves only with the host's speed.  The graph is built
    once and stays in the core's cache, and the pass allocates only
    small ints, so neither memory layout, the allocator nor the
    collector moves it.  A 20000-cell graph spread half again as much
    between fresh processes as the workloads did (0.094 against 0.062).
    """
    global _GRAPH
    if _GRAPH is None:
        _GRAPH = _reference_graph()
    cells, values = _GRAPH
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(30):
            for i, cell in enumerate(cells):
                cell.value = (values[cell.a] + values[cell.b] * 3) & 0xFFFF
                values[i] = cell.value ^ (i & 7)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def at_reference(seconds: float, reference_s: float) -> float:
    """``seconds`` measured while ``reference_loop`` took ``reference_s``,
    rescaled to the reference speed ``REFERENCE_S``."""
    if reference_s <= 0:
        raise ValueError(f"reference time must be positive, got {reference_s}")
    return seconds * REFERENCE_S / reference_s


def geomean(values) -> float:
    """Geometric mean of positive numbers (the compilers sheet's ratio mean)."""
    values = list(values)
    if not values:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in values):
        raise ValueError(f"geomean needs positive values, got {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def p50(values) -> float:
    """Median; the middle pair is averaged for an even count."""
    values = list(values)
    if not values:
        raise ValueError("p50 of no values")
    return statistics.median(values)


def failed_frac(failed: int, attempted: int) -> float:
    """Share of attempted items that failed, diverged or mismatched."""
    if attempted < 1:
        raise ValueError("no items attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed out of {attempted} attempted")
    return failed / attempted


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, median, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / median


def workers_peak_kib() -> int:
    """Largest peak resident memory among waited-for children, in KiB.

    These are the explore workers as long as it is read before the first
    set-up probe, which is a child too.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mb(workers_kib: int) -> float:
    """Peak resident memory of this process plus its largest worker.

    ``ru_maxrss`` is in KiB on Linux.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + workers_kib) / 1024.0


def time_setup(root: Path, modules: list[str], repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import ``modules``, one per repeat.

    This is what every ``python -m repro`` call pays before doing work.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import " + ", ".join(modules)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                       check=True)
        times.append(time.perf_counter() - t0)
    return times


def fingerprint(counts: dict) -> str:
    """Short digest of deterministic work counts (floats hashed exactly)."""
    text = json.dumps(counts, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_fingerprint(record: Path, key: str, digest: str) -> str | None:
    """Compare ``digest`` with the one recorded for ``key``; record it if new.

    Returns the earlier digest when they differ (drift), else ``None``.
    The record is one JSON object, rewritten atomically.
    """
    seen = json.loads(record.read_text()) if record.exists() else {}
    earlier = seen.get(key)
    if earlier is None:
        seen[key] = digest
        record.parent.mkdir(parents=True, exist_ok=True)
        tmp = record.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
        os.replace(tmp, record)
        return None
    return earlier if earlier != digest else None
