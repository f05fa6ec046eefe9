"""Pareto-front bookkeeping for multi-objective design-space exploration.

The IMPACT search minimizes one scalarized objective per run, but the
design space is genuinely three-dimensional: every synthesized variant
of a behavior occupies a point in (area, power, latency).  A
:class:`ParetoFront` accumulates such points and keeps only the
non-dominated subset — the trade-off curve Figure 13's laxity sweeps
sample one slice of.

Dominance and tie-breaking are exact and deterministic: comparisons use
raw float equality (no tolerance), duplicate objective vectors keep the
*first* point offered, and the reported ordering is by objective tuple
with insertion order as the final tie-break.  This is what makes a
parallel :func:`repro.explore.explore` run bit-identical to a sequential
one — the merged front depends only on the offer sequence, which the
driver fixes by job index.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ParetoPoint:
    """One candidate design in objective space.

    ``area`` is the area model's estimate, ``power`` the Vdd-scaled power
    estimate in mW (in-cycle slack scaling only, so the value is
    independent of any laxity budget), and ``latency`` the empirical
    number of cycles per pass (ENC).  All three are minimized.

    ``meta`` carries provenance (job index, objective label, laxity,
    seed, design summary) and is excluded from dominance and equality —
    two points with identical objectives are duplicates regardless of
    which job produced them.
    """

    area: float
    power: float
    latency: float
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def objectives(self) -> tuple[float, float, float]:
        """The minimized (area, power, latency) tuple."""
        return (self.area, self.power, self.latency)

    def row(self) -> dict:
        """A flat report row: objectives first, then the metadata."""
        return {
            "area": self.area,
            "power_mw": self.power,
            "latency": self.latency,
            **self.meta,
        }


def dominates(p: ParetoPoint, q: ParetoPoint) -> bool:
    """True when ``p`` is no worse than ``q`` everywhere and better somewhere."""
    po, qo = p.objectives, q.objectives
    return all(a <= b for a, b in zip(po, qo)) and any(
        a < b for a, b in zip(po, qo))


class ParetoFront:
    """The non-dominated subset of every point offered so far.

    ``add`` is the archive-guided acceptance test: a point enters only if
    no current member dominates it (or duplicates its objective vector),
    and evicts every member it dominates.  Insertion order is remembered,
    so ties in the reported ordering break stably toward earlier offers.
    """

    def __init__(self, points: list[ParetoPoint] | None = None):
        self._entries: list[tuple[int, ParetoPoint]] = []
        self._offered = 0
        for point in points or []:
            self.add(point)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self.points)

    @property
    def offered(self) -> int:
        """How many points were offered over the front's lifetime."""
        return self._offered

    @property
    def points(self) -> list[ParetoPoint]:
        """Members sorted by (area, power, latency), then insertion order."""
        return [p for _, p in sorted(
            self._entries, key=lambda e: (e[1].objectives, e[0]))]

    def add(self, point: ParetoPoint) -> bool:
        """Offer a point; returns True when it enters the front.

        Rejected when any member dominates it or shares its exact
        objective vector (the earlier offer wins).  On acceptance every
        member the new point dominates is evicted.
        """
        order = self._offered
        self._offered += 1
        for _, member in self._entries:
            if dominates(member, point) or member.objectives == point.objectives:
                return False
        self._entries = [(i, m) for i, m in self._entries
                         if not dominates(point, m)]
        self._entries.append((order, point))
        return True

    def merge(self, other: "ParetoFront") -> None:
        """Offer every member of ``other`` to this front, in its order."""
        for point in other.points:
            self.add(point)

    def rows(self) -> list[dict]:
        """Report rows for every member, in the front's stable order."""
        return [p.row() for p in self.points]

    def hypervolume(self, reference: tuple[float, float, float] | None = None
                    ) -> float:
        """Volume of objective space the front dominates, up to ``reference``.

        The standard quality indicator for a minimized front: the measure
        of the region dominated by at least one member and bounded above
        by the reference point.  Larger is better; an empty front has
        hypervolume 0.  ``reference`` defaults to 1.1x the per-axis
        maximum over the members (every member then contributes volume);
        members at or beyond the reference on any axis contribute
        nothing.
        """
        points = [p.objectives for p in self.points]
        if not points:
            return 0.0
        if reference is None:
            reference = tuple(1.1 * max(p[k] for p in points) if
                              max(p[k] for p in points) > 0 else 1.0
                              for k in range(3))
        points = [p for p in points
                  if all(p[k] < reference[k] for k in range(3))]
        return _hypervolume_3d(points, reference)


def _hypervolume_2d(points: list[tuple[float, float]],
                    ref: tuple[float, float]) -> float:
    """Dominated area of a minimized 2-D point set, by staircase sweep."""
    if not points:
        return 0.0
    area = 0.0
    best_y = ref[1]
    for x, y in sorted(points):
        if y < best_y:
            area += (ref[0] - x) * (best_y - y)
            best_y = y
    return area


def _hypervolume_3d(points: list[tuple[float, float, float]],
                    ref: tuple[float, float, float]) -> float:
    """Dominated volume of a minimized 3-D point set, by z-axis slicing.

    Between consecutive z-levels the dominated cross-section is constant:
    the 2-D hypervolume of every point at or below the slice floor.
    O(n^2 log n) — plenty for the tens-of-points fronts explore() builds.
    """
    if not points:
        return 0.0
    levels = sorted({p[2] for p in points} | {ref[2]})
    volume = 0.0
    for lo, hi in zip(levels, levels[1:]):
        slab = [(p[0], p[1]) for p in points if p[2] <= lo]
        volume += _hypervolume_2d(slab, (ref[0], ref[1])) * (hi - lo)
    return volume
