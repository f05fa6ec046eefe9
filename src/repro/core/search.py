"""Variable-depth iterative improvement (SCALP-style, Section 3.1).

One iteration builds a *sequence* of moves: at each depth every sampled
candidate move is evaluated and the best-gain move is taken — even when its
gain is negative (that is how the search escapes local minima).  The
longest prefix of the sequence with the best cumulative gain over a legal,
constraint-satisfying design is then committed; the search stops when no
iteration improves.

Constraint handling follows the paper: intermediate points in a sequence
may violate the cycle-time constraint or the ENC budget, but a prefix only
qualifies for commitment if its endpoint is legal and within budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ReproError
from repro.core.design import DesignPoint, Evaluation, energy_cost
from repro.core.moves import Move, generate_moves

#: An archive hook: called with every legal, within-budget design point the
#: search visits (see :func:`iterative_improvement`).
Observer = Callable[[DesignPoint, Evaluation], None]


@dataclass(frozen=True)
class SearchConfig:
    """Knobs bounding the search effort."""

    max_depth: int = 6
    max_candidates: int = 16
    max_iterations: int = 10
    seed: int = 0
    min_gain: float = 1e-9


@dataclass
class SearchStep:
    move_signature: tuple
    cost: float
    gain: float
    legal: bool
    within_budget: bool


@dataclass
class SearchHistory:
    iterations: list[list[SearchStep]] = field(default_factory=list)
    committed: list[int] = field(default_factory=list)  # prefix length per iteration
    evaluations: int = 0
    #: Pipeline-cache hits/misses accumulated while this search ran
    #: (schedule + replay + trace-merge tables; zero without a cache).
    cache_hits: int = 0
    cache_misses: int = 0

    def total_moves(self) -> int:
        return sum(self.committed)

    @property
    def cache_hit_rate(self) -> float:
        calls = self.cache_hits + self.cache_misses
        return self.cache_hits / calls if calls else 0.0


@dataclass(frozen=True)
class WeightedObjective:
    """A scalarized multi-objective cost over (area, energy, latency).

    The cost of a design is the weighted sum of its three objectives,
    each normalized by a reference value (typically the initial design's)
    so the weights are unit-free and comparable:

    ``w_area * area/area_ref + w_power * energy/power_ref
    + w_latency * enc/latency_ref``

    where *energy* is :func:`energy_cost` (energy per pass at the
    equal-throughput Vdd — what ``mode="power"`` minimizes) and *enc* the
    empirical number of cycles per pass.  Any subset of the weights may
    be zero; ``WeightedObjective(1, 0, 0)`` degenerates to area mode.

    Instances are accepted anywhere a ``mode`` string is (``engine.run``,
    :func:`design_cost`); :func:`repro.explore.explore` builds one per
    weight vector to trace out the Pareto surface.
    """

    w_area: float = 0.0
    w_power: float = 0.0
    w_latency: float = 0.0
    area_ref: float = 1.0
    power_ref: float = 1.0
    latency_ref: float = 1.0

    @classmethod
    def for_engine(cls, engine, weights, laxity: float) -> "WeightedObjective":
        """Build an objective normalized by an engine's initial design.

        ``weights`` is the ``(w_area, w_power, w_latency)`` triple;
        ``laxity`` fixes the ENC budget the energy reference is computed
        under.  The reference values come from the engine's minimum-ENC
        initial design point, so a cost of 1.0 per unit weight means
        "as good as the fully-parallel start".
        """
        try:
            w_area, w_power, w_latency = weights
        except (TypeError, ValueError):
            raise ReproError(
                f"weights must be a (w_area, w_power, w_latency) triple, "
                f"got {weights!r}") from None
        initial = engine.initial
        evaluation = initial.evaluate()
        return cls(
            w_area, w_power, w_latency,
            area_ref=evaluation.area or 1.0,
            power_ref=energy_cost(initial, laxity * initial.enc) or 1.0,
            latency_ref=initial.enc or 1.0)

    def cost(self, design: DesignPoint, enc_budget: float) -> float:
        """The scalarized cost of ``design`` under this weight vector."""
        evaluation = design.evaluate()
        total = 0.0
        if self.w_area:
            total += self.w_area * evaluation.area / self.area_ref
        if self.w_power:
            total += self.w_power * energy_cost(design, enc_budget) / self.power_ref
        if self.w_latency:
            total += self.w_latency * evaluation.enc / self.latency_ref
        return total

    @property
    def label(self) -> str:
        """A compact report label, e.g. ``weighted(1,0.5,0)``."""
        return (f"weighted({self.w_area:g},{self.w_power:g},"
                f"{self.w_latency:g})")


def design_cost(design: DesignPoint, mode, enc_budget: float) -> float:
    """The search objective for one design point.

    ``mode`` is ``"area"`` (the area model), ``"power"`` (equal-throughput
    energy per pass) or a :class:`WeightedObjective` scalarizing the two
    plus latency.  ``enc_budget`` is the laxity-scaled ENC ceiling the
    equal-throughput Vdd is computed against.
    """
    if isinstance(mode, WeightedObjective):
        return mode.cost(design, enc_budget)
    if mode == "area":
        return design.evaluate().area
    if mode == "power":
        return energy_cost(design, enc_budget)
    raise ReproError(f"unknown optimization mode {mode!r}")


def iterative_improvement(
    initial: DesignPoint,
    mode,
    enc_budget: float,
    config: SearchConfig | None = None,
    area_cap: float | None = None,
    observer: Observer | None = None,
) -> tuple[DesignPoint, SearchHistory]:
    """Run the IMPACT search from an initial design point.

    ``mode`` is "power", "area" or a :class:`WeightedObjective`;
    ``enc_budget`` the laxity-scaled ENC ceiling; ``area_cap`` an optional
    absolute area ceiling a committed prefix must respect (the paper's
    designs stay within ~1.3x of the area-optimized base).

    ``observer`` is the archive hook for multi-objective exploration: it
    is called once for the (legal) initial point and once for every step
    endpoint of a move sequence whose evaluation is legal and within
    budget — i.e. every feasible design the search actually visits, not
    just the one it commits to.  Offers happen in visit order, so an
    archive fed by a deterministic search is itself deterministic.

    Returns the best design and the search history.
    """
    config = config or SearchConfig()
    rng = random.Random(config.seed)
    history = SearchHistory()
    cache = initial.cache
    cache_snapshot = cache.snapshot() if cache is not None else None

    current = initial
    current_eval = current.evaluate()
    if not current_eval.legal:
        raise ReproError("initial design point violates timing")
    if observer is not None and current_eval.enc <= enc_budget + 1e-9:
        observer(current, current_eval)
    current_cost = design_cost(current, mode, enc_budget)

    for _iteration in range(config.max_iterations):
        steps: list[SearchStep] = []
        work = current
        work_cost = current_cost
        tabu: set[tuple] = set()
        snapshots: list[DesignPoint] = []
        best_prefix_gain = 0.0
        best_prefix_len = 0

        for _depth in range(config.max_depth):
            candidates = [m for m in generate_moves(work)
                          if m.signature() not in tabu]
            if len(candidates) > config.max_candidates:
                candidates = rng.sample(candidates, config.max_candidates)
            best_move: Move | None = None
            best_design: DesignPoint | None = None
            best_cost = float("inf")
            for move in candidates:
                # Candidates rejected inside apply() (interfering register
                # shares, illegal merges) are search effort too — count
                # them before the attempt so reported evaluation counts
                # reflect what the search actually tried.
                history.evaluations += 1
                try:
                    candidate = move.apply(work)
                except ReproError:
                    continue
                cost = design_cost(candidate, mode, enc_budget)
                if cost < best_cost:
                    best_cost = cost
                    best_move = move
                    best_design = candidate
            if best_move is None:
                break

            gain = work_cost - best_cost
            work = best_design
            work_cost = best_cost
            tabu.add(best_move.signature())
            evaluation = work.evaluate()
            within = evaluation.enc <= enc_budget + 1e-9
            if area_cap is not None:
                within = within and evaluation.area <= area_cap + 1e-9
            steps.append(SearchStep(best_move.signature(), best_cost, gain,
                                    evaluation.legal, within))
            snapshots.append(work)
            if observer is not None and evaluation.legal and within:
                observer(work, evaluation)

            cumulative = current_cost - work_cost
            if evaluation.legal and within and cumulative > best_prefix_gain:
                best_prefix_gain = cumulative
                best_prefix_len = len(snapshots)

        history.iterations.append(steps)
        history.committed.append(best_prefix_len)
        if best_prefix_gain > config.min_gain and best_prefix_len > 0:
            current = snapshots[best_prefix_len - 1]
            current_cost = design_cost(current, mode, enc_budget)
        else:
            break

    if cache_snapshot is not None:
        delta = cache.delta(cache_snapshot)
        history.cache_hits = delta.hits
        history.cache_misses = delta.misses
    return current, history
