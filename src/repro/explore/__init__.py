"""Multi-objective design-space exploration on top of the IMPACT flow.

``explore()`` runs a grid of (objective x laxity x seed) synthesis
searches in-process or on N worker processes of the supervised pool
(``steal=N``; idle workers take the next cell, and every cell
checkpoints and warm-starts through the artifact store) —
feeds every feasible visited design into a Pareto archive, and merges
the per-job archives into one deterministic (area, power, latency)
frontier; ``verify_frontier()`` conformance-checks the design behind
every frontier point.  See ``docs/cli.md`` for the ``python -m repro
explore`` surface and ``docs/architecture.md`` for how the explorer sits
on the engine.
"""

from repro.explore.driver import (
    DEFAULT_LAXITIES,
    DEFAULT_OBJECTIVES,
    ExploreJob,
    ExploreResult,
    engine_for_benchmark,
    explore,
    make_jobs,
    verify_frontier,
)
from repro.explore.pareto import ParetoFront, ParetoPoint, dominates
from repro.explore.steal import StealOutcome, job_checkpoint_key

__all__ = [
    "DEFAULT_LAXITIES",
    "DEFAULT_OBJECTIVES",
    "ExploreJob",
    "ExploreResult",
    "ParetoFront",
    "ParetoPoint",
    "StealOutcome",
    "dominates",
    "engine_for_benchmark",
    "explore",
    "job_checkpoint_key",
    "make_jobs",
    "verify_frontier",
]
