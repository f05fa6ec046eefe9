"""The four workloads, each a list of items that call public entry points.

An item is one benchmark's sweep, check or explore, or one fuzz program.
Every item returns ``(ok, detail, counts)``: ``ok`` is its correctness
check, ``counts`` its deterministic work counts and quality values, which
feed the work fingerprint and the quality metrics.  An item that raises
counts as failed; it never aborts the run.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path
from typing import Callable

from perfbench.measure import geomean

#: The search configuration, laxities and passes of
#: ``benchmarks/bench_headline.py``; a test keeps them equal.
HEADLINE_SEARCH = dict(max_depth=4, max_candidates=10, max_iterations=5,
                       seed=0)
FIG13_LAXITIES = (1.0, 2.0, 3.0)
FIG13_PASSES = 15

#: The paper's classic six plus the memory-bound histogram.
FIG13_BENCHMARKS = ("loops", "gcd", "dealer", "x25_send", "cordic", "paulin",
                    "histogram")

#: Fuzz program seeds: a pinned set, so every run seed measures the same
#: work (a program's cost varies twentyfold with its seed).
FUZZ_SEEDS = tuple(range(4))

#: Fixed hypervolume reference points (area, power mW, latency cycles), each
#: about twice the frontier's reach over stimulus seeds; gcd and paulin are
#: the references of ``benchmarks/bench_pareto.py``.
EXPLORE_REFERENCES = {
    "gcd": (1500.0, 4.0, 150.0),
    "paulin": (40000.0, 25.0, 250.0),
    "histogram": (6000.0, 6.0, 400.0),
    "dealer": (4000.0, 5.0, 180.0),
}

Item = tuple[str, Callable]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: Modules a fresh interpreter imports before it can run the workload.
    modules: tuple[str, ...]
    items: Callable[[int], list[Item]]
    qor: Callable[[list[dict]], dict]
    #: Whether PROFILER stage counts repeat exactly (no threaded search).
    stages_deterministic: bool
    #: Seconds of ``--seconds`` one round stands for; sets the round count.
    round_s: float


def _shuffled(names, seed: int) -> list:
    order = list(names)
    random.Random(seed).shuffle(order)
    return order


# -- fig13 --------------------------------------------------------------------------


def _fig13_items(seed: int) -> list[Item]:
    from repro.core.search import SearchConfig
    from repro.experiments.laxity import run_laxity_sweep

    search = SearchConfig(**HEADLINE_SEARCH)

    def sweep(name):
        def run(tracer, tmp):
            # The sweep's pinned stimulus (seed 7): the QoR values are
            # the paper reproduction's, the same on every run seed.
            result = run_laxity_sweep(name, laxities=FIG13_LAXITIES,
                                      n_passes=FIG13_PASSES, search=search)
            mismatches = result.total_mismatches()
            return mismatches == 0, f"{mismatches} output mismatches", {
                "evaluations": result.evaluations,
                "mismatches": mismatches,
                "vs_base": result.max_power_reduction_vs_base(),
                "vs_apower": result.max_power_reduction_vs_a(),
                "area_overhead": result.max_area_overhead(),
            }
        return run

    return [(name, sweep(name)) for name in _shuffled(FIG13_BENCHMARKS, seed)]


def _fig13_qor(counts: list[dict]) -> dict:
    return {
        "qor.power_reduction_vs_base": geomean(c["vs_base"] for c in counts),
        "qor.power_reduction_vs_apower": geomean(c["vs_apower"]
                                                 for c in counts),
        "qor.area_overhead_max": max(c["area_overhead"] for c in counts),
    }


# -- conform ------------------------------------------------------------------------


def _conform_items(seed: int) -> list[Item]:
    from repro.benchmarks import BENCHMARKS
    from repro.verify.conformance import verify_benchmark

    def check(name):
        def run(tracer, tmp):
            # The default stimulus (seed 0): a stimulus draw moves the
            # cycle count by up to 6%, a quarter of the bound.
            report = verify_benchmark(name, n_passes=30, use_iverilog="off",
                                      minimize=False)
            detail = str(report.divergences[0]) if report.divergences else ""
            return report.ok, detail, {
                "divergences": len(report.divergences),
                "cycles": report.total_cycles,
                "backends": report.backends,
            }
        return run

    return [(name, check(name)) for name in _shuffled(BENCHMARKS, seed)]


# -- fuzz ---------------------------------------------------------------------------


def _fuzz_items(seed: int) -> list[Item]:
    from repro.genprog import GenConfig
    from repro.genprog.fuzz import fuzz_run

    # The fuzz CLI's default generator, arrays on.
    gen = dataclasses.replace(GenConfig(), array_density=0.15)

    def program(fuzz_seed):
        def run(tracer, tmp):
            report = fuzz_run(1, fuzz_seed, laxities=(1.0, 2.0), gen=gen,
                              use_iverilog="off", results_dir=tmp / "fuzz")
            verdict = report.verdicts[0]
            row = verdict.row()
            del row["reproducer"]  # a path under the temp dir
            return verdict.ok, verdict.detail, row
        return run

    return [(f"fuzz_seed{s}", program(s)) for s in _shuffled(FUZZ_SEEDS, seed)]


# -- explore ------------------------------------------------------------------------


def _frontier(result) -> list:
    return [(p.area, p.power, p.latency, sorted(p.meta.items()))
            for p in result.front.points]


def _store_size(root: Path) -> tuple[int, int]:
    files = [p for p in root.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def _explore_items(seed: int) -> list[Item]:
    from repro.explore import explore

    # The default stimulus (seed 7): a stimulus draw moves a benchmark's
    # search effort by up to a fifth, more than the bounds allow.
    def leg(name, store):
        return explore(name, steal=2, seeds=(0,), laxities=(1.0, 2.0),
                       store_dir=str(store))

    def cold_then_warm(name):
        def run(tracer, tmp):
            store = tmp / f"store-{name}"
            with tracer.span("explore.cold_s"):
                cold = leg(name, store)
            objects, nbytes = _store_size(store)
            tracer.add("store.objects", objects)
            tracer.add("store.bytes", nbytes)
            with tracer.span("explore.warm_s"):
                warm = leg(name, store)
            tracer.add("explore.jobs", len(cold.jobs))
            tracer.add("explore.offered", cold.offered)
            tracer.add("explore.warm_hits", warm.warm_hits)
            same = _frontier(warm) == _frontier(cold)
            return same, "" if same else "warm frontier differs from cold", {
                "jobs": len(cold.jobs),
                "evaluations": cold.evaluations,
                "offered": cold.offered,
                "frontier": len(cold.front),
                "hypervolume": cold.front.hypervolume(
                    EXPLORE_REFERENCES[name]),
                "cold_warm_hits": cold.warm_hits,
                "warm_hits": warm.warm_hits,
            }
        return run

    return [(name, cold_then_warm(name))
            for name in _shuffled(EXPLORE_REFERENCES, seed)]


def _explore_qor(counts: list[dict]) -> dict:
    return {"qor.hypervolume": geomean(c["hypervolume"] for c in counts)}


WORKLOADS = {w.name: w for w in (
    Workload("fig13", ("repro", "repro.experiments.laxity"), _fig13_items,
             _fig13_qor, stages_deterministic=False, round_s=14.0),
    Workload("conform", ("repro", "repro.verify.conformance"),
             _conform_items, lambda counts: {}, stages_deterministic=True,
             round_s=4.5),
    Workload("fuzz", ("repro", "repro.genprog.fuzz"), _fuzz_items,
             lambda counts: {}, stages_deterministic=True, round_s=2.8),
    Workload("explore", ("repro", "repro.explore.steal"), _explore_items,
             _explore_qor, stages_deterministic=True, round_s=4.5),
)}
