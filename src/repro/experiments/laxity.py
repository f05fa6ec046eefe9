"""The Figure 13 experiment: normalized power and area vs. laxity factor.

For each laxity point L (the ratio of the allowed ENC to the minimum ENC
achievable with the library):

1. synthesize in *area-optimization mode* -> the base design; its power
   measured at 5 V is the normalization denominator for this L;
2. Vdd-scale the base design (consume the residual in-state timing slack)
   and measure -> **A-Power**;
3. synthesize in *power-optimization mode* at the same ENC budget,
   Vdd-scale, measure -> **I-Power**; its area over the base's -> **I-Area**.

All measurements use the bit-level proxy (:mod:`repro.gatesim`) over the
same stimulus the synthesizer profiled with, and every measured design is
simultaneously verified against the behavioral outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.core.cache import cache_stats
from repro.core.design import equal_throughput_vdd
from repro.core.engine import SynthesisResult, collector_paused
from repro.core.profile import PROFILER
from repro.core.search import SearchConfig
from repro.explore import engine_for_benchmark
from repro.gatesim import GateSimResult, rescale_result, simulate_architecture
from repro.rtl.architecture import Architecture

#: The paper's laxity grid (Figure 13 x-axis).
FULL_LAXITY_GRID = tuple(round(1.0 + 0.2 * i, 1) for i in range(11))

#: A coarser grid for quick runs.
COARSE_LAXITY_GRID = (1.0, 1.5, 2.0, 2.5, 3.0)


@dataclass
class LaxityPoint:
    """One x-position of a Figure 13 subplot."""

    laxity: float
    base_power_mw: float      # area-optimized design at 5 V
    a_power_mw: float         # area-optimized design, Vdd-scaled
    i_power_mw: float         # power-optimized design, Vdd-scaled
    base_area: float
    i_area_abs: float
    a_vdd: float
    i_vdd: float
    enc_budget: float
    a_enc: float
    i_enc: float
    mismatches: int

    @property
    def a_power(self) -> float:
        """A-Power normalized to the 5 V base."""
        return self.a_power_mw / self.base_power_mw

    @property
    def i_power(self) -> float:
        """I-Power normalized to the 5 V base."""
        return self.i_power_mw / self.base_power_mw

    @property
    def i_area(self) -> float:
        """Power-optimized area normalized to the area-optimized base."""
        return self.i_area_abs / self.base_area

    def row(self) -> dict[str, float]:
        return {
            "laxity": self.laxity,
            "A-Power": round(self.a_power, 3),
            "I-Power": round(self.i_power, 3),
            "I-Area": round(self.i_area, 3),
            "A-Vdd": round(self.a_vdd, 2),
            "I-Vdd": round(self.i_vdd, 2),
        }


@dataclass
class LaxitySweep:
    """All points of one benchmark's Figure 13 subplot."""

    benchmark: str
    points: list[LaxityPoint] = field(default_factory=list)
    #: Memo-table counters over the sweep, which builds its own engine
    #: (see :func:`repro.core.cache.cache_stats`).  Like :attr:`profile`
    #: they cover all memo lookups made in the process during the sweep.
    cache_stats: dict = field(default_factory=dict)
    #: Total candidate evaluations across every synthesis run of the sweep.
    evaluations: int = 0
    #: The ``PROFILER.window`` over the sweep: per-stage timing and
    #: incremental counters, memo-table lookups included.
    profile: dict = field(default_factory=dict)

    def max_power_reduction_vs_base(self) -> float:
        """Paper headline: up to 6.7x over the 5 V area-optimized base."""
        return max(1.0 / p.i_power for p in self.points)

    def max_power_reduction_vs_a(self) -> float:
        """Paper headline: up to 2.6x over the Vdd-scaled area-optimized."""
        return max(p.a_power / p.i_power for p in self.points)

    def max_area_overhead(self) -> float:
        """Paper headline: area overhead <= 30 %."""
        return max(p.i_area for p in self.points) - 1.0

    def total_mismatches(self) -> int:
        return sum(p.mismatches for p in self.points)


def run_laxity_sweep(
    benchmark: str,
    laxities: tuple[float, ...] = COARSE_LAXITY_GRID,
    n_passes: int = 30,
    seed: int = 7,
    search: SearchConfig | None = None,
) -> LaxitySweep:
    """Regenerate one Figure 13 subplot.

    One engine (from :func:`~repro.explore.engine_for_benchmark`)
    carries the trace store, the initial design point and the pipeline
    memo tables across every laxity point and both optimization modes,
    so the repeated portions of the searches (shared prefixes of the
    move sequences, re-visited bindings) are not recomputed.  The cyclic
    collector stays paused for the whole sweep, measurements included
    (see :func:`~repro.core.engine.collector_paused`).
    """
    with collector_paused:
        return _run_sweep(benchmark, laxities, n_passes, seed, search)


def _run_sweep(benchmark: str, laxities: tuple[float, ...], n_passes: int,
               seed: int, search: SearchConfig | None) -> LaxitySweep:
    search = search or SearchConfig(max_depth=5, max_candidates=12, max_iterations=6)
    window = PROFILER.snapshot()
    engine = engine_for_benchmark(benchmark, n_passes=n_passes, seed=seed)
    stimulus = engine.stimulus

    sweep = LaxitySweep(benchmark=benchmark)
    measured: dict[int, tuple[Architecture, GateSimResult]] = {}
    prev_area = None
    prev_power = None
    for laxity in laxities:
        # Warm-starting from the previous laxity point keeps the curves
        # monotone (any design feasible at L is feasible at L' > L); the
        # power search additionally starts from the area-optimized design,
        # so I-Power can never lose to A-Power in estimator terms.
        area_starts = [d for d in (prev_area,) if d is not None]
        area_res = engine.run(mode="area", laxity=laxity, search=search,
                              starts=area_starts)
        power_starts = [area_res.design] + [d for d in (prev_power,) if d is not None]
        # The paper's power-optimized designs stay within ~1.3x of the
        # area-optimized base; impose that as the search's area ceiling.
        area_cap = 1.3 * area_res.design.evaluate().area
        power_res = engine.run(mode="power", laxity=laxity, search=search,
                               starts=power_starts, area_cap=area_cap)
        prev_area = area_res.design
        prev_power = power_res.design
        sweep.evaluations += (area_res.history.evaluations
                              + power_res.history.evaluations)
        sweep.points.append(_measure_point(laxity, area_res, power_res,
                                           stimulus, measured))
    sweep.profile = PROFILER.window(window)
    sweep.cache_stats = cache_stats(sweep.profile)
    return sweep


def _measured_at_5v(arch: Architecture, stimulus: list[dict[str, int]],
                    expected_outputs: dict,
                    measured: dict[int, tuple[Architecture, GateSimResult]]
                    ) -> GateSimResult:
    """``arch`` simulated at 5 V, once per sweep.

    A later laxity point often keeps a design an earlier point already
    measured (the same :class:`Architecture` object), and every supply
    point is an exact rescaling of the 5 V run (see
    :func:`rescale_result`).  ``measured`` holds each architecture next
    to its result, so no key's id is reused while the sweep runs.
    """
    hit = measured.get(id(arch))
    if hit is None:
        hit = measured[id(arch)] = (arch, simulate_architecture(
            arch, stimulus, expected_outputs=expected_outputs, vdd=5.0))
    return hit[1]


def _measure_point(laxity: float, area_res: SynthesisResult,
                   power_res: SynthesisResult,
                   stimulus: list[dict[str, int]],
                   measured: dict[int, tuple[Architecture, GateSimResult]]
                   ) -> LaxityPoint:
    store = area_res.store
    a_eval = area_res.design.evaluate()
    i_eval = power_res.design.evaluate()
    if not a_eval.legal or not i_eval.legal:
        raise ExperimentError(f"illegal design escaped the search at laxity {laxity}")

    budget = area_res.enc_budget
    a_vdd = equal_throughput_vdd(a_eval, budget)
    i_vdd = equal_throughput_vdd(i_eval, budget)

    # Every supply point is an exact Vdd^2 rescaling of the 5 V run (see
    # :func:`rescale_result`), so each design is simulated once, at 5 V.
    base = _measured_at_5v(area_res.design.arch, stimulus, store.outputs,
                           measured)
    a_meas = rescale_result(base, a_vdd)
    i_meas = rescale_result(
        _measured_at_5v(power_res.design.arch, stimulus, store.outputs,
                        measured),
        i_vdd)

    # Equal-throughput comparison: every design gets `budget` cycles of
    # real time per pass, so powers are energies-per-pass over a shared
    # denominator.  Energy = measured power x measured time.
    clock = area_res.design.options.clock_ns
    base_e = base.power_mw * base.total_cycles * clock
    a_e = a_meas.power_mw * a_meas.total_cycles * clock
    i_e = i_meas.power_mw * i_meas.total_cycles * clock
    shared_time = budget * clock * len(stimulus)

    return LaxityPoint(
        laxity=laxity,
        base_power_mw=base_e / shared_time,
        a_power_mw=a_e / shared_time,
        i_power_mw=i_e / shared_time,
        base_area=a_eval.area,
        i_area_abs=i_eval.area,
        a_vdd=a_vdd,
        i_vdd=i_vdd,
        enc_budget=budget,
        a_enc=area_res.enc,
        i_enc=power_res.enc,
        mismatches=(base.output_mismatches + a_meas.output_mismatches
                    + i_meas.output_mismatches),
    )
