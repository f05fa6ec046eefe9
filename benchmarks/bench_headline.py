"""Section 4 headline numbers across the whole suite.

The paper reports: up to 6.7x power reduction over the 5 V area-optimized
base, up to 2.6x over the Vdd-scaled area-optimized designs, and <= 30 %
area overhead.  This bench aggregates the maxima over all six Figure 13
sweeps (coarser grid than the per-benchmark benches, so it stands alone)
and asserts that every measured design matches its behavior.

perfbench's ``fig13`` workload runs the same sweeps, so its quality
metrics are this table's; ``perfbench/test_perfbench.py`` checks that
the two configurations agree.
"""

from conftest import publish, run_once
from repro.core.search import SearchConfig
from repro.experiments.laxity import run_laxity_sweep
from repro.experiments.report import format_table

SEARCH = SearchConfig(max_depth=4, max_candidates=10, max_iterations=5, seed=0)
NAMES = ("loops", "gcd", "dealer", "x25_send", "cordic", "paulin")


def bench_headline(benchmark):
    def run():
        rows = []
        for name in NAMES:
            sweep = run_laxity_sweep(name, laxities=(1.0, 2.0, 3.0),
                                     n_passes=15, search=SEARCH)
            assert sweep.total_mismatches() == 0, \
                f"{name}: a measured design diverged from its behavior"
            rows.append({
                "benchmark": name,
                "vs 5V base": f"{sweep.max_power_reduction_vs_base():.2f}x",
                "vs A-Power": f"{sweep.max_power_reduction_vs_a():.2f}x",
                "area overhead": f"{sweep.max_area_overhead():.1%}",
            })
        return rows

    rows = run_once(benchmark, run)
    publish("headline", format_table(rows, title=(
        "Section 4 headlines (paper: up to 6.7x vs base, up to 2.6x vs "
        "A-Power, <= 30% area overhead)")))
