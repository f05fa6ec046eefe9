"""Ablation: contribution of each move class to the power result.

The paper's core claim is the interleaving of scheduling, module
selection, resource sharing and mux restructuring; this bench disables one
move class at a time and reports the power-mode result on GCD and Dealer at
laxity 2.0.  ROADMAP.md tracks the gatesim-scored version over the Figure-13
set.
"""

from conftest import publish, run_once
import repro.core.moves as moves_mod
from repro.benchmarks import get_benchmark
from repro.core.impact import synthesize
from repro.core.search import SearchConfig
from repro.experiments.report import format_table
from repro.sched.engine import ScheduleOptions

SEARCH = SearchConfig(max_depth=5, max_candidates=12, max_iterations=6, seed=0)
ABLATIONS = {
    "full": (),
    "no sharing": (moves_mod.ShareFU, moves_mod.ShareRegisters),
    "no module selection": (moves_mod.SubstituteModule,),
    "no mux restructuring": (moves_mod.RestructureMux,),
    "no splitting": (moves_mod.SplitFU, moves_mod.SplitRegister),
}


def _filtered_generate(disabled):
    original = moves_mod.generate_moves

    def generate(design):
        return [m for m in original(design) if not isinstance(m, disabled)]

    return original, generate


def bench_ablation_moves(benchmark):
    def run():
        rows = []
        for name in ("gcd", "dealer"):
            bench_def = get_benchmark(name)
            cdfg = bench_def.cdfg()
            stim = bench_def.stimulus(15, seed=23)
            options = ScheduleOptions(clock_ns=bench_def.clock_ns)
            row = {"benchmark": name}
            for label, disabled in ABLATIONS.items():
                original, patched = _filtered_generate(tuple(disabled))
                # The search imports generate_moves by name; patch the
                # module attribute both places it is visible.
                import repro.core.search as search_mod

                moves_mod.generate_moves = patched
                search_mod.generate_moves = patched
                try:
                    result = synthesize(cdfg, stim, mode="power", laxity=2.0,
                                        options=options, search=SEARCH)
                    from repro.core.design import energy_cost

                    row[label] = round(
                        energy_cost(result.design, result.enc_budget), 2)
                finally:
                    moves_mod.generate_moves = original
                    search_mod.generate_moves = original
            rows.append(row)
        return rows

    rows = run_once(benchmark, run)
    text = format_table(rows, title=(
        "Ablation: equal-throughput energy (pJ/pass) with move classes disabled"))
    publish("ablation_moves", text)
    for row in rows:
        # The full move set is never worse than any ablation.
        others = [v for k, v in row.items() if k not in ("benchmark", "full")]
        assert row["full"] <= min(others) * 1.15 + 1e-9
