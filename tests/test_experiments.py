"""Experiment harness tests (small configurations; benches run the real ones)."""

import pytest

from repro.core.search import SearchConfig
from repro.experiments import (
    enc_comparison,
    mux_worked_example,
    run_laxity_sweep,
    trace_worked_example,
)
from repro.experiments.laxity import COARSE_LAXITY_GRID, FULL_LAXITY_GRID
from repro.experiments.report import ascii_series, format_sweep, format_table

TINY_SEARCH = SearchConfig(max_depth=3, max_candidates=6, max_iterations=3, seed=0)


class TestWorkedExamples:
    def test_mux_numbers_exact(self):
        result = mux_worked_example()
        assert result.balanced_activity == pytest.approx(1.0939, abs=5e-4)
        assert result.huffman_activity == pytest.approx(0.7217, abs=5e-4)
        assert result.reduction == pytest.approx(0.34, abs=0.01)

    def test_mux_hot_signal_next_to_output(self):
        result = mux_worked_example()
        assert result.huffman_depths["e1"] == 1

    def test_trace_example_interleaving(self):
        result = trace_worked_example()
        base_ops = result.op_sequence[0::2]
        branch_ops = result.op_sequence[1::2]
        assert base_ops == ["+1"] * 4
        assert branch_ops.count("+3") == 1  # the single false pass
        assert branch_ops.count("+2") == 3


class TestEncComparison:
    def test_wavesched_never_loses(self):
        rows = enc_comparison(("gcd", "loops"), n_passes=10)
        for row in rows:
            assert row.wavesched_enc <= row.loop_directed_enc + 1e-9
            assert row.wavesched_enc <= row.path_based_enc + 1e-9

    def test_loops_shows_concurrency_win(self):
        (row,) = enc_comparison(("loops",), n_passes=10)
        assert row.speedup_vs_path_based > 1.3


class TestLaxitySweep:
    def test_grids(self):
        assert FULL_LAXITY_GRID[0] == 1.0 and FULL_LAXITY_GRID[-1] == 3.0
        assert len(FULL_LAXITY_GRID) == 11
        assert COARSE_LAXITY_GRID[0] == 1.0

    def test_gcd_sweep_properties(self):
        sweep = run_laxity_sweep("gcd", laxities=(1.0, 2.0), n_passes=10,
                                 search=TINY_SEARCH)
        assert sweep.total_mismatches() == 0
        assert len(sweep.points) == 2
        for point in sweep.points:
            # I-Power never loses to A-Power (the area design is a
            # candidate start for the power search).
            assert point.i_power <= point.a_power + 0.05
            assert point.i_area <= 1.3 + 1e-6
            assert point.a_enc <= point.enc_budget + 1e-9
            assert point.i_enc <= point.enc_budget + 1e-9

    def test_stage_counts_repeat(self):
        """The headline search does the same work on every run: each
        stage's call and incremental counts repeat exactly, as do the
        evaluations (the search runs its starts in sequence)."""
        headline = SearchConfig(max_depth=4, max_candidates=10,
                                max_iterations=5, seed=0)

        def sweep_counts():
            sweep = run_laxity_sweep("gcd", laxities=(1.0, 2.0, 3.0),
                                     n_passes=15, search=headline)
            stages = {name: (stats["calls"], stats["incremental"])
                      for name, stats in sweep.profile.items()}
            return stages, sweep.evaluations

        first, second = sweep_counts(), sweep_counts()
        assert first == second
        assert first[0]["schedule"][0] > 0
        # The architecture build and the trace merge patch a parent's
        # result; zero incremental hits means dirty-set derivation broke.
        assert first[0]["arch_build"][1] > 0
        assert first[0]["trace_merge"][1] > 0

    def test_each_design_is_simulated_once(self, monkeypatch):
        """A design kept across laxity points (or picked by both modes)
        is measured once; its other supply points are rescalings."""
        import repro.experiments.laxity as laxity_mod

        simulated = []
        original = laxity_mod.simulate_architecture

        def counted(arch, *args, **kwargs):
            simulated.append(arch)
            return original(arch, *args, **kwargs)

        monkeypatch.setattr(laxity_mod, "simulate_architecture", counted)
        sweep = run_laxity_sweep("gcd", laxities=(1.0, 2.0, 3.0), n_passes=10,
                                 search=TINY_SEARCH)
        assert sweep.total_mismatches() == 0
        assert len({id(arch) for arch in simulated}) == len(simulated)
        # Some design recurs, or this would not test the reuse.
        assert len(simulated) < 2 * len(sweep.points)

    def test_more_laxity_never_hurts_i_power(self):
        sweep = run_laxity_sweep("gcd", laxities=(1.0, 2.0, 3.0), n_passes=10,
                                 search=TINY_SEARCH)
        i_powers = [p.i_power for p in sweep.points]
        assert i_powers[-1] <= i_powers[0] + 0.05


class TestReport:
    def test_format_table_aligns(self):
        rows = [{"a": 1, "b": "xx"}, {"a": 22, "b": "y"}]
        text = format_table(rows, title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_sweep_has_headlines(self):
        sweep = run_laxity_sweep("gcd", laxities=(1.0,), n_passes=8,
                                 search=TINY_SEARCH)
        text = format_sweep(sweep)
        assert "max power reduction" in text
        assert "Figure 13 (gcd)" in text

    def test_ascii_series_renders(self):
        text = ascii_series([1.0, 2.0, 3.0],
                            {"A": [1.0, 0.8, 0.6], "B": [0.9, 0.5, 0.3]})
        assert "*=A" in text and "o=B" in text
