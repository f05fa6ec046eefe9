"""Module library tests: characterization, queries, voltage scaling."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import LibraryError
from repro.cdfg.node import OpKind
from repro.library import (
    default_library,
    delay_scale,
    max_vdd_scaling,
    MIN_VDD,
    NOMINAL_VDD,
)
from repro.library.module import ModuleSpec, scale_area, scale_capacitance, scale_delay


class TestLibraryQueries:
    def setup_method(self):
        self.lib = default_library()

    def test_every_fu_op_kind_is_covered(self):
        from repro.cdfg.node import FU_KINDS

        for kind in FU_KINDS:
            assert self.lib.candidates({kind}), f"no module implements {kind}"

    def test_fastest_add_is_cla(self):
        assert self.lib.fastest({OpKind.ADD}, 16).name == "add_cla"

    def test_smallest_add_is_ripple(self):
        assert self.lib.smallest({OpKind.ADD}, 16).name == "add_ripple"

    def test_alu_covers_add_sub_compare(self):
        alu = self.lib.get("alu")
        assert alu.implements_all({OpKind.ADD, OpKind.SUB, OpKind.LT, OpKind.EQ})

    def test_multiplier_diversity(self):
        muls = self.lib.candidates({OpKind.MUL})
        assert len(muls) >= 2
        delays = sorted(scale_delay(m, 16) for m in muls)
        assert delays[0] < delays[-1]

    def test_no_module_for_impossible_combination(self):
        with pytest.raises(LibraryError):
            self.lib.fastest({OpKind.MUL, OpKind.LAND}, 16)

    def test_alternatives_exclude_self(self):
        ripple = self.lib.get("add_ripple")
        alts = self.lib.alternatives(ripple, {OpKind.ADD})
        assert ripple.name not in {m.name for m in alts}
        assert alts

    def test_duplicate_names_rejected(self):
        from repro.library.library import ModuleLibrary

        spec = self.lib.get("add_ripple")
        with pytest.raises(LibraryError):
            ModuleLibrary([spec, spec])


class TestScaling:
    def test_anchor_values_at_reference_width(self):
        lib = default_library()
        assert scale_delay(lib.get("add_ripple"), 16) == pytest.approx(10.0)

    def test_linear_delay_halves_at_half_width(self):
        lib = default_library()
        assert scale_delay(lib.get("add_ripple"), 8) == pytest.approx(5.0)

    def test_log_delay_grows_slowly(self):
        lib = default_library()
        cla32 = scale_delay(lib.get("add_cla"), 32)
        cla16 = scale_delay(lib.get("add_cla"), 16)
        assert cla16 < cla32 < 2 * cla16

    def test_quad_area_for_multipliers(self):
        lib = default_library()
        assert scale_area(lib.get("mul_array"), 32) == pytest.approx(
            4 * scale_area(lib.get("mul_array"), 16))

    def test_delay_floor(self):
        lib = default_library()
        assert scale_delay(lib.get("logic_unit"), 1) >= 0.3

    def test_bad_characterization_rejected(self):
        with pytest.raises(ValueError):
            ModuleSpec("bad", frozenset({OpKind.ADD}), -1.0, 10.0, 0.1)
        with pytest.raises(ValueError):
            ModuleSpec("bad", frozenset({OpKind.ADD}), 1.0, 10.0, 0.1,
                       delay_scaling="cubic")


class TestVoltage:
    def test_nominal_is_identity(self):
        assert delay_scale(NOMINAL_VDD) == pytest.approx(1.0)

    def test_lower_vdd_is_slower_and_cheaper(self):
        assert delay_scale(3.0) > 1.0

    def test_no_slack_no_scaling(self):
        assert max_vdd_scaling(1.0) == NOMINAL_VDD
        assert max_vdd_scaling(0.5) == NOMINAL_VDD

    def test_huge_slack_clamps_at_min(self):
        assert max_vdd_scaling(100.0) == MIN_VDD

    @given(st.floats(1.01, 8.0))
    def test_scaling_consumes_exactly_the_slack(self, ratio):
        vdd = max_vdd_scaling(ratio)
        assert MIN_VDD <= vdd <= NOMINAL_VDD
        if vdd > MIN_VDD:
            assert delay_scale(vdd) == pytest.approx(ratio, rel=1e-4)

    @given(st.floats(1.0, 8.0), st.floats(0.0, 2.0))
    def test_monotonicity(self, ratio, extra):
        # Monotone up to the root-find tolerance (Brent's method, xtol=1e-6):
        # an epsilon-sized ratio perturbation may move the solved root by
        # solver tolerance in either direction.
        assert max_vdd_scaling(ratio + extra) <= max_vdd_scaling(ratio) + 1e-5

    def test_root_find_matches_scipy_brentq_bit_for_bit(self):
        brentq = pytest.importorskip("scipy.optimize").brentq
        top = delay_scale(MIN_VDD)
        ratios = [1.0 + (top - 1.0) * i / 10_001 for i in range(1, 10_001)]
        ratios += [1.0 + 1e-12, math.nextafter(top, 0.0), top - 1e-9]
        for ratio in ratios:
            expected = brentq(lambda v: delay_scale(v) - ratio, MIN_VDD,
                              NOMINAL_VDD, xtol=1e-6)
            assert max_vdd_scaling(ratio) == float(expected), ratio

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            delay_scale(0.5)
