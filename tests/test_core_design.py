"""DesignPoint tests: derivation, caching, tree policy, ENC accounting."""

import pytest

from repro.cdfg.interpreter import simulate
from repro.cdfg.node import OpKind
from repro.core.design import DesignPoint
from repro.core.search import design_cost
from repro.library import default_library
from repro.sched.engine import ScheduleOptions


@pytest.fixture
def gcd_design(gcd_cdfg):
    store = simulate(gcd_cdfg, [{"a": 12, "b": 18}, {"a": 9, "b": 6}])
    return DesignPoint.initial(gcd_cdfg, default_library(), store,
                               ScheduleOptions(clock_ns=6.0))


class TestDerivation:
    def test_with_binding_no_reschedule_shares_stg_and_replay(self, gcd_design):
        binding = gcd_design.binding.clone()
        derived = gcd_design.with_binding(binding, reschedule=False)
        assert derived.stg is gcd_design.stg
        assert derived.rep is gcd_design.rep
        assert derived.arch is not gcd_design.arch

    def test_with_binding_reschedule_builds_new_stg(self, gcd_cdfg, gcd_design):
        binding = gcd_design.binding.clone()
        subs = [f.id for f in binding.fus.values()
                if f.kinds(gcd_cdfg) == {OpKind.SUB}]
        binding.merge_fus(subs[0], subs[1])
        derived = gcd_design.with_binding(binding, reschedule=True)
        assert derived.stg is not gcd_design.stg

    def test_point_built_without_cache_still_memoizes(self, gcd_cdfg,
                                                      gcd_design):
        binding = gcd_design.binding.clone()
        first = gcd_design.with_binding(binding, reschedule=False)
        again = gcd_design.with_binding(binding.clone(), reschedule=False)
        assert again is first

        # Merging a/b vs b/a numbers the unit differently: two distinct
        # points whose schedules differ only in unit ids, so one replay.
        subs = [f.id for f in binding.fus.values()
                if f.kinds(gcd_cdfg) == {OpKind.SUB}]
        module = binding.fus[subs[0]].module
        forward = binding.clone()
        forward.merge_fus(subs[0], subs[1], module)
        backward = binding.clone()
        backward.merge_fus(subs[1], subs[0], module)
        a = gcd_design.with_binding(forward, reschedule=True)
        b = gcd_design.with_binding(backward, reschedule=True)
        assert a is not b and a.stg is not b.stg
        assert a.stg.replay_signature() == b.stg.replay_signature()
        assert a.rep is b.rep

    def test_tree_policy_accumulates(self, gcd_design):
        ports = [p.key for p in gcd_design.arch.datapath.mux_ports()]
        if not ports:
            pytest.skip("no mux ports")
        derived = gcd_design.with_tree_policy(ports[0])
        assert ports[0] in derived.tree_policy
        assert ports[0] not in gcd_design.tree_policy

    def test_evaluation_cached(self, gcd_design):
        assert gcd_design.evaluate() is gcd_design.evaluate()


class TestLazyPower:
    def test_area_cost_never_materializes_power(self, gcd_design):
        evaluation = gcd_design.evaluate()
        assert not evaluation.power_materialized
        assert design_cost(gcd_design, "area",
                           evaluation.enc) == evaluation.area
        assert evaluation.legal and evaluation.vdd > 0
        assert not evaluation.power_materialized

    def test_power_materializes_once_on_demand(self, gcd_design):
        evaluation = gcd_design.evaluate()
        power = evaluation.power_5v
        assert evaluation.power_materialized
        assert power > 0
        assert evaluation.estimate is evaluation.estimate
        assert evaluation.power_scaled == pytest.approx(
            power * (evaluation.vdd / 5.0) ** 2)

    def test_area_only_search_skips_trace_merge(self, gcd_design):
        # The eager half of the bundle needs the architecture but not
        # the merged traces: forcing it must leave traces unbuilt.
        gcd_design.evaluate()
        assert gcd_design._lazy_traces.value is None


class TestEncAccounting:
    def test_enc_matches_gatesim_cycles(self, gcd_design):
        from repro.gatesim import simulate_architecture

        stim = [{"a": 12, "b": 18}, {"a": 9, "b": 6}]
        result = simulate_architecture(gcd_design.arch, stim,
                                       expected_outputs=gcd_design.store.outputs)
        assert gcd_design.enc == pytest.approx(result.enc)

    def test_summary_fields(self, gcd_design):
        summary = gcd_design.summary()
        for key in ("enc", "area", "vdd", "power_5v_mw", "legal", "fus",
                    "registers", "mux2", "states"):
            assert key in summary
        assert summary["legal"]
