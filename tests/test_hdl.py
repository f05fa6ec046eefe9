"""HDL backend tests: netlist IR, netsim semantics, Verilog emission,
golden files, and (when iverilog is installed) text-level cosimulation.

Golden files under ``tests/golden/`` are regenerated with::

    PYTHONPATH=src python - <<'PY'
    from pathlib import Path
    from repro.benchmarks import get_benchmark
    from repro.cdfg.interpreter import simulate
    from repro.core.design import DesignPoint
    from repro.library import default_library
    from repro.sched.engine import ScheduleOptions
    from repro.hdl import lower_architecture, emit_verilog
    for name in ("gcd", "paulin", "histogram"):
        bench = get_benchmark(name)
        cdfg = bench.cdfg()
        store = simulate(cdfg, bench.stimulus(4, seed=0))
        dp = DesignPoint.initial(cdfg, default_library(), store,
                                 ScheduleOptions(clock_ns=bench.clock_ns))
        text = emit_verilog(lower_architecture(dp.arch, name=name))
        Path(f"tests/golden/{name}.v").write_text(text, encoding="utf-8")
    PY
"""

import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import HDLError
from repro.benchmarks import BENCHMARKS, get_benchmark
from repro.cdfg.interpreter import simulate
from repro.cdfg.node import OpKind
from repro.core.binding import Binding
from repro.core.design import DesignPoint
from repro.gatesim import simulate_architecture
from repro.hdl import (
    emit_testbench,
    emit_verilog,
    iverilog_available,
    lower_architecture,
    run_iverilog,
    simulate_netlist,
)
from repro.hdl.netlist import (
    ECase,
    EConst,
    EMemRead,
    EMux,
    EOp,
    ERef,
    EWrap,
    Netlist,
    OPS,
    PortDecl,
    Wire,
    Register,
    expr_refs,
)
from repro.hdl.netsim import NetlistProgram, NetlistSimulator, _expr_source
from repro.library import default_library
from repro.rtl import build_architecture
from repro.sched import wavesched
from repro.sched.engine import ScheduleOptions
from repro.sim.stimulus import random_stimulus
from repro.utils.bitwidth import wrap_to_width

GOLDEN_DIR = Path(__file__).parent / "golden"


def _bench_arch(name):
    bench = get_benchmark(name)
    cdfg = bench.cdfg()
    store = simulate(cdfg, bench.stimulus(4, seed=0))
    dp = DesignPoint.initial(cdfg, default_library(), store,
                             ScheduleOptions(clock_ns=bench.clock_ns))
    return cdfg, dp.arch


def _eval_generated(expr, env, mems=None):
    """Evaluate ``expr`` through netsim's generated source."""
    mems = mems or {}
    source = _expr_source(expr, {name: name for name in env},
                          {name: (name, len(words))
                           for name, words in mems.items()})
    return eval(source, {}, {**env, **mems})


def _eval_reference(e, env, mems):
    """Direct recursive evaluation of the IR's word semantics."""
    def ev(x):
        return _eval_reference(x, env, mems)

    if isinstance(e, EConst):
        return e.value
    if isinstance(e, ERef):
        return env[e.name]
    if isinstance(e, EWrap):
        value = ev(e.expr)
        return (wrap_to_width(value, e.width) if e.signed
                else value % (1 << e.width))
    if isinstance(e, EMux):
        return ev(e.a) if ev(e.cond) != 0 else ev(e.b)
    if isinstance(e, ECase):
        subject = ev(e.subject)
        arm = next((arm for codes, arm in e.arms if subject in codes),
                   e.default)
        return ev(arm)
    if isinstance(e, EMemRead):
        words = mems[e.mem]
        return words[ev(e.addr) % len(words)]
    a = ev(e.args[0])
    if e.op == "lnot":
        return int(a == 0)
    b = ev(e.args[1])
    return {
        "add": lambda: wrap_to_width(a + b, 64),
        "sub": lambda: wrap_to_width(a - b, 64),
        "mul": lambda: wrap_to_width(a * b, 64),
        "shl": lambda: wrap_to_width(a * 2 ** (b % 64), 64),
        "shr": lambda: a // 2 ** (b % 64),
        "lt": lambda: int(a < b), "gt": lambda: int(a > b),
        "le": lambda: int(a <= b), "ge": lambda: int(a >= b),
        "eq": lambda: int(a == b), "ne": lambda: int(a != b),
        "land": lambda: int(a != 0 and b != 0),
        "lor": lambda: int(a != 0 or b != 0),
        "band": lambda: a & b, "bor": lambda: a | b, "bxor": lambda: a ^ b,
    }[e.op]()


_SIGNALS = ("a", "b", "s")
_WORDS = st.one_of(st.integers(-4, 4), st.integers(-2**64, 2**64))
_LEAVES = st.one_of(st.builds(EConst, _WORDS),
                    st.sampled_from([ERef(name) for name in _SIGNALS]))


def _compound(children):
    codes = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(tuple)
    return st.one_of(
        st.builds(lambda op, x, y: EOp(op, (x, y)),
                  st.sampled_from(sorted(OPS - {"lnot"})), children, children),
        st.builds(lambda x: EOp("lnot", (x,)), children),
        st.builds(EMux, children, children, children),
        st.builds(EWrap, children, st.integers(1, 64), st.booleans()),
        st.builds(ECase, children,
                  st.lists(st.tuples(codes, children), min_size=1,
                           max_size=3).map(tuple), children),
        st.builds(lambda addr: EMemRead("m", addr), children),
    )


class TestExpressionCodegen:
    """Generated expression source matches a direct reference evaluator."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(expr=st.recursive(_LEAVES, _compound, max_leaves=10),
           env=st.fixed_dictionaries({name: _WORDS for name in _SIGNALS}),
           words=st.lists(st.integers(0, 2**16), min_size=8, max_size=8))
    @example(expr=EOp("mul", (EConst((1 << 62) + 1), ERef("a"))),
             env={"a": 4, "b": 0, "s": 0}, words=[0] * 8)  # 64-bit overflow
    @example(expr=EOp("shl", (ERef("a"), ERef("b"))),
             env={"a": 3, "b": -1, "s": 0}, words=[0] * 8)  # negative shift
    @example(expr=EOp("shr", (ERef("a"), EConst(70))),
             env={"a": -(1 << 63), "b": 0, "s": 0}, words=[0] * 8)  # >= 64
    @example(expr=ECase(ERef("s"), (((1, 2), EConst(5)), ((2, 3), EConst(6))),
                        EConst(7)),
             env={"a": 0, "b": 0, "s": 2}, words=[0] * 8)  # first arm wins
    @example(expr=EMemRead("m", ERef("a")),
             env={"a": -3, "b": 0, "s": 0}, words=list(range(8)))
    def test_generated_source_matches_reference(self, expr, env, words):
        mems = {"m": words}
        assert _eval_generated(expr, env, mems) == \
            _eval_reference(expr, env, mems)

    def test_unreadable_signal_rejected(self):
        with pytest.raises(HDLError):
            _expr_source(ERef("clk"), {}, {})


def _handshake_netlist(wires, regs=(), outputs=()):
    """A start/done netlist around ``wires``: state 0 is IDLE, ``start``
    moves to state 1, which steps to the done state 2, then back to 0.
    The signed 8-bit input ``x`` is readable as wire ``x``."""
    state = ERef("state")
    next_state = ECase(state, (((0,), EMux(ERef("start"), EConst(1), EConst(0))),
                               ((1,), EConst(2))), EConst(0), 2)
    return Netlist(
        name="handshake",
        inputs=[PortDecl("in_x", 8, True, label="x")],
        outputs=[PortDecl("done", 1, False, source="done_w"), *outputs],
        wires=[Wire("state_next", next_state),
               Wire("done_w", EOp("eq", (state, EConst(2)))),
               Wire("x", EWrap(ERef("in_x"), 8, True)),
               *wires],
        regs=[Register("state", 2, d="state_next"), *regs])


class TestExpressionSemantics:
    """The IR's compiled evaluation implements signed word semantics."""

    def _eval(self, expr, env=None):
        return _eval_generated(expr, env or {})

    def test_wrap_signed_narrows(self):
        assert self._eval(EWrap(EConst(130), 8, True)) == -126
        assert self._eval(EWrap(EConst(-1), 8, False)) == 255
        assert self._eval(EWrap(EConst(5), 8, True)) == 5

    def test_ops_match_python_semantics(self):
        env = {"a": -7, "b": 3}
        a, b = ERef("a"), ERef("b")
        assert self._eval(EOp("add", (a, b)), env) == -4
        assert self._eval(EOp("mul", (a, b)), env) == -21
        assert self._eval(EOp("shr", (a, EOp("band", (b, EConst(63))))), env) == -1
        assert self._eval(EOp("lt", (a, b)), env) == 1
        assert self._eval(EOp("land", (a, b)), env) == 1
        assert self._eval(EOp("lnot", (a,)), env) == 0

    def test_arithmetic_wraps_at_64_bits(self):
        big = EConst((1 << 62) + 1)
        assert self._eval(EOp("mul", (big, EConst(4)))) == 4  # wraps, like RTL

    def test_mux_and_case(self):
        mux = EMux(ERef("c"), EConst(10), EConst(20))
        assert self._eval(mux, {"c": 1}) == 10
        assert self._eval(mux, {"c": 0}) == 20
        case = ECase(ERef("s"), (((0, 1), EConst(5)), ((2,), EConst(6))),
                     EConst(7), 2)
        assert self._eval(case, {"s": 1}) == 5
        assert self._eval(case, {"s": 2}) == 6
        assert self._eval(case, {"s": 3}) == 7

    def test_unknown_op_rejected(self):
        with pytest.raises(HDLError):
            EOp("frobnicate", (EConst(1),))

    def test_refs_of_walks_every_form(self):
        expr = ECase(ERef("s"), (((1,), EMux(ERef("c"), ERef("a"), EConst(0))),),
                     EWrap(EOp("add", (ERef("x"), ERef("y"))), 8, True), 2)
        assert expr_refs(expr) == ({"s", "c", "a", "x", "y"}, set())


class TestNetlistValidation:
    def test_unknown_reference_rejected(self):
        nl = Netlist(name="bad", wires=[Wire("w0", ERef("nope"))])
        with pytest.raises(HDLError):
            nl.validate()

    def test_duplicate_names_rejected(self):
        nl = Netlist(name="bad",
                     wires=[Wire("w0", EConst(1)), Wire("w0", EConst(2))])
        with pytest.raises(HDLError):
            nl.validate()

    def test_register_must_reference_known_wires(self):
        nl = Netlist(name="bad", regs=[Register("r0", 8, d="missing")])
        with pytest.raises(HDLError):
            nl.validate()

    @pytest.mark.parametrize("position", ["subject", "arm", "default"])
    def test_memory_read_anywhere_in_a_case_must_be_declared(self, position):
        read = EMemRead("nope", ERef("a"))
        parts = {"subject": EConst(0), "arm": EConst(1), "default": EConst(2)}
        parts[position] = read
        case = ECase(parts["subject"], (((0,), parts["arm"]),),
                     parts["default"], 2)
        nl = Netlist(name="bad", inputs=[PortDecl("a", 4, False)],
                     wires=[Wire("w0", case)])
        with pytest.raises(HDLError, match="unknown memory 'nope'"):
            nl.validate()
        assert expr_refs(case) == ({"a"}, {"nope"})


class TestLowering:
    @pytest.mark.parametrize("bench_name", ["gcd", "loops", "dealer", "paulin", "histogram"])
    def test_lowered_netlist_validates(self, bench_name):
        _cdfg, arch = _bench_arch(bench_name)
        nl = lower_architecture(arch, name=bench_name)
        nl.validate()
        assert {p.label for p in nl.inputs} == set(
            arch.cdfg.node(i).carrier for i in arch.cdfg.input_nodes)
        assert any(p.name == "done" for p in nl.outputs)

    def test_mux_trees_emit_as_2to1_nests(self):
        _cdfg, arch = _bench_arch("gcd")
        nl = lower_architecture(arch, name="gcd")
        # Every multiplexed port contributes exactly (n_sources - 1) EMux
        # nodes to its data wire — the tree structure of rtl/mux.py.
        din_wires = {w.name: w for w in nl.wires}
        for port in arch.datapath.mux_ports():
            if port.key[0] != "reg_in":
                continue
            wire = din_wires[f"din_r{port.key[1]}"]
            assert _count_mux(wire.expr) == port.n_muxes()

    def test_restructured_tree_changes_emission(self):
        from repro.core.mux_restructure import huffman_tree
        from repro.rtl.mux import MuxSource

        _cdfg, arch = _bench_arch("gcd")
        base = emit_verilog(lower_architecture(arch, name="gcd"))
        port = max(arch.datapath.mux_ports(), key=lambda p: p.n_sources())
        sources = [MuxSource(k, 0.9 - 0.2 * i, [0.7, 0.2, 0.05, 0.05][i % 4])
                   for i, k in enumerate(port.sources)]
        tree = huffman_tree(sources)
        if tree.shape != port.tree.shape:
            arch.set_tree(port.key, tree)
            assert emit_verilog(lower_architecture(arch, name="gcd")) != base

    def test_start_equals_done_rejected(self):
        _cdfg, arch = _bench_arch("gcd")
        arch.stg.done = arch.stg.start
        with pytest.raises(HDLError):
            lower_architecture(arch)


class TestNetsim:
    def test_matches_gatesim_on_shared_binding(self):
        bench = get_benchmark("gcd")
        cdfg = bench.cdfg()
        lib = default_library()
        binding = Binding.initial_parallel(cdfg, lib)
        subs = [f.id for f in binding.fus.values()
                if f.kinds(cdfg) == {OpKind.SUB}]
        binding.merge_fus(subs[0], subs[1])
        stg = wavesched(cdfg, binding, clock_ns=bench.clock_ns)
        arch = build_architecture(cdfg, binding, stg, clock_ns=bench.clock_ns)
        stim = random_stimulus(cdfg, 15, seed=3,
                               ranges={"a": (1, 60), "b": (1, 60)})
        store = simulate(cdfg, stim)
        gs = simulate_architecture(arch, stim, expected_outputs=store.outputs)
        ns = simulate_netlist(lower_architecture(arch), stim)
        assert ns.outputs == {k: [int(x) for x in v]
                              for k, v in store.outputs.items()}
        assert ns.cycles == [int(c) for c in gs.cycles]

    def test_registers_persist_across_passes(self):
        # Same stimulus twice: second pass must still compute correctly
        # from a warm register file (no hidden per-pass reset).
        _cdfg, arch = _bench_arch("gcd")
        ns = simulate_netlist(lower_architecture(arch),
                              [{"a": 12, "b": 18}, {"a": 12, "b": 18}])
        assert ns.outputs["g"] == [6, 6]

    def test_state_trace_matches_replay(self):
        from repro.sched.replay import replay
        from repro.verify.conformance import visits_from_cycle_trace

        bench = get_benchmark("gcd")
        cdfg = bench.cdfg()
        stim = bench.stimulus(5, seed=2)
        store = simulate(cdfg, stim)
        dp = DesignPoint.initial(cdfg, default_library(), store,
                                 ScheduleOptions(clock_ns=bench.clock_ns))
        rep = replay(dp.arch.stg, cdfg, store)
        ns = simulate_netlist(lower_architecture(dp.arch), stim)
        durations = dp.arch.duration_map()
        for seq, expected in zip(ns.state_seq, rep.state_seq):
            assert visits_from_cycle_trace(seq, durations) == list(expected)

    def test_multicycle_done_state_does_not_corrupt_next_pass(self):
        # Regression: the done state never dwells (it only strobes done);
        # a normalized done duration > 1 must not load the dwell counter,
        # or the stale count corrupts the first state of the next pass.
        _cdfg, arch = _bench_arch("gcd")
        arch._durations[arch.stg.done] = 3
        ns = simulate_netlist(lower_architecture(arch),
                              [{"a": 12, "b": 18}, {"a": 9, "b": 6}])
        assert ns.outputs["g"] == [6, 3]

    def test_poke_unknown_input_rejected(self):
        _cdfg, arch = _bench_arch("gcd")
        sim = NetlistSimulator(lower_architecture(arch))
        with pytest.raises(HDLError):
            sim.poke({"bogus": 1})

    def test_false_cycle_settles_through_the_fixpoint(self):
        # a and b feed each other, a -> b in state 1 and b -> a in state 2:
        # a back edge in any level order, but no cycle in any one state.
        in_state1 = EOp("eq", (ERef("state"), EConst(1)))
        netlist = _handshake_netlist(
            [Wire("a", EMux(in_state1, EOp("add", (ERef("x"), EConst(1))),
                            EOp("add", (ERef("b"), EConst(10))))),
             Wire("b", EMux(in_state1, EOp("mul", (ERef("a"), EConst(3))),
                            EOp("sub", (ERef("x"), EConst(2))))),
             Wire("load", in_state1)],
            regs=[Register("ra", 16, d="a", en="load"),
                  Register("rb", 16, d="b", en="load")],
            outputs=[PortDecl(f"out_{n}", 16, True, label=n, source=n)
                     for n in ("a", "b", "ra", "rb")])
        program = NetlistProgram(netlist)
        assert program.cyclic
        ns = simulate_netlist(program, [{"x": 7}, {"x": -3}])
        # State 1 latches a = x + 1, b = 3a; the done state shows
        # b = x - 2, a = b + 10.
        assert ns.outputs == {"a": [15, 5], "b": [5, -5],
                              "ra": [8, -2], "rb": [24, -6]}
        assert ns.cycles == [1, 1]
        assert ns.state_seq == [[1], [1]]

    def test_true_cycle_does_not_settle(self):
        netlist = _handshake_netlist([Wire("w", EOp("lnot", (ERef("w"),)))])
        with pytest.raises(HDLError, match="did not settle"):
            simulate_netlist(netlist, [{"x": 1}])

    def test_start_edge_commits_with_start_high(self):
        # Registers may sample start directly: the start edge commits
        # with start = 1, so "latched" loads x there and "pulse" reads 1
        # for exactly the state-1 edge, where "held" loads x.
        netlist = _handshake_netlist(
            [],
            regs=[Register("latched", 8, d="in_x", en="start"),
                  Register("pulse", 1, d="start"),
                  Register("held", 8, d="in_x", en="pulse")],
            outputs=[PortDecl(f"out_{n}", 8, True, label=n, source=n)
                     for n in ("latched", "held")])
        ns = simulate_netlist(netlist, [{"x": 7}, {"x": -3}])
        assert ns.outputs == {"latched": [7, -3], "held": [7, -3]}
        assert ns.cycles == [1, 1]

    def test_long_chains_compile_flat(self):
        # Lowering builds one lor/land term or mux arm per state; such
        # chains must not hit the compiler's nesting limits.
        x = ERef("x")
        codes = range(-100, 400)
        any_eq, all_ne, select = EConst(0), EConst(1), EConst(-1)
        for k in codes:
            any_eq = EOp("lor", (any_eq, EOp("eq", (x, EConst(k)))))
            all_ne = EOp("land", (all_ne, EOp("ne", (x, EConst(k)))))
            select = EMux(EOp("eq", (x, EConst(k))), EConst(2 * k), select)
        netlist = _handshake_netlist(
            [Wire("any_eq", any_eq), Wire("all_ne", all_ne),
             Wire("select", select)],
            outputs=[PortDecl(f"out_{n}", 16, True, label=n, source=n)
                     for n in ("any_eq", "all_ne", "select")])
        ns = simulate_netlist(netlist, [{"x": 7}, {"x": -120}])
        assert ns.outputs == {"any_eq": [1, 0], "all_ne": [0, 1],
                              "select": [14, -1]}

    @pytest.mark.parametrize("depth", [300, 600])
    def test_too_deep_expression_is_an_hdl_error(self, depth):
        expr = ERef("x")
        for _ in range(depth):
            expr = EOp("lnot", (expr,))
        netlist = _handshake_netlist([Wire("deep", expr)])
        with pytest.raises(HDLError, match="nests too deeply"):
            NetlistProgram(netlist)

    @pytest.mark.parametrize("bench_name", sorted(BENCHMARKS))
    def test_registry_netlists_take_the_acyclic_path(self, bench_name):
        _cdfg, arch = _bench_arch(bench_name)
        assert not NetlistProgram(lower_architecture(arch)).cyclic

    def test_nonterminating_netlist_hits_cycle_cap(self):
        _cdfg, arch = _bench_arch("gcd")
        with pytest.raises(HDLError):
            # gcd(0, 5) never terminates behaviorally; the cap must fire.
            simulate_netlist(lower_architecture(arch),
                             [{"a": 0, "b": 5}], max_cycles_per_pass=500)


class TestVerilogEmission:
    def test_module_interface(self):
        _cdfg, arch = _bench_arch("gcd")
        text = emit_verilog(lower_architecture(arch, name="gcd"))
        assert "module gcd (" in text
        for fragment in ("input wire clk", "input wire rst", "input wire start",
                         "input wire [7:0] in_a", "output wire [7:0] out_g",
                         "always @(posedge clk)", "endmodule"):
            assert fragment in text

    def test_fsm_case_structure(self):
        _cdfg, arch = _bench_arch("gcd")
        text = emit_verilog(lower_architecture(arch, name="gcd"))
        assert "case (state)" in text
        assert re.search(r"state <= state_next\[\d+:0\];", text)

    def test_testbench_embeds_stimulus_and_expectations(self):
        cdfg, arch = _bench_arch("gcd")
        stim = [{"a": 12, "b": 18}, {"a": 7, "b": 21}]
        nl = lower_architecture(arch, name="gcd")
        tb = emit_testbench(nl, stim, {"g": [6, 7]}, [18, 24])
        assert "module gcd_tb;" in tb
        assert "run_pass(8'd12, 8'd18, 8'd6, 18, 0);" in tb
        assert "run_pass(8'd7, 8'd21, 8'd7, 24, 1);" in tb
        assert "COSIM PASS" in tb and "COSIM FAIL" in tb

    def test_testbench_rejects_mismatched_expectations(self):
        _cdfg, arch = _bench_arch("gcd")
        nl = lower_architecture(arch, name="gcd")
        with pytest.raises(HDLError):
            emit_testbench(nl, [{"a": 1, "b": 1}], {"g": [1, 2]})


def _normalize(text: str) -> str:
    lines = [line.rstrip() for line in text.splitlines()]
    return "\n".join(line for line in lines if line)


class TestGoldenFiles:
    """Committed canonical emissions make codegen diffs visible in review."""

    @pytest.mark.parametrize("bench_name", ["gcd", "paulin", "histogram"])
    def test_emission_matches_golden(self, bench_name):
        _cdfg, arch = _bench_arch(bench_name)
        emitted = emit_verilog(lower_architecture(arch, name=bench_name))
        golden = (GOLDEN_DIR / f"{bench_name}.v").read_text(encoding="utf-8")
        assert _normalize(emitted) == _normalize(golden), (
            f"{bench_name}.v drifted from tests/golden/{bench_name}.v — "
            f"review the diff and regenerate (see module docstring)")

    @pytest.mark.parametrize("bench_name", ["gcd", "paulin", "histogram"])
    def test_emission_is_stimulus_independent(self, bench_name):
        bench = get_benchmark(bench_name)
        cdfg = bench.cdfg()
        store = simulate(cdfg, bench.stimulus(3, seed=123))
        dp = DesignPoint.initial(cdfg, default_library(), store,
                                 ScheduleOptions(clock_ns=bench.clock_ns))
        emitted = emit_verilog(lower_architecture(dp.arch, name=bench_name))
        golden = (GOLDEN_DIR / f"{bench_name}.v").read_text(encoding="utf-8")
        assert _normalize(emitted) == _normalize(golden)


@pytest.mark.skipif(not iverilog_available(), reason="iverilog not installed")
class TestIcarusCosim:
    @pytest.mark.parametrize("bench_name", ["gcd", "loops", "paulin", "histogram"])
    def test_emitted_verilog_simulates_correctly(self, bench_name):
        from repro.sched.replay import replay

        bench = get_benchmark(bench_name)
        cdfg = bench.cdfg()
        stim = bench.stimulus(10, seed=1)
        store = simulate(cdfg, stim)
        dp = DesignPoint.initial(cdfg, default_library(), store,
                                 ScheduleOptions(clock_ns=bench.clock_ns))
        rep = replay(dp.arch.stg, cdfg, store)
        nl = lower_architecture(dp.arch, name=bench_name)
        tb = emit_testbench(
            nl, stim,
            {k: [int(x) for x in v] for k, v in store.outputs.items()},
            [int(c) for c in rep.cycles_under(dp.arch.duration_map())])
        result = run_iverilog(emit_verilog(nl), tb, name=bench_name)
        assert result.passed, result.log


def _count_mux(expr) -> int:
    if isinstance(expr, EMux):
        return 1 + _count_mux(expr.a) + _count_mux(expr.b)
    if isinstance(expr, EOp):
        return sum(_count_mux(a) for a in expr.args)
    if isinstance(expr, ECase):
        return max((_count_mux(arm) for _c, arm in expr.arms), default=0)
    if isinstance(expr, EWrap):
        return _count_mux(expr.expr)
    return 0
