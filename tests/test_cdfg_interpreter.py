"""Behavioral interpreter tests: value semantics, trace recording, and
the compiled interpreter held to the tree-walking oracle."""

import linecache
import math
import re
import traceback

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tree_walker
from repro.benchmarks import BENCHMARKS, get_benchmark
from repro.errors import InterpreterError
from repro.genprog import GenConfig, generate_program
from repro.genprog.corpus import SYNTH_SPECS
from repro.lang import parse
from repro.cdfg.interpreter import MAX_LOOP_NESTING, Interpreter, simulate
from repro.cdfg.analysis import condition_nodes
from repro.cdfg.node import OpKind
from repro.cdfg.regions import OpsItem


class TestArithmetic:
    def test_add(self, simple_cdfg):
        store = simulate(simple_cdfg, [{"a": 3, "b": 4}, {"a": -5, "b": 2}])
        assert list(store.outputs["z"]) == [7, -3]

    def test_wrap_to_declared_width(self):
        cdfg = parse("process p(a: int8, b: int8) -> (z: int8) { z = a + b; }")
        store = simulate(cdfg, [{"a": 127, "b": 1}])
        assert list(store.outputs["z"]) == [-128]

    def test_mul_and_shift(self):
        cdfg = parse("process p(a: int8) -> (z: int16) { z = (a * 3) << 1; }")
        store = simulate(cdfg, [{"a": 5}])
        assert list(store.outputs["z"]) == [30]

    def test_logical_ops(self):
        cdfg = parse("process p(a: int8, b: int8) -> (z: bool) { z = (a > 0) && !(b > 0); }")
        store = simulate(cdfg, [{"a": 1, "b": 0}, {"a": 1, "b": 1}, {"a": 0, "b": 0}])
        assert list(store.outputs["z"]) == [1, 0, 0]

    def test_bitwise_ops(self):
        cdfg = parse("process p(a: uint8, b: uint8) -> (z: uint8) { z = (a & b) | (a ^ b); }")
        store = simulate(cdfg, [{"a": 0b1100, "b": 0b1010}])
        assert list(store.outputs["z"]) == [0b1110]


class TestControlFlow:
    def test_branch_both_paths(self, branch_cdfg):
        store = simulate(branch_cdfg, [{"a": 10, "b": 3, "c": 1}, {"a": 10, "b": 3, "c": 0}])
        assert list(store.outputs["z"]) == [13, 7]

    def test_gcd(self, gcd_cdfg):
        cases = [(12, 18), (35, 14), (7, 13), (100, 75), (1, 1)]
        store = simulate(gcd_cdfg, [{"a": a, "b": b} for a, b in cases])
        assert list(store.outputs["g"]) == [math.gcd(a, b) for a, b in cases]

    def test_zero_trip_loop(self):
        cdfg = parse("""
        process p(n: int8) -> (z: int8) {
          z = 0;
          for (i = 0; i < n; i++) { z = z + 2; }
        }
        """)
        store = simulate(cdfg, [{"n": 0}, {"n": 3}])
        assert list(store.outputs["z"]) == [0, 6]
        assert list(store.loop_trips[next(iter(store.loop_trips))]) == [0, 3]

    def test_nested_loops(self):
        cdfg = parse("""
        process p(d: int8) -> (s: int16) {
          var s: int16 = 0;
          for (i = 0; i < 4; i++) {
            for (j = 0; j < 3; j++) { s = s + d; }
          }
        }
        """)
        store = simulate(cdfg, [{"d": 5}, {"d": -2}])
        assert list(store.outputs["s"]) == [60, -24]

    def test_branch_inside_loop(self, gcd_cdfg):
        # Occurrences of the two subtractors must sum to the loop trips.
        from repro.cdfg.node import OpKind

        store = simulate(gcd_cdfg, [{"a": 12, "b": 18}])
        subs = [n.id for n in gcd_cdfg.nodes.values() if n.kind is OpKind.SUB]
        total = sum(store.count(s) for s in subs)
        trips = int(store.loop_trips[next(iter(store.loop_trips))][0])
        assert total == trips

    def test_infinite_loop_guarded(self):
        cdfg = parse("""
        process p(a: int8) -> (z: int8) {
          z = 0;
          while (z == 0) { var q: int8 = a; }
        }
        """)
        interp = Interpreter(cdfg, max_loop_iterations=50)
        with pytest.raises(InterpreterError):
            interp.run([{"a": 1}])


class TestTraceRecording:
    def test_occurrence_counts_match_trips(self, loops_cdfg):
        store = simulate(loops_cdfg, [{"a": 0, "b": 1, "d": 2}])
        from repro.cdfg.node import OpKind

        muls = [n for n in loops_cdfg.nodes.values() if n.kind is OpKind.MUL]
        for mul in muls:
            assert store.count(mul.id) in (8, 10)

    def test_input_occurrences_once_per_pass(self, gcd_cdfg):
        store = simulate(gcd_cdfg, [{"a": 4, "b": 6}] * 5)
        for node_id in gcd_cdfg.input_nodes:
            assert store.count(node_id) == 5

    def test_branch_probability(self, branch_cdfg):
        passes = [{"a": 1, "b": 1, "c": 1}] * 3 + [{"a": 1, "b": 1, "c": 0}] * 7
        store = simulate(branch_cdfg, passes)
        (cond,) = condition_nodes(branch_cdfg)
        assert np.count_nonzero(store.occ(cond).out) == 3
        assert store.count(cond) == 10

    def test_steps_increase_within_pass(self, gcd_cdfg):
        store = simulate(gcd_cdfg, [{"a": 9, "b": 6}])
        for occ in store.occurrences.values():
            steps = occ.step[occ.pass_idx == 0]
            assert all(np.diff(steps) > 0) or steps.size <= 1

    def test_pass_slice(self, gcd_cdfg):
        store = simulate(gcd_cdfg, [{"a": 12, "b": 18}, {"a": 9, "b": 6}])
        loop_cond = next(n.id for n in gcd_cdfg.nodes.values() if n.name == "!=1")
        occ = store.occ(loop_cond)
        sl0 = pass_slice(occ, 0)
        sl1 = pass_slice(occ, 1)
        assert sl0.stop == sl1.start
        assert (occ.pass_idx[sl0] == 0).all()
        assert (occ.pass_idx[sl1] == 1).all()
        # gcd(12, 18) and gcd(9, 6) each test the loop three times.
        assert list(occ.out[sl0]) == list(occ.out[sl1]) == [1, 1, 0]


def pass_slice(occ, pass_index: int) -> slice:
    """Index range of a node's occurrences belonging to one pass."""
    lo = int(np.searchsorted(occ.pass_idx, pass_index, side="left"))
    hi = int(np.searchsorted(occ.pass_idx, pass_index, side="right"))
    return slice(lo, hi)


class TestDifferentialAgainstPython:
    """Property test: the interpreter agrees with plain Python semantics."""

    @given(st.integers(-100, 100), st.integers(-100, 100), st.integers(0, 1))
    @settings(max_examples=30, deadline=None)
    def test_branch_program(self, a, b, c):
        cdfg = parse("""
        process p(a: int8, b: int8, c: bool) -> (z: int16) {
          if (c == 1) { z = a + b; } else { z = a - b; }
        }
        """)
        store = simulate(cdfg, [{"a": a, "b": b, "c": c}])
        a8 = _wrap8(a)
        b8 = _wrap8(b)
        expected = a8 + b8 if c == 1 else a8 - b8
        assert list(store.outputs["z"]) == [expected]

    @given(st.integers(1, 30), st.integers(1, 30))
    @settings(max_examples=20, deadline=None)
    def test_gcd_program(self, a, b):
        cdfg = parse("""
        process gcd(a: int8, b: int8) -> (g: int8) {
          var x: int8 = a;
          var y: int8 = b;
          while (x != y) {
            if (x > y) { x = x - y; } else { y = y - x; }
          }
          g = x;
        }
        """)
        store = simulate(cdfg, [{"a": a, "b": b}])
        assert list(store.outputs["g"]) == [math.gcd(a, b)]


def _wrap8(value: int) -> int:
    value &= 0xFF
    return value - 256 if value >= 128 else value


def assert_same_store(got, want):
    """Trace stores equal in values, dtypes, key order and memory image."""
    assert got.n_passes == want.n_passes
    # Occurrences in first-execution order, loop trips in first-exit
    # order: replay and the trace merge iterate both.
    assert list(got.occurrences) == list(want.occurrences)
    for node_id, occ in want.occurrences.items():
        mine = got.occurrences[node_id]
        pairs = [(mine.pass_idx, occ.pass_idx), (mine.step, occ.step),
                 (mine.out, occ.out)]
        assert len(mine.ins) == len(occ.ins)
        pairs += list(zip(mine.ins, occ.ins))
        for a, b in pairs:
            assert a.dtype == b.dtype
            assert np.array_equal(a, b), f"node {node_id}"
    for table in ("outputs", "loop_trips"):
        mine, theirs = getattr(got, table), getattr(want, table)
        assert list(mine) == list(theirs)
        for key, values in theirs.items():
            assert mine[key].dtype == values.dtype
            assert np.array_equal(mine[key], values), f"{table}[{key!r}]"
    assert got.mem_final == want.mem_final


#: The deepest region nesting the generated corpus uses.
DEEPEST = max(config.max_depth for config, _clock, _desc in SYNTH_SPECS.values())


class TestTreeWalkerOracle:
    """The compiled interpreter records exactly what the tree-walker does."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", list(BENCHMARKS))
    def test_registry_benchmark(self, name, seed):
        bench = get_benchmark(name)
        cdfg = bench.cdfg()
        stimulus = bench.stimulus(20, seed=seed)
        assert_same_store(simulate(cdfg, stimulus),
                          tree_walker.simulate(cdfg, stimulus))

    @given(st.integers(0, 2**20), st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_generated_program(self, seed, stimulus_seed):
        program = generate_program(
            GenConfig(seed=seed, array_density=0.15, max_depth=DEEPEST),
            check=False)
        cdfg = program.cdfg()
        stimulus = program.stimulus(5, seed=stimulus_seed)
        assert_same_store(simulate(cdfg, stimulus),
                          tree_walker.simulate(cdfg, stimulus))

    def test_zero_passes(self):
        cdfg = get_benchmark("histogram").cdfg()
        store = simulate(cdfg, [])
        assert_same_store(store, tree_walker.simulate(cdfg, []))
        assert store.mem_final and not store.occurrences

    def test_one_interpreter_runs_many_stimuli(self):
        bench = get_benchmark("histogram")  # memory persists within a run
        interpreter = Interpreter(bench.cdfg())
        for seed in (0, 1, 0):
            stimulus = bench.stimulus(6, seed=seed)
            assert_same_store(interpreter.run(stimulus),
                              tree_walker.simulate(bench.cdfg(), stimulus))


def _nested_loops(depth: int) -> str:
    body = "z = z + 1;"
    for k in range(depth):
        body = f"for (i{k} = 0; i{k} < 1; i{k}++) {{ {body} }}"
    return f"process deep(a: int8) -> (z: int32) {{ z = a; {body} }}"


def _unlisted(cdfg, kind: OpKind, carrier=None):
    """Drop the first ``kind`` node (writing ``carrier``) from the region
    tree, so it never executes; returns its name."""
    node = next(n for n in cdfg.nodes.values()
                if n.kind is kind and (carrier is None or n.carrier == carrier))
    for item in cdfg.block(node.region).items:
        if isinstance(item, OpsItem) and node.id in item.nodes:
            item.nodes.remove(node.id)
    return node.name


class TestErrors:
    """Every behavioral failure is an InterpreterError naming its cause,
    as the tree-walker's was."""

    def _both_raise(self, cdfg, passes, match):
        with pytest.raises(InterpreterError):
            tree_walker.simulate(cdfg, passes)
        with pytest.raises(InterpreterError, match=match) as info:
            simulate(cdfg, passes)
        assert info.value.__cause__ is None
        return info.value

    def test_missing_input(self, gcd_cdfg):
        self._both_raise(gcd_cdfg, [{"a": 4, "b": 6}, {"a": 4}],
                         "missing input 'b'")

    def test_loop_cap_names_the_loop_and_pass(self):
        cdfg = parse("""
        process p(a: int8) -> (z: int8) {
          z = 0;
          while (z == a) { var q: int8 = a; }
        }
        """)
        store = Interpreter(cdfg, max_loop_iterations=50).run([{"a": 1}])
        assert store.n_passes == 1
        with pytest.raises(InterpreterError,
                           match=r"loop \d+ exceeded 50 iterations \(pass 1\)"):
            Interpreter(cdfg, max_loop_iterations=50).run([{"a": 1}, {"a": 0}])

    def test_read_of_variable_before_any_write(self, gcd_cdfg):
        _unlisted(gcd_cdfg, OpKind.COPY, carrier="x")
        self._both_raise(gcd_cdfg, [{"a": 4, "b": 6}],
                         "read of variable 'x' before any write")

    def test_read_of_node_before_execution(self):
        cdfg = parse("process p(a: int8, b: int8) -> (z: int16) "
                     "{ z = (a + b) * 3; }")
        name = _unlisted(cdfg, OpKind.ADD)
        self._both_raise(cdfg, [{"a": 1, "b": 2}],
                         re.escape(f"node {name} read before execution"))

    def test_read_of_condition_before_execution(self, branch_cdfg):
        name = _unlisted(branch_cdfg, OpKind.EQ)
        self._both_raise(branch_cdfg, [{"a": 1, "b": 2, "c": 1}],
                         re.escape(f"condition {name} read before execution"))

    def test_loop_nesting_limit(self):
        deepest = parse(_nested_loops(MAX_LOOP_NESTING))
        stimulus = [{"a": 3}]
        assert_same_store(simulate(deepest, stimulus),
                          tree_walker.simulate(deepest, stimulus))
        with pytest.raises(InterpreterError,
                           match=f"at most {MAX_LOOP_NESTING} nested loops"):
            Interpreter(parse(_nested_loops(MAX_LOOP_NESTING + 1)))


    def test_region_nesting_limit(self):
        body = "z = z + 1;"
        for k in range(120):
            body = f"if (a > {k % 7}) {{ {body} }}"
        cdfg = parse(f"process deep(a: int8) -> (z: int8) {{ z = a; {body} }}")
        with pytest.raises(InterpreterError, match="too deeply to compile"):
            Interpreter(cdfg)


class TestGeneratedSource:
    def test_source_shows_in_tracebacks(self, gcd_cdfg):
        interpreter = Interpreter(gcd_cdfg)
        assert interpreter.source.startswith("def behavior_pass(")
        lines = interpreter.source.splitlines(keepends=True)
        assert linecache.getlines("<behavior gcd>") == lines
        with pytest.raises(TypeError) as info:
            interpreter.run([{"a": "4", "b": 6}])  # not an int
        shown = "".join(traceback.format_exception(info.value))
        assert 'File "<behavior gcd>"' in shown
        assert "inputs['a']" in shown

    def test_freed_interpreter_leaves_linecache(self, gcd_cdfg):
        interpreter = Interpreter(gcd_cdfg)
        assert "<behavior gcd>" in linecache.cache
        del interpreter
        assert "<behavior gcd>" not in linecache.cache

    def test_newer_source_of_a_name_survives_the_older(self, gcd_cdfg):
        older = Interpreter(gcd_cdfg)
        newer = Interpreter(parse(GCD_NARROW))
        del older
        assert linecache.getlines("<behavior gcd>") == \
            newer.source.splitlines(keepends=True)


GCD_NARROW = """
process gcd(a: int4, b: int4) -> (g: int4) {
  var x: int4 = a;
  var y: int4 = b;
  while (x != y) {
    if (x > y) { x = x - y; } else { y = y - x; }
  }
  g = x;
}
"""
