"""CDFG analysis tests: regions, heights, live-in producers, fusability."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmarks import BENCHMARKS, get_benchmark
from repro.errors import CDFGError
from repro.lang import parse
from repro.cdfg.analysis import (
    condition_nodes,
    loops_of,
    node_heights,
    producers_outside,
    region_nodes,
    region_subtree,
    skeleton_order,
)
from repro.cdfg.builder import build_cdfg
from repro.cdfg.edge import Edge
from repro.cdfg.graph import CDFG
from repro.cdfg.node import Node, OpKind
from repro.cdfg.regions import BlockRegion, LoopRegion, RegionKind
from repro.genprog import GenConfig, generate_program
from repro.lang.frontend import parse_process


class TestRegionQueries:
    def test_region_subtree_contains_nested(self, gcd_cdfg):
        loop = loops_of(gcd_cdfg)[0]
        subtree = region_subtree(gcd_cdfg, loop.id)
        assert loop.test_block in subtree
        assert loop.body_block in subtree
        # The if inside the loop body is in the subtree too.
        assert len(subtree) >= 5

    def test_region_nodes_recursive_covers_all_loop_ops(self, gcd_cdfg):
        loop = loops_of(gcd_cdfg)[0]
        names = {gcd_cdfg.node(n).name
                 for n in region_nodes(gcd_cdfg, loop.id, recursive=True)}
        assert {"!=1", ">1", "-1", "-2"} <= names

    def test_region_nodes_nonrecursive_stays_shallow(self, gcd_cdfg):
        loop = loops_of(gcd_cdfg)[0]
        body_direct = region_nodes(gcd_cdfg, loop.body_block, recursive=False)
        # Directly in the body block: only the branch condition (the arm
        # subtracts live in the nested if's arm blocks).
        names = {gcd_cdfg.node(n).name for n in body_direct}
        assert names == {">1"}


class TestProducersOutside:
    def test_loop_live_in_includes_inits(self, gcd_cdfg):
        loop = loops_of(gcd_cdfg)[0]
        outside = producers_outside(gcd_cdfg, loop.id)
        names = {gcd_cdfg.node(n).name for n in outside}
        # x and y enter the loop from the initialization copies.
        assert {"mov1", "mov2"} <= names

    def test_if_live_in_includes_condition(self, branch_cdfg):
        from repro.cdfg.regions import IfRegion

        region = next(r for r in branch_cdfg.regions.values()
                      if isinstance(r, IfRegion))
        outside = producers_outside(branch_cdfg, region.id)
        assert region.cond_node in outside


class TestHeights:
    def test_heights_decrease_along_edges(self, simple_cdfg):
        delays = {n.id: 1.0 for n in simple_cdfg.op_nodes()}
        heights = node_heights(simple_cdfg, delays)
        for edge in simple_cdfg.edges:
            if not edge.carried and not edge.is_control:
                assert heights[edge.src] >= heights[edge.dst]

    def test_sink_height_equals_own_delay(self, simple_cdfg):
        add = next(n for n in simple_cdfg.nodes.values() if n.kind is OpKind.ADD)
        heights = node_heights(simple_cdfg, {add.id: 7.5})
        assert heights[add.id] == pytest.approx(7.5)


def _networkx_order(cdfg):
    """``nx.topological_sort`` of the acyclic skeleton, and its successors."""
    nx = pytest.importorskip("networkx")
    graph = nx.DiGraph()
    graph.add_nodes_from(cdfg.nodes)
    for edge in cdfg.edges:
        if not edge.carried:
            graph.add_edge(edge.src, edge.dst)
    return (list(nx.topological_sort(graph)),
            {n: list(graph.successors(n)) for n in graph.nodes})


def _two_node_cycle() -> CDFG:
    """``p = a + q; q = p + a`` with no carried edge: a skeleton cycle."""
    cdfg = CDFG()
    block = cdfg.add_region(BlockRegion(0, RegionKind.BLOCK))
    for node_id, kind, name in ((0, OpKind.INPUT, "a"), (1, OpKind.ADD, "p"),
                                (2, OpKind.ADD, "q")):
        cdfg.add_node(Node(node_id, kind, name, 8, region=block.id))
        block.append_node(node_id)
    for src, dst, port in ((0, 1, 0), (2, 1, 1), (1, 2, 0), (0, 2, 1)):
        cdfg.add_edge(Edge(src, dst, port, 8))
    return cdfg


class TestSkeletonOrder:
    @pytest.mark.parametrize("name", list(BENCHMARKS))
    def test_matches_networkx_on_registry(self, name):
        cdfg = get_benchmark(name).cdfg()
        assert skeleton_order(cdfg) == _networkx_order(cdfg)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.sampled_from((0.0, 0.5)))
    def test_matches_networkx_on_generated_programs(self, seed, arrays):
        program = generate_program(GenConfig(seed=seed, array_density=arrays),
                                   check=False)
        cdfg = build_cdfg(parse_process(program.source))
        assert skeleton_order(cdfg) == _networkx_order(cdfg)

    def test_memoized_until_the_graph_grows(self, simple_cdfg):
        first = skeleton_order(simple_cdfg)
        assert skeleton_order(simple_cdfg) is first
        node = simple_cdfg.add_node(Node(simple_cdfg.new_node_id(), OpKind.CONST,
                                         "k", 8, value=1))
        order, successors = skeleton_order(simple_cdfg)
        assert sorted(order) == sorted(simple_cdfg.nodes)
        assert successors[node.id] == []

    def test_validate_names_a_non_carried_cycle(self):
        with pytest.raises(CDFGError, match="cycle: p -> q -> p$"):
            _two_node_cycle().validate()


class TestConditionNodes:
    def test_gcd_has_two_conditions(self, gcd_cdfg):
        conds = condition_nodes(gcd_cdfg)
        kinds = {gcd_cdfg.node(c).kind for c in conds}
        assert kinds == {OpKind.NE, OpKind.GT}

    def test_loops_has_four_conditions(self, loops_cdfg):
        assert len(condition_nodes(loops_cdfg)) == 4


class TestLoopFusability:
    def test_independent_loops_fusable(self):
        from repro.core.binding import Binding
        from repro.library import default_library
        from repro.sched.engine import ScheduleOptions, _Engine

        cdfg = parse("""
        process p(d: int8) -> (z: int16) {
          var s1: int16 = 0;
          var s2: int16 = 0;
          for (i = 0; i < 4; i++) { s1 = s1 + d; }
          for (j = 0; j < 3; j++) { s2 = s2 + 2; }
          z = s1 + s2;
        }
        """)
        binding = Binding.initial_parallel(cdfg, default_library())
        engine = _Engine(cdfg, binding, ScheduleOptions())
        loops = loops_of(cdfg)
        assert engine._fusable(loops[0], loops[1])

    def test_dependent_loops_not_fusable(self):
        from repro.core.binding import Binding
        from repro.library import default_library
        from repro.sched.engine import ScheduleOptions, _Engine

        cdfg = parse("""
        process p(d: int8) -> (z: int16) {
          var s: int16 = 0;
          var t: int16 = 0;
          for (i = 0; i < 4; i++) { s = s + d; }
          for (j = 0; j < 3; j++) { t = t + s; }
          z = t;
        }
        """)
        binding = Binding.initial_parallel(cdfg, default_library())
        engine = _Engine(cdfg, binding, ScheduleOptions())
        loops = loops_of(cdfg)
        assert not engine._fusable(loops[0], loops[1])

    def test_waw_loops_not_fusable(self):
        from repro.core.binding import Binding
        from repro.library import default_library
        from repro.sched.engine import ScheduleOptions, _Engine

        cdfg = parse("""
        process p(d: int8) -> (z: int16) {
          var s: int16 = 0;
          for (i = 0; i < 4; i++) { s = s + d; }
          for (j = 0; j < 3; j++) { s = s + 2; }
          z = s;
        }
        """)
        binding = Binding.initial_parallel(cdfg, default_library())
        engine = _Engine(cdfg, binding, ScheduleOptions())
        loops = loops_of(cdfg)
        assert not engine._fusable(loops[0], loops[1])
