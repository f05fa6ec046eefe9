"""DOT export tests."""

from repro.cdfg.dot import to_dot


class TestDot:
    def test_contains_all_nodes(self, gcd_cdfg):
        dot = to_dot(gcd_cdfg)
        for node in gcd_cdfg.nodes.values():
            assert f"n{node.id} " in dot

    def test_control_edges_dashed(self, gcd_cdfg):
        dot = to_dot(gcd_cdfg)
        assert "style=dashed" in dot
        assert "style=solid" in dot

    def test_carried_edges_annotated(self, gcd_cdfg):
        dot = to_dot(gcd_cdfg)
        assert "constraint=false" in dot

    def test_polarities_in_labels(self, gcd_cdfg):
        dot = to_dot(gcd_cdfg)
        assert "(+)" in dot
        assert "(-)" in dot

    def test_valid_digraph_syntax(self, loops_cdfg):
        dot = to_dot(loops_cdfg)
        assert dot.startswith("digraph ")
        assert dot.rstrip().endswith("}")
        assert dot.count("[") == dot.count("]")

