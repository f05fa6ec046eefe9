"""The CDFG container: nodes, edges, region tree, and validation."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CDFGError
from repro.cdfg.edge import CONTROL_PORT, Edge
from repro.cdfg.node import Node, OpKind, Polarity
from repro.cdfg.regions import (
    BlockRegion,
    CarriedVar,
    IfRegion,
    LoopRegion,
    OpsItem,
    Region,
    RegionKind,
    SubRegionItem,
)


@dataclass
class CDFG:
    """A control-data flow graph with its region tree.

    Construction goes through :meth:`add_node` / :meth:`add_edge` /
    :meth:`add_region` (normally driven by :mod:`repro.cdfg.builder`).
    After construction, :meth:`validate` checks the structural invariants.
    """

    name: str = "cdfg"
    nodes: dict[int, Node] = field(default_factory=dict)
    edges: list[Edge] = field(default_factory=list)
    regions: dict[int, Region] = field(default_factory=dict)
    root_region: int = 0
    input_nodes: list[int] = field(default_factory=list)
    output_nodes: list[int] = field(default_factory=list)
    var_types: dict[str, tuple[int, bool]] = field(default_factory=dict)
    #: name -> (element width, element signed, size) for every declared
    #: array; arrays bind to RAM instances, never to registers.
    array_types: dict[str, tuple[int, bool, int]] = field(default_factory=dict)

    _in_edges: dict[int, dict[int, Edge]] = field(default_factory=dict, repr=False)
    _out_edges: dict[int, list[Edge]] = field(default_factory=dict, repr=False)
    #: Memoized :meth:`in_edges` lists (data ports, sorted), per node.
    _data_in: dict[int, list[Edge]] = field(default_factory=dict, repr=False)
    _next_node_id: int = 0
    _next_region_id: int = 0

    # -- construction --------------------------------------------------------

    def new_node_id(self) -> int:
        node_id = self._next_node_id
        self._next_node_id += 1
        return node_id

    def new_region_id(self) -> int:
        region_id = self._next_region_id
        self._next_region_id += 1
        return region_id

    def add_node(self, node: Node) -> Node:
        if node.id in self.nodes:
            raise CDFGError(f"duplicate node id {node.id}")
        self.nodes[node.id] = node
        self.__dict__.pop("_skeleton_order", None)
        self._in_edges.setdefault(node.id, {})
        self._out_edges.setdefault(node.id, [])
        if node.kind is OpKind.INPUT:
            self.input_nodes.append(node.id)
        elif node.kind is OpKind.OUTPUT:
            self.output_nodes.append(node.id)
        return node

    def add_edge(self, edge: Edge) -> Edge:
        if edge.src not in self.nodes or edge.dst not in self.nodes:
            raise CDFGError(f"edge {edge.src}->{edge.dst} references unknown node")
        port_map = self._in_edges.setdefault(edge.dst, {})
        if edge.dst_port in port_map:
            raise CDFGError(
                f"node {self.nodes[edge.dst].name} already has an edge on port {edge.dst_port}")
        port_map[edge.dst_port] = edge
        self._out_edges.setdefault(edge.src, []).append(edge)
        self.edges.append(edge)
        self._data_in.pop(edge.dst, None)
        self.__dict__.pop("_skeleton_order", None)
        return edge

    def add_region(self, region: Region) -> Region:
        if region.id in self.regions:
            raise CDFGError(f"duplicate region id {region.id}")
        self.regions[region.id] = region
        return region

    # -- accessors -----------------------------------------------------------

    def node(self, node_id: int) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise CDFGError(f"unknown node id {node_id}") from None

    def region(self, region_id: int) -> Region:
        try:
            return self.regions[region_id]
        except KeyError:
            raise CDFGError(f"unknown region id {region_id}") from None

    def in_edge(self, node_id: int, port: int) -> Edge:
        try:
            return self._in_edges[node_id][port]
        except KeyError:
            raise CDFGError(
                f"node {self.nodes[node_id].name} has no edge on port {port}") from None

    def in_edges(self, node_id: int) -> list[Edge]:
        """Data input edges of a node, sorted by port (control port excluded).

        Memoized per node — this accessor sits on the inner loops of
        scheduling, replay, architecture wiring and bit-level simulation,
        and the port map only changes through :meth:`add_edge` (which
        invalidates the entry).  Callers must not mutate the list.
        """
        cached = self._data_in.get(node_id)
        if cached is None:
            ports = self._in_edges.get(node_id, {})
            cached = [ports[p] for p in sorted(ports) if p != CONTROL_PORT]
            self._data_in[node_id] = cached
        return cached

    def control_edge(self, node_id: int) -> Edge | None:
        return self._in_edges.get(node_id, {}).get(CONTROL_PORT)

    def out_edges(self, node_id: int) -> list[Edge]:
        return list(self._out_edges.get(node_id, []))

    def op_nodes(self) -> list[Node]:
        """Nodes that occupy STG state slots (FU ops, transfers)."""
        return [n for n in self.nodes.values() if n.is_schedulable]

    def fu_nodes(self) -> list[Node]:
        """Nodes that need a functional unit."""
        return [n for n in self.nodes.values() if n.needs_fu]

    def mem_nodes(self) -> list[Node]:
        """LOAD/STORE nodes in program (node-id) order."""
        return sorted((n for n in self.nodes.values()
                       if n.kind in (OpKind.LOAD, OpKind.STORE)),
                      key=lambda n: n.id)

    def block(self, region_id: int) -> BlockRegion:
        region = self.region(region_id)
        if not isinstance(region, BlockRegion):
            raise CDFGError(f"region {region_id} is not a block")
        return region

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Check the structural invariants; raises :class:`CDFGError`.

        Invariants checked:
          * every node's data ports are fully connected (per its arity);
          * a node with a control-port polarity has exactly one control edge
            and vice versa;
          * the acyclic skeleton (carried edges removed) has no cycles;
          * every node belongs to a known region, and every region node set
            is consistent with node.region back-references;
          * carried edges sit inside the loop they reference;
          * Sel nodes have both data inputs and a control edge;
          * widths on edges match the producing node.
        """
        for node in self.nodes.values():
            self._validate_node(node)
        from repro.cdfg.analysis import skeleton_order  # imports this module

        skeleton_order(self)
        self._validate_regions()
        for edge in self.edges:
            src = self.nodes[edge.src]
            if edge.width != src.width:
                raise CDFGError(
                    f"edge {src.name}->{self.nodes[edge.dst].name} width {edge.width} "
                    f"!= producer width {src.width}")
            if edge.carried:
                if edge.loop is None or edge.loop not in self.regions:
                    raise CDFGError(f"carried edge {src.name}->{self.nodes[edge.dst].name} "
                                    f"references unknown loop {edge.loop}")

    def _validate_node(self, node: Node) -> None:
        arity = node.num_data_inputs
        data_edges = self.in_edges(node.id)
        if arity >= 0 and len(data_edges) != arity:
            raise CDFGError(
                f"node {node.name} ({node.kind.value}) expects {arity} data inputs, "
                f"has {len(data_edges)}")
        has_ctrl_edge = self.control_edge(node.id) is not None
        wants_ctrl = node.control.source is not None
        if has_ctrl_edge != wants_ctrl:
            raise CDFGError(
                f"node {node.name}: control edge present={has_ctrl_edge} but "
                f"polarity={node.control.polarity.value}")
        if wants_ctrl:
            ctrl = self.control_edge(node.id)
            if ctrl is not None and ctrl.src != node.control.source:
                raise CDFGError(
                    f"node {node.name}: control edge from {ctrl.src} but port source "
                    f"is {node.control.source}")
        if node.kind is OpKind.CONST and node.value is None:
            raise CDFGError(f"const node {node.name} has no value")
        if node.kind in (OpKind.LOAD, OpKind.STORE):
            if node.mem is None or node.mem not in self.array_types:
                raise CDFGError(
                    f"memory node {node.name} references unknown array {node.mem!r}")
        elif node.mem is not None:
            raise CDFGError(f"non-memory node {node.name} has mem={node.mem!r}")
        if node.region not in self.regions:
            raise CDFGError(f"node {node.name} in unknown region {node.region}")

    def _validate_regions(self) -> None:
        seen_nodes: set[int] = set()
        for region in self.regions.values():
            if region.parent is not None and region.parent not in self.regions:
                raise CDFGError(f"region {region.id} has unknown parent {region.parent}")
            if isinstance(region, BlockRegion):
                for item in region.items:
                    if isinstance(item, OpsItem):
                        for node_id in item.nodes:
                            if node_id not in self.nodes:
                                raise CDFGError(
                                    f"region {region.id} lists unknown node {node_id}")
                            if node_id in seen_nodes:
                                raise CDFGError(
                                    f"node {self.nodes[node_id].name} listed in two regions")
                            seen_nodes.add(node_id)
                            if self.nodes[node_id].region != region.id:
                                raise CDFGError(
                                    f"node {self.nodes[node_id].name} back-reference "
                                    f"disagrees with region {region.id}")
                    elif isinstance(item, SubRegionItem):
                        if item.region not in self.regions:
                            raise CDFGError(
                                f"region {region.id} nests unknown region {item.region}")
            elif isinstance(region, IfRegion):
                for attr in ("then_block", "else_block"):
                    if getattr(region, attr) not in self.regions:
                        raise CDFGError(f"if-region {region.id} missing {attr}")
                if region.cond_node not in self.nodes:
                    raise CDFGError(f"if-region {region.id} has unknown condition node")
            elif isinstance(region, LoopRegion):
                for attr in ("test_block", "body_block"):
                    if getattr(region, attr) not in self.regions:
                        raise CDFGError(f"loop-region {region.id} missing {attr}")
                if region.cond_node not in self.nodes:
                    raise CDFGError(f"loop-region {region.id} has unknown condition node")
                for cv in region.carried:
                    if cv.body_producer not in self.nodes:
                        raise CDFGError(
                            f"loop-region {region.id} carried var {cv.var!r} has unknown "
                            f"producer {cv.body_producer}")

    # -- statistics ------------------------------------------------------------

    def summary(self) -> dict[str, int]:
        """Node/edge/region counts by category (for reports and tests)."""
        kinds: dict[str, int] = {}
        for node in self.nodes.values():
            kinds[node.kind.value] = kinds.get(node.kind.value, 0) + 1
        loops = sum(1 for r in self.regions.values() if isinstance(r, LoopRegion))
        conds = sum(1 for r in self.regions.values() if isinstance(r, IfRegion))
        return {
            "nodes": len(self.nodes),
            "edges": len(self.edges),
            "fu_ops": len(self.fu_nodes()),
            "loops": loops,
            "conditionals": conds,
            **{f"kind:{k}": v for k, v in sorted(kinds.items())},
        }
