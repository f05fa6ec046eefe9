"""Static analyses over CDFGs: guards, mutual exclusion, loop structure."""

from __future__ import annotations

from repro.errors import CDFGError
from repro.cdfg.graph import CDFG
from repro.cdfg.node import Node, OpKind
from repro.cdfg.regions import BlockRegion, IfRegion, LoopRegion, OpsItem, Region, SubRegionItem


def mutually_exclusive(cdfg: CDFG, a: int, b: int) -> bool:
    """True when two nodes can never execute for the same branch outcome.

    Two operations are mutually exclusive iff their guard conjunctions
    require opposite values of the same condition — i.e. they sit in
    opposite arms of some conditional.  Mutually exclusive operations may
    share one functional unit within a single state (Section 3.2.3).
    """
    guard_b = cdfg.node(b).guard
    for cond, value in cdfg.node(a).guard:
        if (cond, not value) in guard_b:
            return True
    return False


def schedulable_nodes(cdfg: CDFG) -> frozenset[int]:
    """Ids of the nodes that occupy STG state slots, memoized on the CDFG.

    Safe to memoize for the same reason as :func:`loop_test_nodes`.
    """
    nodes = cdfg.__dict__.get("_schedulable_nodes")
    if nodes is None:
        nodes = cdfg._schedulable_nodes = frozenset(
            n.id for n in cdfg.nodes.values() if n.is_schedulable)
    return nodes


def condition_nodes(cdfg: CDFG) -> list[int]:
    """Nodes whose value steers control flow (if / loop conditions)."""
    conds: list[int] = []
    for region in cdfg.regions.values():
        if isinstance(region, (IfRegion, LoopRegion)):
            conds.append(region.cond_node)
    return sorted(set(conds))


def loops_of(cdfg: CDFG) -> list[LoopRegion]:
    """All loop regions, outermost first (by region id order of creation)."""
    return [r for r in sorted(cdfg.regions.values(), key=lambda r: r.id)
            if isinstance(r, LoopRegion)]


def region_nodes(cdfg: CDFG, region_id: int, recursive: bool = True) -> list[int]:
    """Schedulable node ids inside a region (optionally descending)."""
    region = cdfg.region(region_id)
    out: list[int] = []
    if isinstance(region, BlockRegion):
        for item in region.items:
            if isinstance(item, OpsItem):
                out.extend(item.nodes)
            elif isinstance(item, SubRegionItem) and recursive:
                out.extend(region_nodes(cdfg, item.region, recursive=True))
    elif isinstance(region, IfRegion):
        if recursive:
            out.extend(region_nodes(cdfg, region.then_block, recursive=True))
            out.extend(region_nodes(cdfg, region.else_block, recursive=True))
    elif isinstance(region, LoopRegion):
        if recursive:
            out.extend(region_nodes(cdfg, region.test_block, recursive=True))
            out.extend(region_nodes(cdfg, region.body_block, recursive=True))
    return out


def loop_test_nodes(cdfg: CDFG, loop_id: int) -> frozenset[int]:
    """Schedulable node ids in a loop's test block, memoized on the CDFG.

    Safe to memoize because a CDFG is not mutated once synthesis starts.
    """
    memo = cdfg.__dict__.setdefault("_loop_test_nodes", {})
    nodes = memo.get(loop_id)
    if nodes is None:
        loop = cdfg.region(loop_id)
        nodes = frozenset(region_nodes(cdfg, loop.test_block, recursive=True))
        memo[loop_id] = nodes
    return nodes


def skeleton_order(cdfg: CDFG) -> tuple[list[int], dict[int, list[int]]]:
    """Topological order of the acyclic skeleton, with its successor lists.

    The skeleton is the CDFG without its loop-carried edges.  The order is
    Kahn's algorithm by generations — sources in node order, then each
    node's successors in first-edge order — which is the order
    ``networkx.topological_sort`` gives for the same graph.  The
    successor lists hold each node's distinct skeleton successors.

    Memoized on the CDFG (:meth:`CDFG.add_node` and :meth:`CDFG.add_edge`
    drop the memo); callers must not mutate the result.  Raises
    :class:`CDFGError` naming a cycle if the skeleton has one.
    """
    memo = cdfg.__dict__.get("_skeleton_order")
    if memo is not None:
        return memo
    targets: dict[int, dict[int, None]] = {n: {} for n in cdfg.nodes}
    for edge in cdfg.edges:
        if not edge.carried:
            targets[edge.src][edge.dst] = None
    successors = {n: list(t) for n, t in targets.items()}
    indegree = dict.fromkeys(cdfg.nodes, 0)
    for succs in successors.values():
        for succ in succs:
            indegree[succ] += 1
    order = [n for n, d in indegree.items() if d == 0]
    # A FIFO queue visits every generation before the next one starts.
    i = 0
    while i < len(order):
        for succ in successors[order[i]]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                order.append(succ)
        i += 1
    if len(order) < len(cdfg.nodes):
        cycle = _skeleton_cycle(cdfg, successors, {n for n, d in indegree.items() if d})
        names = " -> ".join(cdfg.nodes[n].name for n in cycle + cycle[:1])
        raise CDFGError(f"acyclic skeleton contains a cycle: {names}")
    memo = cdfg._skeleton_order = (order, successors)
    return memo


def _skeleton_cycle(cdfg: CDFG, successors: dict[int, list[int]],
                    stuck: set[int]) -> list[int]:
    """One cycle among the nodes Kahn's algorithm could not order.

    Every stuck node has a stuck predecessor, so walking predecessors from
    any of them must repeat a node.  The cycle is returned in edge
    direction, starting at its earliest node in node order.
    """
    preds: dict[int, list[int]] = {n: [] for n in stuck}
    for node_id in stuck:
        for succ in successors[node_id]:
            if succ in stuck:
                preds[succ].append(node_id)
    walk = [next(n for n in cdfg.nodes if n in stuck)]
    while (pred := preds[walk[-1]][0]) not in walk:
        walk.append(pred)
    cycle = walk[walk.index(pred):][::-1]
    start = cycle.index(next(n for n in cdfg.nodes if n in cycle))
    return cycle[start:] + cycle[:start]


def region_subtree(cdfg: CDFG, region_id: int) -> set[int]:
    """All region ids in the subtree rooted at ``region_id`` (inclusive)."""
    out = {region_id}
    region = cdfg.region(region_id)
    if isinstance(region, BlockRegion):
        for item in region.items:
            if isinstance(item, SubRegionItem):
                out |= region_subtree(cdfg, item.region)
    elif isinstance(region, IfRegion):
        out |= region_subtree(cdfg, region.then_block)
        out |= region_subtree(cdfg, region.else_block)
    elif isinstance(region, LoopRegion):
        out |= region_subtree(cdfg, region.test_block)
        out |= region_subtree(cdfg, region.body_block)
    return out


def producers_outside(cdfg: CDFG, region_id: int) -> set[int]:
    """Nodes outside a region subtree whose values the subtree reads.

    These are the region's *live-in* producers; schedulers use them as the
    region task's dependencies.  Loop-carried edges are skipped (they are
    cross-iteration, not entry dependencies) but carried-var init sources
    are included unless themselves carried from an enclosing loop.
    """
    regions = region_subtree(cdfg, region_id)
    inside = {n for r in regions for n in region_nodes(cdfg, r, recursive=False)}
    # Structural nodes (Sel) live in their parent block but belong to the
    # conditional; treat any node whose region is in the subtree as inside.
    for node in cdfg.nodes.values():
        if node.region in regions:
            inside.add(node.id)
    deps: set[int] = set()
    for node_id in inside:
        for edge in cdfg.in_edges(node_id):
            if edge.carried:
                continue
            if edge.src not in inside:
                deps.add(edge.src)
        ctrl = cdfg.control_edge(node_id)
        if ctrl is not None and not ctrl.carried and ctrl.src not in inside:
            deps.add(ctrl.src)
    for region in (cdfg.region(r) for r in regions):
        if isinstance(region, LoopRegion):
            for cv in region.carried:
                if cv.init_src is not None and cv.init_carried_from is None \
                        and cv.init_src not in inside:
                    deps.add(cv.init_src)
    return deps


def node_heights(cdfg: CDFG, delays: dict[int, float]) -> dict[int, float]:
    """Longest-path-to-sink delay per node over the acyclic skeleton.

    ``delays`` maps node id -> execution delay (ns); missing nodes count as
    zero.  Used as the list-scheduling priority (critical-path first).
    The walk order with each node's successors is memoized on the CDFG
    next to :func:`skeleton_order`'s.
    """
    plan = cdfg.__dict__.get("_height_plan")
    if plan is None:
        order, successors = skeleton_order(cdfg)
        plan = cdfg._height_plan = [(node_id, tuple(successors[node_id]))
                                    for node_id in reversed(order)]
    heights: dict[int, float] = {}
    get = delays.get
    for node_id, succs in plan:
        best = 0.0
        for succ in succs:
            h = heights[succ]
            if h > best:
                best = h
        heights[node_id] = get(node_id, 0.0) + best
    return heights
