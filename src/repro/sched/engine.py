"""The shared scheduling engine.

One engine implements all three schedulers of the reproduction; feature
flags select the paper's Wavesched behaviors:

* ``branch_parallel`` — operations that do not depend on a conditional may
  be packed into its arm states (both arms, symmetrically), instead of
  stalling until the join;
* ``hoist_loop_control`` — the loop body is scheduled as a *kernel* that
  also evaluates the next iteration's test (iterator update + exit
  condition), so the back edge branches directly — the paper's implicit
  loop unrolling, restricted to the loop-control cluster (non-speculative);
* ``fuse_loops`` — two simultaneously-ready, data-independent loops are
  merged into one product kernel whose iterations run concurrently, with
  drain kernels once either loop exits first — the paper's concurrent loop
  optimization.

Scheduling works over the region tree with a global ready model:

* strong dependencies: data edges (non-carried), region completion for
  values merged by Sel/Elp nodes, and — inside a kernel — carried edges
  into the loop's test block (the next-iteration test reads *this*
  iteration's update);
* weak anti-dependencies (write-after-read): a reader of a register value
  must be placed no later than the next writer of the same variable, since
  registers are overwritten in place.  Readers in opposite branch arms are
  exempt (mutually exclusive).

States are packed greedily by critical-path priority with operator
chaining: a chained unit incurs the paper's 10 % delay overhead, estimated
multiplexer stages add 3 ns each, and the packed path must fit the clock
period.  A functional unit accepts two operations in one state only if they
are mutually exclusive (Section 3.2.3); the same rule guards two writes of
one variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ScheduleError
from repro.cdfg.analysis import (
    loop_test_nodes,
    mutually_exclusive,
    node_heights,
    producers_outside,
    region_nodes,
    region_subtree,
)
from repro.cdfg.graph import CDFG
from repro.cdfg.node import OpKind
from repro.cdfg.regions import (
    BlockRegion,
    IfRegion,
    LoopRegion,
    OpsItem,
    SubRegionItem,
)
from repro.core.binding import Binding
from repro.library.modules_data import CHAIN_OVERHEAD, DEFAULT_CLOCK_NS, MUX_DELAY_NS
from repro.sched.stg import STG, ScheduledOp, State


@dataclass(frozen=True)
class ScheduleOptions:
    """Feature flags and timing parameters for one scheduling run."""

    clock_ns: float = DEFAULT_CLOCK_NS
    branch_parallel: bool = True
    fuse_loops: bool = True
    hoist_loop_control: bool = True


@dataclass
class _Cursor:
    """A lazily-materialized open state.

    ``sources`` are (state, guard) pairs whose transitions will target the
    state once it materializes; if nothing is ever placed and no fork needs
    a concrete state, the sources pass through to the next cursor and no
    cycle is spent.
    """

    sources: list[tuple[int, frozenset[tuple[int, bool]]]] = field(default_factory=list)
    state: State | None = None


class _SchedAnalysis:
    """The binding-independent half of the engine's setup, shared per CDFG.

    Strong/weak dependencies, write-after-write order and region entry
    dependencies depend only on the CDFG — not on the binding — so one
    instance is computed per CDFG (cached on the graph object) and shared
    read-only by every engine run.  The
    iterative-improvement search schedules the same CDFG hundreds of
    times under different bindings; sharing this analysis removes the
    dominant constant cost from each of those runs.

    The graph holds the analysis, so the analysis does not hold the
    graph: its methods take the CDFG as an argument, and a dropped CDFG
    is freed by reference counting.
    """

    def __init__(self, cdfg: CDFG):
        self._strong: dict[int, list[tuple[str, int]]] = {}
        self._weak_readers: dict[int, set[int]] = {}
        self._carried_in: dict[int, list] = {}
        self._node_region_owner: dict[int, int] = {}
        self._region_deps: dict[int, list[tuple[str, int]]] = {}
        self._writers_by_carrier = cdfg.carrier_writers()
        self._test_nodes: dict[int, frozenset[int]] = {}
        #: Structure-only region digests, shared across every engine run on
        #: this CDFG: task pools per block, schedulable-node sets per
        #: region subtree, loop read/write carrier sets.
        self.block_tasks: dict[int, list[tuple[str, int]]] = {}
        self.region_task_nodes: dict[int, frozenset] = {}
        self.loop_rw: dict[int, tuple[frozenset, frozenset]] = {}
        self._analyze(cdfg)

    @classmethod
    def of(cls, cdfg: CDFG) -> "_SchedAnalysis":
        analysis = cdfg.__dict__.get("_sched_analysis")
        if analysis is None:
            analysis = cls(cdfg)
            cdfg._sched_analysis = analysis
        return analysis

    def _analyze(self, cdfg: CDFG) -> None:
        for region in cdfg.regions.values():
            if isinstance(region, IfRegion):
                for sel in region.sel_nodes:
                    self._node_region_owner[sel] = region.id
            elif isinstance(region, LoopRegion):
                for elp in region.elp_nodes:
                    self._node_region_owner[elp] = region.id
                self._test_nodes[region.id] = loop_test_nodes(cdfg, region.id)

        for node in cdfg.op_nodes():
            strong: list[tuple[str, int]] = []
            for edge in cdfg.in_edges(node.id):
                if edge.carried:
                    self._carried_in.setdefault(node.id, []).append(edge)
                    continue
                strong.extend(self._dep_of_producer(cdfg, edge.src))
            self._strong[node.id] = strong

        self._build_waw_constraints(cdfg)
        self._build_memory_constraints(cdfg)
        self._build_weak_constraints(cdfg)
        for region in cdfg.regions.values():
            if isinstance(region, (IfRegion, LoopRegion)):
                self._region_deps[region.id] = self._build_region_deps(cdfg, region)

    def _build_waw_constraints(self, cdfg: CDFG) -> None:
        """Write-after-write: a register's writers commit in program order.

        Every (non-mutually-exclusive) earlier writer of the same variable
        becomes a strong dependency of a later writer — even a *dead* write
        must land in an earlier state, or the register would end up holding
        the stale value (found by the random-program property test).
        """
        for writers in self._writers_by_carrier.values():
            schedulable = [w for w in writers if cdfg.node(w).is_schedulable]
            for i, later in enumerate(schedulable):
                for earlier in schedulable[:i]:
                    if mutually_exclusive(cdfg, earlier, later):
                        continue
                    self._strong.setdefault(later, []).append(("node", earlier))

    def _build_memory_constraints(self, cdfg: CDFG) -> None:
        """Memory dependence: same-array accesses commit in program order
        whenever either side is a store (loads commute freely).

        Like WAW, each later access depends on *every* conflicting earlier
        access, not just the nearest — mutually-exclusive pairs are
        skipped, and exclusivity breaks transitive chains.
        """
        by_array: dict[str, list[int]] = {}
        for node in cdfg.mem_nodes():
            by_array.setdefault(node.mem, []).append(node.id)
        for accesses in by_array.values():
            accesses.sort()
            for i, later in enumerate(accesses):
                for earlier in accesses[:i]:
                    if cdfg.node(earlier).kind is not OpKind.STORE \
                            and cdfg.node(later).kind is not OpKind.STORE:
                        continue
                    if mutually_exclusive(cdfg, earlier, later):
                        continue
                    self._strong.setdefault(later, []).append(("node", earlier))

    def _dep_of_producer(self, cdfg: CDFG, src: int) -> list[tuple[str, int]]:
        node = cdfg.node(src)
        if node.kind in (OpKind.INPUT, OpKind.CONST):
            return []
        if node.kind in (OpKind.SELECT, OpKind.ENDLOOP):
            return [("region", self._node_region_owner[src])]
        return [("node", src)]

    def _build_weak_constraints(self, cdfg: CDFG) -> None:
        """Write-after-read: reader <= next writer of the same variable."""
        for edge in cdfg.edges:
            if edge.is_control:
                continue
            reader = edge.dst
            if not cdfg.node(reader).is_schedulable:
                continue
            src = cdfg.node(edge.src)
            if edge.carried:
                # Reads of the previous iteration's value must precede this
                # iteration's first (non-exclusive) writer -- except in the
                # loop's test block, where the kernel read is of the *new*
                # value (a strong dependency handled contextually).
                if reader in self._test_nodes.get(edge.loop, set()):
                    continue
                carrier = src.carrier
                loop_nodes = set(region_nodes(cdfg, edge.loop, recursive=True))
                writers = [w for w in self._writers_by_carrier.get(carrier, [])
                           if w in loop_nodes]
            else:
                carrier = src.carrier
                if carrier is None:
                    continue
                writers = [w for w in self._writers_by_carrier.get(carrier, [])
                           if w > edge.src]
            for writer in writers:
                if writer == reader or not cdfg.node(writer).is_schedulable:
                    continue
                if mutually_exclusive(cdfg, writer, reader):
                    continue
                self._weak_readers.setdefault(writer, set()).add(reader)
                break

    def _build_region_deps(self, cdfg: CDFG, region) -> list[tuple[str, int]]:
        deps: list[tuple[str, int]] = []
        # A region's ops are control-guarded by every enclosing loop's
        # condition, but that guard is never an *entry* dependency: the
        # region task is only reached once the enclosing iteration is
        # already executing (kernel entry or a scheduled test), and in a
        # hoisted kernel the in-flight cond evaluation is the *next*
        # iteration's — waiting on it deadlocks against the write-after-
        # read ordering of reads inside this region (found by the fuzz
        # generator: a while loop nested in a for, body reading the
        # iterator).
        vacuous = _ancestor_loop_conds(cdfg, region)
        for producer in producers_outside(cdfg, region.id):
            if producer in vacuous:
                continue
            deps.extend(self._dep_of_producer(cdfg, producer))
        subtree = region_subtree(cdfg, region.id)
        inside = {n.id for n in cdfg.nodes.values() if n.region in subtree}
        if isinstance(region, IfRegion):
            for sel in region.sel_nodes:
                for edge in cdfg.in_edges(sel):
                    if not edge.carried and edge.src not in inside:
                        deps.extend(self._dep_of_producer(cdfg, edge.src))
        # Outside readers that must run before an inside writer overwrites
        # their value (lest the arm/kernel deadlock on the weak constraint).
        for writer, readers in self._weak_readers.items():
            if writer in inside:
                for reader in readers:
                    if reader not in inside:
                        deps.append(("node", reader))
        # Synthetic strong deps (WAW order) of inside nodes on outside nodes
        # gate region entry the same way data dependencies do.
        for node_id in inside:
            for kind, target in self._strong.get(node_id, ()):
                if kind == "node" and target not in inside:
                    deps.append((kind, target))
        return deps


def _ancestor_loop_conds(cdfg: CDFG, region) -> set[int]:
    """Condition nodes of every loop region enclosing ``region``."""
    conds: set[int] = set()
    current = region.parent
    while current is not None:
        parent = cdfg.region(current)
        if isinstance(parent, LoopRegion):
            conds.add(parent.cond_node)
        current = parent.parent
    return conds


def _collect_block_tasks(cdfg: CDFG, block: BlockRegion) -> list[tuple[str, int]]:
    tasks: list[tuple[str, int]] = []
    for item in block.items:
        if isinstance(item, OpsItem):
            tasks.extend(("op", n) for n in item.nodes)
        elif isinstance(item, SubRegionItem):
            region = cdfg.region(item.region)
            if isinstance(region, (IfRegion, LoopRegion)):
                tasks.append(("region", region.id))
            else:
                tasks.extend(_collect_block_tasks(cdfg, cdfg.block(item.region)))
    return tasks


class _Engine:
    def __init__(self, cdfg: CDFG, binding: Binding, options: ScheduleOptions):
        self.cdfg = cdfg
        self.binding = binding
        self.options = options
        self.stg = STG()
        self.done_nodes: set[int] = set()
        self.done_regions: set[int] = set()
        self.delays = binding.delays()
        self.analysis = _SchedAnalysis.of(cdfg)
        self.heights = node_heights(cdfg, self.delays)
        # Read-only views of the shared per-CDFG analysis.
        self._strong = self.analysis._strong
        self._weak_readers = self.analysis._weak_readers
        self._carried_in = self.analysis._carried_in
        self._node_region_owner = self.analysis._node_region_owner
        self._region_deps = self.analysis._region_deps
        self._writers_by_carrier = self.analysis._writers_by_carrier
        self._test_nodes = self.analysis._test_nodes
        self._kernel_ctx: frozenset[int] = frozenset()
        self._placed: dict[int, dict[int, float]] = {}
        self._fu_occupancy: dict[int, dict[int, list[int]]] = {}
        self._carrier_writes: dict[int, dict[str, list[int]]] = {}
        self._mem_occupancy: dict[int, dict[str, list[int]]] = {}
        # Estimated mux depths are pure functions of (binding, CDFG),
        # both fixed for the engine's lifetime.
        self._in_mux_memo: dict[int, float] = {}
        self._out_mux_memo: dict[int, float] = {}

    def _dep_of_producer(self, src: int) -> list[tuple[str, int]]:
        return self.analysis._dep_of_producer(self.cdfg, src)

    # ------------------------------------------------------------- readiness

    def _dep_satisfied(self, dep: tuple[str, int]) -> bool:
        kind, target = dep
        if kind == "node":
            return target in self.done_nodes
        return target in self.done_regions

    def _op_ready(self, node_id: int) -> bool:
        for dep in self._strong.get(node_id, ()):
            if not self._dep_satisfied(dep):
                return False
        for edge in self._carried_in.get(node_id, ()):
            # Inside a kernel, the loop's test reads *this* iteration's
            # update -- a strong dependency on the body producer (resolved
            # through Sel/Elp to region completion where needed).
            if edge.loop in self._kernel_ctx \
                    and node_id in self._test_nodes.get(edge.loop, set()):
                for dep in self._dep_of_producer(edge.src):
                    if not self._dep_satisfied(dep):
                        return False
        for reader in self._weak_readers.get(node_id, ()):
            if reader not in self.done_nodes:
                return False
        return True

    def _region_ready(self, region_id: int) -> bool:
        return all(self._dep_satisfied(d) for d in self._region_deps[region_id])

    # ------------------------------------------------------------- state/cursor

    def _materialize(self, cursor: _Cursor) -> State:
        if cursor.state is None:
            cursor.state = self.stg.new_state()
            for src, conds in cursor.sources:
                self.stg.add_transition(src, cursor.state.id, conds)
            cursor.sources = []
        return cursor.state

    def _fork_sources(self, cursor: _Cursor) -> list[tuple[int, frozenset[tuple[int, bool]]]]:
        """Concrete (state, guard) pairs a fork can branch from."""
        if cursor.state is not None:
            return [(cursor.state.id, frozenset())]
        if not cursor.sources:
            raise ScheduleError("cannot fork from a cursor with no sources")
        return list(cursor.sources)

    def _advance(self, cursor: _Cursor) -> _Cursor:
        """Close the cursor and open the sequentially-next one."""
        state = self._materialize(cursor)
        return _Cursor(sources=[(state.id, frozenset())])

    # --------------------------------------------------------------- packing

    def _est_input_mux(self, fu_id: int | None) -> float:
        if fu_id is None:
            return 0.0
        got = self._in_mux_memo.get(fu_id)
        if got is None:
            n_ops = len(self.binding.fus[fu_id].ops)
            got = 0.0 if n_ops <= 1 else \
                math.ceil(math.log2(n_ops)) * MUX_DELAY_NS
            self._in_mux_memo[fu_id] = got
        return got

    def _est_output_mux(self, node_id: int) -> float:
        got = self._out_mux_memo.get(node_id)
        if got is not None:
            return got
        carrier = self.cdfg.node(node_id).carrier
        if carrier is None:
            got = 0.0
        else:
            writers = [w for w in self._writers_by_carrier.get(carrier, [])
                       if self.cdfg.node(w).is_schedulable or
                       self.cdfg.node(w).kind is OpKind.INPUT]
            got = 0.0 if len(writers) <= 1 else \
                math.ceil(math.log2(len(writers))) * MUX_DELAY_NS
        self._out_mux_memo[node_id] = got
        return got

    def _try_place(self, cursor: _Cursor, node_id: int) -> bool:
        node = self.cdfg.node(node_id)
        fu = self.binding.fu_of(node_id) if node.needs_fu else None
        fu_id = fu.id if fu is not None else None

        state_id = cursor.state.id if cursor.state is not None else None
        placed_here = self._placed.get(state_id, {}) if state_id is not None else {}
        fu_occupancy = self._fu_occupancy.get(state_id, {}) if state_id is not None else {}
        carrier_writes = self._carrier_writes.get(state_id, {}) if state_id is not None else {}
        mem_occupancy = self._mem_occupancy.get(state_id, {}) if state_id is not None else {}

        if node.mem is not None:
            mem = self.binding.mems[node.mem]
            port = mem.port_of[node_id]
            is_store = node.kind is OpKind.STORE
            for other in mem_occupancy.get(node.mem, ()):
                # Gatesim executes every op of a visited state, so a store
                # may never share a state with another access of its array
                # -- even a mutually exclusive one would double-commit.
                if is_store or self.cdfg.node(other).kind is OpKind.STORE:
                    return False
                # One address bus per port: two loads share a state only on
                # different ports (exclusivity cannot split a bus).
                if mem.port_of[other] == port:
                    return False

        if fu_id is not None:
            for other in fu_occupancy.get(fu_id, ()):
                if not mutually_exclusive(self.cdfg, other, node_id):
                    return False
        if node.carrier is not None:
            # Register-granular write conflict: carriers sharing a register
            # may not commit in the same state (unless mutually exclusive).
            reg = self.binding.reg_of(node.carrier).id
            for other in carrier_writes.get(reg, ()):
                if not mutually_exclusive(self.cdfg, other, node_id):
                    return False
        # A carried read samples its variable's register; the register only
        # commits the entry value at the end of the init writer's state, so
        # the read may not share that state (caught by gatesim otherwise).
        for edge in self._carried_in.get(node_id, ()):
            if edge.loop in self._kernel_ctx:
                continue
            if edge.init_src is not None and edge.init_src in placed_here:
                return False

        start = 0.0
        for edge in self.cdfg.in_edges(node_id):
            if edge.src in placed_here:
                start = max(start, placed_here[edge.src])
        base = self.delays.get(node_id, 0.0)
        if base > 0.0 and start > 0.0:
            base *= 1.0 + CHAIN_OVERHEAD
        end = start + base + self._est_input_mux(fu_id) + self._est_output_mux(node_id)
        clock = self.options.clock_ns
        need = max(1, math.ceil(end / clock - 1e-9))
        state_empty = cursor.state is None or not cursor.state.ops
        if not state_empty and need > cursor.state.duration:
            # Would extend the state's cycle window: postpone to a fresh
            # state (which accepts any op, multi-cycling if necessary).
            return False

        state = self._materialize(cursor)
        state.duration = max(state.duration, need)
        state.ops.append(ScheduledOp(node=node_id, fu=fu_id, start=start, end=end))
        self._placed.setdefault(state.id, {})[node_id] = end
        if fu_id is not None:
            self._fu_occupancy.setdefault(state.id, {}).setdefault(fu_id, []).append(node_id)
        if node.carrier is not None:
            reg = self.binding.reg_of(node.carrier).id
            self._carrier_writes.setdefault(state.id, {}).setdefault(
                reg, []).append(node_id)
        if node.mem is not None:
            self._mem_occupancy.setdefault(state.id, {}).setdefault(
                node.mem, []).append(node_id)
        self.done_nodes.add(node_id)
        return True

    # ------------------------------------------------------------ task pools

    def _block_tasks(self, cdfg: CDFG, block: BlockRegion) -> list[tuple[str, int]]:
        """Task pool of a block — pure CDFG structure, memoized per graph.

        Callers never mutate the returned list (they copy or iterate), so
        one shared object per block is safe.
        """
        cache = self.analysis.block_tasks
        tasks = cache.get(block.id)
        if tasks is None:
            tasks = cache[block.id] = _collect_block_tasks(cdfg, block)
        return tasks

    def _region_task_nodes(self, region_id: int) -> frozenset:
        """All schedulable nodes in a region subtree (for done-masking)."""
        cache = self.analysis.region_task_nodes
        nodes = cache.get(region_id)
        if nodes is None:
            nodes = cache[region_id] = frozenset(
                region_nodes(self.cdfg, region_id, recursive=True))
        return nodes

    # ------------------------------------------------------------- main loop

    def run(self) -> STG:
        stg = self.stg
        start = stg.new_state()
        stg.start = start.id
        cursor = _Cursor()
        cursor.state = start
        root_tasks = self._block_tasks(self.cdfg, self.cdfg.block(self.cdfg.root_region))
        cursor, _ = self._schedule_tasks(root_tasks, cursor)
        done = stg.new_state()
        stg.done = done.id
        if cursor.state is not None:
            self.stg.add_transition(cursor.state.id, done.id)
        else:
            # Nothing was placed after the last fork: route its guards
            # straight to done instead of spending an empty cycle.
            for src, conds in cursor.sources:
                self.stg.add_transition(src, done.id, conds)
        stg.validate()
        return stg

    def _schedule_tasks(self, tasks: list[tuple[str, int]], cursor: _Cursor,
                        optionals: list[int] = ()) -> tuple[_Cursor, list[int]]:
        """Drain ``tasks`` (required); place ``optionals`` opportunistically.

        Returns the final open cursor and the optionals actually placed.
        """
        pending_ops = [n for kind, n in tasks if kind == "op"]
        pending_regions = [r for kind, r in tasks if kind == "region"]
        optional_pool = [n for n in optionals if n not in self.done_nodes]
        placed_optionals: list[int] = []

        # Readiness is monotone within one invocation: the done sets only
        # net-grow between the points this loop observes them (nested arm
        # or kernel scheduling shrinks them temporarily, but restores a
        # superset before returning).  Once ready, always ready — so a
        # positive answer is memoized and never re-derived.
        ready: set[int] = set()
        op_ready = self._op_ready

        def is_ready(node_id: int) -> bool:
            if node_id in ready:
                return True
            if op_ready(node_id):
                ready.add(node_id)
                return True
            return False

        while pending_ops or pending_regions:
            # 1. pack ready required ops (and optionals) into the open state.
            # Placement failure is permanent while the open state lasts:
            # occupancy, register writes and chained starts only grow, and
            # the state's cycle window is fixed once it holds an op — so a
            # node that failed to place is skipped, not retried.
            progressed = True
            failed: set[int] = set()
            while progressed:
                progressed = False
                candidates = [n for n in pending_ops
                              if n not in failed and is_ready(n)]
                candidates.sort(key=lambda n: (-self.heights.get(n, 0.0), n))
                for node_id in candidates:
                    if self._try_place(cursor, node_id):
                        pending_ops.remove(node_id)
                        progressed = True
                        break
                    failed.add(node_id)
                else:
                    # No required op fit; try optionals (lower priority).
                    opt = [n for n in optional_pool
                           if n not in failed and is_ready(n)]
                    opt.sort(key=lambda n: (-self.heights.get(n, 0.0), n))
                    for node_id in opt:
                        if self._try_place(cursor, node_id):
                            optional_pool.remove(node_id)
                            placed_optionals.append(node_id)
                            progressed = True
                            break
                        failed.add(node_id)

            if not pending_ops and not pending_regions:
                break

            # 2. a ready region?
            ready_regions = [r for r in pending_regions if self._region_ready(r)]
            ready_ops_exist = any(is_ready(n) for n in pending_ops)

            enter_region = False
            if ready_regions:
                if self.options.branch_parallel:
                    enter_region = True
                else:
                    enter_region = not ready_ops_exist

            if enter_region:
                region_id = ready_regions[0]
                region = self.cdfg.region(region_id)
                extra: list[int] = []
                if self.options.branch_parallel:
                    extra = [n for n in pending_ops + optional_pool
                             if n not in self.done_nodes]
                if isinstance(region, IfRegion):
                    cursor = self._schedule_if(region, cursor, extra)
                    scheduled_regions = [region.id]
                else:
                    fused: list[LoopRegion] = [region]
                    if self.options.fuse_loops and self.options.hoist_loop_control:
                        for other_id in ready_regions[1:]:
                            other = self.cdfg.region(other_id)
                            if (isinstance(other, LoopRegion) and len(fused) < 2
                                    and self._fusable(fused[0], other)):
                                fused.append(other)
                    cursor = self._schedule_loops(fused, cursor, extra)
                    scheduled_regions = [loop.id for loop in fused]
                for rid in scheduled_regions:
                    pending_regions.remove(rid)
                pending_ops = [n for n in pending_ops if n not in self.done_nodes]
                newly = [n for n in optional_pool if n in self.done_nodes]
                placed_optionals.extend(newly)
                optional_pool = [n for n in optional_pool if n not in self.done_nodes]
                continue

            if ready_ops_exist:
                # Ready ops exist but none fit: advance to the next state.
                cursor = self._advance(cursor)
                continue

            self._raise_deadlock(pending_ops, pending_regions)

        return cursor, placed_optionals

    def _raise_deadlock(self, pending_ops, pending_regions) -> None:
        lines = ["scheduler deadlock; unready tasks:"]
        for node_id in pending_ops:
            node = self.cdfg.node(node_id)
            unmet = [d for d in self._strong.get(node_id, ()) if not self._dep_satisfied(d)]
            weak = [r for r in self._weak_readers.get(node_id, ()) if r not in self.done_nodes]
            lines.append(f"  op {node.name}: strong={unmet} weak_readers={weak}")
        for region_id in pending_regions:
            unmet = [d for d in self._region_deps[region_id] if not self._dep_satisfied(d)]
            lines.append(f"  region {region_id}: deps={unmet}")
        raise ScheduleError("\n".join(lines))

    # ------------------------------------------------------------ conditionals

    def _schedule_if(self, region: IfRegion, cursor: _Cursor,
                     extra: list[int]) -> _Cursor:
        cdfg = self.cdfg
        cond = region.cond_node
        if cdfg.node(cond).is_schedulable and cond not in self.done_nodes:
            raise ScheduleError(
                f"if-region {region.id}: condition {cdfg.node(cond).name} not scheduled")
        fork_sources = self._fork_sources(cursor)

        then_tasks = self._block_tasks(cdfg, cdfg.block(region.then_block))
        else_tasks = self._block_tasks(cdfg, cdfg.block(region.else_block))
        then_subtree = self._region_task_nodes(region.then_block)
        else_subtree = self._region_task_nodes(region.else_block)

        snapshot_nodes = set(self.done_nodes)
        snapshot_regions = set(self.done_regions)

        # While one arm is scheduled, ops in the *opposite* arm can never
        # execute on this path, so they must not gate readiness: a shared
        # outside op whose weak (write-after-read) or WAW dependency sits in
        # the other arm is vacuously ordered there.  Without this, such an
        # op placed opportunistically in the then arm deadlocks when the
        # else arm mirrors it (the then-arm reader never runs on that path).
        self.done_nodes |= else_subtree

        # Then arm (greedy on the shared external ops).
        then_cursor = _Cursor(sources=[(s, self._and_cond(c, cond, True))
                                       for s, c in fork_sources])
        then_cursor, placed_shared = self._schedule_tasks(
            then_tasks, then_cursor, optionals=list(extra))
        then_done_nodes = set(self.done_nodes)
        then_done_regions = set(self.done_regions)

        # Else arm must mirror exactly the shared ops the then arm placed.
        self.done_nodes = snapshot_nodes | then_subtree
        self.done_regions = set(snapshot_regions)
        else_required = else_tasks + [("op", n) for n in placed_shared]
        else_cursor = _Cursor(sources=[(s, self._and_cond(c, cond, False))
                                       for s, c in fork_sources])
        else_cursor, _ = self._schedule_tasks(else_required, else_cursor)

        self.done_nodes |= then_done_nodes
        self.done_regions |= then_done_regions
        self.done_regions.add(region.id)

        join = _Cursor()
        for arm_cursor in (then_cursor, else_cursor):
            if arm_cursor.state is not None:
                join.sources.append((arm_cursor.state.id, frozenset()))
            else:
                join.sources.extend(arm_cursor.sources)
        return join

    @staticmethod
    def _and_cond(conds: frozenset[tuple[int, bool]], cond: int,
                  value: bool) -> frozenset[tuple[int, bool]]:
        return conds | {(cond, value)}

    # ---------------------------------------------------------------- loops

    def _loop_rw_sets(self, loop: LoopRegion) -> tuple[frozenset, frozenset]:
        """(carriers written inside, carriers read from outside) of a loop."""
        cache = self.analysis.loop_rw
        got = cache.get(loop.id)
        if got is not None:
            return got
        cdfg = self.cdfg
        subtree = region_subtree(cdfg, loop.id)
        inside = {n.id for n in cdfg.nodes.values() if n.region in subtree}
        writes = {cdfg.node(n).carrier for n in inside
                  if cdfg.node(n).carrier is not None}
        reads: set[str] = set()
        for node_id in inside:
            for edge in cdfg.in_edges(node_id):
                src = cdfg.node(edge.src)
                if edge.src not in inside and src.carrier is not None:
                    reads.add(src.carrier)
        for cv in loop.carried:
            if cv.init_src is not None:
                src = cdfg.node(cv.init_src)
                if src.carrier is not None:
                    reads.add(src.carrier)
        got = cache[loop.id] = (frozenset(writes), frozenset(reads))
        return got

    def _fusable(self, a: LoopRegion, b: LoopRegion) -> bool:
        writes_a, reads_a = self._loop_rw_sets(a)
        writes_b, reads_b = self._loop_rw_sets(b)
        return not (writes_a & writes_b) and not (writes_a & reads_b) \
            and not (writes_b & reads_a)

    def _schedule_loops(self, loops: list[LoopRegion], cursor: _Cursor,
                        extra: list[int]) -> _Cursor:
        cdfg = self.cdfg
        hoist = self.options.hoist_loop_control

        test_tasks: list[tuple[str, int]] = []
        for loop in loops:
            test_tasks.extend(self._block_tasks(cdfg, cdfg.block(loop.test_block)))

        if not hoist:
            if len(loops) != 1:
                raise ScheduleError("loop fusion requires loop-control hoisting")
            return self._schedule_loop_nonhoist(loops[0], cursor)

        # Prologue: iteration-0 tests, packed with surrounding ready ops.
        cursor, _ = self._schedule_tasks(test_tasks, cursor, optionals=list(extra))
        fork_sources = self._fork_sources(cursor)
        conds = [loop.cond_node for loop in loops]
        exit_cursor = _Cursor()

        if len(loops) == 1:
            kernels = {(True,): [loops[0]]}
        else:
            kernels = {
                (True, True): loops,
                (True, False): [loops[0]],
                (False, True): [loops[1]],
            }

        kernel_entry: dict[tuple[bool, ...], State] = {}
        for key in kernels:
            kernel_entry[key] = self.stg.new_state()

        # Entry transitions from the prologue.
        for src, guard in fork_sources:
            for key, members in kernels.items():
                full = set(guard) | {(c, v) for c, v in zip(conds, key)}
                self.stg.add_transition(src, kernel_entry[key].id, frozenset(full))
            all_false = set(guard) | {(c, False) for c in conds}
            exit_cursor.sources.append((src, frozenset(all_false)))

        # Schedule each kernel.
        for key, members in kernels.items():
            member_ids = frozenset(l.id for l in members)
            kernel_tasks: list[tuple[str, int]] = []
            mask_nodes: set[int] = set()
            mask_regions: set[int] = set()
            for loop in members:
                kernel_tasks.extend(self._block_tasks(cdfg, cdfg.block(loop.body_block)))
                kernel_tasks.extend(self._block_tasks(cdfg, cdfg.block(loop.test_block)))
                mask_nodes |= self._region_task_nodes(loop.body_block)
                mask_nodes |= self._region_task_nodes(loop.test_block)
                for rid in region_subtree(cdfg, loop.body_block):
                    region = cdfg.region(rid)
                    if isinstance(region, (IfRegion, LoopRegion)):
                        mask_regions.add(rid)

            saved_nodes = set(self.done_nodes)
            saved_regions = set(self.done_regions)
            self.done_nodes -= mask_nodes
            self.done_regions -= mask_regions

            body_cursor = _Cursor()
            body_cursor.state = kernel_entry[key]
            saved_ctx = self._kernel_ctx
            self._kernel_ctx = saved_ctx | member_ids
            try:
                body_cursor, _ = self._schedule_tasks(kernel_tasks, body_cursor)
            finally:
                self._kernel_ctx = saved_ctx
            end_state = self._materialize(body_cursor)

            self.done_nodes |= saved_nodes | mask_nodes
            self.done_regions |= saved_regions | mask_regions

            # Back / drain / exit transitions from the kernel end.
            member_conds = [loop.cond_node for loop in members]
            if len(members) == 1:
                self.stg.add_transition(end_state.id, kernel_entry[key].id,
                                        frozenset({(member_conds[0], True)}))
                exit_cursor.sources.append(
                    (end_state.id, frozenset({(member_conds[0], False)})))
            else:
                c1, c2 = member_conds
                self.stg.add_transition(end_state.id, kernel_entry[(True, True)].id,
                                        frozenset({(c1, True), (c2, True)}))
                self.stg.add_transition(end_state.id, kernel_entry[(True, False)].id,
                                        frozenset({(c1, True), (c2, False)}))
                self.stg.add_transition(end_state.id, kernel_entry[(False, True)].id,
                                        frozenset({(c1, False), (c2, True)}))
                exit_cursor.sources.append(
                    (end_state.id, frozenset({(c1, False), (c2, False)})))

        for loop in loops:
            self.done_regions.add(loop.id)
        return exit_cursor

    def _schedule_loop_nonhoist(self, loop: LoopRegion, cursor: _Cursor) -> _Cursor:
        """Baseline loop shape: test states -> body states -> back to test."""
        cdfg = self.cdfg
        test_entry = self.stg.new_state()
        for src, guard in self._fork_sources(cursor):
            self.stg.add_transition(src, test_entry.id, guard)

        test_tasks = self._block_tasks(cdfg, cdfg.block(loop.test_block))
        test_cursor = _Cursor()
        test_cursor.state = test_entry

        mask_nodes = self._region_task_nodes(loop.test_block) \
            | self._region_task_nodes(loop.body_block)
        mask_regions = {rid for rid in region_subtree(cdfg, loop.body_block)
                        if isinstance(cdfg.region(rid), (IfRegion, LoopRegion))}
        saved_nodes = set(self.done_nodes)
        saved_regions = set(self.done_regions)
        self.done_nodes -= mask_nodes
        self.done_regions -= mask_regions

        test_cursor, _ = self._schedule_tasks(test_tasks, test_cursor)
        test_end = self._materialize(test_cursor)

        body_tasks = self._block_tasks(cdfg, cdfg.block(loop.body_block))
        exit_cursor = _Cursor()
        exit_cursor.sources.append((test_end.id, frozenset({(loop.cond_node, False)})))
        if body_tasks:
            body_entry = self.stg.new_state()
            self.stg.add_transition(test_end.id, body_entry.id,
                                    frozenset({(loop.cond_node, True)}))
            body_cursor = _Cursor()
            body_cursor.state = body_entry
            body_cursor, _ = self._schedule_tasks(body_tasks, body_cursor)
            body_end = self._materialize(body_cursor)
            self.stg.add_transition(body_end.id, test_entry.id)
        else:
            self.stg.add_transition(test_end.id, test_entry.id,
                                    frozenset({(loop.cond_node, True)}))

        self.done_nodes |= saved_nodes | mask_nodes
        self.done_regions |= saved_regions | mask_regions
        self.done_regions.add(loop.id)
        return exit_cursor


def schedule(cdfg: CDFG, binding: Binding,
             options: ScheduleOptions | None = None) -> STG:
    """Schedule a CDFG under a binding; returns a validated STG."""
    from repro.core.profile import PROFILER

    options = options or ScheduleOptions()
    with PROFILER.stage("schedule") as token:
        # Incremental: the CDFG's binding-independent analysis came
        # from an earlier run; only the binding-dependent packing runs.
        token.incremental = "_sched_analysis" in cdfg.__dict__
        return _Engine(cdfg, binding, options).run()
