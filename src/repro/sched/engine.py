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

import heapq
import math
from dataclasses import dataclass

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
from repro.cdfg.node import MEMORY_KINDS, OpKind
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


class _Cursor:
    """A lazily-materialized open state.

    ``sources`` are (state, guard) pairs whose transitions will target the
    state once it materializes; if nothing is ever placed and no fork needs
    a concrete state, the sources pass through to the next cursor and no
    cycle is spent.
    """

    __slots__ = ("sources", "state")

    def __init__(self, sources: list[tuple[int, frozenset[tuple[int, bool]]]]
                 | None = None, state: State | None = None):
        self.sources = [] if sources is None else sources
        self.state = state


#: How :class:`_Engine` finds an op's delay under a binding: zero (no
#: unit), its unit's scaled module delay, or its array's access delay.
_ZERO_DELAY, _FU_DELAY, _MEM_DELAY = range(3)

#: (unit id, input-mux delay) of an op that uses no functional unit.
_NO_UNIT = (None, 0.0)


class _OpFacts:
    """What placing one op reads of the CDFG alone."""

    __slots__ = ("carrier", "mem", "is_store", "srcs", "carried_inits",
                 "out_mux")

    def __init__(self, carrier: str | None, mem: str | None,
                 is_store: bool, srcs: tuple[int, ...],
                 carried_inits: tuple[tuple[int, int], ...], out_mux: float):
        self.carrier = carrier
        self.mem = mem
        self.is_store = is_store
        #: Sources of the data in-edges (chaining reads their ends).
        self.srcs = srcs
        #: ``(loop, init source)`` of each carried in-edge with an init.
        self.carried_inits = carried_inits
        #: Estimated output-mux delay: one stage per doubling of writers.
        self.out_mux = out_mux


def _split_deps(deps) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``[("node"|"region", id), ...]`` as (node ids, region ids)."""
    return (tuple(t for kind, t in deps if kind == "node"),
            tuple(t for kind, t in deps if kind != "node"))


class _SchedAnalysis:
    """The binding-independent half of the engine's setup, shared per CDFG.

    Strong/weak dependencies, write-after-write order and region entry
    dependencies depend only on the CDFG — not on the binding — so one
    instance is computed per CDFG (cached on the graph object) and shared
    read-only by every engine run.  The
    iterative-improvement search schedules the same CDFG hundreds of
    times under different bindings; sharing this analysis removes the
    dominant constant cost from each of those runs.

    Besides the dependencies, it holds every per-node fact the packing
    loop reads: each op's readiness checks split into node and region
    sets, the reverse index of which ops a placement can make ready, the
    placement facts of :class:`_OpFacts` (output-mux estimate included),
    how each op's delay is found, and a memo of mutual exclusion per
    node pair.

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
        #: this CDFG: (ops, regions) task pools per block, schedulable-node
        #: sets per region subtree, loop read/write carrier sets, the
        #: (nodes, regions) a loop iteration re-runs and each kernel's
        #: task pool and masks.
        self.block_tasks: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self.region_task_nodes: dict[int, frozenset] = {}
        self.loop_rw: dict[int, tuple[frozenset, frozenset]] = {}
        self.loop_masks: dict[int, tuple[frozenset, frozenset]] = {}
        self.kernel_tasks: dict[tuple[int, ...], tuple] = {}
        #: Per op: (node deps, region deps, kernel-only deps as
        #: ``(loop, node deps, region deps)``, weak readers).
        self.ready_deps: dict[int, tuple] = {}
        #: Per region: (node deps, region deps) of its entry.
        self.region_ready_deps: dict[int, tuple[tuple, tuple]] = {}
        #: Per node: the ops whose readiness reads whether it is done.
        self.dependents: dict[int, list[int]] = {}
        self.op_facts: dict[int, _OpFacts] = {}
        #: ``(op, delay kind, array)`` per op, in node order; the kind is
        #: ``_ZERO_DELAY``, ``_FU_DELAY`` (the op needs a unit) or
        #: ``_MEM_DELAY``.
        self.delay_plan: list[tuple[int, int, str | None]] = []
        #: ``(a, b) -> mutually_exclusive(cdfg, a, b)``, filled on demand.
        self.exclusive: dict[tuple[int, int], bool] = {}
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
                self.region_ready_deps[region.id] = _split_deps(
                    self._region_deps[region.id])
        self._build_packing_facts(cdfg)

    def _build_packing_facts(self, cdfg: CDFG) -> None:
        """Flatten what readiness and placement read into per-op records."""
        for node in cdfg.op_nodes():
            node_id = node.id
            nodes, regions = _split_deps(self._strong.get(node_id, ()))
            kernel = []
            for edge in self._carried_in.get(node_id, ()):
                # Inside a kernel, the loop's test reads *this* iteration's
                # update -- a strong dependency on the body producer
                # (resolved through Sel/Elp to region completion).
                if node_id in self._test_nodes.get(edge.loop, ()):
                    kernel.append((edge.loop, *_split_deps(
                        self._dep_of_producer(cdfg, edge.src))))
            weak = tuple(self._weak_readers.get(node_id, ()))
            self.ready_deps[node_id] = (nodes, regions, tuple(kernel), weak)
            for dep in {*nodes, *weak, *(n for k in kernel for n in k[1])}:
                self.dependents.setdefault(dep, []).append(node_id)

            carrier = node.carrier
            if carrier is None:
                out_mux = 0.0
            else:
                writers = [w for w in self._writers_by_carrier.get(carrier, [])
                           if cdfg.node(w).is_schedulable or
                           cdfg.node(w).kind is OpKind.INPUT]
                out_mux = 0.0 if len(writers) <= 1 else \
                    math.ceil(math.log2(len(writers))) * MUX_DELAY_NS
            self.op_facts[node_id] = _OpFacts(
                carrier=carrier,
                mem=node.mem,
                is_store=node.kind is OpKind.STORE,
                srcs=tuple(edge.src for edge in cdfg.in_edges(node_id)),
                carried_inits=tuple(
                    (edge.loop, edge.init_src)
                    for edge in self._carried_in.get(node_id, ())
                    if edge.init_src is not None),
                out_mux=out_mux)

            kind = _MEM_DELAY if node.kind in MEMORY_KINDS else \
                _FU_DELAY if node.needs_fu else _ZERO_DELAY
            self.delay_plan.append((node_id, kind, node.mem))

    def is_exclusive(self, cdfg: CDFG, a: int, b: int) -> bool:
        """:func:`mutually_exclusive`, memoized per ordered pair."""
        key = (a, b)
        got = self.exclusive.get(key)
        if got is None:
            got = self.exclusive[key] = mutually_exclusive(cdfg, a, b)
        return got

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


class _Occupancy:
    """What one state already holds, as :meth:`_Engine._try_place` reads it."""

    __slots__ = ("ends", "fus", "regs", "mems")

    def __init__(self) -> None:
        #: node -> chained path end (ns) of every op placed in the state.
        self.ends: dict[int, float] = {}
        self.fus: dict[int, list[int]] = {}
        self.regs: dict[int, list[int]] = {}
        self.mems: dict[str, list[int]] = {}


#: The occupancy of a cursor that has not materialized a state yet.
_NO_OCCUPANCY = _Occupancy()


class _Engine:
    def __init__(self, cdfg: CDFG, binding: Binding, options: ScheduleOptions):
        self.cdfg = cdfg
        self.binding = binding
        self.options = options
        self.stg = STG()
        self.done_nodes: set[int] = set()
        self.done_regions: set[int] = set()
        self.analysis = _SchedAnalysis.of(cdfg)
        self.delays: dict[int, float] = {}
        #: op -> (unit id, estimated input-mux delay) under the binding.
        self._units: dict[int, tuple[int | None, float]] = {}
        self._bind_ops()
        self.heights = node_heights(cdfg, self.delays)
        #: The packing order: critical path first, ties by node id.
        self._priority = {n: (-h, n) for n, h in self.heights.items()}
        # Read-only views of the shared per-CDFG analysis.
        self._strong = self.analysis._strong
        self._weak_readers = self.analysis._weak_readers
        self._region_deps = self.analysis._region_deps
        self._ready_deps = self.analysis.ready_deps
        self._facts = self.analysis.op_facts
        self._kernel_ctx: frozenset[int] = frozenset()
        self._occupancy: dict[int, _Occupancy] = {}
        self._clock_ns = options.clock_ns
        self._exclusive = self.analysis.is_exclusive
        #: carrier -> register id, looked up on the first write placed.
        self._regs: dict[str, int] = {}

    def _bind_ops(self) -> None:
        """Look up each op's delay and unit under the binding, once.

        Fills ``delays`` (op -> :meth:`Binding.op_delay`) and ``_units``
        (op -> (unit id, estimated input-mux delay)).  Every op of a unit has
        the unit's scaled module delay and every access of an array its
        RAM's access delay, so the binding is asked once per unit or RAM;
        an unbound op or array raises the binding's own error.
        """
        binding = self.binding
        op_delay = binding.op_delay
        unit_of = binding.op_to_fu.get
        delays = self.delays
        units = self._units
        per_unit: dict[int, tuple[tuple[int, float], float]] = {}
        per_array: dict[str, float] = {}
        for node_id, kind, array in self.analysis.delay_plan:
            if kind == _FU_DELAY:
                fu_id = unit_of(node_id)
                got = per_unit.get(fu_id)
                if got is None:
                    delay = op_delay(node_id)  # raises if the op is unbound
                    n_ops = len(binding.fus[fu_id].ops)
                    in_mux = 0.0 if n_ops <= 1 else \
                        math.ceil(math.log2(n_ops)) * MUX_DELAY_NS
                    got = per_unit[fu_id] = ((fu_id, in_mux), delay)
                units[node_id], delays[node_id] = got
            elif kind == _ZERO_DELAY:
                units[node_id] = _NO_UNIT
                delays[node_id] = 0.0
            else:
                units[node_id] = _NO_UNIT
                delay = per_array.get(array)
                if delay is None:
                    delay = per_array[array] = op_delay(node_id)
                delays[node_id] = delay

    # ------------------------------------------------------------- readiness

    def _dep_satisfied(self, dep: tuple[str, int]) -> bool:
        kind, target = dep
        if kind == "node":
            return target in self.done_nodes
        return target in self.done_regions

    def _op_ready(self, node_id: int) -> bool:
        nodes, regions, kernel, weak = self._ready_deps[node_id]
        done = self.done_nodes
        for target in nodes:
            if target not in done:
                return False
        for target in regions:
            if target not in self.done_regions:
                return False
        for loop, kernel_nodes, kernel_regions in kernel:
            if loop in self._kernel_ctx:
                for target in kernel_nodes:
                    if target not in done:
                        return False
                for target in kernel_regions:
                    if target not in self.done_regions:
                        return False
        for reader in weak:
            if reader not in done:
                return False
        return True

    def _region_ready(self, region_id: int) -> bool:
        nodes, regions = self.analysis.region_ready_deps[region_id]
        done = self.done_nodes
        for target in nodes:
            if target not in done:
                return False
        done = self.done_regions
        for target in regions:
            if target not in done:
                return False
        return True

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

    def _reg_id(self, carrier: str) -> int:
        got = self._regs.get(carrier)
        if got is None:
            got = self._regs[carrier] = self.binding.reg_of(carrier).id
        return got

    def _try_place(self, cursor: _Cursor, node_id: int) -> bool:
        facts = self._facts[node_id]
        fu_id, in_mux = self._units[node_id]
        state = cursor.state
        occupancy = _NO_OCCUPANCY if state is None else \
            self._occupancy.get(state.id, _NO_OCCUPANCY)
        placed_here = occupancy.ends

        array = facts.mem
        if array is not None:
            port_of = self.binding.mems[array].port_of
            port = port_of[node_id]
            for other in occupancy.mems.get(array, ()):
                # Gatesim executes every op of a visited state, so a store
                # may never share a state with another access of its array
                # -- even a mutually exclusive one would double-commit.
                if facts.is_store or self._facts[other].is_store:
                    return False
                # One address bus per port: two loads share a state only on
                # different ports (exclusivity cannot split a bus).
                if port_of[other] == port:
                    return False

        if fu_id is not None:
            for other in occupancy.fus.get(fu_id, ()):
                if not self._exclusive(self.cdfg, other, node_id):
                    return False
        reg = None
        if facts.carrier is not None:
            # Register-granular write conflict: carriers sharing a register
            # may not commit in the same state (unless mutually exclusive).
            reg = self._reg_id(facts.carrier)
            for other in occupancy.regs.get(reg, ()):
                if not self._exclusive(self.cdfg, other, node_id):
                    return False
        # A carried read samples its variable's register; the register only
        # commits the entry value at the end of the init writer's state, so
        # the read may not share that state (caught by gatesim otherwise).
        for loop, init_src in facts.carried_inits:
            if loop not in self._kernel_ctx and init_src in placed_here:
                return False

        start = 0.0
        for src in facts.srcs:
            end = placed_here.get(src)
            if end is not None and end > start:
                start = end
        base = self.delays[node_id]
        if base > 0.0 and start > 0.0:
            base *= 1.0 + CHAIN_OVERHEAD
        end = start + base + in_mux + facts.out_mux
        need = max(1, math.ceil(end / self._clock_ns - 1e-9))
        if state is None:
            state = self._materialize(cursor)
        elif state.ops and need > state.duration:
            # Would extend the state's cycle window: postpone to a fresh
            # state (which accepts any op, multi-cycling if necessary).
            return False
        if need > state.duration:
            state.duration = need
        state.ops.append(ScheduledOp(node_id, fu_id, start, end))
        occupancy = self._occupancy.get(state.id)
        if occupancy is None:
            occupancy = self._occupancy[state.id] = _Occupancy()
        occupancy.ends[node_id] = end
        if fu_id is not None:
            occupancy.fus.setdefault(fu_id, []).append(node_id)
        if reg is not None:
            occupancy.regs.setdefault(reg, []).append(node_id)
        if array is not None:
            occupancy.mems.setdefault(array, []).append(node_id)
        self.done_nodes.add(node_id)
        return True

    # ------------------------------------------------------------ task pools

    def _block_tasks(self, block_id: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(ops, regions) task pool of a block — pure CDFG structure,
        memoized per graph."""
        cache = self.analysis.block_tasks
        tasks = cache.get(block_id)
        if tasks is None:
            flat = _collect_block_tasks(self.cdfg, self.cdfg.block(block_id))
            tasks = cache[block_id] = (
                tuple(n for kind, n in flat if kind == "op"),
                tuple(r for kind, r in flat if kind == "region"))
        return tasks

    def _region_task_nodes(self, region_id: int) -> frozenset:
        """All schedulable nodes in a region subtree (for done-masking)."""
        cache = self.analysis.region_task_nodes
        nodes = cache.get(region_id)
        if nodes is None:
            nodes = cache[region_id] = frozenset(
                region_nodes(self.cdfg, region_id, recursive=True))
        return nodes

    def _loop_mask(self, loop: LoopRegion) -> tuple[frozenset, frozenset]:
        """(nodes, conditional/loop regions) a loop's iteration re-runs:
        its test and body ops, and the regions nested in its body."""
        cache = self.analysis.loop_masks
        got = cache.get(loop.id)
        if got is None:
            cdfg = self.cdfg
            got = cache[loop.id] = (
                self._region_task_nodes(loop.test_block)
                | self._region_task_nodes(loop.body_block),
                frozenset(rid for rid in region_subtree(cdfg, loop.body_block)
                          if isinstance(cdfg.region(rid), (IfRegion, LoopRegion))))
        return got

    def _kernel_tasks(self, members: list[LoopRegion]) -> tuple:
        """(ops, regions, masked nodes, masked regions) of a kernel that
        runs ``members``' bodies and next tests together, memoized per
        graph."""
        cache = self.analysis.kernel_tasks
        key = tuple(loop.id for loop in members)
        got = cache.get(key)
        if got is None:
            ops: list[int] = []
            regions: list[int] = []
            mask_nodes: set[int] = set()
            mask_regions: set[int] = set()
            for loop in members:
                for block in (loop.body_block, loop.test_block):
                    block_ops, block_regions = self._block_tasks(block)
                    ops.extend(block_ops)
                    regions.extend(block_regions)
                nodes, loop_regions = self._loop_mask(loop)
                mask_nodes |= nodes
                mask_regions |= loop_regions
            got = cache[key] = (tuple(ops), tuple(regions),
                                frozenset(mask_nodes), frozenset(mask_regions))
        return got

    # ------------------------------------------------------------- main loop

    def run(self) -> STG:
        stg = self.stg
        start = stg.new_state()
        stg.start = start.id
        cursor = _Cursor()
        cursor.state = start
        cursor, _ = self._schedule_tasks(
            *self._block_tasks(self.cdfg.root_region), cursor)
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

    def _schedule_tasks(self, ops, regions, cursor: _Cursor,
                        optionals: list[int] = ()) -> tuple[_Cursor, list[int]]:
        """Drain the tasks ``ops`` and ``regions`` (required); place
        ``optionals`` opportunistically.

        Returns the final open cursor and the optionals actually placed.
        """
        pending_ops = list(ops)
        pending_regions = list(regions)
        optional_pool = [n for n in optionals if n not in self.done_nodes]
        placed_optionals: list[int] = []
        priority = self._priority
        dependents = self.analysis.dependents
        op_ready = self._op_ready

        # Readiness is monotone within one invocation: the done sets only
        # net-grow between the points this loop observes them (nested arm
        # or kernel scheduling shrinks them temporarily, but restores a
        # superset before returning).  Once ready, always ready — so a
        # positive answer is memoized and never re-derived.
        ready: set[int] = set()
        # The pending ops not yet ready, each mapped to whether it is
        # required.  A placement only adds its own node to the done set,
        # so only that node's dependents can leave this map; entering a
        # region changes the done sets wholesale and rebuilds it.
        waiting: dict[int, bool] | None = None

        while pending_ops or pending_regions:
            if waiting is None:
                waiting = {}
                required, optional = [], []
                for pool, heap, is_required in (
                        (pending_ops, required, True),
                        (optional_pool, optional, False)):
                    for n in pool:
                        if n in ready or op_ready(n):
                            ready.add(n)
                            heap.append(priority[n])
                        else:
                            waiting[n] = is_required

            # 1. pack ready ops into the open state: highest (-height,
            # node) first, required before optional.  Placement failure is
            # permanent while the open state lasts: occupancy, register
            # writes and chained starts only grow, and the state's cycle
            # window is fixed once it holds an op — so a node that failed
            # to place waits in ``failed`` for the next state.  Every ready
            # pending op either places or fails, so the failures are the
            # next state's ready ops.
            heapq.heapify(required)
            heapq.heapify(optional)
            failed: tuple[list, list] = ([], [])
            while required or optional:
                heap = required or optional
                entry = heapq.heappop(heap)
                node_id = entry[1]
                if not self._try_place(cursor, node_id):
                    failed[heap is optional].append(entry)
                    continue
                if heap is required:
                    pending_ops.remove(node_id)
                else:
                    optional_pool.remove(node_id)
                    placed_optionals.append(node_id)
                if waiting:
                    for n in dependents.get(node_id, ()):
                        is_required = waiting.get(n)
                        if is_required is not None and op_ready(n):
                            ready.add(n)
                            del waiting[n]
                            heapq.heappush(required if is_required else optional,
                                           priority[n])
            required, optional = failed

            if not pending_ops and not pending_regions:
                break

            # 2. a ready region?
            ready_regions = [r for r in pending_regions if self._region_ready(r)] \
                if pending_regions else []
            ready_ops_exist = bool(required)

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
                waiting = None
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

        then_ops, then_regions = self._block_tasks(region.then_block)
        else_ops, else_regions = self._block_tasks(region.else_block)
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
            then_ops, then_regions, then_cursor, optionals=list(extra))
        # The done sets are rebound below, so the then arm's keep as is.
        then_done_nodes = self.done_nodes
        then_done_regions = self.done_regions

        # Else arm must mirror exactly the shared ops the then arm placed.
        self.done_nodes = snapshot_nodes | then_subtree
        self.done_regions = snapshot_regions
        else_cursor = _Cursor(sources=[(s, self._and_cond(c, cond, False))
                                       for s, c in fork_sources])
        else_cursor, _ = self._schedule_tasks(
            [*else_ops, *placed_shared], else_regions, else_cursor)

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

        test_ops: list[int] = []
        test_regions: list[int] = []
        for loop in loops:
            ops, regions = self._block_tasks(loop.test_block)
            test_ops.extend(ops)
            test_regions.extend(regions)

        if not hoist:
            if len(loops) != 1:
                raise ScheduleError("loop fusion requires loop-control hoisting")
            return self._schedule_loop_nonhoist(loops[0], cursor)

        # Prologue: iteration-0 tests, packed with surrounding ready ops.
        cursor, _ = self._schedule_tasks(test_ops, test_regions, cursor,
                                         optionals=list(extra))
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
            kernel_ops, kernel_regions, mask_nodes, mask_regions = \
                self._kernel_tasks(members)
            # Rebinding (not editing) the done sets leaves the saved ones
            # intact while the kernel runs.
            saved_nodes = self.done_nodes
            saved_regions = self.done_regions
            self.done_nodes = saved_nodes - mask_nodes
            self.done_regions = saved_regions - mask_regions

            body_cursor = _Cursor()
            body_cursor.state = kernel_entry[key]
            saved_ctx = self._kernel_ctx
            self._kernel_ctx = saved_ctx | {loop.id for loop in members}
            try:
                body_cursor, _ = self._schedule_tasks(
                    kernel_ops, kernel_regions, body_cursor)
            finally:
                self._kernel_ctx = saved_ctx
            end_state = self._materialize(body_cursor)

            self.done_nodes |= saved_nodes
            self.done_nodes |= mask_nodes
            self.done_regions |= saved_regions
            self.done_regions |= mask_regions

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

        test_cursor = _Cursor()
        test_cursor.state = test_entry

        mask_nodes, mask_regions = self._loop_mask(loop)
        saved_nodes = self.done_nodes
        saved_regions = self.done_regions
        self.done_nodes = saved_nodes - mask_nodes
        self.done_regions = saved_regions - mask_regions

        test_cursor, _ = self._schedule_tasks(
            *self._block_tasks(loop.test_block), test_cursor)
        test_end = self._materialize(test_cursor)

        body_ops, body_regions = self._block_tasks(loop.body_block)
        exit_cursor = _Cursor()
        exit_cursor.sources.append((test_end.id, frozenset({(loop.cond_node, False)})))
        if body_ops or body_regions:
            body_entry = self.stg.new_state()
            self.stg.add_transition(test_end.id, body_entry.id,
                                    frozenset({(loop.cond_node, True)}))
            body_cursor = _Cursor()
            body_cursor.state = body_entry
            body_cursor, _ = self._schedule_tasks(body_ops, body_regions,
                                                  body_cursor)
            body_end = self._materialize(body_cursor)
            self.stg.add_transition(body_end.id, test_entry.id)
        else:
            self.stg.add_transition(test_end.id, test_entry.id,
                                    frozenset({(loop.cond_node, True)}))

        self.done_nodes |= saved_nodes
        self.done_nodes |= mask_nodes
        self.done_regions |= saved_regions
        self.done_regions |= mask_regions
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
