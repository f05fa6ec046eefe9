"""Architecture construction: (CDFG, Binding, STG) -> Architecture.

Resolves, for every operation execution (op, state), where each input
physically comes from — a chained unit output, a register, a constant — and
accumulates the multiplexer network from the distinct sources per port.
Temporary registers are materialized only for values that actually cross a
state boundary (or steer the controller); everything else is wiring.

:func:`derive_architecture` is the incremental variant for design points
derived without re-scheduling: ports untouched by the move's
:class:`~repro.core.delta.DirtySet` are shared (as objects) from the
parent architecture, per-edge source resolution runs only for dirty
ports, and the parent's cached state critical paths seed the child's
timing memo for every state no dirty port drives.  The wiring loops
still walk every (state, op) pair — that is what reproduces the parent's
port *insertion order* exactly, so iteration-order-sensitive consumers
(move generation, accumulation order in the power estimator) see the
same sequence the full build would have produced.
"""

from __future__ import annotations

from repro.errors import ArchitectureError
from repro.cdfg.analysis import condition_nodes, loop_test_nodes
from repro.cdfg.edge import Edge
from repro.cdfg.graph import CDFG
from repro.cdfg.node import OpKind
from repro.core.binding import Binding
from repro.core.delta import DirtySet, affected_ports, port_key_dirty
from repro.core.profile import PROFILER
from repro.library.modules_data import DEFAULT_CLOCK_NS
from repro.rtl.architecture import Architecture
from repro.rtl.controller import ControllerModel
from repro.rtl.datapath import Datapath, PortKey, SourceKey
from repro.sched.stg import STG
from repro.utils.bitwidth import mask_for_width, wrap_to_width


def build_architecture(cdfg: CDFG, binding: Binding, stg: STG,
                       clock_ns: float = DEFAULT_CLOCK_NS) -> Architecture:
    """Build and structurally validate the RT-level architecture."""
    with PROFILER.stage("arch_build"):
        builder = _ArchBuilder(cdfg, binding, stg, clock_ns)
        return builder.run()


def derive_architecture(parent: Architecture, binding: Binding,
                        dirty: DirtySet) -> tuple[Architecture, frozenset[PortKey]]:
    """Derive a sibling architecture from ``parent`` under a new binding.

    ``parent`` and the derived architecture share the STG (the move did
    not re-schedule), so the datapath differs only at the ports the
    dirty set reaches.  Returns the architecture and the set of port
    keys that were actually re-wired (a superset of the ports whose
    content differs; everything else is the parent's object).  The
    result is bit-identical to ``build_architecture`` on the same inputs
    — the equivalence suite enforces this.
    """
    with PROFILER.stage("arch_build", incremental=True):
        builder = _ArchBuilder(parent.cdfg, binding, parent.stg,
                               parent.clock_ns, parent=parent, dirty=dirty)
        return builder.run(), frozenset(builder.rebuilt)


def edge_source(arch: Architecture, edge: Edge, state_id: int) -> SourceKey:
    """Physical signal driving ``edge`` for an execution in ``state_id``.

    The same resolution the builder used; exposed for the bit-level
    simulator, which must read its operand values from the same places the
    hardware would.

    Carried edges normally read the variable's register (the previous
    iteration's value).  The one exception is a loop's own test inside a
    kernel state: the next-iteration test reads *this* iteration's update,
    so when the producer sits in the same state the value is chained.
    """
    cdfg = arch.cdfg
    src = cdfg.node(edge.src)
    if src.kind is OpKind.CONST:
        return ("const", src.value)
    if edge.carried:
        if (edge.dst in loop_test_nodes(cdfg, edge.loop)
                and edge.src in arch.stg.state_nodes(state_id)):
            return producer_signal(arch, edge.src, state_id)
        return ("reg", arch.binding.reg_of(src.carrier).id)
    if src.kind in (OpKind.SELECT, OpKind.ENDLOOP, OpKind.INPUT):
        return ("reg", arch.binding.reg_of(src.carrier).id)
    if edge.src in arch.stg.state_nodes(state_id):
        return producer_signal(arch, edge.src, state_id)
    if src.carrier is not None:
        return ("reg", arch.binding.reg_of(src.carrier).id)
    if edge.src not in arch.datapath.tmp_regs:
        raise ArchitectureError(
            f"temporary {src.name} crosses states but has no register")
    return ("tmp", edge.src)


def copy_is_transparent(src_width: int, src_signed: bool,
                        dst_width: int, dst_signed: bool) -> bool:
    """True when re-typing (src_width, src_signed) to (dst_width,
    dst_signed) is the identity on every representable source value —
    i.e. a chained COPY between those types is free wiring.

    Narrowing, or a signed source viewed unsigned, changes values (e.g.
    ``int6 -1`` viewed as ``uint4`` is 15) and must materialize a wrap.
    """
    if src_signed == dst_signed:
        return dst_width >= src_width
    if not src_signed and dst_signed:
        # An unsigned value needs one extra bit to stay itself signed.
        return dst_width > src_width
    return False


def producer_signal(arch: Architecture, node_id: int, state_id: int) -> SourceKey:
    """The signal a producer presents inside a state (chained view).

    A COPY chains straight through to its own source only when the
    re-typing it performs is value-preserving (:func:`copy_is_transparent`);
    otherwise the COPY's wrap is real hardware and the consumer reads the
    COPY's own wire (``("wire", node_id)``), which the HDL backend emits
    and gatesim computes in chain order.
    """
    node = arch.cdfg.node(node_id)
    if node.needs_fu:
        return ("fu", arch.binding.fu_of(node_id).id)
    if node.kind is OpKind.COPY:
        edge = arch.cdfg.in_edge(node_id, 0)
        source = edge_source(arch, edge, state_id)
        if source[0] == "const":
            if node.signed:
                value = wrap_to_width(source[1], node.width)
            else:
                value = source[1] & mask_for_width(node.width)
            return ("const", value)
        src = arch.cdfg.node(edge.src)
        if copy_is_transparent(src.width, src.signed, node.width, node.signed):
            return source
        return ("wire", node_id)
    return ("wire", node_id)


class _ArchBuilder:
    def __init__(self, cdfg: CDFG, binding: Binding, stg: STG, clock_ns: float,
                 parent: Architecture | None = None,
                 dirty: DirtySet | None = None):
        self.cdfg = cdfg
        self.binding = binding
        self.stg = stg
        self.clock_ns = clock_ns
        self.datapath = Datapath()
        # Incremental derivation state (None for a full build).
        self.parent = parent
        self.dirty = dirty
        self.rebuilt: set[PortKey] = set()
        self._dirty_states: set[int] = set()
        self._dirty_ports: frozenset[PortKey] = frozenset()
        #: Per-key dirty decision, memoized: the dirty set is fixed for
        #: the build, and every key recurs once per driving (state, op).
        self._dirty_memo: dict[PortKey, bool] = {}
        if parent is not None:
            self._dirty_ports = affected_ports(parent, dirty)

    def run(self) -> Architecture:
        self.arch = Architecture(
            cdfg=self.cdfg,
            binding=self.binding,
            stg=self.stg,
            datapath=self.datapath,
            controller=ControllerModel(1, 0, 0, 0),  # placeholder until wired
            clock_ns=self.clock_ns,
        )
        if self.parent is None:
            self._materialize_tmp_regs()
        else:
            # Temporaries depend only on (CDFG, STG), both shared.
            self.datapath.tmp_regs = dict(self.parent.datapath.tmp_regs)
        self._wire_fu_inputs()
        self._wire_memory_inputs()
        self._wire_register_inputs()
        self._finalize_trees()
        self.arch.controller = self._controller_model()
        if self.parent is not None:
            # Critical paths of states no dirty port drives are the
            # parent's (same ops, delays and trees — shared objects).
            self.arch._state_paths = {
                sid: path for sid, path in dict(self.parent._state_paths).items()
                if sid not in self._dirty_states
            }
        # Timing closure: real mux depths may differ from the scheduler's
        # estimates; cycle counts come from the real critical paths.
        self.arch.normalize_durations()
        return self.arch

    def _finalize_trees(self) -> None:
        if self.parent is None:
            self.datapath.finalize_trees()
            return
        for key in self.rebuilt:
            self.datapath.ports[key].build_default_tree()

    def _port_dirty(self, key: PortKey) -> bool:
        got = self._dirty_memo.get(key)
        if got is None:
            got = key in self._dirty_ports or port_key_dirty(key, self.dirty)
            self._dirty_memo[key] = got
        return got

    def _wire(self, key: PortKey, width: int, consumer: int, state_id: int,
              source: SourceKey) -> None:
        """Route one already-resolved driver on a derive's dirty path."""
        self.datapath.add_driver(key, width, consumer, state_id, source)
        self.rebuilt.add(key)
        self._dirty_states.add(state_id)

    def _share(self, key: PortKey) -> None:
        """Adopt the parent's port wholesale on first encounter (the
        dict-insertion position matches the full build's)."""
        if key not in self.datapath.ports:
            self.datapath.ports[key] = self.parent.datapath.ports[key]

    # -- temporaries ------------------------------------------------------------

    def _materialize_tmp_regs(self) -> None:
        """A temporary needs a register iff some consumer reads it in a
        different state than it was produced, or the controller samples it."""
        cdfg = self.cdfg
        cond_nodes = set(condition_nodes(cdfg))
        for node in cdfg.op_nodes():
            if node.carrier is not None:
                continue
            needed = node.id in cond_nodes
            if not needed:
                producer_states = set(self.stg.states_of_node(node.id))
                for edge in cdfg.out_edges(node.id):
                    if edge.is_control:
                        continue
                    consumer = cdfg.node(edge.dst)
                    if not consumer.is_schedulable:
                        needed = True  # read by an OUTPUT boundary
                        break
                    consumer_states = set(self.stg.states_of_node(edge.dst))
                    if not consumer_states <= producer_states:
                        needed = True
                        break
            if needed:
                self.datapath.tmp_regs[node.id] = node.width

    # -- source resolution ---------------------------------------------------------

    def _resolve_edge(self, edge: Edge, state_id: int) -> SourceKey:
        """The physical signal driving ``edge`` for an execution in a state."""
        return edge_source(self.arch, edge, state_id)

    def _producer_signal(self, node_id: int, state_id: int) -> SourceKey:
        """The signal a chained producer presents inside a state."""
        return producer_signal(self.arch, node_id, state_id)

    # -- wiring ------------------------------------------------------------------

    def _wire_fu_inputs(self) -> None:
        cdfg = self.cdfg
        fu_of = self.binding.fu_of
        add_driver = self.datapath.add_driver
        full = self.parent is None
        for state in self.stg.states.values():
            sid = state.id
            for op in state.ops:
                node = cdfg.node(op.node)
                if not node.needs_fu:
                    continue
                fu_id = fu_of(op.node).id
                for k, edge in enumerate(cdfg.in_edges(op.node)):
                    key = ("fu_in", fu_id, k)
                    if full:
                        add_driver(key, edge.width, op.node, sid,
                                   self._resolve_edge(edge, sid))
                    elif self._port_dirty(key):
                        self._wire(key, edge.width, op.node, sid,
                                   self._resolve_edge(edge, sid))
                    else:
                        self._share(key)

    def _wire_memory_inputs(self) -> None:
        """Route address (and store-data) buses onto each RAM port.

        Accesses sharing a (array, port) pair across states mux onto one
        address bus, exactly like operations sharing an FU input port.
        """
        cdfg = self.cdfg
        mems = self.binding.mems
        add_driver = self.datapath.add_driver
        full = self.parent is None
        for state in self.stg.states.values():
            sid = state.id
            for op in state.ops:
                node = cdfg.node(op.node)
                if node.mem is None:
                    continue
                mem = mems[node.mem]
                port = mem.port_of[op.node]
                addr_bits = max(1, (mem.depth - 1).bit_length())
                targets = [(("mem_addr", node.mem, port), addr_bits,
                            cdfg.in_edge(op.node, 0))]
                if node.kind is OpKind.STORE:
                    targets.append((("mem_din", node.mem, port), mem.width,
                                    cdfg.in_edge(op.node, 1)))
                for key, width, edge in targets:
                    if full:
                        add_driver(key, width, op.node, sid,
                                   self._resolve_edge(edge, sid))
                    elif self._port_dirty(key):
                        self._wire(key, width, op.node, sid,
                                   self._resolve_edge(edge, sid))
                    else:
                        self._share(key)

    def _wire_register_inputs(self) -> None:
        cdfg = self.cdfg
        reg_of = self.binding.reg_of
        add_driver = self.datapath.add_driver
        tmp_regs = self.datapath.tmp_regs
        full = self.parent is None
        for state in self.stg.states.values():
            sid = state.id
            for op in state.ops:
                node = cdfg.node(op.node)
                if node.carrier is not None:
                    reg = reg_of(node.carrier)
                    key = ("reg_in", reg.id)
                    width = reg.width
                elif op.node in tmp_regs:
                    key = ("tmp_in", op.node)
                    width = node.width
                else:
                    continue
                if full:
                    add_driver(key, width, op.node, sid,
                               self._producer_signal(op.node, sid))
                elif self._port_dirty(key):
                    self._wire(key, width, op.node, sid,
                               self._producer_signal(op.node, sid))
                else:
                    self._share(key)
        # Primary inputs load their variable registers at pass start.
        start = self.stg.start
        for node_id in cdfg.input_nodes:
            node = cdfg.node(node_id)
            reg = reg_of(node.carrier)
            key = ("reg_in", reg.id)
            if full:
                add_driver(key, reg.width, node_id, start, ("pin", node.carrier))
            elif self._port_dirty(key):
                self._wire(key, reg.width, node_id, start, ("pin", node.carrier))
            else:
                self._share(key)

    # -- controller -------------------------------------------------------------------

    def _controller_model(self) -> ControllerModel:
        select_lines = 0
        for port in self.datapath.ports.values():
            if port.needs_mux():
                select_lines += max(1, (len(port.sources) - 1).bit_length())
        write_enables = len(self.binding.regs) + len(self.datapath.tmp_regs)
        write_enables += sum(m.spec.ports for m in self.binding.mems.values())
        fu_enables = len(self.binding.fus)
        cond_inputs = len(self.stg.condition_inputs())
        return ControllerModel(
            n_states=self.stg.n_states,
            n_transitions=len(self.stg.transitions),
            n_condition_inputs=cond_inputs,
            n_outputs=select_lines + write_enables + fu_enables,
        )
