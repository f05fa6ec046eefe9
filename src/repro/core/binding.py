"""Resource binding: operation -> functional unit, variable -> register.

The binding is the mutable half of an RT-level design point: the IMPACT
moves (Section 3.2) edit it — sharing merges FU instances or registers,
splitting separates them, module substitution swaps a unit's library
module.  The initial binding is the paper's starting point: a fully
parallel architecture with each operation on its own fastest-module unit
and each variable in its own register.

A move edits one or two instances of a copy of its design point's
binding, so :meth:`Binding.clone` is copy-on-write: the copy shares every
unit, register and RAM instance with its source, and an edit copies the
one instance it touches the first time either binding edits it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import BindingError
from repro.cdfg.graph import CDFG
from repro.cdfg.node import MEMORY_KINDS, OpKind
from repro.library.library import ModuleLibrary
from repro.library.memory import RamSpec, ram_access_delay, ram_spec
from repro.library.module import ModuleSpec, scale_delay


@dataclass
class FUInstance:
    """One functional-unit instance in the datapath."""

    id: int
    module: ModuleSpec
    ops: set[int] = field(default_factory=set)
    width: int = 1
    #: This unit's signature part, built on first use; a binding resets
    #: it whenever it edits the instance.
    _part: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)

    def kinds(self, cdfg: CDFG) -> frozenset[OpKind]:
        return frozenset(cdfg.node(op).kind for op in self.ops)

    def sig_part(self) -> tuple:
        """This unit's entry of :meth:`Binding.signature`."""
        if self._part is None:
            self._part = (self.id, self.module.name, self.width,
                          tuple(sorted(self.ops)))
        return self._part


@dataclass
class RegInstance:
    """One register in the datapath, holding one or more variables."""

    id: int
    width: int
    carriers: set[str] = field(default_factory=set)
    _part: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)

    def sig_part(self) -> tuple:
        """This register's entry of :meth:`Binding.signature`."""
        if self._part is None:
            self._part = (self.id, self.width, tuple(sorted(self.carriers)))
        return self._part


@dataclass
class MemInstance:
    """One RAM instance in the datapath, realizing one array.

    ``port_of`` assigns every LOAD/STORE node of the array to one of the
    RAM's access ports; the scheduler serializes accesses sharing a port,
    and the ``BindMemoryPort`` move re-balances that assignment.
    """

    name: str
    spec: RamSpec
    width: int
    depth: int
    port_of: dict[int, int] = field(default_factory=dict)
    _part: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)

    def access_delay(self) -> float:
        return ram_access_delay(self.spec, self.width, self.depth)

    def sig_part(self) -> tuple:
        """This RAM's entry of :meth:`Binding.signature`."""
        if self._part is None:
            self._part = (self.name, self.spec.name, self.width, self.depth,
                          tuple(sorted(self.port_of.items())))
        return self._part


def op_width(cdfg: CDFG, node_id: int) -> int:
    """Width a functional unit must have to execute a node: max of ports."""
    node = cdfg.node(node_id)
    width = node.width
    for edge in cdfg.in_edges(node_id):
        width = max(width, edge.width)
    return width


class Binding:
    """Mutable op->FU and variable->register assignment."""

    def __init__(self, cdfg: CDFG, library: ModuleLibrary):
        self.cdfg = cdfg
        self.library = library
        self.fus: dict[int, FUInstance] = {}
        self.op_to_fu: dict[int, int] = {}
        self.regs: dict[int, RegInstance] = {}
        self.carrier_to_reg: dict[str, int] = {}
        self.mems: dict[str, MemInstance] = {}
        self._next_fu = 0
        self._next_reg = 0
        # Keys of the instances this binding may edit in place: those it
        # created or copied since it last took part in a clone.  Any
        # other instance may be shared with another binding.
        self._owned_fus: set[int] = set()
        self._owned_regs: set[int] = set()
        self._owned_mems: set[str] = set()
        # The lazily computed content signature and delay table; every
        # mutating method clears this (all edits flow through them), so
        # each is computed at most once per binding state.
        self._sig_memo: dict[str, object] = {}

    # -- construction ----------------------------------------------------------

    @classmethod
    def initial_parallel(cls, cdfg: CDFG, library: ModuleLibrary) -> "Binding":
        """The paper's initial architecture: one fastest FU per op, one
        register per variable."""
        binding = cls(cdfg, library)
        for node in cdfg.fu_nodes():
            width = op_width(cdfg, node.id)
            module = library.fastest({node.kind}, width)
            binding._add_fu(module, {node.id})
        for var, (width, _signed) in sorted(cdfg.var_types.items()):
            binding._add_reg(width, {var})
        # Arrays start on dual-port RAMs with loads spread across both
        # ports (fully parallel, like the FU side); SubstituteRam trades
        # the second port away for area/power.  Stores all take port 0 —
        # a store can never share a state with another access anyway.
        for name, (width, _signed, size) in sorted(cdfg.array_types.items()):
            spec = ram_spec("ram_2p")
            mem = MemInstance(name=name, spec=spec, width=width, depth=size)
            next_load_port = 0
            for node in cdfg.mem_nodes():
                if node.mem != name:
                    continue
                if node.kind is OpKind.LOAD:
                    mem.port_of[node.id] = next_load_port
                    next_load_port = (next_load_port + 1) % spec.ports
                else:
                    mem.port_of[node.id] = 0
            binding.mems[name] = mem
            binding._owned_mems.add(name)
        return binding

    def _add_fu(self, module: ModuleSpec, ops: set[int]) -> FUInstance:
        self._sig_memo.clear()
        fu = FUInstance(id=self._next_fu, module=module, ops=set(ops))
        fu.width = max(op_width(self.cdfg, op) for op in ops)
        self._next_fu += 1
        self.fus[fu.id] = fu
        self._owned_fus.add(fu.id)
        for op in ops:
            self.op_to_fu[op] = fu.id
        return fu

    def _add_reg(self, width: int, carriers: set[str]) -> RegInstance:
        self._sig_memo.clear()
        reg = RegInstance(id=self._next_reg, width=width, carriers=set(carriers))
        self._next_reg += 1
        self.regs[reg.id] = reg
        self._owned_regs.add(reg.id)
        for carrier in carriers:
            self.carrier_to_reg[carrier] = reg.id
        return reg

    def clone(self) -> "Binding":
        """An independent copy that shares every instance with this one.

        Only the five maps are copied.  Both bindings give up ownership
        of every instance, so whichever of them edits an instance first
        edits its own copy and the other never sees the change.
        """
        other = Binding(self.cdfg, self.library)
        other._next_fu = self._next_fu
        other._next_reg = self._next_reg
        other.fus = dict(self.fus)
        other.op_to_fu = dict(self.op_to_fu)
        other.regs = dict(self.regs)
        other.carrier_to_reg = dict(self.carrier_to_reg)
        other.mems = dict(self.mems)
        self._owned_fus = set()
        self._owned_regs = set()
        self._owned_mems = set()
        return other

    def _own_fu(self, fu_id: int) -> FUInstance:
        """Unit ``fu_id`` ready for an in-place edit: copied first if
        another binding may share it, its signature part reset."""
        fu = self.fus[fu_id]
        if fu_id in self._owned_fus:
            fu._part = None
            return fu
        fu = self.fus[fu_id] = FUInstance(fu.id, fu.module, set(fu.ops),
                                          fu.width)
        self._owned_fus.add(fu_id)
        return fu

    def _own_reg(self, reg_id: int) -> RegInstance:
        """Register ``reg_id`` ready for an in-place edit (see
        :meth:`_own_fu`)."""
        reg = self.regs[reg_id]
        if reg_id in self._owned_regs:
            reg._part = None
            return reg
        reg = self.regs[reg_id] = RegInstance(reg.id, reg.width,
                                              set(reg.carriers))
        self._owned_regs.add(reg_id)
        return reg

    def _own_mem(self, array: str) -> MemInstance:
        """RAM of ``array`` ready for an in-place edit (see
        :meth:`_own_fu`)."""
        mem = self.mems[array]
        if array in self._owned_mems:
            mem._part = None
            return mem
        mem = self.mems[array] = MemInstance(mem.name, mem.spec, mem.width,
                                             mem.depth, dict(mem.port_of))
        self._owned_mems.add(array)
        return mem

    # -- queries -----------------------------------------------------------------

    def fu_of(self, node_id: int) -> FUInstance | None:
        fu_id = self.op_to_fu.get(node_id)
        return None if fu_id is None else self.fus[fu_id]

    def reg_of(self, carrier: str) -> RegInstance:
        try:
            return self.regs[self.carrier_to_reg[carrier]]
        except KeyError:
            raise BindingError(f"no register holds carrier {carrier!r}") from None

    def op_delay(self, node_id: int) -> float:
        """Combinational delay (ns) of one node at 5 V under this binding.

        Memoized per node in the binding's delay table, which every edit
        clears with the signature: critical-path timing asks for the
        same nodes again and again, and each miss re-scales a module
        delay.
        """
        table = self._sig_memo.get("delays")
        if table is None:
            table = self._sig_memo["delays"] = {}
        got = table.get(node_id)
        if got is None:
            got = table[node_id] = self._scaled_delay(node_id)
        return got

    def _scaled_delay(self, node_id: int) -> float:
        node = self.cdfg.node(node_id)
        if node.kind in MEMORY_KINDS:
            mem = self.mems.get(node.mem)
            if mem is None:
                raise BindingError(f"array {node.mem!r} has no RAM instance")
            return mem.access_delay()
        if not node.needs_fu:
            return 0.0
        fu = self.fu_of(node_id)
        if fu is None:
            raise BindingError(f"op {node.name} is not bound to any FU")
        return scale_delay(fu.module, fu.width)

    def signature(self) -> tuple:
        """Content signature of the resource constraints (hashable).

        Captures everything scheduling and architecture construction read
        from the binding: the op->unit partition with module and width per
        unit, and the variable->register partition — including instance
        ids, since they key datapath ports.  Two bindings with equal
        signatures yield identical schedules, architectures and merged
        traces for the same CDFG, options and trace store; the memo tables
        in :mod:`repro.core.cache` key on it.
        """
        got = self._sig_memo.get("full")
        if got is None:
            fus, regs, mems = self.fus, self.regs, self.mems
            got = self._sig_memo["full"] = (
                tuple(fus[i].sig_part() for i in sorted(fus)),
                tuple(regs[i].sig_part() for i in sorted(regs)),
                tuple(mems[name].sig_part() for name in sorted(mems)))
        return got

    def validate(self) -> None:
        """Every FU op must be bound to a module that implements it."""
        for node in self.cdfg.fu_nodes():
            fu = self.fu_of(node.id)
            if fu is None:
                raise BindingError(f"op {node.name} unbound")
            if not fu.module.implements(node.kind):
                raise BindingError(
                    f"op {node.name} ({node.kind.value}) bound to {fu.module.name} "
                    f"which does not implement it")
            if op_width(self.cdfg, node.id) > fu.width:
                raise BindingError(f"op {node.name} wider than its FU")
        for fu in self.fus.values():
            if not fu.ops:
                raise BindingError(f"FU {fu.id} ({fu.module.name}) has no ops")
            for op in fu.ops:
                if self.op_to_fu.get(op) != fu.id:
                    raise BindingError(f"op {op} back-reference mismatch on FU {fu.id}")
        for var in self.cdfg.var_types:
            if var not in self.carrier_to_reg:
                raise BindingError(f"variable {var!r} has no register")
        for name in self.cdfg.array_types:
            if name not in self.mems:
                raise BindingError(f"array {name!r} has no RAM instance")
        for node in self.cdfg.mem_nodes():
            mem = self.mems.get(node.mem)
            if mem is None:
                raise BindingError(f"array {node.mem!r} has no RAM instance")
            port = mem.port_of.get(node.id)
            if port is None:
                raise BindingError(
                    f"memory op {node.name} has no port on array {node.mem!r}")
            if not 0 <= port < mem.spec.ports:
                raise BindingError(
                    f"memory op {node.name} on port {port} but {mem.spec.name} "
                    f"has only {mem.spec.ports} port(s)")

    # -- moves (mechanics only; legality/cost handled by repro.core.moves) -------

    def merge_fus(self, keep: int, absorb: int, module: ModuleSpec | None = None) -> None:
        """Move every op of ``absorb`` onto ``keep`` (resource sharing)."""
        if keep == absorb:
            raise BindingError("cannot merge an FU with itself")
        self._sig_memo.clear()
        fu_keep = self._own_fu(keep)
        fu_absorb = self.fus.pop(absorb)
        self._owned_fus.discard(absorb)
        fu_keep.ops |= fu_absorb.ops
        for op in fu_absorb.ops:
            self.op_to_fu[op] = keep
        if module is not None:
            fu_keep.module = module
        fu_keep.width = max(op_width(self.cdfg, op) for op in fu_keep.ops)
        kinds = fu_keep.kinds(self.cdfg)
        if not fu_keep.module.implements_all(kinds):
            raise BindingError(
                f"module {fu_keep.module.name} cannot implement merged ops "
                f"{sorted(k.value for k in kinds)}")

    def split_fu(self, fu_id: int, ops_out: set[int]) -> FUInstance:
        """Give ``ops_out`` their own new FU of the same module type."""
        fu = self.fus[fu_id]
        if not ops_out or ops_out == fu.ops:
            raise BindingError("split must move a strict non-empty subset of ops")
        if not ops_out <= fu.ops:
            raise BindingError("split ops are not all on the source FU")
        self._sig_memo.clear()
        fu = self._own_fu(fu_id)
        fu.ops -= ops_out
        fu.width = max(op_width(self.cdfg, op) for op in fu.ops)
        return self._add_fu(fu.module, ops_out)

    def substitute_module(self, fu_id: int, module: ModuleSpec) -> None:
        """Swap an FU's library module (module selection, Section 3.2.2)."""
        fu = self.fus[fu_id]
        kinds = fu.kinds(self.cdfg)
        if not module.implements_all(kinds):
            raise BindingError(
                f"module {module.name} cannot implement {sorted(k.value for k in kinds)}")
        self._sig_memo.clear()
        self._own_fu(fu_id).module = module

    def merge_regs(self, keep: int, absorb: int) -> None:
        """Store ``absorb``'s variables in ``keep`` (register sharing)."""
        if keep == absorb:
            raise BindingError("cannot merge a register with itself")
        self._sig_memo.clear()
        reg_keep = self._own_reg(keep)
        reg_absorb = self.regs.pop(absorb)
        self._owned_regs.discard(absorb)
        reg_keep.carriers |= reg_absorb.carriers
        reg_keep.width = max(reg_keep.width, reg_absorb.width)
        for carrier in reg_absorb.carriers:
            self.carrier_to_reg[carrier] = keep

    def split_reg(self, reg_id: int, carriers_out: set[str]) -> RegInstance:
        """Give ``carriers_out`` their own new register."""
        reg = self.regs[reg_id]
        if not carriers_out or carriers_out == reg.carriers:
            raise BindingError("split must move a strict non-empty subset of carriers")
        if not carriers_out <= reg.carriers:
            raise BindingError("split carriers are not all in the source register")
        self._sig_memo.clear()
        reg = self._own_reg(reg_id)
        reg.carriers -= carriers_out
        reg.width = max(self.cdfg.var_types[c][0] for c in reg.carriers)
        width = max(self.cdfg.var_types[c][0] for c in carriers_out)
        return self._add_reg(width, carriers_out)

    def bind_mem_port(self, array: str, node_id: int, port: int) -> None:
        """Reassign one memory access to another port of its RAM."""
        mem = self.mems.get(array)
        if mem is None:
            raise BindingError(f"array {array!r} has no RAM instance")
        if node_id not in mem.port_of:
            raise BindingError(
                f"node {node_id} is not an access of array {array!r}")
        if not 0 <= port < mem.spec.ports:
            raise BindingError(
                f"port {port} out of range for {mem.spec.name} "
                f"({mem.spec.ports} port(s))")
        self._sig_memo.clear()
        self._own_mem(array).port_of[node_id] = port

    def substitute_ram(self, array: str, spec: RamSpec) -> None:
        """Swap an array's RAM organization (RAM-level module selection).

        Narrowing to fewer ports rebinds every access to port 0 — always
        legal, since the scheduler re-serializes port conflicts on the
        next reschedule.
        """
        mem = self.mems.get(array)
        if mem is None:
            raise BindingError(f"array {array!r} has no RAM instance")
        self._sig_memo.clear()
        mem = self._own_mem(array)
        mem.spec = spec
        for node_id, port in mem.port_of.items():
            if port >= spec.ports:
                mem.port_of[node_id] = 0

    def summary(self) -> dict[str, int]:
        return {
            "fus": len(self.fus),
            "registers": len(self.regs),
            "memories": len(self.mems),
            "bound_ops": len(self.op_to_fu),
        }
