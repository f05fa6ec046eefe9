"""The IMPACT move set (Section 3.2).

Every move is a small immutable object with a signature (for tabu lists), a
``needs_reschedule`` property, and ``apply(design) -> DesignPoint``.  Moves
never mutate their input design point; application clones the binding.

Each move also declares its **dirty set** — :meth:`Move.affected` returns
the :class:`~repro.core.delta.DirtySet` of functional units, registers and
multiplexer ports the move invalidates — and passes it into the
derivation, which is what lets the evaluation pipeline patch the parent's
architecture, merged traces and power estimate instead of recomputing
them.  Rescheduling moves declare a full dirty set and take the full
evaluation path.

========================= ============================ =============
move                      paper section                re-schedule?
========================= ============================ =============
ShareFU                   3.2.3 resource sharing       yes
SplitFU                   3.2.3 resource splitting     no
SubstituteModule          3.2.2 module selection       only on a
                                                       timing violation
ShareRegisters            3.2.3 (registers)            no
SplitRegister             3.2.3 (registers)            no
RestructureMux            3.2.1 mux restructuring      no
BindMemoryPort            3.2.3 (RAM ports)            yes
SubstituteRam             3.2.2 (RAM organization)     yes
========================= ============================ =============

The two memory moves extend the paper's move vocabulary to the RAM
instances arrays are bound to: ``BindMemoryPort`` re-balances accesses
across the ports of a multi-port RAM (more same-state load parallelism,
or fewer address-bus muxes), and ``SubstituteRam`` swaps the RAM
organization the way ``SubstituteModule`` swaps an FU's module —
trading the dual-port RAM's area and capacitance for the single-port
RAM's serialized accesses.  Both always re-schedule: port assignment
feeds the scheduler's same-state conflict checks, and the organization
sets the access delay.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BindingError, ReproError
from repro.cdfg.node import OpKind
from repro.core.delta import DirtySet
from repro.core.design import DesignPoint
from repro.core.liveness import carriers_interfere
from repro.library.module import scale_area, scale_delay


class Move:
    """Base class; subclasses define signature(), affected() and apply()."""

    def signature(self) -> tuple:
        raise NotImplementedError

    def affected(self, design: DesignPoint) -> DirtySet:
        """What this move invalidates when applied at ``design``.

        Conservative by construction: every unit the move creates,
        deletes or edits — the incremental evaluation layer recomputes
        exactly this set and shares the rest with the parent point.
        ``apply()`` passes this same declaration into the derivation, so
        there is a single source of truth per move.  The one exception
        is :class:`SubstituteModule`, whose application *escalates* to a
        full reschedule when the slower module breaks a cycle window —
        the declaration here describes the non-escalated application.
        """
        raise NotImplementedError

    def apply(self, design: DesignPoint) -> DesignPoint:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.signature()[1:]}>"


@dataclass(frozen=True)
class ShareFU(Move):
    """Merge two functional units (operations share one unit)."""

    keep: int
    absorb: int
    module_name: str

    def signature(self) -> tuple:
        return ("share_fu", self.keep, self.absorb, self.module_name)

    def affected(self, design: DesignPoint) -> DirtySet:
        # Re-schedules: every port and lifetime may move.
        return DirtySet.full()

    def apply(self, design: DesignPoint) -> DesignPoint:
        binding = design.binding.clone()
        module = design.library.get(self.module_name)
        binding.merge_fus(self.keep, self.absorb, module)
        return design.with_binding(binding, reschedule=True,
                                   dirty=self.affected(design))


@dataclass(frozen=True)
class SplitFU(Move):
    """Give one operation of a shared unit its own new unit."""

    fu: int
    op: int

    def signature(self) -> tuple:
        return ("split_fu", self.fu, self.op)

    def affected(self, design: DesignPoint) -> DirtySet:
        return DirtySet.for_fus(self.fu, design.binding._next_fu)

    def apply(self, design: DesignPoint) -> DesignPoint:
        dirty = self.affected(design)
        binding = design.binding.clone()
        new_fu = binding.split_fu(self.fu, {self.op})
        assert new_fu.id in dirty.fu_ids  # the declaration predicted the id
        # The schedule stays legal: the new unit performs the op in the
        # same states the old one did (the assignment set is a superset).
        return design.with_binding(binding, reschedule=False, dirty=dirty)


@dataclass(frozen=True)
class SubstituteModule(Move):
    """Swap a unit's library module (e.g. array -> Wallace multiplier)."""

    fu: int
    module_name: str

    def signature(self) -> tuple:
        return ("substitute", self.fu, self.module_name)

    def affected(self, design: DesignPoint) -> DirtySet:
        return DirtySet.for_fus(self.fu)

    def apply(self, design: DesignPoint) -> DesignPoint:
        binding = design.binding.clone()
        module = design.library.get(self.module_name)
        old_delay = scale_delay(binding.fus[self.fu].module, binding.fus[self.fu].width)
        binding.substitute_module(self.fu, module)
        new_delay = scale_delay(module, binding.fus[self.fu].width)
        candidate = design.with_binding(binding, reschedule=False,
                                        dirty=self.affected(design))
        if new_delay > old_delay and candidate.arch.check_timing():
            # Slower module broke a state's cycle window: re-schedule
            # (the paper re-schedules exactly on cycle-time violations).
            candidate = design.with_binding(
                binding, reschedule=True,
                dirty=DirtySet.full())
        return candidate


@dataclass(frozen=True)
class ShareRegisters(Move):
    """Store two variables in one register (lifetimes must not overlap)."""

    keep: int
    absorb: int

    def signature(self) -> tuple:
        return ("share_reg", self.keep, self.absorb)

    def affected(self, design: DesignPoint) -> DirtySet:
        return DirtySet.for_regs(self.keep, self.absorb)

    def apply(self, design: DesignPoint) -> DesignPoint:
        # Memoized on the design point: every register-sharing candidate
        # at one search depth shares a single liveness fixpoint.
        liveness = design.liveness()
        keep_carriers = design.binding.regs[self.keep].carriers
        absorb_carriers = design.binding.regs[self.absorb].carriers
        # A register holds one typed view in the emitted RTL: merging a
        # signed and an unsigned carrier would produce a design the HDL
        # backend cannot lower, so it is illegal like an interference.
        var_types = design.cdfg.var_types
        signs = {var_types[c][1] for c in keep_carriers}
        signs |= {var_types[c][1] for c in absorb_carriers}
        if len(signs) > 1:
            raise BindingError(
                f"registers {self.keep}/{self.absorb}: carriers mix signed "
                f"and unsigned views; not representable as one RTL register")
        for a in keep_carriers:
            for b in absorb_carriers:
                if carriers_interfere(liveness, a, b):
                    raise BindingError(
                        f"registers {self.keep}/{self.absorb}: carriers {a!r} and "
                        f"{b!r} are simultaneously alive")
        binding = design.binding.clone()
        binding.merge_regs(self.keep, self.absorb)
        return design.with_binding(binding, reschedule=False,
                                   dirty=self.affected(design))


@dataclass(frozen=True)
class SplitRegister(Move):
    """Give one variable of a shared register its own register."""

    reg: int
    carrier: str

    def signature(self) -> tuple:
        return ("split_reg", self.reg, self.carrier)

    def affected(self, design: DesignPoint) -> DirtySet:
        return DirtySet.for_regs(self.reg, design.binding._next_reg)

    def apply(self, design: DesignPoint) -> DesignPoint:
        dirty = self.affected(design)
        binding = design.binding.clone()
        new_reg = binding.split_reg(self.reg, {self.carrier})
        assert new_reg.id in dirty.reg_ids  # the declaration predicted the id
        return design.with_binding(binding, reschedule=False, dirty=dirty)


@dataclass(frozen=True)
class BindMemoryPort(Move):
    """Reassign one array access to another port of its RAM."""

    array: str
    node: int
    port: int

    def signature(self) -> tuple:
        return ("bind_mem_port", self.array, self.node, self.port)

    def affected(self, design: DesignPoint) -> DirtySet:
        return DirtySet.full()

    def apply(self, design: DesignPoint) -> DesignPoint:
        binding = design.binding.clone()
        binding.bind_mem_port(self.array, self.node, self.port)
        return design.with_binding(binding, reschedule=True,
                                   dirty=self.affected(design))


@dataclass(frozen=True)
class SubstituteRam(Move):
    """Swap an array's RAM organization (single- vs dual-port)."""

    array: str
    spec_name: str

    def signature(self) -> tuple:
        return ("substitute_ram", self.array, self.spec_name)

    def affected(self, design: DesignPoint) -> DirtySet:
        return DirtySet.full()

    def apply(self, design: DesignPoint) -> DesignPoint:
        from repro.library.memory import ram_spec

        binding = design.binding.clone()
        binding.substitute_ram(self.array, ram_spec(self.spec_name))
        return design.with_binding(binding, reschedule=True,
                                   dirty=self.affected(design))


@dataclass(frozen=True)
class RestructureMux(Move):
    """Huffman-restructure one multiplexer tree (Figure 12)."""

    port_key: tuple

    def signature(self) -> tuple:
        return ("restructure_mux", self.port_key)

    def affected(self, design: DesignPoint) -> DirtySet:
        return DirtySet.for_ports(self.port_key)

    def apply(self, design: DesignPoint) -> DesignPoint:
        if self.port_key in design.tree_policy:
            raise ReproError(f"port {self.port_key!r} already restructured")
        return design.with_tree_policy(self.port_key)


def generate_moves(design: DesignPoint) -> list[Move]:
    """All applicable moves at a design point (legality pre-filtered
    cheaply; expensive checks happen at apply time)."""
    moves: list[Move] = []
    cdfg = design.cdfg
    binding = design.binding
    library = design.library

    fu_ids = sorted(binding.fus)
    kind_sets = {fu_id: binding.fus[fu_id].kinds(cdfg) for fu_id in fu_ids}
    for i, a in enumerate(fu_ids):
        for b in fu_ids[i + 1:]:
            kinds = kind_sets[a] | kind_sets[b]
            width = max(binding.fus[a].width, binding.fus[b].width)
            candidates = library.candidates(kinds)
            if not candidates:
                continue
            keep_module = binding.fus[a].module
            if not keep_module.implements_all(kinds):
                keep_module = min(candidates, key=lambda m: scale_area(m, width))
            moves.append(ShareFU(a, b, keep_module.name))

    for fu_id, fu in binding.fus.items():
        if len(fu.ops) >= 2:
            for op in sorted(fu.ops):
                moves.append(SplitFU(fu_id, op))
        kinds = kind_sets[fu_id]
        for alt in library.alternatives(fu.module, kinds):
            moves.append(SubstituteModule(fu_id, alt.name))

    reg_ids = sorted(binding.regs)
    for i, a in enumerate(reg_ids):
        for b in reg_ids[i + 1:]:
            moves.append(ShareRegisters(a, b))
    for reg_id, reg in binding.regs.items():
        if len(reg.carriers) >= 2:
            for carrier in sorted(reg.carriers):
                moves.append(SplitRegister(reg_id, carrier))

    for port in design.arch.datapath.mux_ports():
        if port.n_sources() >= 3 and port.key not in design.tree_policy:
            moves.append(RestructureMux(port.key))

    from repro.library.memory import RAM_SPECS

    for name in sorted(binding.mems):
        mem = binding.mems[name]
        for spec in RAM_SPECS:
            if spec.name != mem.spec.name:
                moves.append(SubstituteRam(name, spec.name))
        if mem.spec.ports > 1:
            # Only loads are worth rebalancing: a store never shares a
            # state with another access, so its port never constrains.
            for node_id in sorted(mem.port_of):
                if cdfg.node(node_id).kind is not OpKind.LOAD:
                    continue
                for port in range(mem.spec.ports):
                    if port != mem.port_of[node_id]:
                        moves.append(BindMemoryPort(name, node_id, port))

    return moves
