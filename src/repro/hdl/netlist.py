"""Word-level netlist IR shared by the Verilog printer and the netlist
simulator.

The IR is deliberately tiny: every combinational signal (:class:`Wire`) is
conceptually a *signed 64-bit* value, registers store raw bit patterns at
their natural width, and the only expression forms are constants,
references, word-level operators, 2:1 multiplexers, explicit wrap/extend
nodes and a ``case``-on-signal selector.  Lowering
(:mod:`repro.hdl.lower`) encodes the whole synthesized architecture —
datapath, multiplexer trees and the controller FSM — into this one
vocabulary, so the Verilog printer (:mod:`repro.hdl.verilog`) and the
cycle-accurate simulator (:mod:`repro.hdl.netsim`) cannot disagree about
what the hardware does: they consume the same object.

Width discipline: wrapping is *explicit*.  An :class:`EWrap` node
truncates a 64-bit value to ``width`` bits and re-extends it (sign- or
zero-), mirroring both the interpreter's two's-complement semantics and
the Verilog idiom ``(x <<< K) >>> K`` / ``x & mask``.  Registers store
``width``-bit patterns; reads go through explicit wrap nodes, never raw
references, so signedness can never be lost between the two backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import HDLError

#: Internal computation width (bits) of every combinational wire.
WORD = 64

#: Operator vocabulary of :class:`EOp` (word-level, signed semantics).
OPS = frozenset({
    "add", "sub", "mul", "shl", "shr",
    "lt", "gt", "le", "ge", "eq", "ne",
    "land", "lor", "lnot",
    "band", "bor", "bxor",
})

#: Operators yielding a 0/1 result.
BOOL_OPS = frozenset({"lt", "gt", "le", "ge", "eq", "ne", "land", "lor", "lnot"})


@dataclass(frozen=True)
class EConst:
    """A constant.  ``width`` affects only Verilog printing (sized literal
    for state codes); the value itself is the signed word-level value."""

    value: int
    width: int | None = None


@dataclass(frozen=True)
class ERef:
    """Reference to a named signal.

    Referencing a *wire* yields its signed 64-bit value; referencing a
    *register* or *input port* yields the raw stored bit pattern (a
    non-negative int), exactly as a Verilog identifier of an unsigned
    vector would.  Lowering therefore reads registers only through
    :class:`EWrap` view wires.
    """

    name: str


@dataclass(frozen=True)
class EOp:
    op: str
    args: tuple

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise HDLError(f"unknown netlist operator {self.op!r}")


@dataclass(frozen=True)
class EMux:
    """``cond != 0 ? a : b`` — one 2:1 multiplexer."""

    cond: object
    a: object
    b: object


@dataclass(frozen=True)
class EWrap:
    """Truncate to ``width`` bits, then sign- or zero-extend back to the
    64-bit word: the IR's only bit-width conversion."""

    expr: object
    width: int
    signed: bool

    def __post_init__(self) -> None:
        if not 1 <= self.width <= WORD:
            raise HDLError(f"wrap width {self.width} out of range")


@dataclass(frozen=True)
class EMemRead:
    """Asynchronous read of one memory word: ``mem[addr mod depth]``.

    The address expression is taken modulo the (power-of-two) depth and
    the raw stored word is yielded — a non-negative pattern at the
    memory's width, exactly like referencing a register — so consumers
    re-sign it through :class:`EWrap`.  To keep the printed Verilog
    legal (a word select cannot nest inside arbitrary expressions in
    Verilog-2001), lowering emits each memory read as the *top-level*
    expression of a dedicated wire whose address is a plain :class:`ERef`.
    """

    mem: str
    addr: object


@dataclass(frozen=True)
class ECase:
    """Select by exact match on a signal (the FSM ``case (state)`` idiom).

    ``arms`` is a tuple of ``(match_codes, expr)`` pairs where
    ``match_codes`` is a tuple of ints; the first arm containing the
    subject's value wins, else ``default``.  ``subject_width`` sizes the
    printed arm literals.
    """

    subject: ERef
    arms: tuple
    default: object
    subject_width: int = WORD


Expr = object  # EConst | ERef | EOp | EMux | EWrap | ECase


@dataclass
class Wire:
    """One combinational signal definition (signed 64-bit)."""

    name: str
    expr: Expr
    comment: str = ""


@dataclass
class Register:
    """One clocked storage element.

    ``en`` / ``d`` name wires (``en`` may be None for an always-enabled
    register such as the FSM state).  On reset the register loads
    ``reset``; on an enabled clock edge it loads the low ``width`` bits of
    ``d``.  Storage is the raw bit pattern.
    """

    name: str
    width: int
    d: str
    en: str | None = None
    reset: int = 0
    comment: str = ""


@dataclass
class MemoryPort:
    """The named buses of one RAM access port.

    ``addr`` names the address wire (always present); write-capable
    ports additionally name a data wire and a write-enable wire.  A
    port with ``we`` None never writes (a pure read port).
    """

    addr: str
    din: str | None = None
    we: str | None = None


@dataclass
class Memory:
    """One inferred on-chip RAM block.

    Semantics shared by both backends: reads are asynchronous
    (:class:`EMemRead` sees the current cycle's address), each
    write-capable port commits ``din`` to ``mem[addr]`` on the clock
    edge when its ``we`` is nonzero, and the contents power on at zero
    and persist across start/done passes (there is no reset path into
    a RAM array).  ``depth`` is a power of two; addresses wrap.
    """

    name: str
    width: int
    depth: int
    ports: list[MemoryPort] = field(default_factory=list)


@dataclass
class PortDecl:
    """A module-level data port.  ``label`` is the behavioral name the
    conformance harness uses to match stimulus/outputs (None for pure
    protocol ports such as ``done``)."""

    name: str
    width: int
    signed: bool
    label: str | None = None
    source: str | None = None  # outputs only: the signal presented


@dataclass
class Netlist:
    """A complete synthesized module: ports, wires, registers, and the
    handshake convention (``clk``/``rst``/``start``/``done``)."""

    name: str
    inputs: list[PortDecl] = field(default_factory=list)
    outputs: list[PortDecl] = field(default_factory=list)
    wires: list[Wire] = field(default_factory=list)
    regs: list[Register] = field(default_factory=list)
    mems: list[Memory] = field(default_factory=list)
    #: Rendered into the emitted Verilog header (and useful for reports).
    meta: dict = field(default_factory=dict)

    def signal_kinds(self) -> dict[str, str]:
        """name -> 'wire' | 'reg' | 'input' for diagnostics."""
        kinds = {w.name: "wire" for w in self.wires}
        kinds.update({r.name: "reg" for r in self.regs})
        kinds.update({p.name: "input" for p in self.inputs})
        return kinds

    def validate(self) -> None:
        """Every reference must resolve; names must be unique."""
        names: set[str] = set()
        for decl in (*self.inputs, *(w for w in self.wires), *self.regs,
                     *self.mems):
            name = decl.name
            if name in names:
                raise HDLError(f"duplicate netlist signal {name!r}")
            names.add(name)
        known = names | {"start", "rst", "clk"}
        mem_names = {m.name for m in self.mems}
        for wire in self.wires:
            signals, mems = expr_refs(wire.expr)
            for ref in signals:
                if ref not in known:
                    raise HDLError(f"wire {wire.name} references unknown signal {ref!r}")
            for mem in mems:
                if mem not in mem_names:
                    raise HDLError(f"wire {wire.name} reads unknown memory {mem!r}")
        for reg in self.regs:
            for ref in (reg.d, reg.en):
                if ref is not None and ref not in known:
                    raise HDLError(f"register {reg.name} uses unknown signal {ref!r}")
        for mem in self.mems:
            if mem.depth & (mem.depth - 1) or mem.depth < 2:
                raise HDLError(f"memory {mem.name} depth {mem.depth} is not a "
                               f"power of two")
            for port in mem.ports:
                for ref in (port.addr, port.din, port.we):
                    if ref is not None and ref not in known:
                        raise HDLError(f"memory {mem.name} port uses unknown "
                                       f"signal {ref!r}")
                if (port.din is None) != (port.we is None):
                    raise HDLError(f"memory {mem.name}: a write port needs "
                                   f"both din and we")
        for out in self.outputs:
            if out.source is None or out.source not in known:
                raise HDLError(f"output {out.name} has unknown source {out.source!r}")


def expr_refs(expr: Expr) -> tuple[set[str], set[str]]:
    """The signal names and the memory names an expression reads."""
    signals: set[str] = set()
    mems: set[str] = set()
    _collect_refs(expr, signals, mems)
    return signals, mems


def _collect_refs(e: Expr, signals: set[str], mems: set[str]) -> None:
    if isinstance(e, ERef):
        signals.add(e.name)
    elif isinstance(e, EOp):
        for a in e.args:
            _collect_refs(a, signals, mems)
    elif isinstance(e, EMux):
        _collect_refs(e.cond, signals, mems)
        _collect_refs(e.a, signals, mems)
        _collect_refs(e.b, signals, mems)
    elif isinstance(e, EWrap):
        _collect_refs(e.expr, signals, mems)
    elif isinstance(e, ECase):
        _collect_refs(e.subject, signals, mems)
        for _codes, arm in e.arms:
            _collect_refs(arm, signals, mems)
        _collect_refs(e.default, signals, mems)
    elif isinstance(e, EMemRead):
        mems.add(e.mem)
        _collect_refs(e.addr, signals, mems)
