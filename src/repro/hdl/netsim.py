"""Pure-python cycle-accurate simulation of a lowered netlist.

This is the always-available half of the cosimulation story: the same
:class:`~repro.hdl.netlist.Netlist` the Verilog printer renders is
executed here cycle by cycle, so the emitted RTL's semantics can be
checked against the behavioral interpreter, STG replay and gatesim with
no external tools.  When ``iverilog`` is present,
:mod:`repro.hdl.cosim` additionally runs the printed text itself.

Semantics follow Verilog word rules at the IR's conventions: every wire
is a signed 64-bit value (operations wrap at 64 bits), registers store
raw bit patterns at their declared width, and an identifier reference
yields the pattern for registers/inputs and the signed value for wires.

Execution is compiled, not interpreted.  :class:`NetlistProgram`
levelizes the wires once and generates the source of one Python
function that runs a whole start/done pass on local variables: per
clock edge it evaluates every wire once, in level order, then commits
the enabled registers and memory write ports two-phase.  One evaluation
per edge suffices because the nets after a commit, with ``start`` low,
are exactly the nets the next edge samples.  A netlist whose level
order has a back edge (a mux-steered false cycle: a unit feeding another
in one state and the reverse in a different state) wraps that same
block in a sweep-to-fixpoint loop, so it settles exactly as an
event-driven simulator would; a true logic cycle raises
:class:`~repro.errors.HDLError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import HDLError
from repro.hdl.netlist import (
    ECase,
    EConst,
    EMemRead,
    EMux,
    EOp,
    ERef,
    EWrap,
    Netlist,
    WORD,
    expr_refs,
)
from repro.utils.bitwidth import to_unsigned, wrap_source

#: Safety cap on clock cycles per start/done pass.
MAX_CYCLES_PER_PASS = 1_000_000

_ARITH = {"add": "+", "sub": "-", "mul": "*"}
_COMPARE = {"lt": "<", "gt": ">", "le": "<=", "ge": ">=", "eq": "==", "ne": "!="}
_BITWISE = {"band": "&", "bor": "|", "bxor": "^"}


def _expr_source(expr, local: dict[str, str],
                 mems: dict[str, tuple[str, int]]) -> str:
    """Python source of one expression.

    ``local`` maps signal names to the identifiers holding their values;
    ``mems`` maps memory names to ``(identifier, depth)`` of the word
    list.  Every subexpression is parenthesized, so the result composes.
    Chains of ``lor``/``land`` and mux else-branches are emitted flat, so
    the long per-state chains lowering builds add no nesting depth.
    """
    if isinstance(expr, EConst):
        value = int(expr.value)
        return str(value) if value >= 0 else f"({value})"
    if isinstance(expr, ERef):
        if expr.name not in local:
            raise HDLError(f"netsim cannot read signal {expr.name!r}")
        return local[expr.name]
    if isinstance(expr, EWrap):
        return wrap_source(_expr_source(expr.expr, local, mems),
                           expr.width, expr.signed)
    if isinstance(expr, EMux):
        parts = []
        while isinstance(expr, EMux):
            parts.append(f"{_expr_source(expr.a, local, mems)} if "
                         f"{_expr_source(expr.cond, local, mems)} else ")
            expr = expr.b
        return f"({''.join(parts)}{_expr_source(expr, local, mems)})"
    if isinstance(expr, ECase):
        # First matching arm wins, as in a Verilog case statement.
        subject = _expr_source(expr.subject, local, mems)
        parts = []
        for codes, arm in expr.arms:
            test = (f"{subject} == {int(codes[0])}" if len(codes) == 1 else
                    f"{subject} in {tuple(int(c) for c in codes)!r}")
            parts.append(f"{_expr_source(arm, local, mems)} if {test} else ")
        return f"({''.join(parts)}{_expr_source(expr.default, local, mems)})"
    if isinstance(expr, EMemRead):
        if expr.mem not in mems:
            raise HDLError(f"read of undeclared memory {expr.mem!r}")
        name, depth = mems[expr.mem]
        return f"{name}[{_expr_source(expr.addr, local, mems)} & {depth - 1}]"
    if isinstance(expr, EOp) and expr.op in ("land", "lor"):
        # Associative: gather the whole chain's terms, in order.
        terms, stack = [], [expr]
        while stack:
            term = stack.pop()
            if isinstance(term, EOp) and term.op == expr.op:
                stack.extend(reversed(term.args))
            else:
                terms.append(_expr_source(term, local, mems))
        return _op_source(expr.op, terms)
    if isinstance(expr, EOp):
        return _op_source(expr.op, [_expr_source(a, local, mems) for a in expr.args])
    raise HDLError(f"cannot compile expression {expr!r}")


def _op_source(op: str, args: list[str]) -> str:
    a = args[0]
    b = args[1] if len(args) > 1 else None
    if op in _ARITH:
        return wrap_source(f"({a} {_ARITH[op]} {b})", WORD, True)
    if op == "shl":
        return wrap_source(f"({a} << ({b} & 63))", WORD, True)
    if op == "shr":
        return f"({a} >> ({b} & 63))"
    if op in _COMPARE:
        return f"(1 if {a} {_COMPARE[op]} {b} else 0)"
    if op == "land":
        return f"(1 if {' and '.join(args)} else 0)"
    if op == "lor":
        return f"(1 if {' or '.join(args)} else 0)"
    if op == "lnot":
        return f"(0 if {a} else 1)"
    if op in _BITWISE:
        return f"({a} {_BITWISE[op]} {b})"
    raise HDLError(f"cannot compile operator {op!r}")


def _levelize(netlist: Netlist) -> tuple[list, bool]:
    """Wires in dependency order, and whether any dependency points
    backwards (a combinational cycle; declared order breaks it)."""
    wires = netlist.wires
    by_name = {w.name: w for w in wires}
    deps = {w.name: expr_refs(w.expr)[0] & by_name.keys() for w in wires}
    order: list = []
    done: set[str] = set()
    visiting: set[str] = set()
    cyclic = False
    for wire in wires:
        cyclic |= _visit(wire, by_name, deps, done, visiting, order)
    return order, cyclic


def _visit(wire, by_name: dict, deps: dict[str, set[str]], done: set[str],
           visiting: set[str], order: list) -> bool:
    """Append ``wire`` after its dependencies to ``order``; True if a
    dependency is still being visited (a back edge)."""
    if wire.name in done:
        return False
    if wire.name in visiting:
        return True
    visiting.add(wire.name)
    cyclic = False
    for dep in sorted(deps[wire.name]):
        cyclic |= _visit(by_name[dep], by_name, deps, done, visiting, order)
    visiting.discard(wire.name)
    done.add(wire.name)
    order.append(wire)
    return cyclic


class NetlistProgram:
    """One netlist compiled to a generated start/done pass function.

    The program holds no run state, so one compilation serves any number
    of :class:`NetlistSimulator` runs.  ``source`` is the generated text
    and ``cyclic`` tells whether the wires need the fixpoint sweep.
    """

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        order, self.cyclic = _levelize(netlist)
        regs, inputs = netlist.regs, netlist.inputs
        local = {"start": "start"}
        local.update((r.name, f"r{i}") for i, r in enumerate(regs))
        local.update((p.name, f"i{i}") for i, p in enumerate(inputs))
        wire_locals = [f"w{i}" for i in range(len(order))]
        local.update((w.name, n) for w, n in zip(order, wire_locals))
        mems = {m.name: (f"m{i}", m.depth) for i, m in enumerate(netlist.mems)}

        done = next((p for p in netlist.outputs if p.name == "done"), None)
        if done is None:
            raise HDLError("netlist has no done output")
        if "state" not in {r.name for r in regs}:
            raise HDLError("netlist has no state register")
        ports = {}
        for port in netlist.outputs:
            if port.label is not None:
                ports.setdefault(port.label, port)
        #: Output labels, in the order the pass function returns them.
        self.labels = list(ports)

        def sig(name: str) -> str:
            return _expr_source(ERef(name), local, mems)

        try:
            comb = [f"{n} = {_expr_source(w.expr, local, mems)}  # {w.name}"
                    for w, n in zip(order, wire_locals)]
        except RecursionError:
            raise _too_deep(netlist) from None
        if self.cyclic:
            wire_tuple = f"({', '.join(wire_locals)},)"
            comb = [f"for _sweep in range({len(order) + 2}):",
                    f"    before = {wire_tuple}",
                    *(f"    {line}" for line in comb),
                    f"    if {wire_tuple} == before:",
                    "        break",
                    "else:",
                    "    raise HDLError('combinational nets did not settle "
                    "(true logic cycle)')"]
        commit = _commit_source(netlist, sig)
        outputs = "".join(f"{wrap_source(sig(p.source), p.width, p.signed)}, "
                          for p in ports.values())

        def unpack(names: list[str], value: str) -> list[str]:
            return [f"{', '.join(names)}, = {value}"] if names else []

        reg_locals = [sig(r.name) for r in regs]
        lines = [
            "def netsim_pass(regs, inputs, mems, max_cycles):",
            *(f"    {line}" for line in (
                f"{', '.join(reg_locals)}, = regs",
                *unpack([sig(p.name) for p in inputs], "inputs"),
                *unpack([m[0] for m in mems.values()], "mems"),
                # A false cycle has one fixpoint per state, so the sweeps
                # may start anywhere: from zero, then from the last edge.
                *([f"{' = '.join(wire_locals)} = 0"] if self.cyclic else []),
                "states = []",
                "record = states.append",
                "cycles = 0",
                "start = 1",
                "outputs = None",
                # The last edge taken is the done state's, back to IDLE.
                "while outputs is None:",
                *(f"    {line}" for line in comb),
                "    if not start:",
                f"        if {sig(done.source)}:",
                f"            outputs = ({outputs})",
                "        else:",
                f"            record({sig('state')})",
                "            cycles += 1",
                "            if cycles > max_cycles:",
                "                return None",
                *(f"    {line}" for line in commit),
                "    start = 0",
                f"regs[:] = ({', '.join(reg_locals)},)",
                "return cycles, states, outputs",
            )),
        ]
        self.source = "\n".join(lines) + "\n"
        try:
            code = compile(self.source, f"<netsim {netlist.name}>", "exec")
        except (SyntaxError, RecursionError):
            raise _too_deep(netlist) from None
        namespace = {"HDLError": HDLError}
        exec(code, namespace)
        self.run = namespace.pop("netsim_pass")


def _too_deep(netlist: Netlist) -> HDLError:
    return HDLError(f"netsim: an expression of {netlist.name!r} nests too "
                    "deeply to compile")


def _commit_source(netlist: Netlist, sig) -> list[str]:
    """One clock edge's commit: every memory write port and register
    samples its inputs before anything is assigned.  ``sig`` maps a
    signal name to the source reading it."""
    lines = []
    for i, mem in enumerate(netlist.mems):
        for port in mem.ports:
            if port.we is not None:
                lines.append(f"if {sig(port.we)}: m{i}[{sig(port.addr)} & "
                             f"{mem.depth - 1}] = {sig(port.din)} & "
                             f"{(1 << mem.width) - 1}")
    # One tuple assignment: every value is read before any is assigned.
    targets, values = [], []
    for reg in netlist.regs:
        target = sig(reg.name)
        value = f"{sig(reg.d)} & {(1 << reg.width) - 1}"
        targets.append(target)
        values.append(value if reg.en is None else
                      f"(({value}) if {sig(reg.en)} else {target})")
    return lines + [f"{', '.join(targets)}, = {', '.join(values)},"]


class NetlistSimulator:
    """Run state of one compiled netlist: register patterns, input port
    values and memory words, advanced one start/done pass at a time."""

    def __init__(self, netlist: Netlist | NetlistProgram):
        self.program = (netlist if isinstance(netlist, NetlistProgram)
                        else NetlistProgram(netlist))
        self.netlist = self.program.netlist
        self._input_index = {p.name: (i, p.width)
                             for i, p in enumerate(self.netlist.inputs)}
        self.regs = [to_unsigned(r.reset, r.width) for r in self.netlist.regs]
        self.inputs = [0] * len(self.netlist.inputs)
        #: Memory contents as raw word patterns (power-on zero; persist
        #: across passes).
        self.mems: dict[str, list[int]] = {
            m.name: [0] * m.depth for m in self.netlist.mems}
        self.passes = 0

    def poke(self, inputs: dict[str, int]) -> None:
        """Drive input ports (values wrapped to the port width)."""
        for name, value in inputs.items():
            slot = self._input_index.get(name)
            if slot is None:
                raise HDLError(f"no input port {name!r}")
            self.inputs[slot[0]] = to_unsigned(int(value), slot[1])

    def run_pass(self, max_cycles: int = MAX_CYCLES_PER_PASS
                 ) -> tuple[dict[str, int], int, list[int]]:
        """Pulse ``start``, clock until ``done``, then return to IDLE.

        Returns the labeled outputs at the done strobe, the clock cycles
        between leaving IDLE and done, and the FSM state of each of
        those cycles.
        """
        result = self.program.run(self.regs, self.inputs,
                                  list(self.mems.values()), max_cycles)
        if result is None:
            raise HDLError(f"netsim: pass {self.passes} exceeded "
                           f"{max_cycles} cycles without done")
        self.passes += 1
        cycles, states, outputs = result
        return dict(zip(self.program.labels, outputs)), cycles, states


@dataclass
class NetSimResult:
    """One stimulus run through the netlist simulator."""

    outputs: dict[str, list[int]]
    cycles: list[int]
    state_seq: list[list[int]] = field(default_factory=list)
    #: Final memory contents as raw word patterns, keyed by the netlist
    #: memory name (``mem_<array>``); re-sign with the array's element
    #: type to compare against the behavioral image.
    mems: dict[str, list[int]] = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        return sum(self.cycles)


def run_passes(netlist: Netlist | NetlistProgram,
               input_passes: list[dict[str, int]],
               max_cycles_per_pass: int = MAX_CYCLES_PER_PASS) -> NetSimResult:
    """Execute the start/done handshake once per stimulus pass.

    ``input_passes`` uses behavioral variable names (the same stimulus
    dictionaries every other execution model consumes); cycle counts are
    clock cycles between leaving IDLE and the done strobe — directly
    comparable with gatesim and duration-normalized replay.  Pass a
    :class:`NetlistProgram` to reuse one compilation across runs.
    """
    sim = NetlistSimulator(netlist)
    labels = sim.program.labels
    in_map = {p.label: p.name for p in sim.netlist.inputs if p.label is not None}
    outputs: dict[str, list[int]] = {label: [] for label in labels}
    cycles_per_pass: list[int] = []
    state_seq: list[list[int]] = []

    for stimulus in input_passes:
        try:
            sim.poke({in_map[var]: value for var, value in stimulus.items()})
        except KeyError as exc:
            raise HDLError(f"stimulus names unknown input {exc}") from None
        values, cycles, states = sim.run_pass(max_cycles_per_pass)
        for label in labels:
            outputs[label].append(values[label])
        cycles_per_pass.append(cycles)
        state_seq.append(states)
    return NetSimResult(outputs=outputs, cycles=cycles_per_pass,
                        state_seq=state_seq,
                        mems={name: list(words)
                              for name, words in sim.mems.items()})
