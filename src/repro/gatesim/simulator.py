"""Cycle-accurate bit-level simulation of a synthesized architecture.

Execution model: registers hold values across states; within a state,
operations execute in chaining order reading operands from registers,
constants, or chained unit outputs exactly as the datapath routes them;
register writes commit at the end of the state window; the controller then
selects the next state from the just-computed condition bits.

Energy accounting (all capacitances in pF, energies in pJ, power in mW):

* functional units — port toggles plus an internal-activity model (carry
  vector toggles for add/sub, operand population for multiply), scaled by
  the module's characterized capacitance and an arrival-skew glitch factor;
* registers — data toggles on writes plus clock load on every cycle;
* multiplexer trees — per-2:1-node output toggles, propagating the selected
  source's value along its root path (off-path nodes hold state);
* controller — measured state-register bit toggles plus output decode load.

Each state is planned once, on its first visit, into flat steps whose
operands, mux paths, unit constants and transitions are resolved to
list indices (see :meth:`_GateSim._plan_state`); the cycle loop then runs
on local variables.  Every energy term is written once and keeps one
float-operation order, so the accumulated sums do not depend on how the
loop is organized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ArchitectureError, ReproError
from repro.cdfg.interpreter import evaluator
from repro.cdfg.node import OpKind
from repro.library.memory import ram_access_cap
from repro.library.module import scale_capacitance
from repro.library.modules_data import (
    FU_INTERNAL_WEIGHT,
    MEM_STATIC_WEIGHT,
    MUX_CAP_PER_BIT,
    REGISTER_CAP_PER_BIT,
    REGISTER_CLOCK_CAP_PER_BIT,
)
from repro.library.voltage import NOMINAL_VDD
from repro.power.glitch import skew_glitch_factor
from repro.rtl.architecture import Architecture
from repro.rtl.builder import edge_source
from repro.rtl.controller import CAP_PER_OUTPUT, CAP_PER_STATE_BIT
from repro.rtl.mux import MuxSource
from repro.utils.bitwidth import wrap

#: Safety cap on cycles per pass.
MAX_CYCLES_PER_PASS = 1_000_000


@dataclass
class GateSimResult:
    """Measured power and verification outcome."""

    power_mw: float
    breakdown: dict[str, float]
    cycles: np.ndarray
    total_cycles: int
    output_mismatches: int
    outputs: dict[str, np.ndarray]
    #: Per-pass visited state ids (populated with ``record_states=True``);
    #: the conformance harness diffs this against the HDL netlist's FSM
    #: trace when cycle counts diverge.
    state_seq: list[list[int]] | None = None
    #: Switched capacitance per component, before the ``Vdd^2`` scaling —
    #: the Vdd-independent half of the measurement (see
    #: :func:`rescale_result`).
    raw_breakdown: dict[str, float] | None = None
    #: Simulated time in ns (total cycles x clock period).
    time_ns: float = 0.0
    #: Final array contents (element-typed values, same convention as the
    #: interpreter's) — compared by the conformance harness.
    mems: dict[str, list[int]] | None = None

    @property
    def enc(self) -> float:
        return float(self.cycles.mean()) if self.cycles.size else 0.0


def rescale_result(result: GateSimResult, vdd: float) -> GateSimResult:
    """Re-measure a simulated design at another supply voltage — for free.

    Switching activity is a function of the data, not of the supply:
    ``Vdd`` enters the measurement only as the ``Vdd^2`` factor on every
    switched-capacitance term.  The simulator therefore accumulates raw
    capacitance and applies ``Vdd^2`` once at the end — which makes this
    rescaling *bit-identical* to re-running :func:`simulate_architecture`
    at ``vdd``: both compute ``raw x Vdd^2 / time`` from the same raw
    sums.  Cycle counts, outputs and mismatches are shared unchanged.
    """
    if result.raw_breakdown is None:
        raise ArchitectureError("result carries no raw breakdown; re-simulate")
    v2 = vdd * vdd
    time_ns = result.time_ns
    if time_ns > 0:
        breakdown = {k: v * v2 / time_ns for k, v in result.raw_breakdown.items()}
    else:
        breakdown = {k: 0.0 for k in result.raw_breakdown}
    return GateSimResult(
        power_mw=breakdown["total"],
        breakdown=breakdown,
        cycles=result.cycles,
        total_cycles=result.total_cycles,
        output_mismatches=result.output_mismatches,
        outputs=result.outputs,
        state_seq=result.state_seq,
        raw_breakdown=result.raw_breakdown,
        time_ns=time_ns,
        mems=result.mems,
    )


def simulate_architecture(arch: Architecture, input_passes: list[dict[str, int]],
                          expected_outputs: dict[str, np.ndarray] | None = None,
                          vdd: float = NOMINAL_VDD,
                          record_states: bool = False) -> GateSimResult:
    """Run the architecture over a stimulus; measure power; verify outputs.

    ``record_states`` additionally captures the per-pass state trace (one
    entry per *state visit*, not per cycle) for differential debugging.
    """
    sim = _GateSim(arch, vdd)
    return sim.run(input_passes, expected_outputs, record_states)


#: How an FU step models its unit's internal activity: none beyond the
#: ports, the carry vector of an adder/subtractor, or the operand
#: population of a multiplier.
_PORTS_ONLY, _CARRY, _PRODUCT = 0, 1, 2


def _mux_paths(shape, nodes: list[int]) -> dict[object, tuple[int, ...]]:
    """Source key -> slots of the 2:1 nodes on its path to the tree root.

    Each internal node of ``shape`` gets one new slot at the end of
    ``nodes``, the flat table of every mux node's last output pattern
    (power-on zero).
    """
    paths: dict[object, tuple[int, ...]] = {}
    stack = [(shape, ())]
    while stack:
        shape, path = stack.pop()
        if isinstance(shape, MuxSource):
            paths[shape.key] = path
            continue
        path = path + (len(nodes),)
        nodes.append(0)
        stack.append((shape[1], path))
        stack.append((shape[0], path))
    return paths


def _sample_muxes(energy: float, values: list[int], nodes: list[int],
                  samples) -> float:
    """Mux energy: each ``(value slot, mask, path)`` sample propagates
    its masked value along its path; a node toggles against the pattern
    it last passed (off-path nodes hold theirs)."""
    for slot, mask, path in samples:
        pattern = values[slot] & mask
        toggles = 0
        for node in path:
            toggles += (nodes[node] ^ pattern).bit_count()
            nodes[node] = pattern
        energy += toggles * MUX_CAP_PER_BIT
    return energy


def _write_registers(energy: float, values: list[int], writes) -> float:
    """Register data energy: each ``(register slot, mask, value slot)``
    write toggles the register's bits that change, then stores."""
    for dst, mask, src in writes:
        value = values[src]
        energy += ((values[dst] ^ value) & mask).bit_count() * REGISTER_CAP_PER_BIT
        values[dst] = value
    return energy


def _check_state(values: list[int], guards) -> None:
    """Raise a state's first error: a conflicting register write, then
    the failure its plan recorded (see :meth:`_GateSim._plan_state`)."""
    conflicts, failure = guards
    for first, second, message in conflicts:
        if values[first] != values[second]:
            raise ArchitectureError(message)
    if failure is not None:
        raise failure


class _GateSim:
    """One simulation: flat value tables plus per-state step plans.

    Every value the datapath holds or routes is one slot of ``values``:
    a slot per register, temporary, input pin and distinct constant, and
    one per planned op's output, written when the op executes.  A step
    therefore reads its operands by index, whatever routes them.  The
    held bit patterns that energy is measured against live in two more
    flat lists: ``held`` (each FU's two input ports, output and carry
    vector; each array's last address and data) and ``mux_nodes`` (each
    2:1 mux node's last output).
    """

    def __init__(self, arch: Architecture, vdd: float):
        self.arch = arch
        self.v2 = vdd * vdd
        binding = arch.binding
        datapath = arch.datapath
        self.values: list[int] = []
        self.reg_slots = {r: self._new_slot() for r in binding.regs}
        self.tmp_slots = {n: self._new_slot() for n in datapath.tmp_regs}
        self.pin_slots = {arch.cdfg.node(n).carrier: self._new_slot()
                          for n in arch.cdfg.input_nodes}
        self.const_slots: dict[int, int] = {}
        self.held: list[int] = []
        self.fu_slots = {f: self._new_held(4) for f in binding.fus}
        #: Array contents (element-typed values, power-on zero; persist
        #: across passes exactly like the behavioral interpreter's).
        self.mems: dict[str, list[int]] = {
            name: [0] * m.depth for name, m in binding.mems.items()}
        #: Per array: contents, address mask, access capacitance, address
        #: bits, data mask and width, and the held slots of its last
        #: address and data.
        self.rams = {
            name: (self.mems[name], m.depth - 1,
                   ram_access_cap(m.spec, m.width, m.depth),
                   max(1, (m.depth - 1).bit_length()), (1 << m.width) - 1,
                   ((1 << m.width) - 1).bit_length(), self._new_held(2))
            for name, m in binding.mems.items()}
        self.mux_nodes: list[int] = []
        #: Multiplexed port key -> its tree's source paths (None: no tree).
        self.mux_paths = {
            p.key: (None if p.tree is None
                    else _mux_paths(p.tree.shape, self.mux_nodes))
            for p in datapath.mux_ports()}
        total_reg_bits = sum(r.width for r in binding.regs.values()) + \
            sum(datapath.tmp_regs.values())
        self.clock_cap_per_cycle = total_reg_bits * REGISTER_CLOCK_CAP_PER_BIT
        self.decode_cap = 0.25 * arch.controller.n_outputs * CAP_PER_OUTPUT
        #: Per-state step plans, built on first visit (see :meth:`_plan_state`).
        self.plans: dict[int, tuple] = {}

    def _new_slot(self, value: int = 0) -> int:
        self.values.append(value)
        return len(self.values) - 1

    def _new_held(self, n: int) -> int:
        self.held.extend([0] * n)
        return len(self.held) - n

    # -- planning -----------------------------------------------------------------

    def _source_slot(self, source: tuple, chain: dict) -> int:
        """The value slot a source reads; ``chain`` maps each node (and
        ``("fu_chain", fu)``, the unit's latest output) planned earlier
        in the state to its output slot.  Raises what reading the source
        at run time would."""
        kind = source[0]
        if kind == "const":
            slot = self.const_slots.get(source[1])
            if slot is None:
                slot = self.const_slots[source[1]] = self._new_slot(source[1])
            return slot
        if kind == "reg":
            return self.reg_slots[source[1]]
        if kind == "tmp":
            return self.tmp_slots[source[1]]
        if kind == "fu":
            fu_id = source[1]
            if ("fu_chain", fu_id) not in chain:
                raise ArchitectureError(f"chained read of idle FU {fu_id}")
            return chain[("fu_chain", fu_id)]
        if kind == "wire":
            return chain[source[1]]
        if kind == "pin":
            return self.pin_slots[source[1]]
        raise ArchitectureError(f"unknown source {source!r}")

    def _plan_sample(self, samples: list, port, source, slot: int,
                     width: int) -> None:
        """Add the mux sample of ``source`` (value in ``slot``) selected
        through ``port``, if the port has a tree; a source at the root
        of no 2:1 node toggles nothing and is left out."""
        paths = self.mux_paths.get(port)
        if paths is not None:
            path = paths[source]
            if path:
                samples.append((slot, (1 << width) - 1, path))

    def _plan_state(self, state_id: int) -> tuple:
        """Resolve everything value-independent about a state once.

        Source resolution (:func:`edge_source`), unit/register bindings,
        mux paths, unit constants and the controller's transitions
        depend only on (architecture, state) — not on the data — so each
        visited state is planned on first visit and every later visit
        runs the plan against live values.  The plan is ``(steps,
        samples, guards, writes, duration, clock energy, target)``:

        * ``steps`` — one ``(a slot, b slot or -1, evaluator, output
          slot, fu, ram)`` per op in chaining order, where ``fu`` is
          ``(held slot, mask, 4 x width, internal model, capacitance,
          glitch factor, width)`` and ``ram`` is ``(is store,)`` plus
          the array's entry in ``rams``;
        * ``samples`` — every mux sample the ops make, in order;
        * ``guards`` — None, or the register-conflict checks and the
          first failure that reading a source or a mux path would raise
          at run time (the steps stop before the op that raises it);
        * ``writes`` — the register and temporary writes committed at
          the end of the state;
        * ``target`` — the next state, or the transitions' ``(dst,
          conditions)`` when the controller must test condition bits.
        """
        arch = self.arch
        cdfg = arch.cdfg
        binding = arch.binding
        steps: list[tuple] = []
        samples: list[tuple] = []
        conflicts: list[tuple] = []
        reg_writes: dict[int, tuple] = {}
        tmp_writes: dict[int, tuple] = {}
        writers: dict[int, tuple[int, int]] = {}
        chain: dict = {}
        failure = None
        duration = arch.state_duration(state_id)
        ops = sorted(arch.stg.states[state_id].ops,
                     key=lambda op: (op.start, op.node))
        for sched_op in ops:
            node = cdfg.node(sched_op.node)
            fu = binding.fu_of(node.id) if node.needs_fu else None
            if node.mem is not None:
                inst = binding.mems[node.mem]
                ram_port = inst.port_of[node.id]
                mem_ports = [(("mem_addr", node.mem, ram_port),
                              self.rams[node.mem][3]),
                             (("mem_din", node.mem, ram_port), inst.width)]
            srcs = []
            for k, edge in enumerate(cdfg.in_edges(node.id)):
                if fu is not None:
                    port, width = ("fu_in", fu.id, k), edge.width
                elif node.mem is not None:
                    port, width = mem_ports[k]
                else:
                    port, width = None, edge.width
                srcs.append((edge_source(arch, edge, state_id), port, width))
            reg = driver = None
            if node.carrier is not None:
                reg = binding.reg_of(node.carrier)
                if ("reg_in", reg.id) in self.mux_paths:
                    port = arch.datapath.port(("reg_in", reg.id))
                    driver = port.drivers[(node.id, state_id)]
            # A store writes its data input wrapped as a copy would be.
            evaluate = (None if node.kind is OpKind.LOAD else
                        evaluator(OpKind.COPY if node.kind is OpKind.STORE
                                  else node.kind, node.width, node.signed))
            if failure is not None:
                # Never runs: resolved above only so that planning still
                # raises what planning this op raises.
                continue

            try:
                ins = [self._source_slot(source, chain) for source, _, _ in srcs]
            except (ArchitectureError, KeyError) as exc:
                failure = (len(steps), len(conflicts), exc)
                continue
            out = self._new_slot()
            steps.append(self._step(sched_op, node, fu, ins, out, evaluate))
            chain[node.id] = out
            if fu is not None:
                chain[("fu_chain", fu.id)] = out
            try:
                for (source, port, width), slot in zip(srcs, ins):
                    self._plan_sample(samples, port, source, slot, width)
                if reg is not None:
                    previous = writers.get(reg.id)
                    if previous is not None:
                        conflicts.append((previous[1], out, (
                            f"state {state_id}: register {reg.id} written twice "
                            f"with conflicting values (nodes {previous[0]} and "
                            f"{node.id}) — illegal register sharing")))
                    writers[reg.id] = (node.id, out)
                    reg_writes[reg.id] = (self.reg_slots[reg.id],
                                          (1 << reg.width) - 1, out)
                    if driver is not None:
                        self._plan_sample(samples, ("reg_in", reg.id), driver,
                                          out, reg.width)
                elif node.id in arch.datapath.tmp_regs:
                    tmp_writes[node.id] = (
                        self.tmp_slots[node.id],
                        (1 << arch.datapath.tmp_regs[node.id]) - 1, out)
            except KeyError as exc:
                failure = (len(steps), len(conflicts), exc)

        guards = None
        if failure is not None:
            n_steps, n_conflicts, exc = failure
            steps, samples = steps[:n_steps], []
            guards = (tuple(conflicts[:n_conflicts]), exc)
        elif conflicts:
            guards = (tuple(conflicts), None)
        writes = tuple(reg_writes.values()) + tuple(tmp_writes.values())
        transitions = arch.stg.out_transitions(state_id)
        if len(transitions) == 1 and not transitions[0].conds:
            target = transitions[0].dst
        else:
            target = tuple(
                (t.dst, tuple(self._condition(cond, want, chain)
                              for cond, want in t.conds))
                for t in transitions)
        return (tuple(steps), tuple(samples), guards, writes, duration,
                self.clock_cap_per_cycle * duration, target)

    def _step(self, sched_op, node, fu, ins: list[int], out: int,
              evaluate) -> tuple:
        a = ins[0]
        b = ins[1] if len(ins) > 1 else -1
        ram = None
        if node.mem is not None:
            ram = (node.kind is OpKind.STORE,) + self.rams[node.mem]
        unit = None
        if fu is not None:
            if node.kind in (OpKind.ADD, OpKind.SUB):
                internal = _CARRY
            elif node.kind is OpKind.MUL:
                internal = _PRODUCT
            else:
                internal = _PORTS_ONLY
            unit = (self.fu_slots[fu.id], (1 << fu.width) - 1, 4.0 * fu.width,
                    internal, scale_capacitance(fu.module, fu.width),
                    skew_glitch_factor(max(0.0, sched_op.start)), fu.width)
        return (a, b, evaluate, out, unit, ram)

    def _condition(self, cond: int, want: bool, chain: dict) -> tuple:
        """``(value slot, wanted truth, error)`` of one transition
        condition; the error, if any, is raised when the controller
        tests the condition."""
        if cond in chain:
            return chain[cond], want, None
        try:
            node = self.arch.cdfg.node(cond)
            if node.carrier is not None:
                reg = self.arch.binding.reg_of(node.carrier)
                return self.reg_slots[reg.id], want, None
            if cond in self.tmp_slots:
                return self.tmp_slots[cond], want, None
            raise ArchitectureError(
                f"gatesim: condition {node.name} has no stored value")
        except (ReproError, KeyError) as exc:
            return -1, want, exc

    def _plan_pass_ends(self) -> tuple:
        """Input and output plans: pin writes, their register writes and
        mux samples, and each output's (name, value slot, width, signed)."""
        arch = self.arch
        cdfg = arch.cdfg
        pins, writes, samples = [], [], []
        for node_id in cdfg.input_nodes:
            node = cdfg.node(node_id)
            slot = self.pin_slots[node.carrier]
            pins.append((node.carrier, node.width, node.signed, slot))
            reg = arch.binding.reg_of(node.carrier)
            writes.append((self.reg_slots[reg.id], (1 << reg.width) - 1, slot))
            self._plan_sample(samples, ("reg_in", reg.id), ("pin", node.carrier),
                              slot, reg.width)
        outputs = []
        for out_node in cdfg.output_nodes:
            node = cdfg.node(out_node)
            edge = cdfg.in_edge(out_node, 0)
            src = cdfg.node(edge.src)
            if src.kind is OpKind.CONST:
                slot = self._source_slot(("const", src.value), {})
            elif src.carrier is not None:
                slot = self.reg_slots[arch.binding.reg_of(src.carrier).id]
            else:
                slot = self.tmp_slots[edge.src]
            outputs.append((node.name.removeprefix("out:"), slot, node.width,
                            node.signed))
        return tuple(pins), tuple(writes), tuple(samples), tuple(outputs)

    # -- main loop ----------------------------------------------------------------------

    def run(self, input_passes: list[dict[str, int]],
            expected_outputs: dict[str, np.ndarray] | None,
            record_states: bool = False) -> GateSimResult:
        arch = self.arch
        cdfg = arch.cdfg
        stg = arch.stg
        done = stg.done
        cycles_per_pass: list[int] = []
        state_seq: list[list[int]] | None = [] if record_states else None
        outputs: dict[str, list[int]] = {
            cdfg.node(o).name.removeprefix("out:"): [] for o in cdfg.output_nodes}
        mismatches = 0
        fus = registers = memories = muxes = controller = 0.0
        prev_code = 0  # the controller's state register, binary-encoded ids
        decode_cap = self.decode_cap
        values = self.values
        held = self.held
        mux_nodes = self.mux_nodes
        plans = self.plans
        pending_mem: list[tuple[list[int], int, int]] = []
        ends = None  # planned with the first pass, which first reads them

        for pass_idx, inputs in enumerate(input_passes):
            if ends is None:
                ends = self._plan_pass_ends()
            pins, pin_writes, pin_samples, out_plan = ends
            for carrier, width, signed, slot in pins:
                values[slot] = wrap(inputs[carrier], width, signed)
            registers = _write_registers(registers, values, pin_writes)
            muxes = _sample_muxes(muxes, values, mux_nodes, pin_samples)

            state_id = stg.start
            cycles = 0
            visited: list[int] = []
            while True:
                plan = plans.get(state_id)
                if plan is None:
                    plan = plans[state_id] = self._plan_state(state_id)
                steps, samples, guards, writes, duration, clock, target = plan
                cycles += duration
                visited.append(state_id)
                if cycles > MAX_CYCLES_PER_PASS:
                    raise ArchitectureError(
                        f"gatesim: pass {pass_idx} exceeded {MAX_CYCLES_PER_PASS} cycles")

                for a_slot, b_slot, evaluate, out, fu, ram in steps:
                    a = values[a_slot]
                    if ram is not None:
                        # The scheduler keeps a store alone in its state
                        # per array, so committing writes at state end
                        # (the hardware behavior) never starves a load.
                        (is_store, contents, addr_mask, cap, addr_bits,
                         data_mask, data_bits, k) = ram
                        addr = a & addr_mask
                        if is_store:
                            value = evaluate(values[b_slot])
                            pending_mem.append((contents, addr, value))
                        else:
                            value = contents[addr]
                        values[out] = value
                        # One RAM access: fixed select/precharge cost plus
                        # a part scaled by address/data bus toggles.
                        data = value & data_mask
                        alpha = 0.5 * ((held[k] ^ addr).bit_count() / addr_bits
                                       + (held[k + 1] ^ data).bit_count()
                                       / data_bits)
                        held[k] = addr
                        held[k + 1] = data
                        memories += cap * (
                            MEM_STATIC_WEIGHT + (1.0 - MEM_STATIC_WEIGHT) * alpha)
                        continue
                    if b_slot < 0:
                        b = 0
                        value = evaluate(a)
                    else:
                        b = values[b_slot]
                        value = evaluate(a, b)
                    values[out] = value
                    if fu is None:
                        continue
                    # Port values are held as unsigned bit patterns, so
                    # re-presenting a held value toggles nothing; a
                    # one-input op leaves the second port as it was.
                    k, mask, quad_width, model, cap, glitch, width = fu
                    a &= mask
                    toggles_in = (held[k] ^ a).bit_count()
                    held[k] = a
                    if b_slot >= 0:
                        b &= mask
                        toggles_in += (held[k + 1] ^ b).bit_count()
                        held[k + 1] = b
                    value &= mask
                    toggles_out = (held[k + 2] ^ value).bit_count()
                    held[k + 2] = value
                    if model == _CARRY:
                        carry = ((a + b) & mask) ^ a ^ b
                        internal = 0.5 * (held[k + 3] ^ carry).bit_count() / width
                        held[k + 3] = carry
                    elif model == _PRODUCT:
                        internal = (a.bit_count() + b.bit_count()) / (2.0 * width)
                    else:
                        internal = 0.0
                    fus += cap * ((toggles_in + 2.0 * toggles_out) / quad_width
                                  + FU_INTERNAL_WEIGHT * internal) * glitch

                if samples:
                    muxes = _sample_muxes(muxes, values, mux_nodes, samples)
                if guards is not None:
                    _check_state(values, guards)
                registers = _write_registers(registers, values, writes)
                if pending_mem:
                    for contents, addr, value in pending_mem:
                        contents[addr] = value
                    pending_mem.clear()
                controller += ((prev_code ^ state_id).bit_count() * CAP_PER_STATE_BIT
                               + decode_cap)
                prev_code = state_id
                registers += clock

                if target.__class__ is not int:
                    matched = []
                    for dst, conds in target:
                        for slot, want, error in conds:
                            if error is not None:
                                raise error
                            if bool(values[slot]) != want:
                                break
                        else:
                            matched.append(dst)
                    if len(matched) != 1:
                        raise ArchitectureError(
                            f"gatesim: state {state_id} matched {len(matched)} "
                            "transitions")
                    target = matched[0]
                state_id = target
                if state_id == done:
                    break
            cycles_per_pass.append(cycles)
            if state_seq is not None:
                state_seq.append(visited)

            for name, slot, width, signed in out_plan:
                value = wrap(values[slot], width, signed)
                outputs[name].append(value)
                if expected_outputs is not None:
                    if value != int(expected_outputs[name][pass_idx]):
                        mismatches += 1

        total_cycles = int(np.sum(cycles_per_pass))
        time_ns = total_cycles * arch.clock_ns
        # The accumulators hold switched capacitance; Vdd^2 scales it to
        # energy here, in one place, so :func:`rescale_result` can derive
        # any other supply point bit-identically from ``raw_breakdown``.
        raw = {
            "fus": fus,
            "registers": registers,
            "memories": memories,
            "muxes": muxes,
            "controller": controller,
            "total": fus + registers + memories + muxes + controller,
        }
        if time_ns > 0:
            breakdown = {k: v * self.v2 / time_ns for k, v in raw.items()}
        else:
            breakdown = {k: 0.0 for k in raw}
        return GateSimResult(
            power_mw=breakdown["total"],
            breakdown=breakdown,
            cycles=np.array(cycles_per_pass, dtype=np.int64),
            total_cycles=total_cycles,
            output_mismatches=mismatches,
            outputs={k: np.array(v, dtype=np.int64) for k, v in outputs.items()},
            state_seq=state_seq,
            raw_breakdown=raw,
            time_ns=time_ns,
            mems={name: list(words) for name, words in self.mems.items()},
        )
