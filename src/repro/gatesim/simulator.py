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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ArchitectureError
from repro.cdfg.interpreter import Interpreter, _wrap
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
from repro.utils.bitwidth import to_unsigned

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


class _TreeState:
    """Mutable per-port mux tree state: last output value per 2:1 node."""

    def __init__(self, port):
        self.port = port
        self.paths: dict[object, tuple[int, ...]] = {}
        self.node_values: dict[int, int] = {}
        if port.tree is not None:
            self._index_paths(port.tree.shape, ())

    def _index_paths(self, shape, path: tuple[int, ...]) -> None:
        if isinstance(shape, MuxSource):
            # All internal nodes along the path to the root.
            self.paths[shape.key] = path
            return
        node_id = id(shape)
        self._index_paths(shape[0], path + (node_id,))
        self._index_paths(shape[1], path + (node_id,))

    def sample(self, source: object, value: int, width: int) -> int:
        """Propagate a selected value; returns toggled bit count."""
        if self.port.tree is None:
            return 0
        toggles = 0
        pattern = value & ((1 << width) - 1)
        for node in self.paths[source]:
            old = self.node_values.get(node, 0)
            toggles += (old ^ pattern).bit_count()
            self.node_values[node] = pattern
        return toggles


class _Accumulator:
    def __init__(self) -> None:
        self.fus = 0.0
        self.registers = 0.0
        self.memories = 0.0
        self.muxes = 0.0
        self.controller = 0.0

    def breakdown(self) -> dict[str, float]:
        total = (self.fus + self.registers + self.memories + self.muxes
                 + self.controller)
        return {
            "fus": self.fus,
            "registers": self.registers,
            "memories": self.memories,
            "muxes": self.muxes,
            "controller": self.controller,
            "total": total,
        }


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


class _GateSim:
    def __init__(self, arch: Architecture, vdd: float):
        self.arch = arch
        self.v2 = vdd * vdd
        self.regs: dict[int, int] = {r: 0 for r in arch.binding.regs}
        self.tmps: dict[int, int] = {n: 0 for n in arch.datapath.tmp_regs}
        self.fu_ports: dict[int, list[int]] = {
            f: [0, 0, 0] for f in arch.binding.fus}
        self.fu_carry: dict[int, int] = {f: 0 for f in arch.binding.fus}
        self.trees: dict[tuple, _TreeState] = {
            p.key: _TreeState(p) for p in arch.datapath.mux_ports()}
        self.energy = _Accumulator()
        self.prev_state_code = 0
        self._ordered_ops = {
            sid: sorted(state.ops, key=lambda op: (op.start, op.node))
            for sid, state in arch.stg.states.items()
        }
        self._reg_widths = {r.id: r.width for r in arch.binding.regs.values()}
        # Precomputed all-ones masks: ``x & mask`` is to_unsigned() with
        # the per-call width lookup and function dispatch hoisted out of
        # the toggle-counting inner loops.
        self._reg_masks = {r: (1 << w) - 1 for r, w in self._reg_widths.items()}
        self._tmp_masks = {n: (1 << w) - 1
                           for n, w in arch.datapath.tmp_regs.items()}
        self._fu_masks = {f.id: (1 << f.width) - 1
                          for f in arch.binding.fus.values()}
        #: Array contents (element-typed values, power-on zero; persist
        #: across passes exactly like the behavioral interpreter's).
        self.mems: dict[str, list[int]] = {
            name: [0] * m.depth for name, m in arch.binding.mems.items()}
        #: Last presented (addr, data) patterns per array, for the
        #: bit-level access-energy model.
        self._mem_last: dict[str, tuple[int, int]] = {
            name: (0, 0) for name in arch.binding.mems}
        self._mem_cost = {
            name: (ram_access_cap(m.spec, m.width, m.depth),
                   max(1, (m.depth - 1).bit_length()),
                   (1 << m.width) - 1)
            for name, m in arch.binding.mems.items()}
        #: Per-state execution plans, built lazily (see :meth:`_plan_state`).
        self._state_plan: dict[int, list] = {}
        total_reg_bits = sum(self._reg_widths.values()) + \
            sum(arch.datapath.tmp_regs.values())
        self._clock_cap_per_cycle = (
            total_reg_bits * REGISTER_CLOCK_CAP_PER_BIT)

    # -- value plumbing ------------------------------------------------------------

    def _source_value(self, source: tuple, chain: dict[int, int],
                      pins: dict[str, int]) -> int:
        kind = source[0]
        if kind == "const":
            return source[1]
        if kind == "reg":
            return self.regs[source[1]]
        if kind == "tmp":
            return self.tmps[source[1]]
        if kind == "fu":
            fu_id = source[1]
            if ("fu_chain", fu_id) not in chain:
                raise ArchitectureError(f"chained read of idle FU {fu_id}")
            return chain[("fu_chain", fu_id)]
        if kind == "wire":
            return chain[source[1]]
        if kind == "pin":
            return pins[source[1]]
        raise ArchitectureError(f"unknown source {source!r}")

    # -- per-state execution ----------------------------------------------------------

    def _plan_state(self, state_id: int) -> list:
        """Resolve everything value-independent about a state's ops once.

        Source resolution (:func:`edge_source`), unit/register bindings
        and mux-tree lookups depend only on (architecture, state) — not
        on the data — so each visited state is planned on first visit
        and every later visit replays the plan against live values.
        """
        arch = self.arch
        cdfg = arch.cdfg
        plan = []
        for sched_op in self._ordered_ops[state_id]:
            node = cdfg.node(sched_op.node)
            fu = arch.binding.fu_of(node.id) if node.needs_fu else None
            mem = None
            if node.mem is not None:
                mem = (node.mem, node.kind is OpKind.STORE)
                inst = arch.binding.mems[node.mem]
                ram_port = inst.port_of[node.id]
                mem_trees = [(self.trees.get(("mem_addr", node.mem, ram_port)),
                              self._mem_cost[node.mem][1]),
                             (self.trees.get(("mem_din", node.mem, ram_port)),
                              inst.width)]
            srcs = []
            for k, edge in enumerate(cdfg.in_edges(node.id)):
                if fu is not None:
                    ftree, width = self.trees.get(("fu_in", fu.id, k)), edge.width
                elif mem is not None:
                    ftree, width = mem_trees[k]
                else:
                    ftree, width = None, edge.width
                source = edge_source(arch, edge, state_id)
                srcs.append((source, width, ftree))
            reg = None
            reg_driver = None
            is_tmp = False
            if node.carrier is not None:
                reg = arch.binding.reg_of(node.carrier)
                tree = self.trees.get(("reg_in", reg.id))
                if tree is not None:
                    port = arch.datapath.port(("reg_in", reg.id))
                    reg_driver = (tree, port.drivers[(node.id, state_id)])
            else:
                is_tmp = node.id in arch.datapath.tmp_regs
            plan.append((sched_op, node, fu, mem, srcs, reg, reg_driver,
                         is_tmp))
        return plan

    def _execute_state(self, state_id: int, chain_values: dict,
                       pins: dict[str, int]) -> dict[str, int]:
        pending_reg: dict[int, tuple[int, int]] = {}
        pending_tmp: dict[int, int] = {}
        pending_mem: list[tuple[list[int], int, int]] = []
        plan = self._state_plan.get(state_id)
        if plan is None:
            plan = self._plan_state(state_id)
            self._state_plan[state_id] = plan

        source_value = self._source_value
        for sched_op, node, fu, mem, srcs, reg, reg_driver, is_tmp in plan:
            ins = []
            sample_ports = []
            for source, width, ftree in srcs:
                value = source_value(source, chain_values, pins)
                ins.append(value)
                if ftree is not None:
                    sample_ports.append((ftree, source, value, width))
            if mem is not None:
                # The scheduler keeps a store alone in its state per
                # array, so committing writes at state end (the hardware
                # behavior) can never starve a same-state load.
                array, is_store = mem
                contents = self.mems[array]
                addr = ins[0] & (len(contents) - 1)
                if is_store:
                    out = _wrap(ins[1], node.width, node.signed)
                    pending_mem.append((contents, addr, out))
                else:
                    out = contents[addr]
                self._account_mem(array, addr, out)
            else:
                out = _wrap(Interpreter._compute(node, tuple(ins)),
                            node.width, node.signed)
            chain_values[node.id] = out
            if fu is not None:
                chain_values[("fu_chain", fu.id)] = out
                self._account_fu(fu, node, ins, out, sched_op)
            for ftree, source, value, width in sample_ports:
                toggles = ftree.sample(source, value, width)
                self.energy.muxes += toggles * MUX_CAP_PER_BIT

            if reg is not None:
                previous = pending_reg.get(reg.id)
                if previous is not None and previous[0] != out:
                    raise ArchitectureError(
                        f"state {state_id}: register {reg.id} written twice "
                        f"with conflicting values (nodes {previous[1]} and "
                        f"{node.id}) — illegal register sharing")
                pending_reg[reg.id] = (out, node.id)
                if reg_driver is not None:
                    tree, source = reg_driver
                    toggles = tree.sample(source, out, reg.width)
                    self.energy.muxes += toggles * MUX_CAP_PER_BIT
            elif is_tmp:
                pending_tmp[node.id] = out

        # Commit register writes at state end.
        for reg_id, (value, _writer) in pending_reg.items():
            old = self.regs[reg_id]
            toggles = ((old ^ value) & self._reg_masks[reg_id]).bit_count()
            self.energy.registers += toggles * REGISTER_CAP_PER_BIT
            self.regs[reg_id] = value
        for node_id, value in pending_tmp.items():
            old = self.tmps[node_id]
            toggles = ((old ^ value) & self._tmp_masks[node_id]).bit_count()
            self.energy.registers += toggles * REGISTER_CAP_PER_BIT
            self.tmps[node_id] = value
        for contents, addr, value in pending_mem:
            contents[addr] = value
        return chain_values

    def _account_mem(self, array: str, addr: int, value: int) -> None:
        """One RAM access: fixed select/precharge cost plus a part scaled
        by measured address/data bus toggles (vs the array's previous
        access) — the bit-level counterpart of the estimator's model."""
        cap, addr_bits, data_mask = self._mem_cost[array]
        last_a, last_d = self._mem_last[array]
        d_pat = value & data_mask
        alpha = 0.5 * ((last_a ^ addr).bit_count() / addr_bits
                       + (last_d ^ d_pat).bit_count()
                       / data_mask.bit_length())
        self._mem_last[array] = (addr, d_pat)
        self.energy.memories += cap * (
            MEM_STATIC_WEIGHT + (1.0 - MEM_STATIC_WEIGHT) * alpha)

    def _account_fu(self, fu, node, ins: list[int], out: int, sched_op) -> None:
        width = fu.width
        mask = self._fu_masks[fu.id]
        # Port values are held as unsigned bit patterns (already masked),
        # so re-presenting a held value toggles nothing, as before.
        ports = self.fu_ports[fu.id]
        toggles_in = 0
        for k in range(2):
            pattern = (ins[k] & mask) if k < len(ins) else ports[k]
            toggles_in += (ports[k] ^ pattern).bit_count()
            ports[k] = pattern
        out_pattern = out & mask
        toggles_out = (ports[2] ^ out_pattern).bit_count()
        ports[2] = out_pattern

        internal = 0.0
        if node.kind in (OpKind.ADD, OpKind.SUB):
            a = ins[0] if len(ins) > 0 else 0
            b = ins[1] if len(ins) > 1 else 0
            carry = ((a + b) & mask) ^ (a & mask) ^ (b & mask)
            old_carry = self.fu_carry[fu.id]
            internal = 0.5 * (old_carry ^ carry).bit_count() / width
            self.fu_carry[fu.id] = carry
        elif node.kind is OpKind.MUL:
            internal = ((ins[0] & mask).bit_count()
                        + (ins[1] & mask).bit_count()) / (2.0 * width)

        port_activity = (toggles_in + 2.0 * toggles_out) / (4.0 * width)
        activity = port_activity + FU_INTERNAL_WEIGHT * internal
        glitch = skew_glitch_factor(max(0.0, sched_op.start))
        cap = scale_capacitance(fu.module, width)
        self.energy.fus += cap * activity * glitch

    # -- controller -------------------------------------------------------------------

    def _account_controller(self, state_id: int) -> None:
        code = state_id  # binary encoding of state ids
        toggles = (self.prev_state_code ^ code).bit_count()
        self.prev_state_code = code
        ctrl = self.arch.controller
        self.energy.controller += (
            toggles * CAP_PER_STATE_BIT
            + 0.25 * ctrl.n_outputs * CAP_PER_OUTPUT)

    # -- main loop ----------------------------------------------------------------------

    def run(self, input_passes: list[dict[str, int]],
            expected_outputs: dict[str, np.ndarray] | None,
            record_states: bool = False) -> GateSimResult:
        arch = self.arch
        cdfg = arch.cdfg
        stg = arch.stg
        cycles_per_pass: list[int] = []
        state_seq: list[list[int]] | None = [] if record_states else None
        outputs: dict[str, list[int]] = {
            cdfg.node(o).name.removeprefix("out:"): [] for o in cdfg.output_nodes}
        mismatches = 0

        for pass_idx, inputs in enumerate(input_passes):
            pins: dict[str, int] = {}
            for node_id in cdfg.input_nodes:
                node = cdfg.node(node_id)
                value = _wrap(inputs[node.carrier], node.width, node.signed)
                pins[node.carrier] = value
                reg = arch.binding.reg_of(node.carrier)
                old = self.regs[reg.id]
                toggles = (to_unsigned(old, reg.width)
                           ^ to_unsigned(value, reg.width)).bit_count()
                self.energy.registers += toggles * REGISTER_CAP_PER_BIT
                self.regs[reg.id] = value
                tree = self.trees.get(("reg_in", reg.id))
                if tree is not None:
                    self.energy.muxes += tree.sample(("pin", node.carrier), value,
                                                     reg.width) * MUX_CAP_PER_BIT

            state_id = stg.start
            cycles = 0
            visited: list[int] = []
            while True:
                duration = arch.state_duration(state_id)
                cycles += duration
                visited.append(state_id)
                if cycles > MAX_CYCLES_PER_PASS:
                    raise ArchitectureError(
                        f"gatesim: pass {pass_idx} exceeded {MAX_CYCLES_PER_PASS} cycles")
                chain_values: dict = {}
                self._execute_state(state_id, chain_values, pins)
                self._account_controller(state_id)
                self.energy.registers += self._clock_cap_per_cycle * duration

                next_state = self._next_state(state_id, chain_values)
                state_id = next_state
                if state_id == stg.done:
                    break
            cycles_per_pass.append(cycles)
            if state_seq is not None:
                state_seq.append(visited)

            for out_node in cdfg.output_nodes:
                node = cdfg.node(out_node)
                edge = cdfg.in_edge(out_node, 0)
                src = cdfg.node(edge.src)
                if src.kind is OpKind.CONST:
                    value = src.value
                elif src.carrier is not None:
                    value = self.regs[arch.binding.reg_of(src.carrier).id]
                else:
                    value = self.tmps[edge.src]
                value = _wrap(value, node.width, node.signed)
                name = node.name.removeprefix("out:")
                outputs[name].append(value)
                if expected_outputs is not None:
                    if value != int(expected_outputs[name][pass_idx]):
                        mismatches += 1

        total_cycles = int(np.sum(cycles_per_pass))
        time_ns = total_cycles * arch.clock_ns
        # The accumulator holds switched capacitance; Vdd^2 scales it to
        # energy here, in one place, so :func:`rescale_result` can derive
        # any other supply point bit-identically from ``raw_breakdown``.
        raw = self.energy.breakdown()
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

    def _next_state(self, state_id: int, chain_values: dict) -> int:
        stg = self.arch.stg
        candidates = []
        for transition in stg.out_transitions(state_id):
            ok = True
            for cond, want in transition.conds:
                value = self._condition_value(cond, chain_values)
                if bool(value) != want:
                    ok = False
                    break
            if ok:
                candidates.append(transition)
        if len(candidates) != 1:
            raise ArchitectureError(
                f"gatesim: state {state_id} matched {len(candidates)} transitions")
        return candidates[0].dst

    def _condition_value(self, cond: int, chain_values: dict) -> int:
        if cond in chain_values:
            return chain_values[cond]
        node = self.arch.cdfg.node(cond)
        if node.carrier is not None:
            return self.regs[self.arch.binding.reg_of(node.carrier).id]
        if cond in self.tmps:
            return self.tmps[cond]
        raise ArchitectureError(
            f"gatesim: condition {node.name} has no stored value")
