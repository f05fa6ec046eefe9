"""RT-level power estimator ([19]-style).

Converts merged unit traces into a power number:

* functional units: executions x effective switched capacitance x Vdd^2,
  with the activity factor from the measured port statistics and a glitch
  multiplier from the chained-execution fraction;
* registers: write-data toggles plus clock load on every cycle for every
  register and temporary bit, written or not;
* multiplexer trees: the Section 3.2.1 activity equations over the
  measured per-source (activity, probability) statistics;
* controller: the structural FSM model per cycle.

Power is reported in mW (pJ per ns); the estimate drives the IMPACT search
and is validated against the bit-level measurement proxy in
:mod:`repro.gatesim`: ``tests/test_power_estimator.py::TestFidelity``
checks it on every registry benchmark's initial and power-searched
designs, and ``benchmarks/bench_estimator_fidelity.py`` reports the
estimate/measurement ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import PowerModelError
from repro.cdfg.node import OpKind
from repro.core.profile import PROFILER
from repro.library.memory import ram_access_cap
from repro.library.module import scale_capacitance
from repro.utils.bitwidth import to_unsigned_array
from repro.utils.hamming import popcount, toggle_series
from repro.library.modules_data import (
    FU_INTERNAL_WEIGHT,
    MEM_STATIC_WEIGHT,
    MUX_CAP_PER_BIT,
    REGISTER_CAP_PER_BIT,
    REGISTER_CLOCK_CAP_PER_BIT,
)
from repro.library.voltage import NOMINAL_VDD
from repro.power.glitch import chain_glitch_factor
from repro.power.trace_manip import UnitTraces
from repro.rtl.architecture import Architecture
from repro.rtl.mux import MuxSource


@dataclass
class PowerEstimate:
    """Estimated power (mW) with a per-component breakdown."""

    fus: float = 0.0
    registers: float = 0.0
    memories: float = 0.0
    muxes: float = 0.0
    controller: float = 0.0
    per_fu: dict[int, float] = field(default_factory=dict)
    per_port: dict[tuple, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return (self.fus + self.registers + self.memories + self.muxes
                + self.controller)

    def breakdown(self) -> dict[str, float]:
        return {
            "fus": self.fus,
            "registers": self.registers,
            "memories": self.memories,
            "muxes": self.muxes,
            "controller": self.controller,
            "total": self.total,
        }


def _internal_activity(arch: Architecture, fu, traces: UnitTraces,
                       stream) -> float:
    """Mean unit-internal activity per execution, matching gatesim's model.

    Served from the trace store's statistics table: a pure function of
    the merged input columns and the unit's kind set, both fixed by the
    stream's ``stat_key`` (its op set determines the kinds).
    """
    return traces.stat(("internal", stream.stat_key),
                       lambda: _compute_internal_activity(
                           fu.kinds(arch.cdfg), fu.width, stream))


def _compute_internal_activity(kinds, width: int, stream) -> float:
    if stream.executions < 1 or len(stream.ins) < 2:
        return 0.0
    a = to_unsigned_array(stream.ins[0], width)
    b = to_unsigned_array(stream.ins[1], width)
    if OpKind.MUL in kinds:
        return float((popcount(a) + popcount(b)).mean()) / (2.0 * width)
    if OpKind.ADD in kinds or OpKind.SUB in kinds:
        mask = np.int64((1 << width) - 1)
        carry = ((a + b) & mask) ^ a ^ b
        if carry.size < 2:
            return 0.0
        return 0.5 * float(toggle_series(carry).mean()) / width
    return 0.0


def estimate_power(arch: Architecture, traces: UnitTraces,
                   vdd: float = NOMINAL_VDD) -> PowerEstimate:
    """Estimate the average power of a design point at a supply voltage."""
    if traces.total_cycles <= 0:
        raise PowerModelError("cannot estimate power over zero cycles")
    with PROFILER.stage("power_estimate"):
        return _estimate(arch, traces, vdd)


def _estimate(arch: Architecture, traces: UnitTraces,
              vdd: float) -> PowerEstimate:
    time_ns = traces.total_cycles * arch.clock_ns
    v2 = vdd * vdd
    estimate = PowerEstimate()

    # Functional units: port toggles plus the unit-internal activity model
    # (carry chains for add/sub, partial products for multiply) -- the same
    # structural terms the bit-level measurement counts, computed here from
    # the merged streams in one vectorized pass.
    for fu in arch.binding.fus.values():
        stream = traces.fu_streams.get(fu.id)
        if stream is None or stream.executions == 0:
            continue
        activities = traces.fu_activity(fu.id)
        in_acts = activities[:-1]
        out_act = activities[-1]
        port_alpha = (sum(in_acts) + 2.0 * out_act) / (len(in_acts) + 2.0)
        internal = _internal_activity(arch, fu, traces, stream)
        alpha = port_alpha + FU_INTERNAL_WEIGHT * internal
        glitch = chain_glitch_factor(stream.chained_fraction)
        cap = scale_capacitance(fu.module, fu.width)
        energy = stream.executions * cap * v2 * alpha * glitch
        power = energy / time_ns
        estimate.per_fu[fu.id] = power
        estimate.fus += power

    # Registers: data toggles on writes + clock load every cycle.
    reg_energy = 0.0
    for stream in traces.reg_streams.values():
        alpha = traces.reg_activity(stream.key)
        reg_energy += stream.writes * stream.width * REGISTER_CAP_PER_BIT * v2 * alpha
        reg_energy += traces.total_cycles * stream.width * REGISTER_CLOCK_CAP_PER_BIT * v2
    # Registers and temporaries no stimulus pass writes (so without a
    # merged stream) still load the clock every cycle, as in gatesim.
    idle_bits = sum(reg.width for reg in arch.binding.regs.values()
                    if ("reg", reg.id) not in traces.reg_streams)
    idle_bits += sum(width for node_id, width in arch.datapath.tmp_regs.items()
                     if ("tmp", node_id) not in traces.reg_streams)
    reg_energy += traces.total_cycles * idle_bits * REGISTER_CLOCK_CAP_PER_BIT * v2
    estimate.registers = reg_energy / time_ns

    # Multiplexer trees: Equation (7) over measured (a_i, p_i).
    mux_energy = 0.0
    for port in arch.datapath.mux_ports():
        stats = traces.port_stats.get(port.key)
        samples = traces.port_samples.get(port.key, 0)
        if stats is None or port.tree is None or samples == 0:
            continue
        activity = port.tree.activity_with(
            {key: (a, p) for key, a, p in stats})
        energy = activity * port.width * MUX_CAP_PER_BIT * v2 * samples
        estimate.per_port[port.key] = energy / time_ns
        mux_energy += energy
    estimate.muxes = mux_energy / time_ns

    # Memories: per-access RAM energy from the bound organization and the
    # merged access streams.  Under trace sharing the stream may be a
    # parent's while the capacitance is always this binding's.
    mem_energy = 0.0
    for name in sorted(arch.binding.mems):
        mem = arch.binding.mems[name]
        stream = traces.mem_streams.get(name)
        if stream is None or stream.executions == 0:
            continue
        cap = ram_access_cap(mem.spec, mem.width, mem.depth)
        addr_activity, data_activity = traces.mem_activity(name)
        alpha = 0.5 * (addr_activity + data_activity)
        scale = MEM_STATIC_WEIGHT + (1.0 - MEM_STATIC_WEIGHT) * alpha
        mem_energy += stream.executions * cap * v2 * scale
    estimate.memories = mem_energy / time_ns

    # Controller: the structural FSM model per cycle.
    controller_energy = traces.total_cycles * arch.controller.energy_per_cycle(vdd)
    estimate.controller = controller_energy / time_ns

    return estimate
