"""RT-level power estimator ([19]-style).

Converts merged unit traces into a power number:

* functional units: executions x effective switched capacitance x Vdd^2,
  with the activity factor from the measured port statistics and a glitch
  multiplier from the chained-execution fraction;
* registers: write-data toggles plus clock load every cycle;
* multiplexer trees: the Section 3.2.1 activity equations over the
  measured per-source (activity, probability) statistics;
* controller: the structural FSM model per cycle.

Power is reported in mW (pJ per ns); the estimate drives the IMPACT search
and is validated against the bit-level measurement proxy in
:mod:`repro.gatesim` (``benchmarks/bench_estimator_fidelity.py`` measures
the estimate/measurement ratios).

The estimate is a sum of independent per-component energy terms, so a
design point derived from a parent by a move with a known dirty set can
*patch* the parent's estimate: ``reuse=`` hands in the parent's
:class:`PowerEstimate` and only components named by the dirty sets are
recomputed.  Accumulation then replays the exact float-addition order of
the full path over per-component values that are bit-identical by
construction, so patched and full estimates agree to the last bit (the
randomized equivalence suite enforces this).
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
    """Estimated power (mW) with a per-component breakdown.

    The private ``_reg_energy``/``_port_energy`` dicts hold the raw
    (undivided) energy terms the totals were accumulated from; they are
    what a derived design point's patched estimate copies for clean
    components, and ``_vdd``/``_time_ns`` guard that a reuse candidate
    was computed under the same supply and time base.
    """

    fus: float = 0.0
    registers: float = 0.0
    memories: float = 0.0
    muxes: float = 0.0
    controller: float = 0.0
    per_fu: dict[int, float] = field(default_factory=dict)
    per_port: dict[tuple, float] = field(default_factory=dict)
    _reg_energy: dict[object, tuple[float, float]] = field(
        default_factory=dict, repr=False)
    _port_energy: dict[tuple, float] = field(default_factory=dict, repr=False)
    _vdd: float = field(default=0.0, repr=False)
    _time_ns: float = field(default=0.0, repr=False)

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


#: Weight of internal (carry / partial-product) toggles in FU energy; the
#: same constant the bit-level measurement uses.
INTERNAL_WEIGHT = 0.8

#: Split of a RAM access's energy into a fixed part (word-line select and
#: bit-line precharge fire every access regardless of data) and a part
#: scaled by measured address/data toggle activity.
MEM_STATIC_WEIGHT = 0.6


def _internal_activity(arch: Architecture, fu, stream) -> float:
    """Mean unit-internal activity per execution, matching gatesim's model.

    Memoized on the stream: a pure function of the merged input columns
    and the unit's kind set, both of which are fixed for a stream object
    (clean units share streams across design points, so the memo rides
    along).
    """
    if stream._internal is None:
        stream._internal = _compute_internal_activity(
            fu.kinds(arch.cdfg), fu.width, stream)
    return stream._internal


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
                   vdd: float = NOMINAL_VDD, *,
                   reuse: PowerEstimate | None = None,
                   dirty_fus: frozenset = frozenset(),
                   dirty_regs: frozenset = frozenset(),
                   dirty_ports: frozenset = frozenset()) -> PowerEstimate:
    """Estimate the average power of a design point at a supply voltage.

    ``reuse`` is an optional parent estimate to patch: components whose
    unit/port is not in the dirty sets copy the parent's energy term
    instead of recomputing it.  The parent must share this point's time
    base (same replay, same clock) and supply; mismatches fall back to a
    full estimate.
    """
    if traces.total_cycles <= 0:
        raise PowerModelError("cannot estimate power over zero cycles")
    time_ns = traces.total_cycles * arch.clock_ns
    if reuse is not None and (reuse._vdd != vdd or reuse._time_ns != time_ns):
        reuse = None
    with PROFILER.stage("power_estimate", incremental=reuse is not None):
        return _estimate(arch, traces, vdd, time_ns, reuse,
                         dirty_fus, dirty_regs, dirty_ports)


def _estimate(arch: Architecture, traces: UnitTraces, vdd: float,
              time_ns: float, reuse: PowerEstimate | None,
              dirty_fus: frozenset, dirty_regs: frozenset,
              dirty_ports: frozenset) -> PowerEstimate:
    v2 = vdd * vdd
    estimate = PowerEstimate(_vdd=vdd, _time_ns=time_ns)

    # Functional units: port toggles plus the unit-internal activity model
    # (carry chains for add/sub, partial products for multiply) -- the same
    # structural terms the bit-level measurement counts, computed here from
    # the merged streams in one vectorized pass.
    for fu in arch.binding.fus.values():
        stream = traces.fu_streams.get(fu.id)
        if stream is None or stream.executions == 0:
            continue
        if reuse is not None and fu.id not in dirty_fus and fu.id in reuse.per_fu:
            power = reuse.per_fu[fu.id]
        else:
            activities = traces.fu_activity(fu.id)
            in_acts = activities[:-1]
            out_act = activities[-1]
            port_alpha = (sum(in_acts) + 2.0 * out_act) / (len(in_acts) + 2.0)
            internal = _internal_activity(arch, fu, stream)
            alpha = port_alpha + INTERNAL_WEIGHT * internal
            glitch = chain_glitch_factor(stream.chained_fraction)
            cap = scale_capacitance(fu.module, fu.width)
            energy = stream.executions * cap * v2 * alpha * glitch
            power = energy / time_ns
        estimate.per_fu[fu.id] = power
        estimate.fus += power

    # Registers: data toggles on writes + clock load every cycle.
    reg_energy = 0.0
    for stream in traces.reg_streams.values():
        key = stream.key
        clean = key[0] == "tmp" or key[1] not in dirty_regs
        if reuse is not None and clean and key in reuse._reg_energy:
            data_e, clock_e = reuse._reg_energy[key]
        else:
            alpha = traces.reg_activity(key)
            data_e = stream.writes * stream.width * REGISTER_CAP_PER_BIT * v2 * alpha
            clock_e = traces.total_cycles * stream.width * REGISTER_CLOCK_CAP_PER_BIT * v2
        estimate._reg_energy[key] = (data_e, clock_e)
        reg_energy += data_e
        reg_energy += clock_e
    estimate.registers = reg_energy / time_ns

    # Multiplexer trees: Equation (7) over measured (a_i, p_i).
    mux_energy = 0.0
    for port in arch.datapath.mux_ports():
        stats = traces.port_stats.get(port.key)
        samples = traces.port_samples.get(port.key, 0)
        if stats is None or port.tree is None or samples == 0:
            continue
        if (reuse is not None and port.key not in dirty_ports
                and port.key in reuse._port_energy):
            energy = reuse._port_energy[port.key]
        else:
            activity = port.tree.activity_with(
                {key: (a, p) for key, a, p in stats})
            energy = activity * port.width * MUX_CAP_PER_BIT * v2 * samples
        estimate._port_energy[port.key] = energy
        estimate.per_port[port.key] = energy / time_ns
        mux_energy += energy
    estimate.muxes = mux_energy / time_ns

    # Memories: per-access RAM energy from the bound organization and the
    # merged access streams.  Always recomputed (designs hold at most a
    # few arrays and the activity memos live on the shared stream
    # objects), which keeps SubstituteRam honest under trace sharing:
    # the stream is the parent's, the capacitance is this binding's.
    mem_energy = 0.0
    for name in sorted(arch.binding.mems):
        mem = arch.binding.mems[name]
        stream = traces.mem_streams.get(name)
        if stream is None or stream.executions == 0:
            continue
        cap = ram_access_cap(mem.spec, mem.width, mem.depth)
        alpha = 0.5 * (stream.addr_activity() + stream.data_activity())
        scale = MEM_STATIC_WEIGHT + (1.0 - MEM_STATIC_WEIGHT) * alpha
        mem_energy += stream.executions * cap * v2 * scale
    estimate.memories = mem_energy / time_ns

    # Controller (always recomputed: the model is a handful of counters
    # that change with any structural edit, and it costs nothing).
    controller_energy = traces.total_cycles * arch.controller.energy_per_cycle(vdd)
    estimate.controller = controller_energy / time_ns

    return estimate
