"""The synthesized RT-level architecture.

Bundles (CDFG, binding, STG, datapath, controller) and implements the two
physical analyses every move evaluation needs:

* :meth:`Architecture.check_timing` — recomputes each state's real critical
  path from actual multiplexer tree depths, chaining overheads and module
  delays (the engine schedules with estimates; this is the ground truth
  that decides legality and Vdd scaling);
* :meth:`Architecture.area` — module areas + registers + multiplexer
  network + controller, with a fixed wiring overhead factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ArchitectureError
from repro.cdfg.graph import CDFG
from repro.cdfg.node import OpKind
from repro.core.binding import Binding
from repro.library.modules_data import (
    MUX_AREA_PER_BIT,
    MUX_DELAY_NS,
    REGISTER_AREA_PER_BIT,
    CHAIN_OVERHEAD,
)
from repro.library.memory import ram_area
from repro.library.module import scale_area
from repro.library.voltage import max_vdd_scaling
from repro.rtl.controller import ControllerModel
from repro.rtl.datapath import Datapath, MuxTree, PortKey
from repro.sched.stg import STG

#: Wiring / layout overhead applied on top of summed cell area.
WIRING_OVERHEAD = 1.05


@dataclass
class TimingViolation:
    state: int
    path_ns: float
    budget_ns: float
    node: int

    def __str__(self) -> str:
        return (f"state {self.state}: path {self.path_ns:.2f} ns through node "
                f"{self.node} exceeds budget {self.budget_ns:.2f} ns")


@dataclass
class Architecture:
    cdfg: CDFG
    binding: Binding
    stg: STG
    datapath: Datapath
    controller: ControllerModel
    clock_ns: float
    mux_delay_ns: float = MUX_DELAY_NS
    chain_overhead: float = CHAIN_OVERHEAD
    _state_paths: dict[int, float] = field(default_factory=dict, repr=False)
    _durations: dict[int, int] = field(default_factory=dict, repr=False)
    _area: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # Per-architecture state durations: the scheduler's estimates are
        # the starting point; normalize_durations() replaces them with the
        # exact values from the real critical paths.  They live here (not
        # on the STG) because design points derived without re-scheduling
        # share the STG object.
        self._durations = {sid: s.duration for sid, s in self.stg.states.items()}

    def state_duration(self, state_id: int) -> int:
        return self._durations[state_id]

    def duration_map(self) -> dict[int, int]:
        """Copy of the normalized per-state cycle counts (for replay
        recosting and the HDL backend's dwell counters)."""
        return dict(self._durations)

    def normalize_durations(self) -> bool:
        """Timing closure: set every state's cycle count from its real path.

        The scheduler packs with *estimated* multiplexer depths; the real
        network (built here) can be deeper or shallower.  Multi-cycling the
        state makes any path legal — the cost surfaces honestly as ENC.
        Returns True if any duration changed.
        """
        import math

        ceil = math.ceil
        paths = self._state_paths
        durations = self._durations
        clock = self.clock_ns
        changed = False
        for sid in self.stg.states:
            path = paths.get(sid)
            if path is None:
                path = self.state_critical_path(sid)
            needed = ceil(path / clock - 1e-9)
            if needed < 1:
                needed = 1
            if needed != durations[sid]:
                durations[sid] = needed
                changed = True
        return changed

    # -- timing -------------------------------------------------------------------

    def state_critical_path(self, state_id: int) -> float:
        """Real critical path of one state (ns at 5 V), memoized."""
        cached = self._state_paths.get(state_id)
        if cached is not None:
            return cached
        in_state = self.stg.state_nodes(state_id)
        ends: dict[int, float] = {}
        critical = 0.0
        for op in self.stg.states[state_id].ops:
            end = self._real_end(op.node, state_id, in_state, ends)
            write_end = end + self._output_mux_delay(op.node, state_id)
            if write_end > critical:
                critical = write_end
        self._state_paths[state_id] = critical
        return critical

    def _real_end(self, node_id: int, state_id: int, in_state: frozenset[int],
                  ends: dict[int, float]) -> float:
        """When ``node_id``'s result is ready in a state (ns), memoized in
        ``ends``: after its chained producers in the same state, its
        chaining-derated delay and its input multiplexers."""
        end = ends.get(node_id)
        if end is not None:
            return end
        cdfg = self.cdfg
        start = 0.0
        for edge in cdfg.in_edges(node_id):
            if edge.carried:
                continue
            if edge.src in in_state and cdfg.node(edge.src).is_schedulable:
                start = max(start,
                            self._real_end(edge.src, state_id, in_state, ends))
        delay = self.binding.op_delay(node_id)
        if delay > 0.0 and start > 0.0:
            delay *= 1.0 + self.chain_overhead
        end = start + delay + self._input_mux_delay(node_id, state_id)
        ends[node_id] = end
        return end

    def _input_mux_delay(self, node_id: int, state_id: int) -> float:
        node = self.cdfg.node(node_id)
        if node.mem is not None:
            mem = self.binding.mems[node.mem]
            ram_port = mem.port_of[node_id]
            keys: list[PortKey] = [("mem_addr", node.mem, ram_port)]
            if node.kind is OpKind.STORE:
                keys.append(("mem_din", node.mem, ram_port))
        elif node.needs_fu:
            fu = self.binding.fu_of(node_id)
            keys = [("fu_in", fu.id, k)
                    for k in range(len(self.cdfg.in_edges(node_id)))]
        else:
            return 0.0
        worst = 0.0
        for key in keys:
            port = self.datapath.ports.get(key)
            if port is None or port.tree is None:
                continue
            source = port.drivers.get((node_id, state_id))
            if source is None:
                continue
            worst = max(worst, port.tree.depth_of(source) * self.mux_delay_ns)
        return worst

    def _output_mux_delay(self, node_id: int, state_id: int) -> float:
        node = self.cdfg.node(node_id)
        if node.carrier is None:
            return 0.0
        reg = self.binding.reg_of(node.carrier)
        port = self.datapath.ports.get(("reg_in", reg.id))
        if port is None or port.tree is None:
            return 0.0
        source = port.drivers.get((node_id, state_id))
        if source is None:
            return 0.0
        return port.tree.depth_of(source) * self.mux_delay_ns

    def check_timing(self) -> list[TimingViolation]:
        """All states whose real path exceeds their cycle window."""
        violations: list[TimingViolation] = []
        paths = self._state_paths
        durations = self._durations
        clock = self.clock_ns
        for state in self.stg.states.values():
            budget = durations[state.id] * clock
            path = paths.get(state.id)
            if path is None:
                path = self.state_critical_path(state.id)
            if path > budget + 1e-6:
                worst = max(state.ops, key=lambda op: op.end, default=None)
                violations.append(TimingViolation(
                    state=state.id, path_ns=path, budget_ns=budget,
                    node=worst.node if worst else -1))
        return violations

    def worst_slack_ratio(self) -> float:
        """min over states of (cycle window / real critical path)."""
        worst = float("inf")
        paths = self._state_paths
        durations = self._durations
        clock = self.clock_ns
        for state in self.stg.states.values():
            path = paths.get(state.id)
            if path is None:
                path = self.state_critical_path(state.id)
            if path <= 0.0:
                continue
            ratio = durations[state.id] * clock / path
            if ratio < worst:
                worst = ratio
        return worst

    def scaled_vdd(self) -> float:
        """Lowest legal Vdd after consuming all in-state timing slack."""
        ratio = self.worst_slack_ratio()
        if ratio == float("inf"):
            ratio = 5.0
        return max_vdd_scaling(ratio)

    def invalidate_timing(self, state_ids: list[int] | None = None) -> None:
        """Drop cached critical paths and re-derive the state durations.

        Durations are a function of the cached paths, so the two must be
        invalidated together: dropping only ``_state_paths`` used to leave
        ``_durations`` frozen at values normalized against the *old* paths
        — a partial ``invalidate_timing([sid])`` after a mux-tree edit
        then made :meth:`check_timing` compare fresh paths against stale
        cycle budgets (phantom violations, or silently illegal windows).
        Renormalizing here restores the invariant that every cached
        duration was computed from the paths currently in the cache.
        """
        if state_ids is None:
            self._state_paths.clear()
        else:
            for sid in state_ids:
                self._state_paths.pop(sid, None)
        self.normalize_durations()

    # -- area ---------------------------------------------------------------------

    def area(self) -> float:
        # Binding and datapath structure are fixed once the architecture is
        # built (tree restructuring goes through set_tree, which resets
        # this), so the sum is computed once per object.
        if self._area is not None:
            return self._area
        total = 0.0
        for fu in self.binding.fus.values():
            total += scale_area(fu.module, fu.width)
        for reg in self.binding.regs.values():
            total += reg.width * REGISTER_AREA_PER_BIT
        for width in self.datapath.tmp_regs.values():
            total += width * REGISTER_AREA_PER_BIT
        for mem in self.binding.mems.values():
            total += ram_area(mem.spec, mem.width, mem.depth)
        for port in self.datapath.ports.values():
            total += port.n_muxes() * port.width * MUX_AREA_PER_BIT
        total += self.controller.area()
        self._area = total * WIRING_OVERHEAD
        return self._area

    def area_breakdown(self) -> dict[str, float]:
        fus = sum(scale_area(fu.module, fu.width) for fu in self.binding.fus.values())
        regs = (sum(r.width for r in self.binding.regs.values())
                + sum(self.datapath.tmp_regs.values())) * REGISTER_AREA_PER_BIT
        mems = sum(ram_area(m.spec, m.width, m.depth)
                   for m in self.binding.mems.values())
        muxes = sum(p.n_muxes() * p.width * MUX_AREA_PER_BIT
                    for p in self.datapath.ports.values())
        return {
            "fus": fus,
            "registers": regs,
            "memories": mems,
            "muxes": muxes,
            "controller": self.controller.area(),
            "total": self.area(),
        }

    # -- mux restructuring hook ------------------------------------------------------

    def set_tree(self, key: PortKey, tree: MuxTree, *,
                 invalidate: bool = True) -> None:
        """Install a restructured tree on a port (keys must match).

        The port is cloned before mutation (copy-on-write): incrementally
        derived architectures share untouched port objects with their
        parent, and a tree edit must never leak backwards.  Callers
        installing several trees pass ``invalidate=False`` and finish
        with one :meth:`invalidate_timing` over the affected states;
        the default re-derives all durations immediately.
        """
        port = self.datapath.port(key)
        if port.tree is None:
            raise ArchitectureError(f"port {key!r} has no multiplexer to restructure")
        if {s.key for s in tree.sources()} != set(port.sources):
            raise ArchitectureError(f"tree sources do not match port {key!r}")
        port = self.datapath.clone_port(key)
        port.tree = tree
        self._area = None
        if invalidate:
            self.invalidate_timing(sorted(port.driver_states()))

    def summary(self) -> dict[str, float]:
        return {
            "fus": len(self.binding.fus),
            "registers": len(self.binding.regs) + len(self.datapath.tmp_regs),
            "mux2": self.datapath.total_mux_count(),
            "states": self.stg.n_states,
            "area": round(self.area(), 1),
            "worst_path_ns": round(max((self.state_critical_path(s)
                                        for s in self.stg.states), default=0.0), 2),
        }
