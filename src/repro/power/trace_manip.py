"""Trace manipulation — Section 2.3 of the paper.

A functional unit's trace under a candidate design is the merge of the
traces of the operations mapped to it, ordered by STG execution; a
register's trace is the merge of its writers' output streams; a
multiplexer input's statistics come from the driver's signal stream and
its selection frequency.  All merging is pure array manipulation over the
one recorded behavioral simulation plus the (cheap) STG replay — exactly
the paper's scheme for avoiding re-simulation at every synthesis step.

The same scheme extends across design points: a move's dirty set names
the few units it touched, so :func:`merge_unit_traces` can derive a
candidate's traces from its parent's by re-merging only the dirty
units/ports and sharing every other stream *object*.  A dirty unit whose
op set and width the move left alone (a module substitution) keeps its
parent's stream too: under the parent's replay, which is the only one
the incremental path runs under, a unit's stream depends on nothing
else.

The statistics computed from the streams (bit toggles, carry activity)
follow the same rule one level down: they live in one table per
:class:`~repro.sim.traces.TraceStore` (``TraceStore._stat_table``), so
each is computed once per distinct stream *content* and served from the
table to every later design point, whichever stream object it holds.
Each stream carries its ``stat_key``, the content's identity:

* a stream that *is* one of the store's own arrays — a single-op unit's
  columns, a single-writer register, a temporary, a wire or input pin —
  is keyed ``(node, port, width)``, ``port`` being the operand index or
  ``-1`` for the result;
* a re-merged stream (a multi-op unit, a multi-writer register, a RAM's
  accesses) is keyed by a kind tag, its member nodes, its width and a
  fixed-size digest of the merge permutation (:func:`_order_key`).

Entries are pure functions of the store's arrays, so a served value is
bit-identical to a recomputation.  The table is not bounded by the
synthesis cache's ``max_entries`` (nor the job server's
``cache_entries``); it lives and dies with the store, at about 120
bytes per distinct stream (key and value) and a few hundred entries per
benchmark over a whole laxity sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import blake2b

import numpy as np

from repro.errors import PowerModelError
from repro.core.profile import PROFILER
from repro.rtl.architecture import Architecture
from repro.sched.replay import ReplayResult
from repro.sim.statistics import stream_activity
from repro.sim.traces import TraceStore


def _order_key(order: np.ndarray) -> tuple[bytes, int]:
    """Fixed-size identity of a merge permutation.

    A 16-byte digest plus the length: a key never holds the permutation
    itself (8 bytes per execution).
    """
    return blake2b(order.tobytes(), digest_size=16).digest(), int(order.size)


def _chained_fraction(starts: np.ndarray) -> float:
    """Share of executions that start chained behind another op.

    A count over the size: the same double as ``(starts > 0).mean()``
    without its float reduction, and independent of the merge order.
    """
    if not starts.size:
        return 0.0
    return np.count_nonzero(starts > 0.0) / starts.size


@dataclass
class FUStream:
    """Merged trace of one functional unit (the paper's TR(Du)).

    ``stat_key`` identifies the content in the store's statistics table:
    ``("fu", ops, width, order)`` over the unit's full op set (which also
    fixes its kind set), with ``order`` the merge permutation's
    :func:`_order_key`, or ``None`` when at most one op executed.  Then
    ``source`` names that op: its occurrence arrays *are* the stream, and
    the port statistics come from the store-owned column entries.
    """

    fu_id: int
    width: int
    ins: tuple[np.ndarray, ...]
    out: np.ndarray
    chained_fraction: float
    stat_key: tuple
    source: int | None = None

    @property
    def executions(self) -> int:
        return int(self.out.shape[0])


@dataclass
class RegStream:
    """Merged write trace of one register."""

    key: object              # ("reg", id) or ("tmp", node)
    width: int
    values: np.ndarray
    stat_key: tuple

    @property
    def writes(self) -> int:
        return int(self.values.shape[0])


@dataclass
class MemStream:
    """Merged access trace of one RAM instance (loads and stores).

    ``addrs``/``values`` are the address and data word of every access in
    execution order.
    """

    name: str
    width: int
    addr_bits: int
    addrs: np.ndarray
    values: np.ndarray
    stat_key: tuple

    @property
    def executions(self) -> int:
        return int(self.values.shape[0])


@dataclass
class UnitTraces:
    """Every RT unit's merged trace plus derived statistics.

    ``stats`` is the trace store's statistics table (a private one for a
    hand-built instance); every activity below is served from it.
    """

    total_cycles: int
    fu_streams: dict[int, FUStream] = field(default_factory=dict)
    reg_streams: dict[object, RegStream] = field(default_factory=dict)
    mem_streams: dict[str, MemStream] = field(default_factory=dict)
    port_stats: dict[tuple, list[tuple[object, float, float]]] = field(default_factory=dict)
    port_samples: dict[tuple, int] = field(default_factory=dict)
    stats: dict = field(default_factory=dict, repr=False)

    def stat(self, key, compute):
        """The table entry for ``key``; ``compute()`` fills it on a miss."""
        got = self.stats.get(key)
        if got is None:
            got = compute()
            self.stats[key] = got
        return got

    def column_activity(self, node_id: int, port: int, values: np.ndarray,
                        width: int) -> float:
        """Activity of one of the store's own arrays (``port`` -1: result)."""
        return self.stat((node_id, port, width),
                         lambda: stream_activity(values, width))

    def fu_activity(self, fu_id: int) -> tuple[float, ...]:
        """Mean toggle activity of each port (inputs..., output)."""
        stream = self.fu_streams[fu_id]
        return self.stat(stream.stat_key, lambda: _port_activity(self, stream))

    def reg_activity(self, key: object) -> float:
        stream = self.reg_streams.get(key)
        if stream is None or stream.writes < 2:
            return 0.0
        return self.stat(stream.stat_key,
                         lambda: stream_activity(stream.values, stream.width))

    def mem_activity(self, name: str) -> tuple[float, float]:
        """(address, data) toggle activity of one RAM's access stream."""
        stream = self.mem_streams[name]
        if stream.executions < 2:
            return 0.0, 0.0
        return self.stat(stream.stat_key, lambda: (
            stream_activity(stream.addrs, stream.addr_bits),
            stream_activity(stream.values, stream.width)))


def _port_activity(traces: UnitTraces, stream: FUStream) -> tuple[float, ...]:
    width = stream.width
    if stream.source is None:
        return tuple(stream_activity(col, width)
                     for col in (*stream.ins, stream.out))
    node = stream.source
    stats = [traces.column_activity(node, k, col, width)
             for k, col in enumerate(stream.ins)]
    stats.append(traces.column_activity(node, -1, stream.out, width))
    return tuple(stats)


def merge_unit_traces(arch: Architecture, store: TraceStore,
                      rep: ReplayResult, parent: UnitTraces | None = None,
                      dirty=None, dirty_ports: frozenset = frozenset()) -> UnitTraces:
    """Merge per-op traces into per-unit traces for one design point.

    ``parent``/``dirty``/``dirty_ports`` enable the incremental path: the
    parent's streams and port statistics are shared for every unit/port
    outside the dirty sets, and for every dirty unit whose op set and
    width are the parent's, and only the remainder is re-merged —
    bit-identical to a full merge, because a shared stream's merge inputs
    (operation set, width, occurrence arrays, replay timing) are the
    parent's exactly.
    """
    incremental = parent is not None and dirty is not None
    with PROFILER.stage("trace_merge", incremental=incremental):
        if incremental:
            return _Merger(arch, store, rep, parent=parent, dirty=dirty,
                           dirty_ports=dirty_ports).run()
        return _Merger(arch, store, rep).run()


class _Merger:
    def __init__(self, arch: Architecture, store: TraceStore, rep: ReplayResult,
                 parent: UnitTraces | None = None, dirty=None,
                 dirty_ports: frozenset = frozenset()):
        self.arch = arch
        self.store = store
        self.rep = rep
        self.parent = parent
        self.dirty = dirty
        self.dirty_ports = dirty_ports
        self.traces = UnitTraces(total_cycles=rep.total_cycles,
                                 stats=store._stat_table)

    def run(self) -> UnitTraces:
        self._merge_fus()
        self._merge_registers()
        self._merge_memories()
        self._port_statistics()
        return self.traces

    # -- helpers -----------------------------------------------------------------

    def _occ_arrays(self, node_id: int):
        occ = self.store.occurrences.get(node_id)
        if occ is None:
            return None
        cycles = self.rep.op_cycle.get(node_id)
        starts = self.rep.op_start.get(node_id)
        if cycles is None or len(cycles) != len(occ):
            raise PowerModelError(
                f"node {node_id}: replay timing misaligned with trace store")
        return occ, cycles, starts

    @staticmethod
    def _forward_fill(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
        """Hold-last-value for ports an operation does not drive."""
        idx = np.where(valid, np.arange(values.size), -1)
        idx = np.maximum.accumulate(idx)
        filled = values[np.maximum(idx, 0)]
        filled[idx < 0] = 0
        return filled

    def _merge_fus(self) -> None:
        for fu in self.arch.binding.fus.values():
            if self.parent is not None:
                stream = self.parent.fu_streams.get(fu.id)
                if stream is not None and (
                        fu.id not in self.dirty.fu_ids
                        or stream.stat_key[1:3] == (tuple(sorted(fu.ops)),
                                                    fu.width)):
                    self.traces.fu_streams[fu.id] = stream
                    continue
            self.traces.fu_streams[fu.id] = self._merge_one_fu(fu)

    def _merge_one_fu(self, fu) -> FUStream:
        ops = tuple(sorted(fu.ops))
        parts = []
        for op in ops:
            got = self._occ_arrays(op)
            if got is None:
                continue
            occ, cycles, starts = got
            parts.append((op, occ, cycles, starts))
        if not parts:
            return FUStream(
                fu.id, fu.width, (np.zeros(0, np.int64), np.zeros(0, np.int64)),
                np.zeros(0, np.int64), 0.0, ("fu", ops, fu.width, None))
        if len(parts) == 1:
            # Single-op unit (the common case under the fully-parallel
            # start): replay emits occurrences in increasing cycle order,
            # so the lexsort is the identity and every input column is
            # fully valid — the stream is the trace.
            op, occ, _cycles, starts = parts[0]
            return FUStream(fu.id, fu.width, tuple(occ.ins), occ.out,
                            _chained_fraction(starts),
                            ("fu", ops, fu.width, None), op)
        cycles = np.concatenate([p[2] for p in parts])
        starts = np.concatenate([p[3] for p in parts])
        order = np.lexsort((starts, cycles))
        out = np.concatenate([p[1].out for p in parts])[order]
        max_arity = max(len(p[1].ins) for p in parts)
        ins = []
        for k in range(max_arity):
            if all(k < len(p[1].ins) for p in parts):
                # Every op drives the port: nothing to hold.
                ins.append(np.concatenate([p[1].ins[k] for p in parts])[order])
                continue
            col_parts = []
            valid_parts = []
            for _op, occ, _c, _s in parts:
                if k < len(occ.ins):
                    col_parts.append(occ.ins[k])
                    valid_parts.append(np.ones(len(occ), dtype=bool))
                else:
                    col_parts.append(np.zeros(len(occ), dtype=np.int64))
                    valid_parts.append(np.zeros(len(occ), dtype=bool))
            col = np.concatenate(col_parts)[order]
            valid = np.concatenate(valid_parts)[order]
            ins.append(self._forward_fill(col, valid))
        return FUStream(fu.id, fu.width, tuple(ins), out,
                        _chained_fraction(starts),
                        ("fu", ops, fu.width, _order_key(order)))

    def _merge_registers(self) -> None:
        # Registers in the order of their first writer in CDFG node order
        # (the estimator sums register energy in this order): carriers
        # come in the order of their own first writers.
        binding = self.arch.binding
        writers_by_reg: dict[int, list[int]] = {}
        for carrier, writers in self.arch.cdfg.carrier_writers().items():
            reg_id = binding.reg_of(carrier).id
            writers_by_reg.setdefault(reg_id, []).extend(writers)

        for reg_id, writers in writers_by_reg.items():
            if self.parent is not None and reg_id not in self.dirty.reg_ids:
                stream = self.parent.reg_streams.get(("reg", reg_id))
                if stream is not None:
                    self.traces.reg_streams[("reg", reg_id)] = stream
                continue
            reg = self.arch.binding.regs[reg_id]
            parts = []
            for writer in sorted(writers):
                got = self._occ_arrays(writer)
                if got is None:
                    continue
                occ, cycles, starts = got
                parts.append((writer, occ.out, cycles, starts))
            if not parts:
                continue
            if len(parts) == 1:
                # A single writer's stream is its result column as-is
                # (replay order, as for a single-op unit).
                writer, values, _cycles, _starts = parts[0]
                stat_key = (writer, -1, reg.width)
            else:
                cycles = np.concatenate([p[2] for p in parts])
                starts = np.concatenate([p[3] for p in parts])
                order = np.lexsort((starts, cycles))
                values = np.concatenate([p[1] for p in parts])[order]
                stat_key = ("reg", tuple(p[0] for p in parts), reg.width,
                            _order_key(order))
            self.traces.reg_streams[("reg", reg_id)] = RegStream(
                ("reg", reg_id), reg.width, values, stat_key)

        for node_id, width in self.arch.datapath.tmp_regs.items():
            if self.parent is not None:
                # Temporary streams read only the occurrence store; the
                # temporary set itself is (CDFG, STG)-determined — shared.
                stream = self.parent.reg_streams.get(("tmp", node_id))
                if stream is not None:
                    self.traces.reg_streams[("tmp", node_id)] = stream
                continue
            got = self._occ_arrays(node_id)
            if got is None:
                continue
            occ, _cycles, _starts = got
            self.traces.reg_streams[("tmp", node_id)] = RegStream(
                ("tmp", node_id), width, occ.out, (node_id, -1, width))

    def _merge_memories(self) -> None:
        cdfg = self.arch.cdfg
        accesses_by_array: dict[str, list[int]] = {}
        for node in cdfg.mem_nodes():
            accesses_by_array.setdefault(node.mem, []).append(node.id)
        for name, accesses in sorted(accesses_by_array.items()):
            if self.parent is not None:
                # The incremental path only runs when the STG is the
                # parent's (or replay-equivalent to it), so an array's
                # access trace — occurrence values in replay cycle order —
                # is the parent's exactly, for any binding edit.
                stream = self.parent.mem_streams.get(name)
                if stream is not None:
                    self.traces.mem_streams[name] = stream
                    continue
            width, _signed, depth = cdfg.array_types[name]
            addr_bits = max(1, depth.bit_length() - 1)
            parts = []
            for node_id in sorted(accesses):
                got = self._occ_arrays(node_id)
                if got is None:
                    continue
                occ, cycles, starts = got
                parts.append((node_id, occ, cycles, starts))
            if not parts:
                continue
            cycles = np.concatenate([p[2] for p in parts])
            starts = np.concatenate([p[3] for p in parts])
            order = np.lexsort((starts, cycles))
            mask = np.int64(depth - 1)
            addrs = np.concatenate([p[1].ins[0] for p in parts])[order] & mask
            # occ.out is the read word for loads and the written word for
            # stores: the data bus traffic either way.
            values = np.concatenate([p[1].out for p in parts])[order]
            stat_key = ("mem", tuple(p[0] for p in parts), width, depth,
                        _order_key(order))
            self.traces.mem_streams[name] = MemStream(
                name, width, addr_bits, addrs, values, stat_key)

    # -- signal activities & mux statistics ----------------------------------------

    def signal_activity(self, source: tuple) -> float:
        kind = source[0]
        if kind == "const":
            return 0.0
        if kind in ("reg", "tmp"):
            return self.traces.reg_activity(source)
        if kind == "fu":
            stream = self.traces.fu_streams.get(source[1])
            if stream is None or stream.executions < 2:
                return 0.0
            return self.traces.fu_activity(source[1])[-1]
        if kind in ("wire", "pin"):
            node_id = self._node_of_signal(source)
            occ = self.store.occurrences.get(node_id)
            if occ is None or len(occ) < 2:
                return 0.0
            return self.traces.column_activity(
                node_id, -1, occ.out, self.arch.cdfg.node(node_id).width)
        raise PowerModelError(f"unknown source kind {source!r}")

    def _node_of_signal(self, source: tuple) -> int:
        if source[0] == "wire":
            return source[1]
        # ("pin", var): the INPUT node with that carrier
        for node_id in self.arch.cdfg.input_nodes:
            if self.arch.cdfg.node(node_id).carrier == source[1]:
                return node_id
        raise PowerModelError(f"no input pin {source[1]!r}")

    def _port_statistics(self) -> None:
        for port in self.arch.datapath.mux_ports():
            if self.parent is not None and port.key not in self.dirty_ports:
                stats = self.parent.port_stats.get(port.key)
                if stats is not None:
                    self.traces.port_stats[port.key] = stats
                    self.traces.port_samples[port.key] = \
                        self.parent.port_samples[port.key]
                continue
            counts: dict[object, int] = {s: 0 for s in port.sources}
            total = 0
            for (consumer, state_id), source in port.drivers.items():
                n = self.rep.op_state_count(consumer, state_id)
                counts[source] += n
                total += n
            stats = []
            for source in port.sources:
                prob = counts[source] / total if total else 0.0
                stats.append((source, self.signal_activity(source), prob))
            self.traces.port_stats[port.key] = stats
            self.traces.port_samples[port.key] = total
