"""The tree-walking behavioral interpreter, kept as a test oracle.

This is the interpreter ``repro.cdfg.interpreter`` used before it was
compiled: it walks the region tree node by node, resolves every operand
through the flat graph's edges, and appends each occurrence to Python
lists that :class:`TraceRecorder` turns into a
:class:`~repro.sim.traces.TraceStore` at the end.  It is slow and
obviously faithful to the CDFG semantics, so the tests hold the compiled
interpreter's trace stores to this one's, value for value and key order
for key order.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InterpreterError
from repro.cdfg.edge import Edge
from repro.cdfg.graph import CDFG
from repro.cdfg.node import Node, OpKind
from repro.cdfg.regions import BlockRegion, IfRegion, LoopRegion, OpsItem, SubRegionItem
from repro.sim.traces import OccurrenceArray, TraceStore
from repro.utils.bitwidth import mask_for_width, wrap_to_width


class TraceRecorder:
    """Append-only collector used by the interpreter; finalize() -> TraceStore."""

    def __init__(self, cdfg) -> None:
        self._cdfg = cdfg
        self._pass_idx: dict[int, list[int]] = {}
        self._step: dict[int, list[int]] = {}
        self._out: dict[int, list[int]] = {}
        self._ins: dict[int, list[tuple[int, ...]]] = {}
        self._outputs: dict[str, list[tuple[int, int]]] = {}
        self._loop_trips: dict[int, list[tuple[int, int]]] = {}

    def record(self, node_id: int, pass_idx: int, step: int,
               ins: tuple[int, ...], out: int) -> None:
        self._pass_idx.setdefault(node_id, []).append(pass_idx)
        self._step.setdefault(node_id, []).append(step)
        self._out.setdefault(node_id, []).append(out)
        self._ins.setdefault(node_id, []).append(ins)

    def record_output(self, name: str, pass_idx: int, value: int) -> None:
        self._outputs.setdefault(name, []).append((pass_idx, value))

    def record_loop_trip(self, region_id: int, pass_idx: int, iterations: int) -> None:
        self._loop_trips.setdefault(region_id, []).append((pass_idx, iterations))

    def finalize(self, n_passes: int) -> "TraceStore":
        occ: dict[int, OccurrenceArray] = {}
        for node_id, outs in self._out.items():
            ins_rows = self._ins[node_id]
            arity = len(ins_rows[0]) if ins_rows else 0
            ins_cols: tuple[np.ndarray, ...]
            if arity and ins_rows:
                matrix = np.array(ins_rows, dtype=np.int64)
                ins_cols = tuple(matrix[:, k] for k in range(arity))
            else:
                ins_cols = ()
            occ[node_id] = OccurrenceArray(
                pass_idx=np.array(self._pass_idx[node_id], dtype=np.int32),
                step=np.array(self._step[node_id], dtype=np.int32),
                out=np.array(outs, dtype=np.int64),
                ins=ins_cols,
            )
        outputs = {
            name: np.array([v for _, v in sorted(rows)], dtype=np.int64)
            for name, rows in self._outputs.items()
        }
        loop_trips = {
            region: np.array([n for _, n in sorted(rows)], dtype=np.int64)
            for region, rows in self._loop_trips.items()
        }
        return TraceStore(n_passes=n_passes, occurrences=occ, outputs=outputs,
                          loop_trips=loop_trips)


#: Safety cap on iterations of a single loop entry.
MAX_LOOP_ITERATIONS = 100_000


def _wrap(value: int, width: int, signed: bool) -> int:
    if signed:
        return wrap_to_width(value, width)
    return value & mask_for_width(width)


class Interpreter:
    """Executes a CDFG over a sequence of input passes."""

    def __init__(self, cdfg: CDFG, max_loop_iterations: int = MAX_LOOP_ITERATIONS):
        self._cdfg = cdfg
        self._max_iter = max_loop_iterations
        self._val: dict[int, int] = {}
        self._venv: dict[str, int] = {}
        self._mem: dict[str, list[int]] = {}
        self._step = 0
        self._recorder: TraceRecorder | None = None
        self._pass_idx = 0

    # -- public API ------------------------------------------------------------

    def run(self, input_passes: list[dict[str, int]]) -> TraceStore:
        """Execute one pass per input assignment; returns the trace store."""
        cdfg = self._cdfg
        recorder = TraceRecorder(cdfg)
        self._recorder = recorder
        # Arrays are process-scoped memory: they power on at zero and their
        # contents persist across stimulus passes (each pass is one
        # start/done handshake of the same powered-up circuit).
        self._mem = {name: [0] * size
                     for name, (_w, _s, size) in cdfg.array_types.items()}
        for pass_idx, inputs in enumerate(input_passes):
            self._pass_idx = pass_idx
            self._run_pass(inputs)
        store = recorder.finalize(len(input_passes))
        store.mem_final = {name: list(words)
                           for name, words in self._mem.items()}
        return store

    # -- execution ---------------------------------------------------------------

    def _run_pass(self, inputs: dict[str, int]) -> None:
        cdfg = self._cdfg
        self._val = {}
        self._venv = {}
        self._step = 0
        for node_id in cdfg.input_nodes:
            node = cdfg.node(node_id)
            if node.carrier not in inputs:
                raise InterpreterError(f"missing input {node.carrier!r}")
            value = _wrap(inputs[node.carrier], node.width, node.signed)
            self._val[node_id] = value
            self._venv[node.carrier] = value
            self._recorder.record(node_id, self._pass_idx, self._step, (), value)
        self._exec_block(cdfg.block(cdfg.root_region))
        for node_id in cdfg.output_nodes:
            node = cdfg.node(node_id)
            edge = cdfg.in_edge(node_id, 0)
            value = _wrap(self._edge_value(edge), node.width, node.signed)
            self._recorder.record_output(node.name.removeprefix("out:"), self._pass_idx, value)

    def _exec_block(self, block: BlockRegion) -> None:
        cdfg = self._cdfg
        for item in block.items:
            if isinstance(item, OpsItem):
                for node_id in item.nodes:
                    self._exec_op(cdfg.node(node_id))
            elif isinstance(item, SubRegionItem):
                region = cdfg.region(item.region)
                if isinstance(region, IfRegion):
                    self._exec_if(region)
                elif isinstance(region, LoopRegion):
                    self._exec_loop(region)
                else:
                    self._exec_block(cdfg.block(item.region))

    def _exec_if(self, region: IfRegion) -> None:
        cond = self._node_value(region.cond_node)
        if cond:
            self._exec_block(self._cdfg.block(region.then_block))
        else:
            self._exec_block(self._cdfg.block(region.else_block))
        # Sel nodes alias register contents; the variable environment is
        # already correct because only the taken arm executed.

    def _exec_loop(self, region: LoopRegion) -> None:
        cdfg = self._cdfg
        iterations = 0
        while True:
            self._exec_block(cdfg.block(region.test_block))
            if not self._node_value(region.cond_node):
                break
            iterations += 1
            if iterations > self._max_iter:
                raise InterpreterError(
                    f"loop {region.id} exceeded {self._max_iter} iterations "
                    f"(pass {self._pass_idx})")
            self._exec_block(cdfg.block(region.body_block))
        self._recorder.record_loop_trip(region.id, self._pass_idx, iterations)

    def _exec_op(self, node: Node) -> None:
        ins = tuple(self._edge_value(e) for e in self._cdfg.in_edges(node.id))
        if node.kind in (OpKind.LOAD, OpKind.STORE):
            out = self._exec_mem(node, ins)
        else:
            out = _wrap(self._compute(node, ins), node.width, node.signed)
        self._val[node.id] = out
        if node.carrier is not None:
            self._venv[node.carrier] = out
        self._recorder.record(node.id, self._pass_idx, self._step, ins, out)
        self._step += 1

    def _exec_mem(self, node: Node, ins: tuple[int, ...]) -> int:
        """Execute one LOAD/STORE.  The address wraps to the power-of-two
        array size; stored data wraps to the element type — identically in
        every downstream backend."""
        contents = self._mem[node.mem]
        addr = ins[0] & (len(contents) - 1)
        if node.kind is OpKind.LOAD:
            return contents[addr]
        value = _wrap(ins[1], node.width, node.signed)
        contents[addr] = value
        return value

    # -- value resolution -----------------------------------------------------------

    def _edge_value(self, edge: Edge) -> int:
        src = self._cdfg.node(edge.src)
        if edge.carried or src.kind in (OpKind.SELECT, OpKind.ENDLOOP):
            carrier = src.carrier
            if carrier is None or carrier not in self._venv:
                raise InterpreterError(
                    f"read of variable {carrier!r} before any write (node {src.name})")
            return self._venv[carrier]
        if src.kind is OpKind.CONST:
            return src.value
        if edge.src not in self._val:
            raise InterpreterError(f"node {src.name} read before execution")
        return self._val[edge.src]

    def _node_value(self, node_id: int) -> int:
        node = self._cdfg.node(node_id)
        if node.kind in (OpKind.SELECT, OpKind.ENDLOOP):
            return self._venv[node.carrier]
        if node.kind is OpKind.CONST:
            return node.value
        if node_id not in self._val:
            raise InterpreterError(f"condition {node.name} read before execution")
        return self._val[node_id]

    @staticmethod
    def _compute(node: Node, ins: tuple[int, ...]) -> int:
        kind = node.kind
        if kind is OpKind.ADD:
            return ins[0] + ins[1]
        if kind is OpKind.SUB:
            return ins[0] - ins[1]
        if kind is OpKind.MUL:
            return ins[0] * ins[1]
        if kind is OpKind.SHL:
            return ins[0] << (ins[1] & 63)
        if kind is OpKind.SHR:
            return ins[0] >> (ins[1] & 63)
        if kind is OpKind.LT:
            return int(ins[0] < ins[1])
        if kind is OpKind.GT:
            return int(ins[0] > ins[1])
        if kind is OpKind.LE:
            return int(ins[0] <= ins[1])
        if kind is OpKind.GE:
            return int(ins[0] >= ins[1])
        if kind is OpKind.EQ:
            return int(ins[0] == ins[1])
        if kind is OpKind.NE:
            return int(ins[0] != ins[1])
        if kind is OpKind.LAND:
            return int(bool(ins[0]) and bool(ins[1]))
        if kind is OpKind.LOR:
            return int(bool(ins[0]) or bool(ins[1]))
        if kind is OpKind.LNOT:
            return int(not ins[0])
        if kind is OpKind.BAND:
            return ins[0] & ins[1]
        if kind is OpKind.BOR:
            return ins[0] | ins[1]
        if kind is OpKind.BXOR:
            return ins[0] ^ ins[1]
        if kind is OpKind.COPY:
            return ins[0]
        raise InterpreterError(f"cannot execute node kind {kind}")


def simulate(cdfg: CDFG, input_passes: list[dict[str, int]]) -> TraceStore:
    """Profile a CDFG behaviorally over a stimulus.

    ``input_passes`` is one dict per pass mapping input-port names to
    integer values.  Returns a :class:`~repro.sim.traces.TraceStore`
    holding per-operation value traces, occurrence counts and the
    reference outputs — the inputs power estimation and conformance
    checking are built on.
    """
    return Interpreter(cdfg).run(input_passes)
