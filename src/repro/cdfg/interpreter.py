"""Behavioral execution of a CDFG.

The interpreter executes the region tree in program order and records an
*occurrence* (input values, output value, dynamic step number) for every
schedulable node.  One run over a stimulus is the "initial behavioral
simulation" of Section 2.3 — every later synthesis step reuses these
occurrence streams through trace manipulation instead of re-simulating.

Value semantics: every node's result is wrapped to its declared width
(two's complement when signed); variable writes update the variable
environment, which is the single source of truth for loop-carried reads and
for the structural ``Sel`` / ``Elp`` nodes (which alias register contents).

Execution is compiled, not interpreted, as :mod:`repro.hdl.netsim` runs
netlists.  :class:`Interpreter` generates the source of one Python
function per CDFG, once, and each call of it runs one stimulus pass on
local variables: one per node value and one per variable, the region
tree's loops and conditionals as ``while`` and ``if`` statements, and
every operator from :data:`OPERATORS` with its width wrap inlined.  Each
occurrence is appended to int64 ``array`` columns, one per node and
field, which become the :class:`~repro.sim.traces.TraceStore` arrays at
the end of the run.
"""

from __future__ import annotations

import linecache
import re
import weakref
from array import array
from functools import lru_cache

import numpy as np

from repro.errors import InterpreterError
from repro.cdfg.edge import Edge
from repro.cdfg.graph import CDFG
from repro.cdfg.node import Node, OpKind
from repro.cdfg.regions import IfRegion, LoopRegion, OpsItem
from repro.sim.traces import OccurrenceArray, TraceStore
from repro.utils.bitwidth import wrap_source

#: Safety cap on iterations of a single loop entry.
MAX_LOOP_ITERATIONS = 100_000

#: Deepest loop nesting the compiled pass supports: Python compiles at
#: most 20 statically nested loops in one function.
MAX_LOOP_NESTING = 20

#: Every computing kind's result over its data inputs ``{0}`` and
#: ``{1}``, before the wrap to the node's width: the one definition of
#: what an operation computes.  The compiled pass inlines these; gatesim
#: evaluates them through :func:`evaluator`.  Each binds at least as
#: tightly as ``+``, except the 0/1-valued conditional expressions.
OPERATORS: dict[OpKind, str] = {
    OpKind.ADD: "{0} + {1}",
    OpKind.SUB: "{0} - {1}",
    OpKind.MUL: "{0} * {1}",
    OpKind.SHL: "({0} << ({1} & 63))",
    OpKind.SHR: "({0} >> ({1} & 63))",
    OpKind.LT: "1 if {0} < {1} else 0",
    OpKind.GT: "1 if {0} > {1} else 0",
    OpKind.LE: "1 if {0} <= {1} else 0",
    OpKind.GE: "1 if {0} >= {1} else 0",
    OpKind.EQ: "1 if {0} == {1} else 0",
    OpKind.NE: "1 if {0} != {1} else 0",
    OpKind.LAND: "1 if {0} and {1} else 0",
    OpKind.LOR: "1 if {0} or {1} else 0",
    OpKind.LNOT: "0 if {0} else 1",
    OpKind.BAND: "({0} & {1})",
    OpKind.BOR: "({0} | {1})",
    OpKind.BXOR: "({0} ^ {1})",
    OpKind.COPY: "{0}",
}

#: Kinds whose result is 0 or 1, which every width but signed 1-bit holds.
_BOOLEAN = frozenset({OpKind.LT, OpKind.GT, OpKind.LE, OpKind.GE, OpKind.EQ,
                      OpKind.NE, OpKind.LAND, OpKind.LOR, OpKind.LNOT})

#: Kinds whose value is a variable's current contents.
_ALIASES = (OpKind.SELECT, OpKind.ENDLOOP)


def _result_source(kind: OpKind, args, width: int, signed: bool) -> str:
    """Source of ``kind`` over the operand sources ``args``, wrapped."""
    if kind not in OPERATORS:
        raise InterpreterError(f"cannot execute node kind {kind}")
    value = OPERATORS[kind].format(*args)
    if kind in _BOOLEAN:
        if width > 1 or not signed:
            return value
        value = f"({value})"
    return wrap_source(value, width, signed)


@lru_cache(maxsize=None)
def evaluator(kind: OpKind, width: int, signed: bool):
    """``kind``'s result wrapped to ``width`` bits, as a function of its
    data inputs (compiled from :data:`OPERATORS`, once per signature)."""
    params = "a, b" if "{1}" in OPERATORS.get(kind, "") else "a"
    body = _result_source(kind, params.split(", "), width, signed)
    return eval(f"lambda {params}: {body}", {})


def _literal(value: int) -> str:
    return str(value) if value >= 0 else f"({value})"


class _PassSource:
    """Generates the pass function of one CDFG, line by line.

    Besides ``lines`` it lays out the int64 columns: ``nodes`` has one
    ``(node id, position column, inputs, output column)`` per recorded
    node, where a position is ``pass << 32 | step`` and each input is
    ``(column, None)``, or ``(None, value)`` for a constant, which needs
    no column; ``outputs`` has one ``(port, column)`` per output; and
    ``trips`` is the first of the loop-exit columns (loop id, pass,
    iterations) when there are loops.
    """

    def __init__(self, cdfg: CDFG, max_iterations: int):
        self.cdfg = cdfg
        self.max_iterations = max_iterations
        self.lines: list[str] = []
        self.columns: list[str] = []
        self.nodes: list[tuple] = []
        self.outputs: list[tuple[str, int]] = []
        self.trips: int | None = None
        #: Generated local name -> (what it holds, display name).
        self.locals: dict[str, tuple[str, str]] = {}
        #: Line numbers of the branch and loop-exit tests.
        self.condition_lines: set[int] = set()
        self.arrays = {name: (f"m{k}", size) for k, (name, (_w, _s, size))
                       in enumerate(cdfg.array_types.items())}
        self._vars: dict[str, str] = {}
        self._loop_depth = 0
        # Node values read other than through a variable.
        self._read = {edge.src for edge in cdfg.edges
                      if not edge.is_control and not edge.carried}
        self._read.update(region.cond_node for region in cdfg.regions.values()
                          if isinstance(region, (IfRegion, LoopRegion)))

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def column(self, name: str) -> str:
        self.columns.append(name)
        return name

    def node_columns(self, node: Node, constants: list) -> tuple:
        """Add the columns of ``node``, whose inputs always carry
        ``constants`` (``None`` where they vary): its position, each
        varying input and its output.  Returns their names, ``None``
        for a constant input."""
        k = node.id
        position = len(self.columns)
        step_col = self.column(f"s{k}")
        ins, in_cols = [], []
        for j, value in enumerate(constants):
            if value is None:
                ins.append((len(self.columns), None))
                in_cols.append(self.column(f"i{k}_{j}"))
            else:
                ins.append((None, value))
                in_cols.append(None)
        self.nodes.append((node.id, position, tuple(ins), len(self.columns)))
        return step_col, in_cols, self.column(f"o{k}")

    def var(self, carrier: str | None, node: Node) -> str:
        if carrier is None:
            raise InterpreterError(
                f"read of variable None before any write (node {node.name})")
        name = self._vars.get(carrier)
        if name is None:
            name = self._vars[carrier] = f"v{len(self._vars)}"
            self.locals[name] = ("variable", carrier)
        return name

    def value(self, node: Node) -> str:
        name = f"n{node.id}"
        self.locals[name] = ("node", node.name)
        return name

    def constant(self, edge: Edge) -> int | None:
        """The value an input edge always carries, if it is constant."""
        src = self.cdfg.node(edge.src)
        return None if edge.carried or src.kind is not OpKind.CONST else src.value

    def operand(self, edge: Edge) -> str:
        src = self.cdfg.node(edge.src)
        if edge.carried or src.kind in _ALIASES:
            return self.var(src.carrier, src)
        if src.kind is OpKind.CONST:
            return _literal(src.value)
        return self.value(src)

    def condition(self, node_id: int) -> str:
        node = self.cdfg.node(node_id)
        if node.kind in _ALIASES:
            return self.var(node.carrier, node)
        if node.kind is OpKind.CONST:
            return _literal(node.value)
        self.condition_lines.add(len(self.lines) + 1)
        return self.value(node)

    # -- program text ----------------------------------------------------------

    def function(self) -> None:
        cdfg = self.cdfg
        body: list[str] = []
        self.lines, outer = body, self.lines
        # The position of the pass's first occurrence.
        self.emit(1, "st = pass_idx << 32")
        for node_id in cdfg.input_nodes:
            node = cdfg.node(node_id)
            step_col, _, out_col = self.node_columns(node, [])
            targets = [self.var(node.carrier, node)]
            if node.id in self._read:
                targets.append(self.value(node))
            value = wrap_source(f"inputs[{node.carrier!r}]", node.width,
                                node.signed)
            self.emit(1, f"{' = '.join(targets)} = {value}")
            self.emit(1, f"{step_col}(st); {out_col}({targets[0]})")
        self.block(cdfg.root_region, 1)
        for node_id in cdfg.output_nodes:
            node = cdfg.node(node_id)
            self.outputs.append((node.name.removeprefix("out:"),
                                 len(self.columns)))
            name = self.column(f"y{len(self.outputs)}")
            value = self.operand(cdfg.in_edge(node_id, 0))
            self.emit(1, f"{name}({wrap_source(value, node.width, node.signed)})")
        self.lines = outer
        self.emit(0, "def behavior_pass(inputs, pass_idx, mems, appends):")
        if self.columns:
            self.emit(1, f"{', '.join(self.columns)}, = appends")
        if self.arrays:
            self.emit(1, f"{', '.join(m for m, _ in self.arrays.values())}, "
                         "= mems")
        # Line numbers count from the header lines just emitted.
        offset = len(self.lines)
        self.condition_lines = {line + offset for line in self.condition_lines}
        self.lines.extend(body)

    def block(self, region_id: int, depth: int) -> None:
        cdfg = self.cdfg
        start = len(self.lines)
        for item in cdfg.block(region_id).items:
            if isinstance(item, OpsItem):
                for offset, node_id in enumerate(item.nodes):
                    self.op(cdfg.node(node_id), offset, depth)
                if item.nodes:
                    self.emit(depth, f"st += {len(item.nodes)}")
                continue
            region = cdfg.region(item.region)
            if isinstance(region, IfRegion):
                self.emit(depth, f"if {self.condition(region.cond_node)}:")
                self.block(region.then_block, depth + 1)
                if cdfg.block(region.else_block).items:
                    self.emit(depth, "else:")
                    self.block(region.else_block, depth + 1)
            elif isinstance(region, LoopRegion):
                self.loop(region, depth)
            else:
                self.block(item.region, depth)
        if len(self.lines) == start:
            self.emit(depth, "pass")

    def loop(self, region: LoopRegion, depth: int) -> None:
        self._loop_depth += 1
        if self._loop_depth > MAX_LOOP_NESTING:
            raise InterpreterError(
                f"behavior {self.cdfg.name!r}: loop {region.id} is nested "
                f"{self._loop_depth} deep, but Python compiles at most "
                f"{MAX_LOOP_NESTING} nested loops")
        if self.trips is None:
            self.trips = len(self.columns)
            for name in ("xr", "xp", "xn"):
                self.column(name)
        count = f"t{region.id}"
        self.emit(depth, f"{count} = 0")
        self.emit(depth, "while True:")
        self.block(region.test_block, depth + 1)
        self.emit(depth + 1, f"if not {self.condition(region.cond_node)}:")
        self.emit(depth + 2, "break")
        self.emit(depth + 1, f"{count} += 1")
        self.emit(depth + 1, f"if {count} > {self.max_iterations}:")
        self.emit(depth + 2, f"return {region.id}")
        self.block(region.body_block, depth + 1)
        self.emit(depth, f"xr({region.id}); xp(pass_idx); xn({count})")
        self._loop_depth -= 1

    def op(self, node: Node, offset: int, depth: int) -> None:
        """One node's execution and its record, on one line."""
        edges = self.cdfg.in_edges(node.id)
        args = [self.operand(edge) for edge in edges]
        constants = [self.constant(edge) for edge in edges]
        step_col, in_cols, out_col = self.node_columns(node, constants)
        parts = [f"{step_col}(st + {offset})" if offset else f"{step_col}(st)"]
        parts += [f"{col}({arg})" for col, arg in zip(in_cols, args) if col]
        targets = []
        if node.kind in (OpKind.LOAD, OpKind.STORE):
            mem, size = self.arrays[node.mem]
            cell = f"{mem}[{args[0]} & {size - 1}]"
            if node.kind is OpKind.LOAD:
                value = cell
            else:
                value = wrap_source(args[1], node.width, node.signed)
                targets.append(cell)
        else:
            value = _result_source(node.kind, args, node.width, node.signed)
        if node.id in self._read or node.kind is OpKind.STORE:
            targets.append(self.value(node))
        if node.carrier is not None:
            targets.append(self.var(node.carrier, node))
        if targets:
            parts.append(f"{' = '.join(targets)} = {value}")
            value = targets[-1]
        parts.append(f"{out_col}({value})")
        self.emit(depth, "; ".join(parts) + f"  # {node.name}")


class Interpreter:
    """Executes a CDFG over a sequence of input passes.

    The constructor compiles the CDFG into one generated pass function;
    each :meth:`run` reuses it with fresh columns and memory, so one
    interpreter serves any number of runs.  ``source`` is the generated
    text, which tracebacks show as ``<behavior NAME>``.  The interpreter
    keeps no reference to the CDFG.
    """

    def __init__(self, cdfg: CDFG, max_loop_iterations: int = MAX_LOOP_ITERATIONS):
        self.name = cdfg.name
        self.max_loop_iterations = max_loop_iterations
        gen = _PassSource(cdfg, max_loop_iterations)
        gen.function()
        self.source = "\n".join(gen.lines) + "\n"
        self._columns = len(gen.columns)
        self._nodes = gen.nodes
        self._outputs = gen.outputs
        self._trips = gen.trips
        self._arrays = [(name, size) for name, (_m, size) in gen.arrays.items()]
        self._locals = gen.locals
        self._condition_lines = gen.condition_lines
        self._filename = f"<behavior {cdfg.name}>"
        try:
            code = _compile(self.source, self._filename)
        except (SyntaxError, RecursionError):
            raise InterpreterError(
                f"behavior {cdfg.name!r} nests its regions too deeply to "
                "compile (Python allows 100 levels of indentation)") from None
        namespace: dict = {}
        exec(code, namespace)
        self._run_pass = namespace.pop("behavior_pass")
        lines = self.source.splitlines(keepends=True)
        linecache.cache[self._filename] = (len(self.source), None, lines,
                                           self._filename)
        weakref.finalize(self, _forget_source, self._filename, lines)

    # -- public API ------------------------------------------------------------

    def run(self, input_passes: list[dict[str, int]]) -> TraceStore:
        """Execute one pass per input assignment; returns the trace store."""
        columns = [array("q") for _ in range(self._columns)]
        appends = tuple(column.append for column in columns)
        # Arrays are process-scoped memory: they power on at zero and their
        # contents persist across stimulus passes (each pass is one
        # start/done handshake of the same powered-up circuit).
        mems = [[0] * size for _name, size in self._arrays]
        run_pass = self._run_pass
        for pass_idx, inputs in enumerate(input_passes):
            try:
                looping = run_pass(inputs, pass_idx, mems, appends)
            except KeyError as exc:
                raise InterpreterError(f"missing input {exc.args[0]!r}") from None
            except NameError as exc:
                raise self._unbound(exc) from None
            if looping is not None:
                raise InterpreterError(
                    f"loop {looping} exceeded {self.max_loop_iterations} "
                    f"iterations (pass {pass_idx})")
        return self._store(len(input_passes), columns, mems)

    # -- results ---------------------------------------------------------------

    def _store(self, n_passes: int, columns: list[array],
               mems: list[list[int]]) -> TraceStore:
        """The trace store of the filled columns.

        Occurrence streams are keyed in first-execution order and loop
        trips in first-exit order; replay and the trace merge iterate
        both.  Each column is copied into numpy arrays of its own (a
        position column into int32 pass and step arrays): a view of the
        ``array`` would keep a memoryview and the column's spare capacity
        alive with every stream.
        """
        def view(k: int) -> np.ndarray:
            return np.array(columns[k], np.int64)

        def stream(position: int, ins: tuple, out: int) -> OccurrenceArray:
            where = view(position)
            return OccurrenceArray(
                pass_idx=(where >> 32).astype(np.int32),
                step=(where & 0xFFFFFFFF).astype(np.int32),
                out=view(out),
                ins=tuple(np.full(len(where), value, np.int64) if k is None
                          else view(k) for k, value in ins))

        executed = [entry for entry in self._nodes if columns[entry[1]]]
        # By the position of the first occurrence; the stable sort keeps
        # the inputs, all at step 0 of pass 0, first and in order.
        executed.sort(key=lambda e: columns[e[1]][0])
        occurrences = {node_id: stream(*layout)
                       for node_id, *layout in executed}
        outputs = {name: view(k) for name, k in self._outputs if columns[k]}
        loop_trips = {}
        if self._trips is not None and columns[self._trips]:
            loops, passes, trips = (view(self._trips + k) for k in range(3))
            ids, first_exit = np.unique(loops, return_index=True)
            for loop in ids[np.argsort(first_exit)]:
                exits = loops == loop
                count, when = trips[exits], passes[exits]
                # A nested loop exits several times per pass: fewest first.
                loop_trips[int(loop)] = count[np.lexsort((count, when))]
        return TraceStore(
            n_passes=n_passes, occurrences=occurrences, outputs=outputs,
            loop_trips=loop_trips,
            mem_final={name: words for (name, _), words
                       in zip(self._arrays, mems)})

    def _unbound(self, exc: NameError) -> InterpreterError:
        """The behavioral error behind a generated local read unset."""
        match = re.search(r"'(\w+)'", str(exc))
        held = self._locals.get(match.group(1)) if match else None
        if held is None:
            return InterpreterError(f"behavior {self.name!r}: {exc}")
        what, name = held
        if what == "variable":
            return InterpreterError(f"read of variable {name!r} before any write")
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        what = "condition" if tb.tb_lineno in self._condition_lines else "node"
        return InterpreterError(f"{what} {name} read before execution")


@lru_cache(maxsize=1)
def _compile(source: str, filename: str):
    """The code of a generated pass.  The last one is kept: flows such as
    fuzzing simulate the same behavior several times in a row."""
    return compile(source, filename, "exec")


def _forget_source(filename: str, lines: list[str]) -> None:
    """Drop a freed interpreter's source from ``linecache``, unless a
    later interpreter of the same name has replaced it."""
    entry = linecache.cache.get(filename)
    if entry is not None and entry[2] is lines:
        del linecache.cache[filename]


def simulate(cdfg: CDFG, input_passes: list[dict[str, int]]) -> TraceStore:
    """Profile a CDFG behaviorally over a stimulus.

    ``input_passes`` is one dict per pass mapping input-port names to
    integer values.  Returns a :class:`~repro.sim.traces.TraceStore`
    holding per-operation value traces, occurrence counts and the
    reference outputs — the inputs power estimation and conformance
    checking are built on.
    """
    return Interpreter(cdfg).run(input_passes)
