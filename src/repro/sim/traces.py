"""Trace storage: per-node occurrence streams from behavioral simulation.

A *trace* in the paper (Section 2.3) is the time-ordered sequence of
input/output vectors seen by an RT-level unit.  We store the primitive form
— one occurrence stream per CDFG node — from which any unit's trace can be
reconstructed by merging in STG execution order (trace manipulation).
Storage is numpy-backed so the statistics the power estimator needs are
vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError


@dataclass
class OccurrenceArray:
    """Finalized occurrence stream of one node.

    ``ins[k][i]`` is the value on data port ``k`` at the node's ``i``-th
    execution; ``out[i]`` the result; ``pass_idx``/``step`` locate the
    execution in the stimulus (pass number, dynamic program order).
    """

    pass_idx: np.ndarray
    step: np.ndarray
    out: np.ndarray
    ins: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return int(self.out.shape[0])

    def pass_slice(self, pass_index: int) -> slice:
        """Index range of occurrences belonging to one pass."""
        lo = int(np.searchsorted(self.pass_idx, pass_index, side="left"))
        hi = int(np.searchsorted(self.pass_idx, pass_index, side="right"))
        return slice(lo, hi)


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


@dataclass
class TraceStore:
    """All occurrence streams of one behavioral simulation."""

    n_passes: int
    occurrences: dict[int, OccurrenceArray] = field(default_factory=dict)
    outputs: dict[str, np.ndarray] = field(default_factory=dict)
    loop_trips: dict[int, np.ndarray] = field(default_factory=dict)
    #: Final array contents after the last pass (element-typed values) —
    #: the reference image the conformance harness holds every other
    #: backend's memory traffic against.
    mem_final: dict[str, list[int]] = field(default_factory=dict)
    #: Replay's recorded state walks, keyed by the duration-free path
    #: signature (see :func:`repro.sched.replay.replay`).
    _walk_cache: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)
    #: Activity statistics of the streams derived from this store, one
    #: entry per distinct stream content (see
    #: :mod:`repro.power.trace_manip` for the keys).
    _stat_table: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def occ(self, node_id: int) -> OccurrenceArray:
        try:
            return self.occurrences[node_id]
        except KeyError:
            raise ReproError(f"node {node_id} has no recorded occurrences") from None

    def count(self, node_id: int) -> int:
        array = self.occurrences.get(node_id)
        return 0 if array is None else len(array)

    def branch_probability(self, cond_node: int) -> float:
        """Fraction of a condition node's evaluations that were true."""
        array = self.occurrences.get(cond_node)
        if array is None or len(array) == 0:
            return 0.0
        return float(np.count_nonzero(array.out)) / float(len(array))

    def total_occurrences(self) -> int:
        return sum(len(a) for a in self.occurrences.values())
