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
