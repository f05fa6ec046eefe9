"""Durable keys and value codecs for the artifact store.

The in-process memo tables key on ``id(cdfg)`` / ``id(store)`` — correct
within one process, meaningless on disk.  This module supplies the two
halves of the persistent translation:

* **keys** — :func:`digest_key` canonicalizes the id-free parts of a memo
  key (binding/schedule signatures, STG (replay) signatures,
  :class:`~repro.sched.engine.ScheduleOptions`) into one sha256 hex
  digest, and :func:`cdfg_digest` / :func:`trace_store_digest` replace
  the volatile object ids with content digests of the graph and the
  recorded profile;
* **values** — explicit encode/decode pairs for the artifacts the store
  holds.  STGs are rebuilt state by state *preserving transition list
  order* (replay's first-match walk and the controller emission both
  read it), so a decoded STG is bit-identical to the computed one in
  everything downstream consumes.

Payload blobs are pickled plain containers (dicts/lists/tuples/numpy
arrays) — pickle round-trips ints, floats and array dtypes exactly,
which is what the bit-identity acceptance tests check.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import pickle
from typing import Any

import numpy as np

#: Pickle protocol for store blobs (fixed so blobs stay cross-readable
#: between the python versions CI runs).
PICKLE_PROTOCOL = 4


# -- canonical key digests ---------------------------------------------------------


def _canonical(obj: Any, out: list[str]) -> None:
    """Append a canonical token stream for ``obj`` (order-stable, typed)."""
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        out.append(f"{type(obj).__name__}:{obj!r}")
    elif isinstance(obj, float):
        # repr is the shortest exact round-trip — distinct floats get
        # distinct tokens, equal floats identical ones.
        out.append(f"f:{obj!r}")
    elif isinstance(obj, (tuple, list)):
        out.append("(")
        for item in obj:
            _canonical(item, out)
        out.append(")")
    elif isinstance(obj, (set, frozenset)):
        parts = []
        for item in obj:
            sub: list[str] = []
            _canonical(item, sub)
            parts.append("".join(sub))
        out.append("{" + ",".join(sorted(parts)) + "}")
    elif isinstance(obj, dict):
        out.append("d{")
        for key in sorted(obj, key=repr):
            _canonical(key, out)
            out.append("=")
            _canonical(obj[key], out)
        out.append("}")
    elif isinstance(obj, enum.Enum):
        out.append(f"e:{type(obj).__name__}:{obj.value!r}")
    elif dataclasses.is_dataclass(obj):
        out.append(f"@{type(obj).__name__}(")
        for f in dataclasses.fields(obj):
            out.append(f.name + "=")
            _canonical(getattr(obj, f.name), out)
        out.append(")")
    else:
        raise TypeError(f"cannot canonicalize {type(obj).__name__} for a store key")


def digest_key(obj: Any) -> str:
    """sha256 hex digest of an id-free key structure."""
    out: list[str] = []
    _canonical(obj, out)
    return hashlib.sha256("".join(out).encode("utf-8")).hexdigest()


def cdfg_digest(cdfg) -> str:
    """Content digest of a CDFG (memoized on the object).

    Covers everything scheduling and replay can read: nodes with their
    kinds, widths, control ports, guards, carriers and constants; edges
    in construction order with ports and loop-carry annotations; the
    region tree; the interface lists and declared variable types.  Two
    parses of the same source digest identically across processes.
    """
    cached = getattr(cdfg, "_content_digest", None)
    if cached is None:
        nodes = tuple(cdfg.nodes[nid] for nid in sorted(cdfg.nodes))
        regions = tuple(cdfg.regions[rid] for rid in sorted(cdfg.regions))
        cached = digest_key((
            "cdfg", cdfg.name, nodes, tuple(cdfg.edges), regions,
            cdfg.root_region, tuple(cdfg.input_nodes),
            tuple(cdfg.output_nodes), dict(cdfg.var_types),
        ))
        cdfg._content_digest = cached
    return cached


def trace_store_digest(store) -> str:
    """Content digest of a profiled TraceStore (memoized on the object)."""
    cached = getattr(store, "_content_digest", None)
    if cached is None:
        h = hashlib.sha256()
        h.update(f"traces:{store.n_passes}".encode())
        for node_id in sorted(store.occurrences):
            occ = store.occurrences[node_id]
            h.update(f"n{node_id}:{len(occ.ins)}".encode())
            for arr in (occ.pass_idx, occ.step, occ.out, *occ.ins):
                h.update(str(arr.dtype).encode())
                h.update(arr.tobytes())
        for name in sorted(store.outputs):
            h.update(f"o{name}".encode())
            h.update(store.outputs[name].tobytes())
        for region in sorted(store.loop_trips):
            h.update(f"l{region}".encode())
            h.update(store.loop_trips[region].tobytes())
        cached = h.hexdigest()
        store._content_digest = cached
    return cached


# -- value codecs ------------------------------------------------------------------


def encode_stg(stg) -> dict:
    """STG -> plain payload dict (transition order preserved verbatim)."""
    return {
        "start": stg.start,
        "done": stg.done,
        "next_id": stg._next_id,
        "states": [
            (sid, state.duration,
             [(op.node, op.fu, op.start, op.end) for op in state.ops])
            for sid, state in sorted(stg.states.items())
        ],
        "transitions": [
            (t.src, t.dst, sorted(t.conds)) for t in stg.transitions
        ],
    }


def decode_stg(payload: dict):
    """Payload dict -> STG, bit-identical in all replayed/emitted content."""
    from repro.sched.stg import STG, ScheduledOp, State

    stg = STG()
    for sid, duration, ops in payload["states"]:
        stg.states[sid] = State(
            id=sid, duration=duration,
            ops=[ScheduledOp(node=node, fu=fu, start=start, end=end)
                 for node, fu, start, end in ops])
    stg.start = payload["start"]
    stg.done = payload["done"]
    stg._next_id = payload["next_id"]
    for src, dst, conds in payload["transitions"]:
        stg.add_transition(src, dst, frozenset((c, want) for c, want in conds))
    return stg


def encode_replay(result) -> dict:
    """ReplayResult -> plain payload dict (numpy arrays pass through)."""
    return {
        "cycles": result.cycles,
        "op_cycle": dict(result.op_cycle),
        "op_start": dict(result.op_start),
        "op_state": dict(result.op_state),
        "total_cycles": result.total_cycles,
        "state_visits": dict(result.state_visits),
        "state_seq": list(result.state_seq),
    }


def decode_replay(payload: dict):
    """Payload dict -> ReplayResult with a fresh (empty) state-count memo."""
    from repro.sched.replay import ReplayResult

    return ReplayResult(
        cycles=np.asarray(payload["cycles"]),
        op_cycle=dict(payload["op_cycle"]),
        op_start=dict(payload["op_start"]),
        op_state=dict(payload["op_state"]),
        total_cycles=int(payload["total_cycles"]),
        state_visits=dict(payload["state_visits"]),
        state_seq=list(payload["state_seq"]),
    )


def dumps_payload(payload: Any) -> bytes:
    return pickle.dumps(payload, protocol=PICKLE_PROTOCOL)


def loads_payload(blob: bytes) -> Any:
    return pickle.loads(blob)
