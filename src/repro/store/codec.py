"""Durable keys for the checkpoint store.

:func:`digest_key` canonicalizes an id-free key structure (plain
containers, enums, dataclasses such as
:class:`~repro.core.search.SearchConfig`) into one sha256 hex digest,
and :func:`cdfg_digest` gives a CDFG a content digest that is stable
across parses and processes.  An explore checkpoint key combines both
(see :func:`repro.explore.steal.job_checkpoint_key`).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Any


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

