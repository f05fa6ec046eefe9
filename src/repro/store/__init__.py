"""Persistent content-addressed store of explore checkpoints.

The store holds one kind of artifact: the ``explore`` grid-cell
checkpoints of :mod:`repro.explore.steal`, each a JSON file, so a
repeated exploration warm-starts every cell it already ran.  The job
server also keeps its journal in the store directory.  In-run reuse of
schedules, replays and merged traces belongs to the in-process memo
tables of :class:`~repro.core.cache.SynthesisCache`, which are freed
when their engine is dropped.
See ``docs/service.md`` for the store layout, key vocabulary and GC
policy.
"""

from __future__ import annotations

from repro.store.artifacts import (
    STORE_DIR_ENV,
    SCHEMA_VERSION,
    ArtifactStore,
    set_io_fault_hook,
)
from repro.store.atomic import (
    append_jsonl,
    atomic_write_bytes,
    atomic_write_text,
    sweep_orphans,
    write_json,
)
from repro.store.codec import cdfg_digest, digest_key

__all__ = [
    "ArtifactStore",
    "SCHEMA_VERSION",
    "STORE_DIR_ENV",
    "append_jsonl",
    "atomic_write_bytes",
    "atomic_write_text",
    "cdfg_digest",
    "digest_key",
    "set_io_fault_hook",
    "sweep_orphans",
    "write_json",
]
