"""Persistent content-addressed artifact store (cross-run memoization).

The in-process :class:`~repro.core.cache.SynthesisCache` dies with its
engine; this package gives the same content-addressed artifacts a
durable, versioned home shared by every run, worker process and CI job
pointed at the same directory.  See ``docs/service.md`` for the store
layout, key vocabulary and GC policy.

The one-call client API is :func:`attached_cache`: it returns a plain
in-process cache when no store is configured, and a
:class:`~repro.store.persistent.PersistentCache` reading through to the
directory named by ``store_dir`` or ``$REPRO_STORE_DIR`` otherwise.  An
unopenable store degrades to the in-process cache with a warning rather
than failing the run.
"""

from __future__ import annotations

import os
import sys

from repro.core.cache import SynthesisCache
from repro.store.artifacts import (
    STORE_DIR_ENV,
    STORE_MAX_BYTES_ENV,
    SCHEMA_VERSION,
    ArtifactStore,
    open_store,
    set_io_fault_hook,
)
from repro.store.atomic import (
    append_jsonl,
    atomic_write_bytes,
    atomic_write_text,
    sweep_orphans,
    write_json,
)
from repro.store.codec import cdfg_digest, digest_key, trace_store_digest
from repro.store.persistent import PersistentCache, PersistentMemoTable

__all__ = [
    "ArtifactStore",
    "PersistentCache",
    "PersistentMemoTable",
    "SCHEMA_VERSION",
    "STORE_DIR_ENV",
    "STORE_MAX_BYTES_ENV",
    "append_jsonl",
    "atomic_write_bytes",
    "atomic_write_text",
    "attached_cache",
    "cdfg_digest",
    "digest_key",
    "open_store",
    "set_io_fault_hook",
    "sweep_orphans",
    "trace_store_digest",
    "write_json",
]


def attached_cache(*, store_dir: str | os.PathLike | None = None,
                   max_entries: int | None = None) -> SynthesisCache:
    """A pipeline cache, store-backed when a store directory is configured.

    ``store_dir=None`` consults ``$REPRO_STORE_DIR``; no directory from
    either source returns a plain :class:`SynthesisCache`.  Opening the
    store is best-effort: an unreadable root (permissions, bad mount)
    falls back to cold in-process compute with a one-line warning — the
    graceful-degradation contract of the job server.
    """
    root = store_dir if store_dir is not None else os.environ.get(STORE_DIR_ENV)
    if not root:
        return SynthesisCache(max_entries=max_entries)
    try:
        store = open_store(root)
    except Exception as exc:  # degraded: compute cold rather than fail
        print(f"repro.store: cannot open store at {root!r} ({exc}); "
              f"running with in-process cache only", file=sys.stderr)
        return SynthesisCache(max_entries=max_entries)
    return PersistentCache(store, max_entries=max_entries)
