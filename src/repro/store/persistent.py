"""The MemoTable-compatible in-process front over the artifact store.

:class:`PersistentCache` is a drop-in :class:`~repro.core.cache.SynthesisCache`
whose ``schedule`` and ``replay`` tables read through to an
:class:`~repro.store.artifacts.ArtifactStore`: an in-memory miss first
consults the disk store under the durable content key, and a computed
value is published back (best-effort — an unwritable store degrades to
plain in-process memoization, never to failure).  The ``traces`` and
``designs`` tables stay purely in-process: their values (merged unit
streams, whole design points) hold live object graphs whose
serialization cost would dwarf recomputation.

Durable keys need content digests where the memo keys carry ``id()``\\ s;
:meth:`PersistentCache.bind` registers the CDFG / trace-store objects so
the translation can happen (and pins them, keeping the ids stable).
Binding happens automatically in :meth:`DesignPoint.initial
<repro.core.design.DesignPoint.initial>` and the engine constructor, so
``SynthesisEngine(..., cache=PersistentCache(store))`` is the whole
client-side change.  An unbound id simply keys nothing durable — the
table falls back to in-process behavior for that call.
"""

from __future__ import annotations

import threading

from repro.core.cache import MemoTable, SynthesisCache
from repro.core.profile import PROFILER
from repro.store.artifacts import ArtifactStore
from repro.store.codec import (
    cdfg_digest,
    decode_replay,
    decode_stg,
    digest_key,
    encode_replay,
    encode_stg,
    trace_store_digest,
)


class PersistentMemoTable(MemoTable):
    """A memo table whose misses read through to the artifact store."""

    def __init__(self, name: str, store: ArtifactStore, durable_key,
                 encode, decode, max_entries: int | None = None):
        super().__init__(name, max_entries=max_entries)
        self.store = store
        self._durable_key = durable_key
        self._encode = encode
        self._decode = decode

    def get_or_compute(self, key, compute):
        with self._lock:
            hit = key in self._table
            value = self._table.get(key)
        if hit:
            PROFILER.record(self._stage, incremental=True)
            return value
        digest = self._durable_key(key)
        if digest is not None:
            payload = self.store.get(self.name, digest)
            if payload is not None:
                try:
                    value = self._decode(payload)
                except Exception:
                    value = None  # stale codec / foreign payload: cold miss
                if value is not None:
                    # A cross-run hit: no compute ran, so it counts as a
                    # table hit; the disk read itself is the store's
                    # ("store" profiler stage).
                    PROFILER.record(self._stage, incremental=True)
                    with self._lock:
                        return self._publish_locked(key, value)
        PROFILER.record(self._stage)
        value = compute()
        if digest is not None:
            try:
                self.store.put(self.name, digest, self._encode(value))
            except Exception:
                pass  # degradation: an unwritable store never fails compute
        with self._lock:
            return self._publish_locked(key, value)


class PersistentCache(SynthesisCache):
    """A :class:`SynthesisCache` backed by a shared on-disk artifact store."""

    def __init__(self, store: ArtifactStore,
                 max_entries: int | None = None):
        super().__init__(max_entries=max_entries)
        self.store = store
        self._bind_lock = threading.Lock()
        #: id(obj) -> (pinned obj, content digest).  Pinning keeps the id
        #: from being recycled while the digest maps it.
        self._digests: dict[int, tuple[object, str]] = {}
        self.schedule = PersistentMemoTable(
            "schedule", store, self._schedule_key, encode_stg, decode_stg,
            max_entries)
        self.replay = PersistentMemoTable(
            "replay", store, self._replay_key, encode_replay, decode_replay,
            max_entries)

    # -- id -> content-digest binding -------------------------------------------

    def bind(self, cdfg=None, trace_store=None) -> None:
        """Register the objects whose ids appear in this cache's memo keys."""
        with self._bind_lock:
            if cdfg is not None and id(cdfg) not in self._digests:
                self._digests[id(cdfg)] = (cdfg, cdfg_digest(cdfg))
            if trace_store is not None and id(trace_store) not in self._digests:
                self._digests[id(trace_store)] = (
                    trace_store, trace_store_digest(trace_store))

    def _digest_of(self, obj_id: int) -> str | None:
        entry = self._digests.get(obj_id)
        return entry[1] if entry is not None else None

    # -- durable key translation ------------------------------------------------
    # Memo key shapes are owned by the compute sites:
    #   schedule: (id(cdfg), binding.schedule_signature(), options)
    #             -- repro.sched.engine.schedule
    #   replay:   (id(store), id(cdfg), stg.replay_signature())
    #             -- repro.sched.replay.replay

    def _schedule_key(self, key) -> str | None:
        cdfg_id, schedule_sig, options = key
        graph = self._digest_of(cdfg_id)
        if graph is None:
            return None
        return digest_key(("schedule", graph, schedule_sig, options))

    def _replay_key(self, key) -> str | None:
        store_id, cdfg_id, replay_sig = key
        traces = self._digest_of(store_id)
        graph = self._digest_of(cdfg_id)
        if traces is None or graph is None:
            return None
        return digest_key(("replay", traces, graph, replay_sig))
