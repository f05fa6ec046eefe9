"""The versioned, content-addressed on-disk artifact store.

Layout (all under one root directory, shareable by concurrent processes)::

    <root>/
      STORE_VERSION           # schema stamp, json: {"schema": 1}
      v1/<kind>/<dd>/<digest>.pkl

``kind`` is the artifact family (``explore``: one grid-cell checkpoint
per blob); ``digest`` is the sha256 key from :mod:`repro.store.codec`;
``dd`` its first two hex chars (fan-out).  Every blob is a pickled
envelope ``{"schema", "kind", "key", "payload"}`` —
loading verifies all three stamps, so a schema bump, a hash collision
across kinds, or a torn/corrupt file all read as a clean miss (corrupt
files are additionally unlinked).  Publication is atomic
(:func:`repro.store.atomic.atomic_write_bytes`), so readers sharing the
store with writers — worker processes, concurrent CI runs, a server
killed mid-job — never observe a partial artifact.

Reads and writes are timed under the ``store`` stage of
:data:`repro.core.profile.PROFILER` with a disk hit marked incremental,
which is how checkpoint reuse surfaces in a job server result's
``store_stage``.

The GC is size-bounded: when the store exceeds ``max_bytes`` (constructor
argument or ``REPRO_STORE_MAX_BYTES``), oldest-mtime blobs are evicted
until the store fits again.  Eviction is safe at any moment — a missing
artifact is just a cold miss.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading

from repro.core.profile import PROFILER
from repro.store.atomic import atomic_write_bytes, sweep_orphans, write_json
from repro.store.codec import dumps_payload, loads_payload

#: On-disk schema version; bump on any envelope or codec change.  Blobs
#: under other versions are never read (and GC only manages the current
#: version's tree), so mixed-version roots degrade to cold misses.
SCHEMA_VERSION = 1

#: Environment variable naming the store root for implicit attachment.
STORE_DIR_ENV = "REPRO_STORE_DIR"

#: Environment variable bounding the store size in bytes (GC target).
STORE_MAX_BYTES_ENV = "REPRO_STORE_MAX_BYTES"

#: How many publishes happen between size checks when a bound is set.
_GC_EVERY = 32

#: Process-wide I/O fault hook (:mod:`repro.faults`): called as
#: ``hook(op, kind, digest)`` with ``op`` in ``("read", "write")``
#: before every blob access.  Raising :class:`OSError` simulates a hard
#: I/O failure (EIO-style), which deliberately propagates to the caller
#: — unlike a missing blob, which is a clean cold miss.
_IO_FAULT_HOOK = None


def set_io_fault_hook(hook) -> None:
    """Install (or with ``None`` clear) the process-wide I/O fault hook."""
    global _IO_FAULT_HOOK
    _IO_FAULT_HOOK = hook


class ArtifactStore:
    """One process's handle on a shared on-disk artifact store."""

    def __init__(self, root: pathlib.Path | str, *,
                 max_bytes: int | None = None):
        self.root = pathlib.Path(root)
        self.max_bytes = max_bytes
        self.version_dir = self.root / f"v{SCHEMA_VERSION}"
        self._lock = threading.Lock()
        self._puts_since_gc = 0
        self.version_dir.mkdir(parents=True, exist_ok=True)
        stamp = self.root / "STORE_VERSION"
        if not stamp.exists():
            write_json(stamp, {"schema": SCHEMA_VERSION})

    # -- blob access -----------------------------------------------------------

    def _path(self, kind: str, digest: str) -> pathlib.Path:
        return self.version_dir / kind / digest[:2] / f"{digest}.pkl"

    def get(self, kind: str, digest: str):
        """The stored payload for ``(kind, digest)``, or ``None`` on a miss.

        Unreadable, torn or stamp-mismatched blobs count as misses; a
        corrupt file is unlinked best-effort so it cannot shadow a later
        good publish.
        """
        path = self._path(kind, digest)
        if _IO_FAULT_HOOK is not None:
            _IO_FAULT_HOOK("read", kind, digest)
        with PROFILER.stage("store") as token:
            try:
                blob = path.read_bytes()
            except OSError:
                return None
            try:
                envelope = loads_payload(blob)
                if (envelope["schema"] != SCHEMA_VERSION
                        or envelope["kind"] != kind
                        or envelope["key"] != digest):
                    raise ValueError("envelope stamp mismatch")
            except Exception:
                try:
                    path.unlink()
                except OSError:
                    pass
                return None
            token.incremental = True
            return envelope["payload"]

    def put(self, kind: str, digest: str, payload) -> None:
        """Atomically publish one artifact (last writer wins, bytes equal)."""
        blob = dumps_payload({"schema": SCHEMA_VERSION, "kind": kind,
                              "key": digest, "payload": payload})
        path = self._path(kind, digest)
        if _IO_FAULT_HOOK is not None:
            _IO_FAULT_HOOK("write", kind, digest)
        with PROFILER.stage("store"):
            atomic_write_bytes(path, blob)
        self._maybe_gc()

    def put_json(self, kind: str, digest: str, payload) -> None:
        """Publish a JSON-serializable artifact (explore checkpoints).

        Stored through the same pickled envelope as every other kind; the
        JSON constraint is the caller's contract that the payload is
        plain data a service client can stream back out.
        """
        json.dumps(payload)  # raises early on non-serializable payloads
        self.put(kind, digest, payload)

    # -- garbage collection ----------------------------------------------------

    def size_bytes(self) -> int:
        return sum(size for _, size, _ in self._blobs())

    def _blobs(self) -> list[tuple[float, int, pathlib.Path]]:
        blobs = []
        for path in self.version_dir.rglob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            blobs.append((stat.st_mtime, stat.st_size, path))
        return blobs

    def gc(self, max_bytes: int | None = None) -> dict[str, int]:
        """Evict oldest blobs until the store fits ``max_bytes``.

        Also sweeps ``*.tmp`` orphans from crashed writers.  Returns
        ``{"evicted", "bytes"}`` (post-GC size).  A ``None`` bound only
        sweeps orphans.
        """
        limit = self.max_bytes if max_bytes is None else max_bytes
        sweep_orphans(self.version_dir)
        blobs = self._blobs()
        total = sum(size for _, size, _ in blobs)
        evicted = 0
        if limit is not None:
            for _, size, path in sorted(blobs):
                if total <= limit:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
                evicted += 1
        return {"evicted": evicted, "bytes": total}

    def _maybe_gc(self) -> None:
        if self.max_bytes is None:
            return
        with self._lock:
            self._puts_since_gc += 1
            if self._puts_since_gc < _GC_EVERY:
                return
            self._puts_since_gc = 0
        self.gc()


def open_store(root: pathlib.Path | str, *,
               max_bytes: int | None = None) -> ArtifactStore:
    """Open (creating if needed) the artifact store rooted at ``root``.

    ``max_bytes`` defaults to ``REPRO_STORE_MAX_BYTES`` when set.
    """
    if max_bytes is None:
        env = os.environ.get(STORE_MAX_BYTES_ENV)
        if env:
            max_bytes = int(env)
    return ArtifactStore(root, max_bytes=max_bytes)
