"""The versioned, content-addressed on-disk checkpoint store.

Layout (all under one root directory, shareable by concurrent processes)::

    <root>/
      v2/explore/<dd>/<digest>.json

Every file is one explore grid-cell checkpoint; ``digest`` is the sha256
key from :mod:`repro.store.codec` and ``dd`` its first two hex chars
(fan-out).  A checkpoint is a JSON envelope ``{"schema", "key",
"payload"}`` — plain data, so reading one from a shared directory never
runs code.  Loading verifies both stamps, so a schema bump, a
misplaced file or a torn/corrupt file all read as a clean miss (corrupt
files are additionally unlinked).  Publication is atomic
(:func:`repro.store.atomic.write_json`), so readers sharing the store
with writers — worker processes, concurrent CI runs, a server killed
mid-job — never observe a partial checkpoint.

Reads and writes are timed under the ``store`` stage of
:data:`repro.core.profile.PROFILER` with a disk hit marked incremental,
which is how checkpoint reuse surfaces in a job server result's
``store_stage``.

Nothing is evicted unless :meth:`ArtifactStore.gc` is called with a
``max_bytes`` bound; eviction is safe at any moment — a missing
checkpoint is just a cold miss.  Size and eviction cover every
``v<N>/`` tree under the root, so checkpoints a schema bump retired
still count, and go first.
"""

from __future__ import annotations

import json
import pathlib
from stat import S_ISREG

from repro.core.profile import PROFILER
from repro.store.atomic import sweep_orphans, write_json

#: On-disk schema version; bump on any envelope or payload change.
#: Checkpoints under other versions are never read, so mixed-version
#: roots degrade to cold misses; GC evicts them before any current one.
SCHEMA_VERSION = 2

#: Environment variable naming the store root for implicit attachment.
STORE_DIR_ENV = "REPRO_STORE_DIR"

#: Process-wide I/O fault hook (:mod:`repro.faults`): called as
#: ``hook(op, digest)`` with ``op`` in ``("read", "write")`` before
#: every checkpoint access.  Raising :class:`OSError` simulates a hard
#: I/O failure (EIO-style), which deliberately propagates to the caller
#: — unlike a missing checkpoint, which is a clean cold miss.
_IO_FAULT_HOOK = None


def set_io_fault_hook(hook) -> None:
    """Install (or with ``None`` clear) the process-wide I/O fault hook."""
    global _IO_FAULT_HOOK
    _IO_FAULT_HOOK = hook


class ArtifactStore:
    """One process's handle on a shared on-disk checkpoint store."""

    def __init__(self, root: pathlib.Path | str):
        self.root = pathlib.Path(root)
        self.version_dir = self.root / f"v{SCHEMA_VERSION}"
        self.version_dir.mkdir(parents=True, exist_ok=True)

    # -- checkpoint access ------------------------------------------------------

    def _path(self, digest: str) -> pathlib.Path:
        return self.version_dir / "explore" / digest[:2] / f"{digest}.json"

    def get(self, digest: str):
        """The stored payload for ``digest``, or ``None`` on a miss.

        Unreadable, torn or stamp-mismatched files count as misses; a
        corrupt file is unlinked best-effort so it cannot shadow a later
        good publish.
        """
        path = self._path(digest)
        if _IO_FAULT_HOOK is not None:
            _IO_FAULT_HOOK("read", digest)
        with PROFILER.stage("store") as token:
            try:
                blob = path.read_bytes()
            except OSError:
                return None
            try:
                envelope = json.loads(blob)
                if (envelope["schema"] != SCHEMA_VERSION
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

    def put(self, digest: str, payload) -> None:
        """Atomically publish one JSON checkpoint (last writer wins)."""
        path = self._path(digest)
        if _IO_FAULT_HOOK is not None:
            _IO_FAULT_HOOK("write", digest)
        with PROFILER.stage("store"):
            # Unsorted keys: a warm read returns the payload's dicts in
            # the order the cold run built them.
            write_json(path, {"schema": SCHEMA_VERSION, "key": digest,
                              "payload": payload},
                       indent=None, sort_keys=False)

    # -- garbage collection ----------------------------------------------------

    def size_bytes(self) -> int:
        """Bytes of every checkpoint under the root, any schema version."""
        return sum(size for _, _, size, _ in self._checkpoints())

    def _version_dirs(self) -> list[pathlib.Path]:
        """Every ``v<N>/`` schema tree under the root, current included."""
        return [path for path in self.root.glob("v*")
                if path.is_dir() and path.name[1:].isdigit()]

    def _checkpoints(self) -> list[tuple[bool, float, int, pathlib.Path]]:
        """(current version?, mtime, size, path) of every stored file."""
        found = []
        for tree in self._version_dirs():
            current = tree == self.version_dir
            for path in tree.rglob("*"):
                try:
                    info = path.stat()
                except OSError:
                    continue
                if S_ISREG(info.st_mode):
                    found.append((current, info.st_mtime, info.st_size, path))
        return found

    def gc(self, max_bytes: int | None = None) -> dict[str, int]:
        """Evict checkpoints until the store fits ``max_bytes``: retired
        schema versions first, then the current one's, oldest first.

        Also sweeps ``*.tmp`` orphans from crashed writers.  Returns
        ``{"evicted", "bytes"}`` (post-GC size).  A ``None`` bound only
        sweeps orphans.
        """
        for tree in self._version_dirs():
            sweep_orphans(tree)
        checkpoints = self._checkpoints()
        total = sum(size for _, _, size, _ in checkpoints)
        evicted = 0
        if max_bytes is not None:
            for _, _, size, path in sorted(checkpoints):
                if total <= max_bytes:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
                evicted += 1
        return {"evicted": evicted, "bytes": total}
