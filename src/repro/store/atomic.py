"""Atomic file publication: the one durability primitive of the repo.

Every result file the project persists — report JSON/CSV/markdown, the
store's explore checkpoints — goes through the same
write-temp-then-:func:`os.replace` sequence: the bytes land in a
uniquely named temporary file *in the target's directory* (so the rename
never crosses a filesystem boundary) and the final name appears only via
an atomic rename.  A reader therefore sees either the previous complete
file or the new complete file, never a truncated intermediate, and a
writer killed mid-publish leaves only a ``*.tmp`` orphan, which
:func:`sweep_orphans` (run by the store's ``gc()``) removes.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading

#: Per-process counter making concurrent temp names unique even when two
#: threads publish to the same target in the same microsecond.
_COUNTER = 0
_COUNTER_LOCK = threading.Lock()

#: Suffix every in-flight temporary carries (GC sweeps orphans by it).
TMP_SUFFIX = ".tmp"


def _temp_path(path: pathlib.Path) -> pathlib.Path:
    global _COUNTER
    with _COUNTER_LOCK:
        _COUNTER += 1
        serial = _COUNTER
    return path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.{serial}{TMP_SUFFIX}")


def atomic_write_bytes(path: pathlib.Path | str, data: bytes) -> pathlib.Path:
    """Publish ``data`` at ``path`` atomically (write temp + ``os.replace``).

    The parent directory is created if missing.  On any failure after the
    temporary was created, the temporary is removed best-effort so a
    crashed writer cannot leave a partial artifact under the final name.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _temp_path(path)
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path: pathlib.Path | str, text: str, *,
                      encoding: str = "utf-8") -> pathlib.Path:
    """Text flavor of :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode(encoding))


def write_json(path: pathlib.Path | str, payload, *, indent: int = 1,
               sort_keys: bool = True) -> pathlib.Path:
    """Serialize ``payload`` as JSON and publish it atomically.

    The shared result writer of :mod:`repro.experiments.report` and the
    checkpoint store — one code path, one durability guarantee.
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    return atomic_write_text(path, text)


def append_jsonl(path: pathlib.Path | str, record) -> pathlib.Path:
    """Durably append one JSON record as a newline-terminated line.

    The journal flavor of the durability primitive: one ``os.write`` on
    an ``O_APPEND`` descriptor (atomic at line granularity for these
    sizes) followed by ``fsync``, so a crash leaves at worst one torn
    *final* line — which journal readers skip — and never interleaved or
    silently lost records.  Whole-file rewrites (compaction) go through
    :func:`atomic_write_text` instead.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line)
        os.fsync(fd)
    finally:
        os.close(fd)
    return path


def sweep_orphans(root: pathlib.Path | str) -> int:
    """Remove leftover ``*.tmp`` files under ``root``; returns the count.

    Orphans appear only when a writer died between creating its temporary
    and the rename; they are never visible under a final artifact name.
    """
    root = pathlib.Path(root)
    removed = 0
    if not root.is_dir():
        return removed
    for tmp in root.rglob(f"*{TMP_SUFFIX}"):
        try:
            tmp.unlink()
            removed += 1
        except OSError:
            pass
    return removed
