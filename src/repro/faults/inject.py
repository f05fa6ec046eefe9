"""Worker-side fault application: turn plan payloads into real failures.

:func:`activate` wraps one job execution (see
:func:`repro.service.jobs.execute_job`).  Immediate faults fire on
entry — ``kill_worker`` SIGKILLs the current process (the supervised
pool must notice the death and recover), ``hang`` sleeps so the per-job
timeout and hard-kill path is exercised — while ``store_read`` /
``store_write`` install a counting hook into
:mod:`repro.store.artifacts` that raises :class:`OSError` on the K-th
matching disk access, simulating a hard I/O error (EIO-style), which is
deliberately distinct from the cold-miss path a missing blob takes.

Everything here is deterministic: which call raises is a plan constant,
never a race.
"""

from __future__ import annotations

import contextlib
import os
import signal
import time

from repro.faults.plan import DEFAULT_HANG_S
from repro.store import artifacts


@contextlib.contextmanager
def activate(faults):
    """Apply fault payloads (``FaultAction.payload()`` dicts) around a job.

    ``faults`` may be ``None``/empty (the common case: no-op).  The
    store hook is installed for the duration of the ``with`` body only,
    so a worker running a later, clean job is unaffected.
    """
    if not faults:
        yield
        return
    for fault in faults:
        kind = fault.get("kind")
        if kind == "kill_worker":
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == "hang":
            time.sleep(float(fault.get("arg") or DEFAULT_HANG_S))

    targets: dict[str, set[int]] = {}
    for fault in faults:
        kind = fault.get("kind")
        if kind in ("store_read", "store_write"):
            op = kind[len("store_"):]
            targets.setdefault(op, set()).add(int(fault.get("arg") or 1))
    if not targets:
        yield
        return

    counts = {"read": 0, "write": 0}

    def hook(op: str, digest: str) -> None:
        if op not in targets:
            return
        counts[op] += 1
        if counts[op] in targets[op]:
            raise OSError(f"injected store {op} fault (call {counts[op]})")

    artifacts.set_io_fault_hook(hook)
    try:
        yield
    finally:
        artifacts.set_io_fault_hook(None)
