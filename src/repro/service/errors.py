"""Job-failure taxonomy and seeded retry backoff for the job server.

Every failure a job can surface is either **transient** — the job
itself may be fine, the machinery under it hiccuped (a worker process
died, a job attempt timed out, store disk I/O failed) — or
**deterministic** — re-running the same job reproduces the same failure
bit-identically (payload validation, synthesis exceptions).  The server
retries only transient failures; deterministic ones are reported on the
first attempt, because retrying them only burns worker time.  The
classification travels in the ``error`` event (``"class"``) and the
journal's ``finished`` records.

Backoff between transient retries is capped exponential with jitter
seeded per ``(seed, job id, attempt)``, so a pinned fault plan replays
with identical retry timing — the reproducibility contract of
``tests/test_faults.py``.
"""

from __future__ import annotations

import random

from repro.workers import WorkerCrash

#: Classification labels (the ``class`` field of ``error`` events).
CLASS_TRANSIENT = "transient"
CLASS_DETERMINISTIC = "deterministic"


def classify_exception(exc: BaseException) -> str:
    """``CLASS_TRANSIENT`` or ``CLASS_DETERMINISTIC`` for ``exc``.

    Transient: worker death, timeouts (the pool's ``JobTimeoutError`` is
    a ``TimeoutError``), and OS-level I/O errors (a store
    read that failed mid-job — ``ConnectionError`` is an ``OSError``
    subclass and lands here too).  Everything else — validation errors,
    synthesis exceptions — is deterministic: the job would fail the same
    way again.
    """
    transient = (WorkerCrash, TimeoutError, OSError)
    return CLASS_TRANSIENT if isinstance(exc, transient) \
        else CLASS_DETERMINISTIC


def backoff_delay(attempt: int, *, job_id: int = 0, seed: int = 0,
                  base_s: float = 0.1, cap_s: float = 2.0) -> float:
    """Seconds to sleep before retry ``attempt + 1``.

    Capped exponential (``base_s * 2**(attempt-1)``, at most ``cap_s``)
    scaled by a jitter factor in ``[0.5, 1.0]`` drawn from an RNG seeded
    by ``(seed, job_id, attempt)`` — reproducible per job, decorrelated
    across jobs.
    """
    rng = random.Random(f"repro-backoff:{seed}:{job_id}:{attempt}")
    bounded = min(cap_s, base_s * (2 ** max(attempt - 1, 0)))
    return bounded * (0.5 + 0.5 * rng.random())
