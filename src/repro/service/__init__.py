"""Async synthesis job server.

``python -m repro serve`` starts a :class:`~repro.service.server.JobServer`:
a newline-JSON TCP protocol feeding a bounded queue and a **supervised**
process worker pool (:mod:`repro.workers` — known pids, hard kills
on timeout, automatic rebuild on worker death); explore jobs checkpoint
their grid cells into one shared :mod:`repro.store` directory.  Failures
are classified transient vs deterministic (:mod:`repro.service.errors`)
and only transient ones retried; every job transition is journaled
durably (:mod:`repro.service.journal`) so ``--resume`` survives crashes.
:class:`~repro.service.client.ServiceClient` is the matching blocking
client.  See ``docs/service.md``.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.errors import (
    CLASS_DETERMINISTIC,
    CLASS_TRANSIENT,
    backoff_delay,
    classify_exception,
)
from repro.service.jobs import JOB_KINDS, execute_job, validate_job
from repro.service.journal import (
    JOURNAL_NAME,
    JobJournal,
    next_job_id,
    read_journal,
    unfinished_jobs,
)
from repro.service.server import (
    DEFAULT_DRAIN_TIMEOUT_S,
    DEFAULT_WORKER_CACHE_ENTRIES,
    JobServer,
    serve,
)
from repro.workers import JobTimeoutError, SupervisedPool, WorkerCrash

__all__ = [
    "CLASS_DETERMINISTIC",
    "CLASS_TRANSIENT",
    "DEFAULT_DRAIN_TIMEOUT_S",
    "DEFAULT_WORKER_CACHE_ENTRIES",
    "JOB_KINDS",
    "JOURNAL_NAME",
    "JobJournal",
    "JobServer",
    "JobTimeoutError",
    "ServiceClient",
    "ServiceError",
    "SupervisedPool",
    "WorkerCrash",
    "backoff_delay",
    "classify_exception",
    "execute_job",
    "next_job_id",
    "read_journal",
    "serve",
    "unfinished_jobs",
    "validate_job",
]
