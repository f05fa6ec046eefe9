"""The asyncio job server behind ``python -m repro serve``.

Newline-delimited JSON over TCP: each request line is an object with an
``op`` (``submit`` / ``stats`` / ``ping``) and each response line an
object with an ``event``.  Accepted jobs flow through a bounded
:class:`asyncio.Queue` into a supervised process worker pool sharing one
store directory (explore checkpoints and the job journal); a full queue
answers immediately with a 429-style ``rejected`` event instead of
buffering unboundedly.  See
``docs/service.md`` for the protocol and a worked example.

Fault-tolerance properties the tests pin down (``tests/test_faults.py``
and the ``chaos-smoke`` CI job drive them under pinned
:mod:`repro.faults` plans):

* a worker that dies mid-job (SIGKILL, OOM) never poisons the pool —
  the slot is rebuilt (``worker_restarts`` in stats), the job is
  classified *transient* and retried with seeded jittered backoff;
* a hung or timed-out job gets its worker **hard-killed**, so capacity
  always recovers — a wedged worker cannot exist;
* deterministic failures (validation, synthesis exceptions) are never
  retried; the ``error`` event reports the classification (``class``);
* every accepted/started/finished transition is journaled durably
  (``journal.ndjson`` in the store directory), so ``repro serve
  --resume`` re-enqueues whatever a crashed server left unfinished,
  exactly once;
* SIGTERM drains: clients get a ``draining`` event, new submissions are
  rejected (503), queued work is finished within ``--drain-timeout``,
  and the rest is journaled for the next ``--resume``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
from concurrent.futures import ThreadPoolExecutor

from repro.faults import FaultPlan, plan_from_env
from repro.service.errors import (
    CLASS_TRANSIENT,
    backoff_delay,
    classify_exception,
)
from repro.service.jobs import execute_job, validate_job
from repro.service.journal import (
    JOURNAL_NAME,
    JobJournal,
    next_job_id,
    read_journal,
    unfinished_jobs,
)
from repro.store import STORE_DIR_ENV, ArtifactStore
from repro.workers import JobTimeoutError, SupervisedPool, WorkerCrash

#: Default memo-table bound for one synth job's engine.  Every job builds
#: a fresh engine, so the bound caps the memory a single job's search can
#: pin, not growth across jobs.
DEFAULT_WORKER_CACHE_ENTRIES = 256

#: Default seconds a graceful shutdown waits for queued jobs to finish.
DEFAULT_DRAIN_TIMEOUT_S = 10.0


class _Conn:
    """One client connection; serializes writes so events never interleave.

    The first failed write marks the connection **dead**: later sends
    are skipped instead of re-raising into every job that still streams
    to it, and the server's ``disconnected_clients`` counter ticks once.
    """

    def __init__(self, writer: asyncio.StreamWriter, on_dead=None):
        self.writer = writer
        self.dead = False
        self._on_dead = on_dead
        self._lock = asyncio.Lock()

    async def send(self, payload: dict) -> None:
        if self.dead:
            return  # its queued jobs still run; results go to the journal
        line = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        async with self._lock:
            try:
                self.writer.write(line)
                await self.writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                self._mark_dead()

    def drop(self) -> None:
        """Sever this client deliberately (the ``drop_conn`` fault)."""
        self._mark_dead()

    def _mark_dead(self) -> None:
        if self.dead:
            return
        self.dead = True
        if self._on_dead is not None:
            self._on_dead(self)
        try:
            self.writer.close()
        except Exception:
            pass


class _NullConn:
    """The client of a resumed job: nobody is listening, events drop."""

    dead = False

    async def send(self, payload: dict) -> None:
        pass


_NULL_CONN = _NullConn()


def _stop_pool(pool: SupervisedPool, calls: ThreadPoolExecutor) -> None:
    """Stop the workers, then join their call threads (blocking)."""
    pool.shutdown()
    calls.shutdown(wait=True)


class JobServer:
    """Bounded job queue + supervised worker pool over a shared store.

    ``workers=0`` starts no consumers (and no process pool): submissions
    are accepted until the queue fills, then rejected with 429 — the
    deterministic back-pressure test mode.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`, a spec string, or
    ``None`` = consult ``$REPRO_FAULTS``) scripts deterministic failures
    for chaos testing; ``resume=True`` re-enqueues the journal's
    accepted-but-unfinished jobs at startup.
    """

    def __init__(self, *, store_dir=None, queue_size: int = 8,
                 workers: int = 2, job_timeout_s: float = 600.0,
                 retries: int = 1,
                 max_cache_entries: int | None = DEFAULT_WORKER_CACHE_ENTRIES,
                 journal_path=None, resume: bool = False,
                 fault_plan: FaultPlan | str | None = None,
                 drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
                 backoff_base_s: float = 0.1, backoff_cap_s: float = 2.0):
        if store_dir is None:
            store_dir = os.environ.get(STORE_DIR_ENV)
        self.store_dir = str(store_dir) if store_dir else None
        self.queue_size = queue_size
        self.workers = workers
        self.job_timeout_s = job_timeout_s
        self.retries = retries
        self.max_cache_entries = max_cache_entries
        self.resume = resume
        self.drain_timeout_s = drain_timeout_s
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        if journal_path is None and self.store_dir:
            journal_path = os.path.join(self.store_dir, JOURNAL_NAME)
        self.journal_path = str(journal_path) if journal_path else None
        self._journal = (JobJournal(self.journal_path)
                         if self.journal_path else None)
        if isinstance(fault_plan, str):
            fault_plan = FaultPlan.parse(fault_plan)
        self._plan = fault_plan if fault_plan is not None else plan_from_env()
        self._backoff_seed = self._plan.seed if self._plan is not None else 0
        self.port: int | None = None
        self._ids = itertools.count(1)
        self._queue: asyncio.Queue | None = None
        self._pool: SupervisedPool | None = None
        #: One thread per pool slot: its consumer's blocking pool calls.
        self._calls: ThreadPoolExecutor | None = None
        self._consumers: list[asyncio.Task] = []
        self._conns: set[_Conn] = set()
        self._open_jobs: dict[int, dict] = {}
        self._done = 0
        self._failed = 0
        self._retried = 0
        self._resumed = 0
        self._disconnected = 0
        self._draining = False
        #: Submissions past the full-check but not yet queued (the
        #: journal append awaits in between; without this, concurrent
        #: submits could overfill the bounded queue).
        self._reserved = 0

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> asyncio.base_events.Server:
        """Bind and start serving; returns the asyncio server object."""
        backlog: list[tuple[int, dict]] = []
        if self.resume and self.journal_path:
            records = read_journal(self.journal_path)
            backlog = unfinished_jobs(records)
            if records:
                self._ids = itertools.count(next_job_id(records))
        # Resumed jobs must all fit even when they outnumber the bound.
        self._queue = asyncio.Queue(
            maxsize=max(self.queue_size, len(backlog)))
        if self.workers > 0:
            self._pool = SupervisedPool(self.workers)
            self._calls = ThreadPoolExecutor(max_workers=self.workers,
                                             thread_name_prefix="repro-pool")
            self._consumers = [asyncio.ensure_future(self._consume(slot))
                               for slot in range(self.workers)]
        if backlog:
            await self._journal_record(
                {"rec": "resumed", "ids": [job_id for job_id, _ in backlog]})
            for job_id, job in backlog:
                self._open_jobs[job_id] = job
                self._queue.put_nowait((job_id, job, _NULL_CONN))
                self._resumed += 1
        server = await asyncio.start_server(self._handle, host, port)
        self.port = server.sockets[0].getsockname()[1]
        return server

    async def drain(self, timeout_s: float | None = None) -> dict:
        """Graceful shutdown: notify, finish what fits, journal the rest.

        Broadcasts a ``draining`` event to every live client, rejects
        new submissions (503), waits up to ``timeout_s`` for the queue
        to empty, then journals the ids it could not finish — the next
        ``--resume`` picks exactly those up.
        """
        if timeout_s is None:
            timeout_s = self.drain_timeout_s
        self._draining = True
        for conn in list(self._conns):
            await conn.send({"event": "draining"})
        if self._queue is not None and self.workers > 0:
            try:
                await asyncio.wait_for(self._queue.join(), timeout=timeout_s)
            except asyncio.TimeoutError:
                pass
        pending = sorted(self._open_jobs)
        await self._journal_record({"rec": "draining", "pending": pending})
        return {"pending": pending}

    async def close(self) -> None:
        """Stop consumers (awaited, not abandoned) and join the pool."""
        for task in self._consumers:
            task.cancel()
        if self._consumers:
            await asyncio.gather(*self._consumers, return_exceptions=True)
        self._consumers = []
        if self._pool is not None:
            pool, self._pool = self._pool, None
            calls, self._calls = self._calls, None
            await asyncio.get_event_loop().run_in_executor(
                None, _stop_pool, pool, calls)

    # -- journal -----------------------------------------------------------------

    async def _journal_record(self, rec: dict) -> None:
        """Append one journal record off the event loop (fsync blocks)."""
        if self._journal is None:
            return
        await asyncio.get_event_loop().run_in_executor(
            None, self._journal.record, rec)

    # -- connection handling -----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        conn = _Conn(writer, on_dead=self._conn_died)
        self._conns.add(conn)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                except ValueError:
                    await conn.send({"event": "rejected", "code": 400,
                                     "error": "request is not valid JSON"})
                    continue
                await self._dispatch(request, conn)
        finally:
            self._conns.discard(conn)
            try:
                writer.close()
            except Exception:
                pass

    def _conn_died(self, conn: _Conn) -> None:
        self._disconnected += 1
        self._conns.discard(conn)

    async def _dispatch(self, request, conn: _Conn) -> None:
        op = request.get("op") if isinstance(request, dict) else None
        if op == "ping":
            await conn.send({"event": "pong"})
        elif op == "stats":
            await conn.send({"event": "stats", **await self._stats()})
        elif op == "submit":
            await self._submit(request.get("job"), conn)
        else:
            await conn.send({"event": "rejected", "code": 400,
                             "error": f"unknown op {op!r}"})

    async def _submit(self, job, conn: _Conn) -> None:
        error = validate_job(job)
        if error is not None:
            await conn.send({"event": "rejected", "code": 400,
                             "error": error})
            return
        if self._draining:
            await conn.send({
                "event": "rejected", "code": 503, "kind": job["kind"],
                "error": "server is draining; resubmit to a fresh instance"})
            return
        if self._queue.qsize() + self._reserved >= self.queue_size:
            await conn.send({
                "event": "rejected", "code": 429, "kind": job["kind"],
                "error": f"queue full ({self.queue_size} jobs); retry later"})
            return
        job_id = next(self._ids)
        self._open_jobs[job_id] = job
        self._reserved += 1
        try:
            # Journal before queueing: a job the client saw accepted is
            # always resumable; a crash in the window between journal
            # and ack re-runs the job, never loses it.
            await self._journal_record({"rec": "accepted", "id": job_id,
                                        "kind": job["kind"], "job": job})
            self._queue.put_nowait((job_id, job, conn))
        finally:
            self._reserved -= 1
        await conn.send({"event": "accepted", "id": job_id,
                         "kind": job["kind"]})

    # -- job execution -----------------------------------------------------------

    async def _consume(self, slot: int) -> None:
        while True:
            job_id, job, conn = await self._queue.get()
            try:
                await self._run_job(slot, job_id, job, conn)
            finally:
                self._open_jobs.pop(job_id, None)
                self._queue.task_done()

    async def _run_job(self, slot: int, job_id: int, job: dict,
                       conn) -> None:
        await conn.send({"event": "started", "id": job_id})
        if self._plan is not None and self._plan.take_drop_conn(job_id):
            conn.drop()
        attempt = 0
        while True:
            attempt += 1
            await self._journal_record({"rec": "started", "id": job_id,
                                        "attempt": attempt})
            faults = (self._plan.take_worker_faults(job_id)
                      if self._plan is not None else None)
            task = (execute_job, (job, self.store_dir,
                                  self.max_cache_entries, faults))
            try:
                status, payload = await asyncio.get_event_loop(
                ).run_in_executor(self._calls, self._pool.call, slot, task,
                                  self.job_timeout_s)
            except (WorkerCrash, JobTimeoutError) as exc:
                status, payload = "error", exc
            if status == "ok":
                self._done += 1
                await self._journal_record(
                    {"rec": "finished", "id": job_id,
                     "status": "result", "attempts": attempt})
                await conn.send({"event": "result", "id": job_id,
                                 "attempts": attempt, "result": payload})
                return
            message = f"{type(payload).__name__}: {payload}"
            klass = classify_exception(payload)
            if klass == CLASS_TRANSIENT and attempt <= self.retries:
                self._retried += 1
                await asyncio.sleep(backoff_delay(
                    attempt, job_id=job_id, seed=self._backoff_seed,
                    base_s=self.backoff_base_s, cap_s=self.backoff_cap_s))
                continue
            self._failed += 1
            await self._journal_record(
                {"rec": "finished", "id": job_id, "status": "error",
                 "attempts": attempt, "class": klass, "error": message})
            await conn.send({"event": "error", "id": job_id,
                             "attempts": attempt, "class": klass,
                             "error": message})
            return

    # -- introspection -----------------------------------------------------------

    async def _stats(self) -> dict:
        stats = {
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "queue_size": self.queue_size,
            "workers": self.workers,
            "worker_pids": self._pool.pids() if self._pool else [],
            "worker_restarts": self._pool.restarts if self._pool else 0,
            "done": self._done,
            "failed": self._failed,
            "retried": self._retried,
            "resumed": self._resumed,
            "disconnected_clients": self._disconnected,
            "draining": self._draining,
            "journal": self.journal_path,
            "store": None,
        }
        if self.store_dir:
            # Directory-walking disk I/O: off the event loop.
            stats["store"] = await asyncio.get_event_loop().run_in_executor(
                None, self._store_stats)
        return stats

    def _store_stats(self) -> dict:
        try:
            store = ArtifactStore(self.store_dir)
            return {"root": self.store_dir,
                    "size_bytes": store.size_bytes()}
        except Exception:
            return {"root": self.store_dir, "error": "unreadable"}


def serve(*, host: str = "127.0.0.1", port: int = 0, store_dir=None,
          queue_size: int = 8, workers: int = 2,
          job_timeout_s: float = 600.0, retries: int = 1,
          max_cache_entries: int | None = DEFAULT_WORKER_CACHE_ENTRIES,
          journal_path=None, resume: bool = False,
          fault_plan: FaultPlan | str | None = None,
          drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S) -> int:
    """Run the job server until SIGTERM/SIGINT (the ``repro serve`` body).

    Prints one ``{"event": "serving", ...}`` JSON line once bound —
    with ``port=0`` that line is how callers learn the chosen port.
    Termination is graceful: drain the queue, journal the rest.
    """
    import signal as _signal

    async def _run() -> None:
        server = JobServer(store_dir=store_dir, queue_size=queue_size,
                           workers=workers, job_timeout_s=job_timeout_s,
                           retries=retries,
                           max_cache_entries=max_cache_entries,
                           journal_path=journal_path, resume=resume,
                           fault_plan=fault_plan,
                           drain_timeout_s=drain_timeout_s)
        srv = await server.start(host=host, port=port)
        print(json.dumps({
            "event": "serving", "host": host, "port": server.port,
            "store": server.store_dir, "workers": workers,
            "journal": server.journal_path, "resumed": server._resumed,
            "faults": (server._plan.spec() if server._plan else None),
        }, sort_keys=True), flush=True)
        loop = asyncio.get_event_loop()
        stop = asyncio.Event()
        for sig in (_signal.SIGTERM, _signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # platforms/loops without signal support
        try:
            async with srv:
                await stop.wait()
                await server.drain()
                srv.close()
                await srv.wait_closed()
        finally:
            await server.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0
