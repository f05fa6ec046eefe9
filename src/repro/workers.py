"""The one supervised worker pool: known pids, hard kills, respawn on death.

Both process-parallel paths run on :class:`SupervisedPool`: the job
server (:mod:`repro.service.server`, one slot per consumer task) and
the explorer's work-stealing dispatcher (:mod:`repro.explore.steal`,
one thread per slot).  Each slot is one worker process spawned over a
private fork-context pipe:

* a task is ``(fn, args)`` — a picklable top-level function plus its
  arguments; the reply is ``("ok", fn(*args))`` or ``("error", exc)``,
  where ``exc`` is the raised exception (or a :class:`RuntimeError`
  naming it, when it does not survive pickling);
* every worker has a **known pid** (``pids()``), so a timed-out task's
  worker is simply SIGKILLed and respawned — capacity always recovers;
* a worker death surfaces as :class:`WorkerCrash` (EOF on its pipe) on
  exactly the task it owned, after the slot has been rebuilt;
  ``restarts`` counts every rebuild.

A ``ProcessPoolExecutor`` cannot do either: one dead worker breaks the
whole executor, and running work cannot be cancelled.

There is no work queue here: each caller owns its slots and blocks in
:meth:`SupervisedPool.call`, so this module needs neither asyncio nor
threads of its own.  What an error *means* (retry or not) is the
caller's business.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading


class WorkerCrash(RuntimeError):
    """A pool worker died (SIGKILL/OOM/segfault) while owning a task."""


class JobTimeoutError(TimeoutError):
    """A task exceeded its timeout; its worker was killed."""


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a stand-in naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _worker_main(conn) -> None:
    """Worker-process loop: recv task, run it, send the reply, repeat.

    ``None`` (or a closed pipe) means exit.  A task may kill this
    process outright (the ``kill_worker`` fault does), which is the
    point: the parent sees EOF.
    """
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            conn.close()
            return
        fn, args = task
        try:
            reply = ("ok", fn(*args))
        except BaseException as exc:  # report, never kill the loop
            reply = ("error", _portable(exc))
        try:
            conn.send(reply)
        except (OSError, ValueError):
            return


class _Worker:
    """One spawned worker process plus the parent end of its pipe."""

    def __init__(self, ctx):
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main, args=(child,),
                                daemon=True)
        self.proc.start()
        child.close()

    @property
    def pid(self) -> int | None:
        return self.proc.pid

    def call(self, task, timeout_s: float | None):
        """Run one task to completion (blocking).

        Raises :class:`JobTimeoutError` when no reply arrives in time
        (the caller must kill+replace this worker — it is still busy)
        and :class:`WorkerCrash` when the process died mid-task.
        """
        try:
            self.conn.send(task)
        except (OSError, ValueError):
            raise WorkerCrash("worker died before the job could be sent")
        if timeout_s is not None and not self.conn.poll(timeout_s):
            raise JobTimeoutError(
                f"job exceeded its {timeout_s:g}s timeout in a worker")
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            raise WorkerCrash("worker died while running the job")

    def kill(self) -> None:
        """SIGKILL the process and reap it; safe on an already-dead worker."""
        try:
            self.proc.kill()
        except Exception:
            pass
        self.proc.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass

    def stop(self) -> None:
        """Graceful exit: send the sentinel, join, escalate to kill."""
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass


class SupervisedPool:
    """Fixed-size set of supervised worker slots (one caller each)."""

    def __init__(self, workers: int):
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork: the default context
            self._ctx = multiprocessing.get_context()
        #: Workers rebuilt after a crash or a hard kill.
        self.restarts = 0
        self._lock = threading.Lock()
        self._workers = [_Worker(self._ctx) for _ in range(workers)]
        self._closed = False

    def pids(self) -> list[int | None]:
        """Current worker pids, by slot (stats / kill-the-worker tests)."""
        return [worker.pid for worker in self._workers]

    def call(self, slot: int, task, timeout_s: float | None = None):
        """Run ``task`` on ``slot``'s worker and return its reply (blocking).

        On :class:`WorkerCrash` or :class:`JobTimeoutError` the slot's
        worker is hard-killed and respawned *before* the exception
        propagates, so the pool is whole again by the time the caller
        decides whether to retry.
        """
        worker = self._workers[slot]
        try:
            return worker.call(task, timeout_s)
        except (WorkerCrash, JobTimeoutError):
            worker.kill()
            with self._lock:
                if not self._closed:
                    self._workers[slot] = _Worker(self._ctx)
                    self.restarts += 1
            raise

    def shutdown(self) -> None:
        """Stop every worker (blocking); later calls find no slots."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers, self._workers = self._workers, []
        for worker in workers:
            worker.stop()
