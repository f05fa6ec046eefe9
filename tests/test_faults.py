"""Deterministic fault injection: every recovery path, pinned seeds.

The chaos suite of the fault-tolerant service core: a scripted
:class:`~repro.faults.FaultPlan` fires worker kills, injected hangs,
store I/O errors and connection drops at exact job ids, and these tests
assert the server recovers the way ``docs/service.md`` promises —
transient failures retried with seeded backoff, deterministic ones
reported once, the journal resumable and byte-identical (modulo
timestamps) across runs of the same plan.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal

import pytest

from repro.faults import FaultAction, FaultPlan, activate, plan_from_env
from repro.service import (
    CLASS_DETERMINISTIC,
    CLASS_TRANSIENT,
    JobServer,
    JobTimeoutError,
    WorkerCrash,
    backoff_delay,
    classify_exception,
    read_journal,
    unfinished_jobs,
)
from repro.service.journal import next_job_id
from repro.store import ArtifactStore
from repro.store.atomic import append_jsonl


def _serve(test_body, **server_kwargs):
    """Start a server, run ``await test_body(reader, writer)``, tear down."""
    async def runner():
        server = JobServer(**server_kwargs)
        srv = await server.start(port=0)
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       server.port)
        try:
            await asyncio.wait_for(test_body(reader, writer, server),
                                   timeout=120)
        finally:
            writer.close()
            srv.close()
            await srv.wait_closed()
            await server.close()

    asyncio.run(runner())


async def _req(reader, writer, payload: dict) -> dict:
    writer.write((json.dumps(payload) + "\n").encode("utf-8"))
    await writer.drain()
    return await _event(reader)


async def _event(reader) -> dict:
    line = await reader.readline()
    assert line, "server closed the connection unexpectedly"
    return json.loads(line)


# -- the plan itself ------------------------------------------------------------------


def test_fault_plan_parse_and_canonical_spec():
    spec = "seed=7; kill_worker@1 ;store_write@2:1;hang@3:30;drop_conn@4"
    plan = FaultPlan.parse(spec)
    assert plan.seed == 7
    assert plan.spec() == \
        "seed=7;kill_worker@1;store_write@2:1;hang@3:30;drop_conn@4"
    assert FaultPlan.parse(plan.spec()).spec() == plan.spec()
    assert [a.kind for a in plan.actions] == \
        ["kill_worker", "store_write", "hang", "drop_conn"]

    for bad in ("frobnicate@1", "kill_worker", "kill_worker@x", "hang@1:zz"):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)
    with pytest.raises(ValueError):
        FaultPlan((FaultAction("frobnicate", 1),))


def test_fault_plan_actions_fire_at_most_once():
    plan = FaultPlan.parse("kill_worker@1;store_read@1:1;drop_conn@1;hang@2")
    payloads = plan.take_worker_faults(1)
    assert sorted(p["kind"] for p in payloads) == ["kill_worker", "store_read"]
    assert plan.take_worker_faults(1) == []  # consumed
    assert plan.take_drop_conn(1) is True
    assert plan.take_drop_conn(1) is False
    assert plan.take_worker_faults(3) == []  # wrong job: nothing fires
    assert [a.kind for a in plan.pending()] == ["hang"]


def test_plan_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    assert plan_from_env() is None
    monkeypatch.setenv("REPRO_FAULTS", "seed=3;kill_worker@2")
    plan = plan_from_env()
    assert plan.seed == 3 and plan.actions[0].job == 2


# -- classification + backoff ---------------------------------------------------------


def test_failure_classification():
    assert classify_exception(WorkerCrash("died")) == CLASS_TRANSIENT
    assert classify_exception(JobTimeoutError("slow")) == CLASS_TRANSIENT
    assert classify_exception(OSError("injected")) == CLASS_TRANSIENT
    assert classify_exception(ConnectionResetError()) == CLASS_TRANSIENT
    assert classify_exception(ValueError("bad")) == CLASS_DETERMINISTIC
    assert classify_exception(RuntimeError("synthesis")) == CLASS_DETERMINISTIC


def test_backoff_is_seeded_capped_and_jittered():
    first = backoff_delay(1, job_id=3, seed=7)
    assert first == backoff_delay(1, job_id=3, seed=7)  # reproducible
    assert first != backoff_delay(1, job_id=4, seed=7)  # decorrelated
    assert 0.05 <= first <= 0.1  # base 0.1, jitter in [0.5, 1.0]
    assert backoff_delay(30, job_id=0, seed=0, base_s=0.1, cap_s=2.0) <= 2.0


# -- the store I/O fault hook ---------------------------------------------------------


def test_store_io_faults_raise_on_the_kth_call(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    d1, d2 = "aa" + "0" * 62, "bb" + "1" * 62
    store.put(d1, {"x": 1})

    with activate([{"kind": "store_read", "arg": 2},
                   {"kind": "store_write", "arg": 1}]):
        with pytest.raises(OSError, match="injected store write"):
            store.put(d2, {"x": 2})
        assert store.get(d1) == {"x": 1}  # read 1: clean
        with pytest.raises(OSError, match="injected store read"):
            store.get(d1)  # read 2: faulted

    # Hook uninstalled: everything clean again, and the faulted write
    # never published a partial artifact.
    assert store.get(d2) is None
    store.put(d2, {"x": 2})
    assert store.get(d2) == {"x": 2}


# -- server recovery under a pinned plan ----------------------------------------------


def test_worker_kill_fault_is_retried_and_pool_recovers():
    async def body(reader, writer, server):
        ack = await _req(reader, writer,
                         {"op": "submit", "job": {"kind": "noop"}})
        assert ack["event"] == "accepted" and ack["id"] == 1
        assert (await _event(reader))["event"] == "started"
        result = await _event(reader)
        assert result["event"] == "result"
        assert result["attempts"] == 2  # SIGKILLed once, retried clean
        stats = await _req(reader, writer, {"op": "stats"})
        assert stats["worker_restarts"] == 1
        assert stats["retried"] == 1
        assert stats["done"] == 1 and stats["failed"] == 0

        # The pool is whole: the next job runs first-attempt clean.
        await _req(reader, writer, {"op": "submit", "job": {"kind": "noop"}})
        assert (await _event(reader))["event"] == "started"
        assert (await _event(reader))["attempts"] == 1

    _serve(body, workers=1, retries=1, fault_plan="seed=5;kill_worker@1",
           backoff_base_s=0.02)


def test_injected_hang_hard_kills_the_worker_and_retries():
    async def body(reader, writer, server):
        before = (await _req(reader, writer, {"op": "stats"}))["worker_pids"]
        await _req(reader, writer, {"op": "submit", "job": {"kind": "noop"}})
        assert (await _event(reader))["event"] == "started"
        result = await _event(reader)
        assert result["event"] == "result"
        assert result["attempts"] == 2  # attempt 1 hung, was hard-killed
        stats = await _req(reader, writer, {"op": "stats"})
        assert stats["worker_restarts"] == 1
        assert stats["worker_pids"] != before  # a fresh worker took over

    _serve(body, workers=1, retries=1, job_timeout_s=0.3,
           fault_plan="hang@1:60", backoff_base_s=0.02)


def test_deterministic_failure_is_not_retried():
    async def body(reader, writer, server):
        # float("bogus") inside the worker: reproduces bit-identically,
        # so retrying would only burn worker time.
        await _req(reader, writer, {
            "op": "submit", "job": {"kind": "noop", "sleep_s": "bogus"}})
        assert (await _event(reader))["event"] == "started"
        error = await _event(reader)
        assert error["event"] == "error"
        assert error["attempts"] == 1  # despite retries=3
        assert error["class"] == CLASS_DETERMINISTIC
        assert "ValueError" in error["error"]

    _serve(body, workers=1, retries=3)


def test_store_read_fault_is_transient_and_retried(tmp_path):
    # The explore job's first checkpoint lookup raises on attempt 1.
    job = {"kind": "explore", "benchmark": "loops", "passes": 2,
           "laxities": [1.0],
           "search": {"depth": 1, "candidates": 2, "iterations": 1}}

    async def body(reader, writer, server):
        ack = await _req(reader, writer, {"op": "submit", "job": job})
        assert ack["event"] == "accepted"
        assert (await _event(reader))["event"] == "started"
        result = await _event(reader)
        assert result["event"] == "result", result
        assert result["attempts"] == 2  # OSError on attempt 1, then clean
        stats = await _req(reader, writer, {"op": "stats"})
        assert stats["retried"] == 1 and stats["failed"] == 0

    _serve(body, workers=1, retries=1, store_dir=str(tmp_path / "store"),
           job_timeout_s=120, fault_plan="store_read@1:1",
           backoff_base_s=0.02)


def test_drop_conn_severs_client_but_job_completes(tmp_path):
    journal = tmp_path / "journal.ndjson"

    async def body(reader, writer, server):
        ack = await _req(reader, writer, {
            "op": "submit", "job": {"kind": "noop", "sleep_s": 0.2}})
        assert ack["event"] == "accepted" and ack["id"] == 1
        assert (await _event(reader))["event"] == "started"
        assert await reader.readline() == b""  # server dropped us

        # The orphaned job still runs to completion; a fresh connection
        # sees it in the counters and the journal records its finish.
        r2, w2 = await asyncio.open_connection("127.0.0.1", server.port)
        try:
            for _ in range(100):
                stats = await _req(r2, w2, {"op": "stats"})
                if stats["done"] == 1:
                    break
                await asyncio.sleep(0.05)
            assert stats["done"] == 1
            assert stats["disconnected_clients"] == 1
        finally:
            w2.close()

    _serve(body, workers=1, journal_path=journal, fault_plan="drop_conn@1")
    finished = [r for r in read_journal(journal) if r["rec"] == "finished"]
    assert [(r["id"], r["status"]) for r in finished] == [(1, "result")]


# -- the journal: crash resume + determinism ------------------------------------------


def test_journal_reader_tolerates_torn_final_line(tmp_path):
    journal = tmp_path / "journal.ndjson"
    append_jsonl(journal, {"rec": "accepted", "id": 1, "kind": "noop",
                           "job": {"kind": "noop"}})
    append_jsonl(journal, {"rec": "accepted", "id": 2, "kind": "noop",
                           "job": {"kind": "noop"}})
    append_jsonl(journal, {"rec": "finished", "id": 1, "status": "result"})
    with open(journal, "a", encoding="utf-8") as fh:
        fh.write('{"rec": "fin')  # the crash mid-append

    records = read_journal(journal)
    assert len(records) == 3  # the torn line is skipped, not fatal
    assert unfinished_jobs(records) == [(2, {"kind": "noop"})]
    assert next_job_id(records) == 3


def test_resume_completes_unfinished_jobs_exactly_once(tmp_path):
    journal = tmp_path / "journal.ndjson"

    # Phase 1: accept-only server (workers=0) takes two jobs and "crashes"
    # (torn down without drain): the journal holds accepted-but-unfinished.
    async def accept_only(reader, writer, server):
        for expect_id in (1, 2):
            ack = await _req(reader, writer, {
                "op": "submit", "job": {"kind": "noop", "sleep_s": 0.01}})
            assert ack == {"event": "accepted", "id": expect_id,
                           "kind": "noop"}

    _serve(accept_only, workers=0, journal_path=journal)
    assert [i for i, _ in unfinished_jobs(read_journal(journal))] == [1, 2]

    # Phase 2: a resumed server re-enqueues exactly those jobs, runs them,
    # and hands out fresh ids after the journal's high-water mark.
    async def resumed(reader, writer, server):
        assert server._resumed == 2
        for _ in range(200):
            stats = await _req(reader, writer, {"op": "stats"})
            if stats["done"] == 2:
                break
            await asyncio.sleep(0.05)
        assert stats["done"] == 2

        ack = await _req(reader, writer,
                         {"op": "submit", "job": {"kind": "noop"}})
        assert ack["event"] == "accepted" and ack["id"] == 3
        assert (await _event(reader))["event"] == "started"
        assert (await _event(reader))["event"] == "result"

    _serve(resumed, workers=1, journal_path=journal, resume=True)

    records = read_journal(journal)
    resumed_recs = [r for r in records if r["rec"] == "resumed"]
    assert [r["ids"] for r in resumed_recs] == [[1, 2]]
    finished = [r["id"] for r in records if r["rec"] == "finished"]
    assert sorted(finished) == [1, 2, 3]  # each exactly once
    assert unfinished_jobs(records) == []

    # A second resume has nothing to pick up (exactly-once, not at-least).
    async def idle(reader, writer, server):
        assert server._resumed == 0

    _serve(idle, workers=1, journal_path=journal, resume=True)


def _scripted_chaos_session(journal):
    """One fixed client script under one pinned plan (for determinism)."""
    async def body(reader, writer, server):
        # Job 1: killed once, retried, succeeds.
        await _req(reader, writer, {"op": "submit", "job": {"kind": "noop"}})
        assert (await _event(reader))["event"] == "started"
        assert (await _event(reader))["event"] == "result"
        # Job 2: deterministic failure, reported once.
        await _req(reader, writer, {
            "op": "submit", "job": {"kind": "noop", "sleep_s": "bogus"}})
        assert (await _event(reader))["event"] == "started"
        assert (await _event(reader))["event"] == "error"

    _serve(body, workers=1, retries=1, journal_path=journal,
           fault_plan="seed=9;kill_worker@1", backoff_base_s=0.02)


def test_same_plan_and_seed_journal_identically(tmp_path):
    journals = []
    for run in ("a", "b"):
        journal = tmp_path / run / "journal.ndjson"
        _scripted_chaos_session(journal)
        stripped = [{k: v for k, v in rec.items() if k != "ts"}
                    for rec in read_journal(journal)]
        journals.append(json.dumps(stripped, sort_keys=True))
    assert journals[0] == journals[1]
    # Sanity: the journal really recorded the chaos (a retried attempt).
    assert '"attempt": 2' in journals[0]


# -- externally SIGKILLed worker (no plan: raw OS-level chaos) ------------------------


def test_sigkilled_worker_mid_job_is_rebuilt_and_job_retried():
    async def body(reader, writer, server):
        stats = await _req(reader, writer, {"op": "stats"})
        [pid] = stats["worker_pids"]
        await _req(reader, writer, {
            "op": "submit", "job": {"kind": "noop", "sleep_s": 1.0}})
        assert (await _event(reader))["event"] == "started"
        await asyncio.sleep(0.3)  # let the worker pick the job up
        os.kill(pid, signal.SIGKILL)

        result = await _event(reader)
        assert result["event"] == "result"
        assert result["attempts"] == 2  # transient: retried, completed
        stats = await _req(reader, writer, {"op": "stats"})
        assert stats["worker_restarts"] == 1
        assert stats["worker_pids"] != [pid]

        # Subsequent jobs on the same server succeed first attempt.
        await _req(reader, writer, {"op": "submit", "job": {"kind": "noop"}})
        assert (await _event(reader))["event"] == "started"
        assert (await _event(reader))["attempts"] == 1

    _serve(body, workers=1, retries=1, job_timeout_s=30,
           backoff_base_s=0.02)
