"""The async synthesis job server: protocol, back-pressure, durability.

Plain ``asyncio.run`` drivers (no async test plugin): each test stands
up a real :class:`~repro.service.server.JobServer` on a loopback port,
speaks the newline-JSON protocol over ``asyncio.open_connection``, and
tears the server down.  ``workers=0`` gives deterministic queue-full
coverage; ``noop`` jobs with ``sleep_s`` drive the timeout/retry path
without burning synthesis time.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.service import (
    JOB_KINDS,
    JobServer,
    ServiceClient,
    ServiceError,
    backoff_delay,
    execute_job,
    validate_job,
)


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


# -- job validation -------------------------------------------------------------------


def test_validate_job_rejects_malformed_payloads():
    assert validate_job(None) is not None
    assert validate_job(["kind", "synth"]) is not None
    assert "unknown job kind" in validate_job({"kind": "frobnicate"})
    assert "benchmark" in validate_job({"kind": "synth"})
    # The server's pool is the parallelism; an explore job runs in-process.
    for name in ("shards", "steal"):
        assert name in validate_job(
            {"kind": "explore", "benchmark": "gcd", name: 2})
        assert validate_job(
            {"kind": "explore", "benchmark": "gcd", name: 1}) is None
    for kind in JOB_KINDS:
        ok = {"kind": kind, "benchmark": "gcd"}
        assert validate_job(ok) is None
        # Zero passes would verify nothing and report success.
        for passes in (0, -3, "10"):
            assert "passes" in validate_job({**ok, "passes": passes})


def test_execute_noop_job_inline():
    result = execute_job({"kind": "noop"})
    assert result == {"kind": "noop", "store_stage": {}}


# -- protocol -------------------------------------------------------------------------


def test_ping_stats_and_bad_requests():
    async def body(reader, writer, server):
        assert (await _req(reader, writer, {"op": "ping"}))["event"] == "pong"
        stats = await _req(reader, writer, {"op": "stats"})
        assert stats["event"] == "stats"
        assert stats["queue_depth"] == 0
        assert stats["workers"] == 0
        assert stats["store"] is None

        bad_op = await _req(reader, writer, {"op": "launch_missiles"})
        assert bad_op["event"] == "rejected" and bad_op["code"] == 400

        writer.write(b"this is not json\n")
        await writer.drain()
        not_json = await _event(reader)
        assert not_json["event"] == "rejected" and not_json["code"] == 400

        bad_job = await _req(reader, writer,
                             {"op": "submit", "job": {"kind": "nope"}})
        assert bad_job["event"] == "rejected" and bad_job["code"] == 400

    _serve(body, workers=0)


def test_queue_full_answers_429():
    async def body(reader, writer, server):
        # No consumers: the first two submissions fill the queue, the
        # third must bounce immediately with 429-style back-pressure.
        for _ in range(2):
            ack = await _req(reader, writer,
                             {"op": "submit", "job": {"kind": "noop"}})
            assert ack["event"] == "accepted"
        full = await _req(reader, writer,
                          {"op": "submit", "job": {"kind": "noop"}})
        assert full["event"] == "rejected"
        assert full["code"] == 429
        assert "queue full" in full["error"]
        stats = await _req(reader, writer, {"op": "stats"})
        assert stats["queue_depth"] == 2

    _serve(body, workers=0, queue_size=2)


def test_noop_job_streams_started_then_result():
    async def body(reader, writer, server):
        ack = await _req(reader, writer,
                         {"op": "submit", "job": {"kind": "noop"}})
        assert ack["event"] == "accepted"
        started = await _event(reader)
        assert started == {"event": "started", "id": ack["id"]}
        result = await _event(reader)
        assert result["event"] == "result"
        assert result["id"] == ack["id"]
        assert result["attempts"] == 1
        assert result["result"]["kind"] == "noop"

    _serve(body, workers=1)


def test_job_timeout_retries_then_reports_error():
    async def body(reader, writer, server):
        ack = await _req(reader, writer, {
            "op": "submit", "job": {"kind": "noop", "sleep_s": 30}})
        assert ack["event"] == "accepted"
        assert (await _event(reader))["event"] == "started"
        error = await _event(reader)
        assert error["event"] == "error"
        assert error["id"] == ack["id"]
        assert error["attempts"] == 2  # one timeout + one bounded retry
        assert "TimeoutError" in error["error"]

    _serve(body, workers=1, job_timeout_s=0.2, retries=1)


def test_jobs_survive_after_a_client_disconnects():
    async def body(reader, writer, server):
        # A second client submits and vanishes; its job must not wedge
        # the queue for the first client.
        r2, w2 = await asyncio.open_connection("127.0.0.1", server.port)
        ack = await _req(r2, w2, {"op": "submit", "job": {"kind": "noop"}})
        assert ack["event"] == "accepted"
        w2.close()

        ack = await _req(reader, writer,
                         {"op": "submit", "job": {"kind": "noop"}})
        events = [await _event(reader), await _event(reader)]
        assert [e["event"] for e in events] == ["started", "result"]

    _serve(body, workers=1)


def test_drain_broadcasts_then_rejects_new_submissions():
    async def body(reader, writer, server):
        ack = await _req(reader, writer, {
            "op": "submit", "job": {"kind": "noop", "sleep_s": 0.2}})
        assert ack["event"] == "accepted"
        assert (await _event(reader))["event"] == "started"

        outcome = await server.drain(timeout_s=10)
        assert outcome["pending"] == []  # the in-flight job finished

        assert await _event(reader) == {"event": "draining"}
        assert (await _event(reader))["event"] == "result"
        rejected = await _req(reader, writer,
                              {"op": "submit", "job": {"kind": "noop"}})
        assert rejected["event"] == "rejected"
        assert rejected["code"] == 503
        assert "draining" in rejected["error"]

    _serve(body, workers=1)


def test_client_retries_429_with_seeded_backoff():
    async def body(reader, writer, server):
        loop = asyncio.get_event_loop()

        def client_side():
            # Default client: retries off, the 429 surfaces immediately.
            with ServiceClient(port=server.port) as plain:
                first = plain.submit({"kind": "noop"})
                assert first["event"] == "accepted"  # fills queue_size=1
                ack = plain.submit({"kind": "noop"})
                assert ack["event"] == "rejected" and ack["code"] == 429

            # Opt-in retries: with workers=0 the queue never empties, so
            # the client must sleep exactly its two seeded backoffs
            # before giving up with the same 429.
            with ServiceClient(port=server.port, retry_attempts=2,
                               retry_base_s=0.05, retry_seed=3) as retrying:
                t0 = time.monotonic()
                ack = retrying.submit({"kind": "noop"})
                elapsed = time.monotonic() - t0
            assert ack["event"] == "rejected" and ack["code"] == 429
            floor = (backoff_delay(1, seed=3, base_s=0.05)
                     + backoff_delay(2, seed=3, base_s=0.05))
            assert elapsed >= floor

        await loop.run_in_executor(None, client_side)

    _serve(body, workers=0, queue_size=1)


def test_client_retry_wins_once_queue_frees_up():
    async def body(reader, writer, server):
        # Occupy the single worker, then fill the single queue slot.
        ack = await _req(reader, writer, {
            "op": "submit", "job": {"kind": "noop", "sleep_s": 0.6}})
        assert ack["event"] == "accepted"
        assert (await _event(reader))["event"] == "started"
        ack = await _req(reader, writer,
                         {"op": "submit", "job": {"kind": "noop"}})
        assert ack["event"] == "accepted"

        def client_side():
            with ServiceClient(port=server.port, retry_attempts=6,
                               retry_base_s=0.2, retry_seed=1) as client:
                return client.submit({"kind": "noop"})

        ack = await asyncio.get_event_loop().run_in_executor(
            None, client_side)
        assert ack["event"] == "accepted", \
            "retrying client must win a slot once the queue drains"

    _serve(body, workers=1, queue_size=1)


# -- the blocking client + a real synthesis job ---------------------------------------


def test_service_client_runs_synth_job_with_warm_store(tmp_path):
    """Full path: ServiceClient -> queue -> worker process -> store.

    The same job submitted twice against one store directory: the second
    run's ``store`` stage must show cross-run disk hits, and the design
    summaries (cache counters aside) must be bit-identical.
    """
    job = {"kind": "synth", "benchmark": "loops", "passes": 4,
           "laxity": 1.5, "mode": "area",
           "search": {"depth": 2, "candidates": 4, "iterations": 2}}

    async def body(reader, writer, server):
        loop = asyncio.get_event_loop()

        def client_side():
            with ServiceClient(port=server.port, timeout=120) as client:
                assert client.ping()["event"] == "pong"
                with pytest.raises(ServiceError):
                    client.run({"kind": "bogus"})
                first = client.run(job)["result"]
                second = client.run(job)["result"]
                return first, second

        first, second = await loop.run_in_executor(None, client_side)
        assert second["store_stage"]["incremental"] > 0, \
            "second submission must hit the warm store"

        def design_only(summary):
            return {k: v for k, v in summary.items()
                    if not k.startswith("cache_")}

        assert design_only(first["summary"]) == design_only(second["summary"])

    _serve(body, workers=1, store_dir=str(tmp_path / "store"),
           job_timeout_s=120)
