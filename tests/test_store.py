"""The persistent artifact store: durability, bit-identity, bounds.

Three properties carry the whole feature:

* **round-trip bit-identity** — a schedule or replay pulled back off
  disk is indistinguishable from the freshly computed one, checked with
  the same full-strength digests ``test_incremental_equivalence.py``
  uses for the incremental layer;
* **crash safety** — a writer SIGKILLed mid-publish, between the temp
  write and the rename, never leaves a partial artifact visible, and a
  reopened store recomputes cold to the identical result;
* **bounded growth** — the size-bounded GC and the FIFO-bounded memo
  tables keep both the disk and worker memory from growing without
  limit.
"""

from __future__ import annotations

import os
import pickle

import pytest

from test_incremental_equivalence import bundle, replay_digest, stg_digest

from repro.benchmarks import get_benchmark
from repro.core.cache import MemoTable, SynthesisCache
from repro.core.engine import SynthesisEngine
from repro.core.profile import PROFILER
from repro.core.search import SearchConfig
from repro.sched.engine import ScheduleOptions
from repro.store import (
    ArtifactStore,
    PersistentCache,
    attached_cache,
    open_store,
    set_io_fault_hook,
    write_json,
)
from repro.store.codec import (
    cdfg_digest,
    decode_replay,
    decode_stg,
    digest_key,
    encode_replay,
    encode_stg,
    trace_store_digest,
)

SEARCH = SearchConfig(max_depth=3, max_candidates=6, max_iterations=3, seed=1)


def _engine(name: str = "gcd", cache=None, n_passes: int = 6):
    bench = get_benchmark(name)
    cdfg = bench.cdfg()
    stimulus = bench.stimulus(n_passes, seed=3)
    options = ScheduleOptions(clock_ns=bench.clock_ns)
    if cache is None:
        return SynthesisEngine(cdfg, stimulus, options=options)
    return SynthesisEngine(cdfg, stimulus, options=options, cache=cache)


# -- content digests ------------------------------------------------------------------


def test_digest_key_deterministic_and_discriminating():
    key = ("schedule", "abc", (1, 2.5, None, frozenset({"x", "y"})),
           {"b": 1, "a": 2})
    assert digest_key(key) == digest_key(key)
    assert len(digest_key(key)) == 64
    assert digest_key(key) != digest_key(key + (0,))
    # bool/int confusion must not collide (True == 1 in dicts/sets).
    assert digest_key((True,)) != digest_key((1,))


def test_cdfg_and_trace_digests_stable_across_instances():
    bench = get_benchmark("gcd")
    a, b = bench.cdfg(), bench.cdfg()
    assert cdfg_digest(a) == cdfg_digest(b)
    assert cdfg_digest(a) != cdfg_digest(get_benchmark("loops").cdfg())

    e1, e2 = _engine(), _engine()
    assert trace_store_digest(e1.store) == trace_store_digest(e2.store)
    assert trace_store_digest(e1.store) != trace_store_digest(
        _engine("loops").store)


# -- codec round trips ----------------------------------------------------------------


def test_stg_codec_round_trip_bit_identical():
    engine = _engine()
    design = engine.initial
    stg = design.stg
    decoded = decode_stg(pickle.loads(pickle.dumps(encode_stg(stg))))
    assert stg_digest(decoded) == stg_digest(stg)
    assert decoded.signature() == stg.signature()
    assert decoded.replay_signature() == stg.replay_signature()
    assert decoded._next_id == stg._next_id


def test_replay_codec_round_trip_bit_identical():
    engine = _engine()
    rep = engine.initial.rep
    decoded = decode_replay(pickle.loads(pickle.dumps(encode_replay(rep))))
    assert replay_digest(decoded) == replay_digest(rep)


# -- the store itself -----------------------------------------------------------------


def test_store_put_get_and_stats(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    digest = digest_key(("x", 1))
    window = PROFILER.snapshot()
    assert store.get("schedule", digest) is None
    store.put("schedule", digest, {"v": 1})
    assert store.get("schedule", digest) == {"v": 1}
    stage = PROFILER.window(window)["store"]
    assert (stage["incremental"], stage["full"]) == (1, 2)  # 1 hit; miss, put
    # A second instance over the same root sees the artifact (cross-run).
    again = ArtifactStore(tmp_path / "store")
    assert again.get("schedule", digest) == {"v": 1}


def test_corrupt_artifact_is_a_miss_and_removed(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    digest = digest_key(("x",))
    store.put("replay", digest, {"v": 2})
    path = store._path("replay", digest)
    path.write_bytes(b"not a pickle")
    assert store.get("replay", digest) is None
    assert not path.exists()  # quarantined, next put repopulates
    store.put("replay", digest, {"v": 2})
    assert store.get("replay", digest) == {"v": 2}


def test_wrong_schema_or_kind_stamp_is_a_miss(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    digest = digest_key(("x",))
    store.put("schedule", digest, {"v": 3})
    blob = store._path("schedule", digest)
    envelope = pickle.loads(blob.read_bytes())
    envelope["schema"] = 999
    blob.write_bytes(pickle.dumps(envelope))
    assert store.get("schedule", digest) is None


def test_gc_size_bound_evicts_oldest_first(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    digests = [digest_key(("blob", i)) for i in range(6)]
    for i, digest in enumerate(digests):
        store.put("schedule", digest, {"payload": "x" * 200, "i": i})
        # Distinct mtimes so eviction order is deterministic.
        blob = store._path("schedule", digest)
        os.utime(blob, (1_000_000 + i, 1_000_000 + i))
    one_blob = store._path("schedule", digests[-1]).stat().st_size
    swept = store.gc(max_bytes=one_blob)
    assert swept["evicted"] == 5
    assert store.size_bytes() <= one_blob
    # The newest artifact survives; the oldest are gone.
    assert store.get("schedule", digests[-1]) is not None
    assert store.get("schedule", digests[0]) is None


def test_kill_mid_publish_never_leaves_partial_artifact(tmp_path):
    import signal

    store = ArtifactStore(tmp_path / "store")
    digest = digest_key(("y",))

    pid = os.fork()
    if pid == 0:  # the writer: SIGKILLed between temp write and rename
        try:
            os.replace = lambda src, dst: os.kill(os.getpid(),
                                                  signal.SIGKILL)
            store.put("schedule", digest, {"v": 4})
        finally:
            os._exit(1)  # only reached if the kill did not happen
    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    assert list((tmp_path / "store").rglob("*.pkl")) == []
    orphans = list((tmp_path / "store").rglob("*.tmp"))
    assert orphans, "the killed writer's temp file should still be on disk"

    reopened = ArtifactStore(tmp_path / "store")
    assert reopened.get("schedule", digest) is None  # no partial visible
    reopened.gc()
    assert list((tmp_path / "store").rglob("*.tmp")) == []
    reopened.put("schedule", digest, {"v": 4})
    assert reopened.get("schedule", digest) == {"v": 4}


def test_store_accesses_profiled_under_store_stage(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    digest = digest_key(("z",))
    window = PROFILER.snapshot()
    store.put("schedule", digest, {"v": 5})
    store.get("schedule", digest)
    store.get("schedule", digest_key(("missing",)))
    stage = PROFILER.window(window)["store"]
    assert stage["calls"] == 3
    assert stage["incremental"] == 1  # exactly the one disk hit


# -- engine integration: disk round trip is bit-identical -----------------------------


def test_cold_run_then_fresh_cache_hits_disk_bit_identically(tmp_path):
    root = tmp_path / "store"
    plain = _engine(cache=SynthesisCache())
    baseline = plain.run(mode="area", laxity=1.5, search=SEARCH)

    window = PROFILER.snapshot()
    cold = _engine(cache=PersistentCache(open_store(root)))
    cold_res = cold.run(mode="area", laxity=1.5, search=SEARCH)
    cold_stage = PROFILER.window(window)["store"]
    assert cold_stage["full"] > 0 and cold_stage["incremental"] == 0

    window = PROFILER.snapshot()
    warm = _engine(cache=PersistentCache(open_store(root)))
    warm_res = warm.run(mode="area", laxity=1.5, search=SEARCH)
    assert PROFILER.window(window)["store"]["incremental"] > 0, \
        "a fresh in-process cache over a warm store must hit disk"
    # The same lookups, but disk hits count as memo-table hits.
    for table in ("schedule", "replay"):
        assert (warm_res.cache_stats[table]["hits"]
                > cold_res.cache_stats[table]["hits"])

    for result in (cold_res, warm_res):
        assert bundle(result.design) == bundle(baseline.design)
        assert stg_digest(result.design.stg) == stg_digest(baseline.design.stg)
        assert replay_digest(result.design.rep) == \
            replay_digest(baseline.design.rep)
        assert result.design.summary() == baseline.design.summary()


def test_crashing_store_degrades_to_cold_compute(tmp_path):
    """Publish failures are swallowed: the run completes, store stays empty."""
    store = open_store(tmp_path / "store")

    def hook(op, kind, digest):
        if op == "write":
            raise OSError("disk full")

    set_io_fault_hook(hook)
    try:
        engine = _engine(cache=PersistentCache(store))
        degraded = engine.run(mode="area", laxity=1.5, search=SEARCH)
    finally:
        set_io_fault_hook(None)
    plain = _engine(cache=SynthesisCache())
    baseline = plain.run(mode="area", laxity=1.5, search=SEARCH)
    assert bundle(degraded.design) == bundle(baseline.design)
    assert list((tmp_path / "store").rglob("*.pkl")) == []


# -- attached_cache -------------------------------------------------------------------


def test_attached_cache_modes(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    assert not isinstance(attached_cache(), PersistentCache)

    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "env_store"))
    cache = attached_cache()
    assert isinstance(cache, PersistentCache)

    # Explicit empty string forces the plain cache even with the env set.
    assert not isinstance(attached_cache(store_dir=""), PersistentCache)

    # An unopenable root (a file where the directory should be) degrades
    # to the in-process cache with a warning instead of failing.
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    degraded = attached_cache(store_dir=blocker)
    assert not isinstance(degraded, PersistentCache)
    assert "cannot open store" in capsys.readouterr().err


# -- MemoTable bounds (satellite: lock-guarded __len__ + FIFO cap) --------------------


def test_memo_table_len_and_fifo_bound():
    table = MemoTable("t", max_entries=3)
    for i in range(5):
        assert table.get_or_compute(i, lambda i=i: i * 10) == i * 10
    assert len(table) == 3
    # FIFO: 0 and 1 were evicted, 2..4 remain as hits.
    window = PROFILER.snapshot()
    for i in (2, 3, 4):
        assert table.get_or_compute(i, lambda: "recomputed") == i * 10
    assert PROFILER.window(window)["memo.t"]["incremental"] == 3
    assert table.get_or_compute(0, lambda: "recomputed") == "recomputed"


def test_memo_table_unbounded_by_default():
    table = MemoTable("t")
    for i in range(100):
        table.get_or_compute(i, lambda i=i: i)
    assert len(table) == 100


def test_synthesis_cache_forwards_entry_bound():
    cache = SynthesisCache(max_entries=2)
    for table in (cache.schedule, cache.replay, cache.traces, cache.designs):
        for i in range(4):
            table.get_or_compute(i, lambda i=i: i)
        assert len(table) == 2


# -- atomic JSON helper (satellite: shared with reports) ------------------------------


def test_write_json_atomic_and_stable(tmp_path):
    path = tmp_path / "nested" / "out.json"
    write_json(path, {"b": 1, "a": [1, 2]})
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')  # sorted keys
    assert not list(tmp_path.rglob("*.tmp"))
    with pytest.raises(TypeError):
        write_json(path, {"bad": object()})
    # The failed write must not have clobbered the previous content.
    assert path.read_text(encoding="utf-8") == text
    assert not list(tmp_path.rglob("*.tmp"))
