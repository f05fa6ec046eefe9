"""The persistent checkpoint store: envelopes, crash safety, bounds.

The store holds explore grid-cell checkpoints as JSON files.  Three
properties carry it:

* **clean misses** — a missing, corrupt or stamp-mismatched checkpoint
  reads as a miss, never as a wrong payload, and a checkpoint is read as
  data: a file that would run code when unpickled is just a corrupt one;
* **crash safety** — a writer SIGKILLed mid-publish, between the temp
  write and the rename, never leaves a partial checkpoint visible;
* **bounded growth** — ``gc(max_bytes=...)`` and the FIFO-bounded memo
  tables keep both the disk and a job's memory from growing without
  limit.
"""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.benchmarks import get_benchmark
from repro.core.cache import MemoTable, SynthesisCache
from repro.core.profile import PROFILER
from repro.store import SCHEMA_VERSION, ArtifactStore, write_json
from repro.store.codec import cdfg_digest, digest_key


# -- content digests ------------------------------------------------------------------


def test_digest_key_deterministic_and_discriminating():
    key = ("explore", "abc", (1, 2.5, None, frozenset({"x", "y"})),
           {"b": 1, "a": 2})
    assert digest_key(key) == digest_key(key)
    assert len(digest_key(key)) == 64
    assert digest_key(key) != digest_key(key + (0,))
    # bool/int confusion must not collide (True == 1 in dicts/sets).
    assert digest_key((True,)) != digest_key((1,))


def test_cdfg_digest_stable_across_instances():
    bench = get_benchmark("gcd")
    a, b = bench.cdfg(), bench.cdfg()
    assert cdfg_digest(a) == cdfg_digest(b)
    assert cdfg_digest(a) != cdfg_digest(get_benchmark("loops").cdfg())


# -- the store itself -----------------------------------------------------------------


def test_store_put_get_and_stats(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    digest = digest_key(("x", 1))
    window = PROFILER.snapshot()
    assert store.get(digest) is None
    store.put(digest, {"v": 1})
    assert store.get(digest) == {"v": 1}
    stage = PROFILER.window(window)["store"]
    assert (stage["incremental"], stage["full"]) == (1, 2)  # 1 hit; miss, put
    # A second instance over the same root sees the artifact (cross-run).
    again = ArtifactStore(tmp_path / "store")
    assert again.get(digest) == {"v": 1}


def test_corrupt_artifact_is_a_miss_and_removed(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    digest = digest_key(("x",))
    store.put(digest, {"v": 2})
    path = store._path(digest)
    path.write_bytes(b"not json")
    assert store.get(digest) is None
    assert not path.exists()  # quarantined, next put repopulates
    store.put(digest, {"v": 2})
    assert store.get(digest) == {"v": 2}


def test_wrong_schema_or_kind_stamp_is_a_miss(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    digest = digest_key(("x",))
    path = store._path(digest)
    for field, wrong in (("schema", 999), ("key", digest_key(("other",)))):
        store.put(digest, {"v": 3})
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope[field] = wrong
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert store.get(digest) is None
        assert not path.exists()


class _Marker:
    """Unpickling this creates the file at ``path``."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


def test_pickled_checkpoint_is_never_unpickled(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    digest = digest_key(("p",))
    marker = tmp_path / "unpickled"
    path = store._path(digest)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps({"schema": SCHEMA_VERSION, "key": digest,
                                   "payload": _Marker(marker)}))
    assert store.get(digest) is None
    assert not path.exists()
    assert not marker.exists()


def test_gc_size_bound_evicts_oldest_first(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    digests = [digest_key(("blob", i)) for i in range(6)]
    for i, digest in enumerate(digests):
        store.put(digest, {"payload": "x" * 200, "i": i})
        # Distinct mtimes so eviction order is deterministic.
        blob = store._path(digest)
        os.utime(blob, (1_000_000 + i, 1_000_000 + i))
    one_blob = store._path(digests[-1]).stat().st_size
    swept = store.gc(max_bytes=one_blob)
    assert swept["evicted"] == 5
    assert store.size_bytes() <= one_blob
    # The newest artifact survives; the oldest are gone.
    assert store.get(digests[-1]) is not None
    assert store.get(digests[0]) is None


def test_gc_counts_and_evicts_retired_schema_trees(tmp_path):
    """A tree an older schema wrote is never read, but it is counted,
    and evicted before any current checkpoint."""
    store = ArtifactStore(tmp_path / "store")
    digest = digest_key(("kept",))
    store.put(digest, {"v": 1})
    current = store.size_bytes()
    old = tmp_path / "store" / "v1" / "explore" / "ab" / ("ab" * 32 + ".pkl")
    old.parent.mkdir(parents=True)
    old.write_bytes(b"x" * 300)
    os.utime(old, (2_000_000_000, 2_000_000_000))  # newer than any put
    assert store.size_bytes() == current + 300

    assert store.gc(max_bytes=current) == {"evicted": 1, "bytes": current}
    assert not old.exists()
    assert store.get(digest) == {"v": 1}

    assert store.gc(max_bytes=0) == {"evicted": 1, "bytes": 0}
    assert store.size_bytes() == 0


def test_kill_mid_publish_never_leaves_partial_artifact(tmp_path):
    import signal

    store = ArtifactStore(tmp_path / "store")
    digest = digest_key(("y",))

    pid = os.fork()
    if pid == 0:  # the writer: SIGKILLed between temp write and rename
        try:
            os.replace = lambda src, dst: os.kill(os.getpid(),
                                                  signal.SIGKILL)
            store.put(digest, {"v": 4})
        finally:
            os._exit(1)  # only reached if the kill did not happen
    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    assert list((tmp_path / "store").rglob("*.json")) == []
    orphans = list((tmp_path / "store").rglob("*.tmp"))
    assert orphans, "the killed writer's temp file should still be on disk"

    reopened = ArtifactStore(tmp_path / "store")
    assert reopened.get(digest) is None  # no partial visible
    reopened.gc()
    assert list((tmp_path / "store").rglob("*.tmp")) == []
    reopened.put(digest, {"v": 4})
    assert reopened.get(digest) == {"v": 4}


def test_store_accesses_profiled_under_store_stage(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    digest = digest_key(("z",))
    window = PROFILER.snapshot()
    store.put(digest, {"v": 5})
    store.get(digest)
    store.get(digest_key(("missing",)))
    stage = PROFILER.window(window)["store"]
    assert stage["calls"] == 3
    assert stage["incremental"] == 1  # exactly the one disk hit


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
    for table in (cache.replay, cache.designs):
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
