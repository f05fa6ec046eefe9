"""Unit tests for the per-stage profiler and dirty sets."""

from __future__ import annotations

import threading

from repro.core.delta import DirtySet, port_key_dirty
from repro.core.profile import PROFILER, Profiler


class TestProfiler:
    def test_stage_accumulates_calls_and_seconds(self):
        profiler = Profiler()
        for _ in range(3):
            with profiler.stage("merge"):
                pass
        with profiler.stage("merge", incremental=True):
            pass
        stats = profiler.window({})["merge"]
        assert stats["calls"] == 4
        assert stats["incremental"] == 1
        assert stats["full"] == 3
        assert stats["seconds"] >= 0.0

    def test_stage_records_on_exception(self):
        profiler = Profiler()
        try:
            with profiler.stage("boom"):
                raise ValueError
        except ValueError:
            pass
        assert profiler.window({})["boom"]["calls"] == 1

    def test_window_deltas(self):
        profiler = Profiler()
        with profiler.stage("a"):
            pass
        window = profiler.snapshot()
        with profiler.stage("a", incremental=True):
            pass
        with profiler.stage("b"):
            pass
        delta = profiler.window(window)
        assert delta["a"]["calls"] == 1
        assert delta["a"]["incremental"] == 1
        assert delta["b"]["calls"] == 1
        # Stages with no activity in the window are omitted.
        window = profiler.snapshot()
        with profiler.stage("c"):
            pass
        assert set(profiler.window(window)) == {"c"}

    def test_incremental_hits(self):
        profiler = Profiler()
        with profiler.stage("arch", incremental=True):
            pass
        with profiler.stage("arch"):
            pass
        with profiler.stage("merge"):
            pass
        profiler.record("memo.t", incremental=True)
        counts = {name: (stats["incremental"], stats["full"])
                  for name, stats in profiler.window({}).items()}
        assert counts == {"arch": (1, 1), "merge": (0, 1), "memo.t": (1, 0)}

    def test_thread_safety(self):
        profiler = Profiler()

        def worker():
            for _ in range(200):
                with profiler.stage("hot", incremental=True):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = profiler.window({})["hot"]
        assert stats["calls"] == 800
        assert stats["incremental"] == 800

    def test_global_profiler_exists(self):
        assert isinstance(PROFILER, Profiler)


class TestDirtySet:
    def test_factories_and_sources(self):
        dirty = DirtySet.for_fus(1, 2)
        assert dirty.fu_ids == frozenset({1, 2})
        assert not dirty.reschedule
        assert ("fu", 1) in dirty.dirty_sources()
        assert DirtySet.full().reschedule
        regs = DirtySet.for_regs(3)
        assert ("reg", 3) in regs.dirty_sources()

    def test_port_key_dirty(self):
        dirty = DirtySet(fu_ids=frozenset({7}), reg_ids=frozenset({2}),
                         port_keys=frozenset({("tmp_in", 9)}))
        assert port_key_dirty(("fu_in", 7, 0), dirty)
        assert not port_key_dirty(("fu_in", 8, 0), dirty)
        assert port_key_dirty(("reg_in", 2), dirty)
        assert not port_key_dirty(("reg_in", 3), dirty)
        assert port_key_dirty(("tmp_in", 9), dirty)
        assert not port_key_dirty(("tmp_in", 10), dirty)
