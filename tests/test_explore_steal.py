"""Work-stealing explore: bit-identity, fault transparency, warm start.

The pool's contract is that scheduling is invisible: any worker count,
any steal order, any mid-job worker kill and any checkpoint temperature
produce the same frontier bytes as an in-process run.  A cell that
raises is reported, not retried.
"""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.search import SearchConfig
from repro.explore import ExploreJob, explore, job_checkpoint_key
from repro.faults import FaultPlan

TINY = SearchConfig(max_depth=2, max_candidates=5, max_iterations=2)
GRID = dict(laxities=(1.0, 2.0), objectives=("area", "power"))


def run(**kw):
    return explore("loops", n_passes=6, search=TINY, **GRID, **kw)


def comparable(result) -> dict:
    """Everything topology-independent about an explore result."""
    summary = result.summary()
    summary.pop("steal_workers")
    summary.pop("warm_hits")
    return {"summary": summary, "frontier": result.rows()}


@pytest.fixture(scope="module")
def base0():
    return run(steal=1, seeds=(0,))


@pytest.fixture(scope="module")
def stolen0():
    return run(steal=4, seeds=(0,))


class TestStealDeterminism:
    def test_four_workers_match_one_shard(self, base0, stolen0):
        assert comparable(stolen0) == comparable(base0)
        assert stolen0.steal_workers == 4
        assert sorted(index for index, _ in stolen0.steal_log) == [0, 1, 2, 3]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_more_seeds_match_too(self, seed):
        assert comparable(run(steal=4, seeds=(seed,))) == comparable(
            run(steal=1, seeds=(seed,)))


class TestFaultTransparency:
    def test_killed_worker_changes_nothing(self, base0):
        plan = FaultPlan.parse("seed=1;kill_worker@2")
        result = run(steal=4, seeds=(0,), fault_plan=plan)
        assert comparable(result) == comparable(base0)
        # The fault fired (consumed at first enqueue of job 2), the dead
        # worker was replaced, and job 2 was claimed at least twice --
        # once by the victim, once clean.
        assert not plan.pending()
        assert result.steal_workers >= 5
        claims_of_2 = [w for index, w in result.steal_log if index == 2]
        assert len(claims_of_2) >= 2


class TestCheckpointWarmStart:
    def test_keys_cover_the_grid_cell_only(self):
        job = ExploreJob(0, "area", 1.5, 3)
        key = job_checkpoint_key("digest", job, TINY, 6, 7)
        assert key == job_checkpoint_key("digest", job, TINY, 6, 7)
        other = ExploreJob(5, "area", 1.5, 3)  # index is topology, not content
        assert key == job_checkpoint_key("digest", other, TINY, 6, 7)
        assert key != job_checkpoint_key(
            "digest", ExploreJob(0, "power", 1.5, 3), TINY, 6, 7)
        assert key != job_checkpoint_key("digest", job, TINY, 8, 7)

    @pytest.mark.parametrize("cold_workers", [1, 2])
    def test_warm_start_is_invisible_and_topology_free(self, tmp_path, base0,
                                                       cold_workers):
        # The in-process loop (1) and the pool (2) checkpoint through the
        # same per-cell code.
        store = tmp_path / "store"
        cold = run(steal=cold_workers, seeds=(0,), store_dir=store)
        assert cold.warm_hits == 0
        assert comparable(cold) == comparable(base0)
        # A different worker count warm-starts from the same checkpoints.
        warm = run(steal=4, seeds=(0,), store_dir=store)
        assert warm.warm_hits == warm.summary()["jobs"]
        assert comparable(warm) == comparable(base0)

    def test_counts_survive_thread_switching(self, tmp_path):
        # More slots than cores, with the interpreter switching threads
        # every microsecond: a lost update would drop a warm hit or a
        # log entry.
        store = tmp_path / "store"
        cold = run(steal=2, seeds=(0, 1), store_dir=store)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            warm = run(steal=8, seeds=(0, 1), store_dir=store)
        finally:
            sys.setswitchinterval(interval)
        assert warm.warm_hits == len(warm.jobs) == 8
        assert sorted(index for index, _ in warm.steal_log) == list(range(8))
        assert comparable(warm) == comparable(cold)


#: Runs a pool explore whose every cell raises, printing how many
#: processes it started and the error it raised.
_RAISING_CELL = textwrap.dedent("""
    import multiprocessing.process

    from repro.core.search import SearchConfig
    from repro.errors import ReproError
    from repro.explore import explore

    starts = []
    start = multiprocessing.process.BaseProcess.start

    def counting_start(self):
        starts.append(self)
        start(self)

    multiprocessing.process.BaseProcess.start = counting_start
    try:
        explore("loops", steal=2, objectives=((1.0, 0.0),), n_passes=6,
                search=SearchConfig(max_depth=2, max_candidates=5,
                                    max_iterations=2))
    except ReproError as exc:
        print(len(starts), exc)
""")


class TestRaisingCell:
    def test_error_reraises_without_respawning(self):
        # A subprocess in its own session, so a respawn loop is bounded
        # and killed with every worker it forked.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-c", _RAISING_CELL],
                                stdout=subprocess.PIPE, text=True, env=env,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("explore never returned: the raising cell was "
                        "retried on respawned workers")
        starts, _, message = out.strip().partition(" ")
        assert message == ("weights must be a (w_area, w_power, w_latency) "
                           "triple, got (1.0, 0.0)")
        assert int(starts) <= 2  # the two workers, no respawns
