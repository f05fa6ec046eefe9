"""The explore() driver: grid, determinism across worker counts, verification."""

import dataclasses

import pytest

from repro.core.search import SearchConfig
from repro.errors import ExperimentError
from repro.explore import (
    ExploreJob,
    explore,
    make_jobs,
    verify_frontier,
)
from repro.explore.pareto import dominates

TINY = SearchConfig(max_depth=2, max_candidates=5, max_iterations=2)
GRID = dict(laxities=(1.0, 2.0), objectives=("area", "power"))


@pytest.fixture(scope="module")
def loops_result():
    return explore("loops", steal=1, n_passes=6, search=TINY, **GRID)


@pytest.fixture(scope="module")
def loops_stolen():
    return explore("loops", steal=3, n_passes=6, search=TINY, **GRID)


class TestJobGrid:
    def test_canonical_order_and_indices(self):
        jobs = make_jobs(objectives=("area", "power"), laxities=(1.0, 2.0),
                         seeds=(0, 1))
        assert [j.index for j in jobs] == list(range(8))
        # laxity is the outer loop, then objective, then seed.
        assert (jobs[0].laxity, jobs[0].objective, jobs[0].seed) == (1.0, "area", 0)
        assert (jobs[1].laxity, jobs[1].objective, jobs[1].seed) == (1.0, "area", 1)
        assert (jobs[2].objective, jobs[3].objective) == ("power", "power")
        assert jobs[4].laxity == 2.0

    def test_weighted_label(self):
        job = ExploreJob(0, (0.5, 0.5, 0.0), 1.0, 0)
        assert job.label == "weighted(0.5,0.5,0)"

    def test_rejects_sub_one_laxity(self):
        with pytest.raises(ExperimentError):
            make_jobs(laxities=(0.5,))


class TestExplore:
    def test_frontier_is_mutually_non_dominated(self, loops_result):
        points = loops_result.front.points
        assert points, "exploration produced an empty frontier"
        for p in points:
            for q in points:
                if p is not q:
                    assert not dominates(p, q)

    def test_provenance_points_at_real_jobs(self, loops_result):
        indices = {j["index"] for j in loops_result.jobs}
        for point in loops_result.front.points:
            assert point.meta["job"] in indices
            assert point.meta["order"] < loops_result.jobs[
                point.meta["job"]]["offered"]

    def test_every_job_contributes_stats(self, loops_result):
        assert len(loops_result.jobs) == 4
        assert all(j["evaluations"] > 0 for j in loops_result.jobs)
        assert loops_result.offered >= len(loops_result.front)

    def test_summary_is_json_shaped(self, loops_result):
        import json

        summary = loops_result.summary()
        json.dumps(summary)
        assert summary["frontier_size"] == len(loops_result.front)
        assert summary["hypervolume"] > 0.0

    def test_sharded_run_is_bit_identical(self, loops_result, loops_stolen):
        assert loops_stolen.steal_workers > 1
        assert loops_stolen.rows() == loops_result.rows()
        assert loops_stolen.jobs == loops_result.jobs

    def test_steal_capped_by_job_count(self):
        result = explore("loops", laxities=(1.0,), objectives=("area",),
                         steal=16, n_passes=6, search=TINY)
        assert result.steal_workers == 0  # capped to 1: in-process


class TestVerifyFrontier:
    def test_one_shard_result_retains_designs(self, loops_result):
        assert loops_result._engine is not None
        keys = {(p.meta["job"], p.meta["order"])
                for p in loops_result.front.points}
        assert set(loops_result._designs) == keys

    def test_frontier_designs_conform_in_process(self, loops_result):
        reports = verify_frontier(loops_result)
        assert len(reports) == len(loops_result.front)
        assert all(r.ok for r in reports)

    def test_sharded_result_verifies_by_replay(self, loops_stolen):
        assert loops_stolen._engine is None
        reports = verify_frontier(loops_stolen)
        assert len(reports) == len(loops_stolen.front)
        assert all(r.ok for r in reports)

    def test_tampered_grid_is_detected(self, loops_result):
        # Same job count, different values: indices all resolve, so
        # only the provenance cross-check can catch the mismatch.
        tampered = dataclasses.replace(loops_result, laxities=(2.0, 1.0))
        with pytest.raises(ExperimentError):
            verify_frontier(tampered)

    def test_smaller_grid_is_detected(self, loops_result):
        tampered = dataclasses.replace(loops_result, laxities=(1.0,),
                                       objectives=("area",))
        with pytest.raises(ExperimentError):
            verify_frontier(tampered)
