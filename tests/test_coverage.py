"""Structural coverage bins: vocabulary, determinism, cache invariance.

The fleet's feedback signal must be a pure function of program structure
and pipeline outcome — never of ids, timing or cache state.  The
property test here runs the same generated program through the
synthesis chain with caching on and off and asserts the extracted bin
set (and its digest) is bit-identical.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.benchmarks import get_benchmark
from repro.core.cache import SynthesisCache
from repro.core.engine import SynthesisEngine
from repro.core.search import SearchConfig
from repro.genprog import (
    GenConfig,
    bin_families,
    coverage_digest,
    extract_coverage,
    generate_program,
)
from repro.genprog.coverage import _bucket, region_bins
from repro.lang import parse
from repro.sched.engine import ScheduleOptions

TINY = SearchConfig(max_depth=2, max_candidates=6, max_iterations=2, seed=0)

NESTED = """
process m(a: uint4) -> (o: uint4) {
  var x: uint4 = a;
  while ((x > 0)) {
    if ((a > 1)) {
      var y: uint4 = 1;
      y = (y + 1);
    }
    x = (x - 1);
  }
  o = x;
}
"""


class TestBinVocabulary:
    def test_bucket_is_log2(self):
        assert [_bucket(v) for v in (0, 1, 2, 3, 4, 7, 8)] == [
            0, 1, 2, 2, 3, 3, 4]

    def test_region_bins_record_shapes_and_depth(self):
        bins = region_bins(parse(NESTED))
        assert "shape:while" in bins
        assert "shape:while/if" in bins
        assert "depth:2" in bins
        # Exactly one depth bin: the deepest nesting seen.
        assert sum(name.startswith("depth:") for name in bins) == 1

    def test_straightline_program_is_depth_zero(self):
        bins = region_bins(parse(
            "process p(a: uint4) -> (o: uint4) { o = (a + 1); }"))
        assert bins == frozenset({"depth:0"})

    def test_extract_accepts_partial_artifacts(self):
        # A program that failed before synthesis still contributes its
        # region shape — extract_coverage takes any subset of artifacts.
        cdfg_only = extract_coverage(cdfg=parse(NESTED))
        assert cdfg_only == region_bins(parse(NESTED))
        assert extract_coverage() == frozenset()

    def test_bin_families_count_by_prefix(self):
        families = bin_families({"shape:while", "shape:if", "depth:2",
                                 "stg:multicycle", "path:3"})
        assert families == {"depth": 1, "path": 1, "shape": 2, "stg": 1}


class TestPipelineBins:
    @pytest.fixture(scope="class")
    def gcd_result(self):
        bench = get_benchmark("gcd")
        cdfg = bench.cdfg()
        engine = SynthesisEngine(cdfg, bench.stimulus(6, seed=3),
                                 options=ScheduleOptions(clock_ns=bench.clock_ns))
        result = engine.run(mode="power", laxity=1.5, search=TINY)
        return extract_coverage(cdfg=result.design.cdfg,
                                history=result.history,
                                stg=result.design.stg,
                                replay=result.design.rep)

    def test_every_family_is_populated(self, gcd_result):
        families = bin_families(gcd_result)
        for family in ("shape", "depth", "move", "stg", "path"):
            assert families.get(family, 0) >= 1, (family, sorted(gcd_result))

    def test_gcd_walks_data_dependent_paths(self, gcd_result):
        # GCD's iteration count depends on the inputs: different passes
        # walk different-length state sequences.
        assert "path:data" in gcd_result

    def test_digest_is_order_free(self, gcd_result):
        reordered = frozenset(sorted(gcd_result, reverse=True))
        assert coverage_digest(reordered) == coverage_digest(gcd_result)


def _pipeline_coverage(seed: int, *, cache):
    """One generated program through the chain; its coverage bins."""
    program = generate_program(GenConfig(seed=seed))
    cdfg = parse(program.source)
    engine = SynthesisEngine(
        cdfg, program.stimulus(6, seed=0),
        options=ScheduleOptions(clock_ns=10.0), cache=cache)
    result = engine.run(mode="power", laxity=1.5, search=TINY)
    return extract_coverage(cdfg=result.design.cdfg, history=result.history,
                            stg=result.design.stg, replay=result.design.rep)


class TestCoverageInvariance:
    """Satellite: extraction is bit-identical with caching on and off."""

    @settings(max_examples=4, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    @given(seed=st.integers(0, 10**6))
    def test_cache_modes_agree(self, seed):
        base = _pipeline_coverage(seed, cache=SynthesisCache())
        assert base, "pipeline produced an empty bin set"
        uncached = _pipeline_coverage(seed,
                                      cache=SynthesisCache(enabled=False))
        assert uncached == base, "disabling the cache changed the bins"
        assert coverage_digest(uncached) == coverage_digest(base)
