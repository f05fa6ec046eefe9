"""Signal statistics tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.statistics import (
    ActivityStats,
    activity_stats,
    stream_activity,
)


class TestStreamActivity:
    def test_constant_stream(self):
        values = np.full(20, 42, dtype=np.int64)
        assert stream_activity(values, 8) == 0.0

    def test_alternating_all_bits(self):
        values = np.array([0, -1] * 10, dtype=np.int64)
        assert stream_activity(values, 8) == 1.0

    def test_single_value_stream(self):
        assert stream_activity(np.array([5], dtype=np.int64), 8) == 0.0

    @given(st.lists(st.integers(-128, 127), min_size=2, max_size=50))
    def test_bounded(self, raw):
        values = np.array(raw, dtype=np.int64)
        assert 0.0 <= stream_activity(values, 8) <= 1.0


class TestActivityStats:
    def test_full_stats(self):
        values = np.array([0, 3, 0, 3, 0, 3], dtype=np.int64)
        stats = activity_stats(values, 8)
        assert stats.mean == pytest.approx(2 / 8)
        assert stats.std == pytest.approx(0.0)
        assert stats.transitions == 5

    def test_periodic_signal_has_positive_lag1(self):
        # Period-2 toggle magnitudes: high, low, high, low...
        values = np.array([0, 255, 254, 1, 0, 255, 254, 1, 0], dtype=np.int64)
        stats = activity_stats(values, 8)
        assert -1.0 <= stats.lag1 <= 1.0

    def test_short_stream(self):
        stats = activity_stats(np.array([1], dtype=np.int64), 8)
        assert stats == ActivityStats(0.0, 0.0, 0.0, 0, 8)

