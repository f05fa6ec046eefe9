"""Tests for vectorized toggle counting."""

import numpy as np
from hypothesis import given, strategies as st

from repro.utils.hamming import popcount, toggle_series


class TestPopcount:
    def test_known_values(self):
        values = np.array([0, 1, 3, 0xFF, 0xFFFF_FFFF_FFFF_FFFF], dtype=np.uint64)
        assert list(popcount(values)) == [0, 1, 2, 8, 64]

    @given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=50))
    def test_matches_python_bitcount(self, raw):
        values = np.array(raw, dtype=np.uint64)
        assert list(popcount(values)) == [v.bit_count() for v in raw]


class TestToggleSeries:
    def test_empty_and_single(self):
        assert toggle_series(np.array([], dtype=np.uint64)).size == 0
        assert toggle_series(np.array([5], dtype=np.uint64)).size == 0

    def test_alternating_bits(self):
        patterns = np.array([0b0101, 0b1010, 0b0101], dtype=np.uint64)
        assert list(toggle_series(patterns)) == [4, 4]

    def test_total(self):
        patterns = np.array([0, 1, 3, 2], dtype=np.uint64)
        assert int(toggle_series(patterns).sum()) == 1 + 1 + 1

    @given(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=40))
    def test_matches_xor_bitcount(self, raw):
        patterns = np.array(raw, dtype=np.uint64)
        expected = [(a ^ b).bit_count() for a, b in zip(raw, raw[1:])]
        assert list(toggle_series(patterns)) == expected

