"""Unit and property tests for two's-complement width helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.bitwidth import (
    mask_for_width,
    max_signed,
    min_signed,
    to_unsigned,
    to_unsigned_array,
    wrap_to_width,
)


class TestMask:
    def test_small_masks(self):
        assert mask_for_width(1) == 1
        assert mask_for_width(4) == 0xF
        assert mask_for_width(8) == 0xFF

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            mask_for_width(0)


class TestSignedRange:
    def test_int8_range(self):
        assert min_signed(8) == -128
        assert max_signed(8) == 127

    def test_one_bit(self):
        assert min_signed(1) == -1
        assert max_signed(1) == 0


class TestWrap:
    def test_identity_in_range(self):
        assert wrap_to_width(100, 8) == 100
        assert wrap_to_width(-100, 8) == -100

    def test_overflow_wraps(self):
        assert wrap_to_width(128, 8) == -128
        assert wrap_to_width(256, 8) == 0
        assert wrap_to_width(-129, 8) == 127

    @given(st.integers(-10**9, 10**9), st.integers(1, 32))
    def test_wrap_is_idempotent(self, value, width):
        once = wrap_to_width(value, width)
        assert wrap_to_width(once, width) == once

    @given(st.integers(-10**9, 10**9), st.integers(1, 32))
    def test_wrapped_value_in_range(self, value, width):
        wrapped = wrap_to_width(value, width)
        assert min_signed(width) <= wrapped <= max_signed(width)

    @given(st.integers(-10**9, 10**9), st.integers(1, 32))
    def test_wrap_preserves_bit_pattern(self, value, width):
        assert to_unsigned(wrap_to_width(value, width), width) == value & mask_for_width(width)


class TestUnsignedArray:
    def test_matches_scalar(self):
        values = np.array([-1, 0, 127, -128], dtype=np.int64)
        out = to_unsigned_array(values, 8)
        assert list(out) == [to_unsigned(int(v), 8) for v in values]
