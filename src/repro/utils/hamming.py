"""Vectorised bit-toggle counting.

Switching activity — the number of bits that change between consecutive
vectors on a signal — is the basic quantity behind both the RT-level power
estimator (Section 2.3 of the paper) and the bit-level measurement proxy.
Everything here operates on numpy int64 arrays of *unsigned bit patterns*.
"""

from __future__ import annotations

import numpy as np

# Parallel-prefix popcount constants for 64-bit lanes.
_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)

#: numpy >= 2.0 exposes a native per-element popcount ufunc; the
#: parallel-prefix fallback keeps older installs working.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def popcount(values: np.ndarray) -> np.ndarray:
    """Per-element population count of an unsigned int64 array."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(values.astype(np.uint64)).astype(np.int64)
    v = values.astype(np.uint64)
    v = v - ((v >> np.uint64(1)) & _M1)
    v = (v & _M2) + ((v >> np.uint64(2)) & _M2)
    v = (v + (v >> np.uint64(4))) & _M4
    return ((v * _H01) >> np.uint64(56)).astype(np.int64)


def toggle_series(patterns: np.ndarray) -> np.ndarray:
    """Per-step toggle counts between consecutive bit patterns.

    ``patterns`` is a 1-D array of unsigned bit patterns; the result has
    ``len(patterns) - 1`` entries (empty input or a single vector toggles
    nothing).
    """
    if patterns.size < 2:
        return np.zeros(0, dtype=np.int64)
    unsigned = patterns.astype(np.uint64)  # one conversion, two views
    return popcount(np.bitwise_xor(unsigned[1:], unsigned[:-1]))
