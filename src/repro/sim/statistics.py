"""Signal statistics for power estimation.

The RT-level estimator of [19] consumes, per unit, the mean and standard
deviation of switching activity plus temporal (lag-1) and spatial
correlations of the signals at its ports.  This estimator uses only the
*mean* activity, computed here from value streams (numpy int64 arrays of
*signed* values plus a bit width): :func:`stream_activity` is one
vectorized toggle pass, and the trace store keeps its result in its
statistics table, once per distinct stream (see
:mod:`repro.power.trace_manip`).
"""

from __future__ import annotations

import numpy as np

from repro.utils.bitwidth import to_unsigned_array
from repro.utils.hamming import toggle_series


def stream_activity(values: np.ndarray, width: int) -> float:
    """Mean fraction of bits toggling between consecutive values."""
    if values.size < 2:
        return 0.0
    series = toggle_series(to_unsigned_array(values, width))
    # Same value as series.mean()/width: the toggle counts are small
    # integers, so the float64 sum is exact either way — this just skips
    # numpy's mean dispatch on the hot path.
    return float(series.sum()) / float(series.size) / float(width)
