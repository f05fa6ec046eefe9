"""Signal statistics for power estimation.

The RT-level estimator of [19] consumes, per unit, the mean and standard
deviation of switching activity plus temporal (lag-1) and spatial
correlations of the signals at its ports.  The first three are computed
here from value streams (numpy int64 arrays of *signed* values plus a
bit width); spatial correlation is not modelled.

The synthesis hot path consumes only the *mean* activity, so it calls
:func:`stream_activity` — one vectorized toggle pass, no std/lag-1 work
— and keeps the result in the trace store's statistics table, once per
distinct stream (see :mod:`repro.power.trace_manip`);
:func:`activity_stats` returns the full bundle for the
estimator-fidelity experiments.  The two agree exactly:
``activity_stats(v, w).mean == stream_activity(v, w)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.bitwidth import to_unsigned_array
from repro.utils.hamming import toggle_series


@dataclass(frozen=True)
class ActivityStats:
    """Switching-activity statistics of one signal stream.

    ``mean`` / ``std`` are per-transition toggle counts normalized by the
    bit width (so 0.5 means half the bits flip on an average transition);
    ``lag1`` is the autocorrelation of the toggle series (temporal
    correlation); ``transitions`` the number of vector-to-vector steps.
    """

    mean: float
    std: float
    lag1: float
    transitions: int
    width: int


def stream_activity(values: np.ndarray, width: int) -> float:
    """Mean fraction of bits toggling between consecutive values."""
    if values.size < 2:
        return 0.0
    series = toggle_series(to_unsigned_array(values, width))
    # Same value as series.mean()/width: the toggle counts are small
    # integers, so the float64 sum is exact either way — this just skips
    # numpy's mean dispatch on the hot path.
    return float(series.sum()) / float(series.size) / float(width)


def activity_stats(values: np.ndarray, width: int) -> ActivityStats:
    """Full activity statistics of a value stream."""
    if values.size < 2:
        return ActivityStats(0.0, 0.0, 0.0, 0, width)
    series = toggle_series(to_unsigned_array(values, width)).astype(np.float64)
    mean = float(series.mean())
    std = float(series.std())
    lag1 = 0.0
    if series.size >= 3 and std > 0.0:
        a = series[:-1] - mean
        b = series[1:] - mean
        denom = float(np.sqrt((a * a).sum() * (b * b).sum()))
        if denom > 0.0:
            lag1 = float((a * b).sum()) / denom
    return ActivityStats(mean=mean / width, std=std / width, lag1=lag1,
                         transitions=int(series.size), width=width)

