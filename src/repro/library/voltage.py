"""First-order CMOS supply-voltage scaling.

After synthesis, a design whose worst per-state combinational path is
shorter than the clock period can run at a reduced Vdd until the slack is
consumed — the A-Power / I-Power comparison of Section 4 relies on this.
Standard long-channel model (Chandrakasan):

    delay(V)  proportional to  V / (V - Vt)^2
    power(V)  proportional to  V^2
"""

from __future__ import annotations

import sys
from typing import Callable

NOMINAL_VDD = 5.0
THRESHOLD_V = 0.8
MIN_VDD = 1.1

#: Root-find tolerances: ``xtol`` as the scaling has always used, ``rtol``
#: and the iteration cap at scipy's ``brentq`` defaults.
_XTOL = 1e-6
_RTOL = 4 * sys.float_info.epsilon
_MAXITER = 100


def delay_scale(vdd: float, nominal: float = NOMINAL_VDD) -> float:
    """Combinational delay multiplier at ``vdd`` relative to ``nominal``."""
    if vdd <= THRESHOLD_V:
        raise ValueError(f"vdd {vdd} must exceed the threshold {THRESHOLD_V}")
    def drive(v: float) -> float:
        return v / (v - THRESHOLD_V) ** 2
    return drive(vdd) / drive(nominal)


def power_scale(vdd: float, nominal: float = NOMINAL_VDD) -> float:
    """Dynamic power multiplier at ``vdd`` relative to ``nominal``."""
    return (vdd / nominal) ** 2


def max_vdd_scaling(slack_ratio: float) -> float:
    """Lowest Vdd whose slowed-down critical path still fits the clock.

    ``slack_ratio`` = clock period / worst per-state path delay at 5 V
    (>= 1.0 when the design is legal).  Returns the Vdd in
    ``[MIN_VDD, NOMINAL_VDD]`` such that ``delay_scale(vdd) == slack_ratio``,
    clamped at both ends.
    """
    if slack_ratio <= 1.0:
        return NOMINAL_VDD
    if delay_scale(MIN_VDD) <= slack_ratio:
        return MIN_VDD
    return _brentq(lambda v: delay_scale(v) - slack_ratio, MIN_VDD, NOMINAL_VDD)


def _brentq(f: Callable[[float], float], xa: float, xb: float) -> float:
    """Root of ``f`` in ``[xa, xb]`` by Brent's method.

    A statement-for-statement port of scipy's C ``brentq``
    (``scipy/optimize/Zeros/brentq.c``) with ``xtol=_XTOL``,
    ``rtol=_RTOL`` and ``maxiter=_MAXITER``: it evaluates the same
    iterates in the same float order, so it returns the same double.
    C's ``signbit`` becomes ``< 0``: the two agree on the nonzero, finite
    values it is applied to here.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    fcur = f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"brentq failed to converge after {_MAXITER} iterations")
