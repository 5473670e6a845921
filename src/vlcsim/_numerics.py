"""Scalar special functions and root finding, bit-identical to scipy 1.17.

`expit` and `logit` follow scipy's formulas, and `brentq` is a line-for-line
port of scipy's C `brentq`. They keep scipy off the import path; the tests
compare each one with scipy bit for bit.
"""

import math
import sys

_RTOL = 4 * sys.float_info.epsilon
_MAXITER = 100


def expit(x: float) -> float:
    """Logistic sigmoid 1 / (1 + exp(-x)); 0.0 where exp(-x) overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def logit(x: float) -> float:
    """log(x / (1 - x)); -inf at 0, inf at 1 and NaN outside [0, 1]."""
    if x < 0.3 or x > 0.65:
        if 0.0 < x < 1.0:
            return math.log(x / (1 - x))
        return -math.inf if x == 0.0 else math.inf if x == 1.0 else math.nan
    s = 2 * (x - 0.5)
    return math.log1p(s) - math.log1p(-s)


def brentq(f, a: float, b: float, xtol: float) -> float:
    """Root of `f` in [a, b] by Brent's method, as `scipy.optimize.brentq`."""

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)  # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")
