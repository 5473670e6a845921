"""Scalar special functions and root finding, bit-identical to scipy 1.17.

`expit` and `logit` follow scipy's formulas, `erfc` is a port of cephes
`ndtr.c` (the code behind `scipy.special.erfc` for real arguments), and
`brentq` is a line-for-line port of scipy's C `brentq`. They keep scipy off
the import path; the tests compare each one with scipy bit for bit.
"""

import math
import sys

# cephes ndtr.c: erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, R/S beyond;
# erf(x) = x T(x^2) / U(x^2) for |x| < 1. cephes leaves the leading 1 of Q, S
# and U implied (its `p1evl`); here it is the first coefficient.
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2

_RTOL = 4 * sys.float_info.epsilon
_MAXITER = 100


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


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


def erfc(a: float) -> float:
    """Complementary error function of a float."""
    x = abs(a)
    if x < 1.0:
        z = a * a
        return 1.0 - a * _polevl(z, _T) / _polevl(z, _U)  # 1 - erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        y = z * _polevl(x, _P) / _polevl(x, _Q)
    else:
        y = z * _polevl(x, _R) / _polevl(x, _S)
    return 2.0 - y if a < 0 else y


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
