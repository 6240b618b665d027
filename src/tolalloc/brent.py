"""Brent's bracketed root finder and bounded scalar minimizer, in pure Python.

Ports of ``scipy.optimize.brentq`` (scipy's C routine and its Python checks)
and of ``scipy.optimize.minimize_scalar(method="bounded")``.  Both follow
Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 4 and 5.
They take the same steps in the same floating-point order as scipy's, so they
return the same x after the same number of function calls, and raise the
exception types scipy raises.  The line search calls ``brentq`` on the slope
of the measure along the manifold, and the domain sizing on each axis
threshold; importing ``scipy.optimize`` for it cost each ``size-domain`` and
``allocate`` process about half a second.  ``minimize_bounded`` has no caller
in the package since the line search works on slopes.
"""

from __future__ import annotations

import math
import operator
import sys

import numpy as np

XTOL = 2e-12
RTOL = 4 * sys.float_info.epsilon
MAXITER = 100
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def brentq(f, a: float, b: float, xtol: float = XTOL, rtol: float = RTOL,
           maxiter: int = MAXITER) -> float:
    """A root of ``f`` in the bracket [a, b], where f(a) and f(b) differ in sign.

    The root x0 returned satisfies |x - x0| <= xtol + rtol |x0| for the exact
    root x.  Raises ``ValueError`` for a tolerance below its floor, a bracket
    whose ends have the same sign or a NaN function value, and
    ``RuntimeError`` when ``maxiter`` iterations do not converge.
    """
    maxiter = operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter should be > 0")

    def call(x: float) -> float:
        fx = f(x)
        if np.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return float(fx)

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
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
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre, scur = scur, stry
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
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _sign(x: float) -> float:
    """``np.sign(x) + (x == 0)``: +-1 for nonzero x, 1 for zero, NaN for NaN."""
    if x != x:
        return x
    return -1.0 if x < 0 else 1.0


def minimize_bounded(func, lower: float, upper: float, xatol: float = 1e-5,
                     maxiter: int = 500) -> float:
    """A local minimizer of ``func`` on [lower, upper] by Brent's method.

    Parabolic interpolation falls back to golden-section steps; the search
    stops when the bracket is within ``xatol`` (plus a relative floor) of the
    best point, or after ``maxiter`` function calls, and returns the best
    point found either way.  Raises ``ValueError`` for bounds that are not
    finite or not ordered.
    """
    if not (np.size(lower) == 1 and np.isfinite(lower)
            and np.size(upper) == 1 and np.isfinite(upper)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if lower > upper:
        raise ValueError("The lower bound exceeds the upper bound.")

    a, b = lower, upper
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # Check for parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True

        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e

        # max(|rat|, tol1), propagating a NaN from either side as np.maximum does
        step = abs(rat) if (abs(rat) >= tol1 or rat != rat) else tol1
        x = xf + _sign(rat) * step
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxiter:
            break
    return float(xf)
