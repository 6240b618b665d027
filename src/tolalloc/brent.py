"""Brent's bracketed root finder, in pure Python.

A port of ``scipy.optimize.brentq`` (scipy's C routine and its Python
checks), after Brent, *Algorithms for Minimization without Derivatives*
(1973), ch. 4.  It takes the same steps in the same floating-point order as
scipy's, so it returns the same x after the same number of function calls,
and raises the exception types scipy raises.  The line search calls it on the
slope of the measure along the manifold, and the domain sizing on each axis
threshold; importing ``scipy.optimize`` for it cost each ``size-domain`` and
``allocate`` process about half a second.
"""

from __future__ import annotations

import math
import operator
import sys

import numpy as np

XTOL = 2e-12
RTOL = 4 * sys.float_info.epsilon
MAXITER = 100


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
