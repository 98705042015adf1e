"""Bracketed scalar root finding: every scalar root the package computes.

``bracketed_root`` widens a caller's bracket until it holds a sign change
(or raises RootNotBracketed); ``cubic_roots`` brackets a cubic's real roots
between its critical points.  Each root is bisected to the float next to its
sign change: accurate relative to its own size, however small it is.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import RootNotBracketed

_MAX_EXPANSIONS = 60


def bracketed_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of f in [lo, hi], expanding hi geometrically if needed.

    f(lo) and f(hi) must end up with opposite signs; a root exactly at an
    endpoint, or at a midpoint, is returned immediately.
    """
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    width = hi - lo
    for _ in range(_MAX_EXPANSIONS):
        if fhi == 0.0:
            return hi
        if (flo < 0.0) != (fhi < 0.0):
            return _bisect(f, lo, hi, flo < 0.0)
        width *= 2.0
        hi = lo + width
        fhi = f(hi)
    raise RootNotBracketed(
        f"no sign change in [{lo}, {hi}] after {_MAX_EXPANSIONS} expansions")


def cubic_roots(a: float, b: float, c: float, d: float) -> tuple[str, tuple]:
    """Case label and ascending real roots of a x^3 + b x^2 + c x + d, a > 0.

    Critical points (stable quadratic formula) and ends doubled out from -1
    and 1 split the line into monotone pieces, each bisected where its ends
    differ in sign.  A critical point where the cubic is 0.0 is a double root,
    listed twice (DoubleRoot); else the sign changes count ThreeDistinct or
    OneReal.  Scale the coefficients by a power of 2 to at most 1, a >= 2^-1022.
    """
    def f(x: float) -> float:
        return ((a * x + b) * x + c) * x + d

    h = b * b - 3.0 * a * c
    q = -(b + math.copysign(math.sqrt(max(h, 0.0)), b))
    crit = sorted({q / (3.0 * a), c / q}) if h > 0.0 else []
    lo, hi = -1.0, 1.0
    while not (f(lo) < 0.0 and all(lo < x for x in crit)):
        lo *= 2.0
    while not (f(hi) > 0.0 and all(hi > x for x in crit)):
        hi *= 2.0
    points = [lo, *crit, hi]
    values = [f(x) for x in points]
    roots = []
    for u, fu, v, fv in zip(points, values, points[1:], values[1:]):
        if fu == 0.0:
            roots += (u, u)
        elif fv != 0.0 and (fu < 0.0) != (fv < 0.0):
            roots.append(_bisect(f, u, v, fu < 0.0))
    if 0.0 in values:
        return "DoubleRoot", tuple(roots)
    return ("ThreeDistinct" if len(roots) == 3 else "OneReal"), tuple(roots)


def _bisect(f: Callable[[float], float], lo: float, hi: float,
            rising: bool) -> float:
    # halve until no float lies strictly between the endpoints; `rising`
    # says whether f is negative at lo
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == rising:
            lo = mid
        else:
            hi = mid
