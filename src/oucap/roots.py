"""Bracketed scalar root finding used by the discrete-limit and water-filling
solvers.

Callers supply an initial bracket; the helper expands it geometrically if
the sign change is not yet inside, and raises RootNotBracketed instead of
diverging.  The root is then bisected until the midpoint rounds onto an
endpoint, so the result is the float next to the sign change: accurate
relative to its own size, however small the root is.
"""

from __future__ import annotations

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
