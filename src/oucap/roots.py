"""Bracketed scalar root finding used by the discrete-limit and water-filling
solvers.

Thin wrapper over Brent's method: callers supply an initial bracket, the
helper expands it geometrically if the sign change is not yet inside, and
raises RootNotBracketed instead of diverging.  Tolerance is absolute 1e-12
on x by default.  scipy.optimize is imported on the first call, so routes
that find no root this way (the closed form among them) never load it.
"""

from __future__ import annotations

from typing import Callable

from .errors import RootNotBracketed

XTOL = 1e-12
_MAX_EXPANSIONS = 60


def bracketed_root(f: Callable[[float], float], lo: float, hi: float,
                   xtol: float = XTOL) -> float:
    """Root of f in [lo, hi], expanding hi geometrically if needed.

    f(lo) and f(hi) must end up with opposite signs; a root exactly at an
    endpoint is returned immediately.
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
            from scipy.optimize import brentq

            return float(brentq(f, lo, hi, xtol=xtol, rtol=1e-15))
        width *= 2.0
        hi = lo + width
        fhi = f(hi)
    raise RootNotBracketed(
        f"no sign change in [{lo}, {hi}] after {_MAX_EXPANSIONS} expansions")
