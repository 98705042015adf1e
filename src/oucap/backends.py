"""The simulation kernel that this build provides.

The compiled extension oucap._sk_core, built from Cython, runs when it
imports; otherwise its pure-numpy twin oucap._sk_numpy does.  Both implement
the same ``filter_batch`` contract with identical arithmetic order, so the
build never changes results, only speed.  Both carry the filter's error state
(Theta0 - m0, Z0 - m1, zeta0 - m2), and both consume the noise buffers
xi1/xi2 they are given: the caller must not read them afterwards.
"""

from __future__ import annotations

from . import _sk_numpy

try:  # pragma: no cover - exercised only when the extension built
    from . import _sk_core
except ImportError:  # pragma: no cover
    _sk_core = None


def get_backend():
    """Return the kernel module: oucap._sk_core if built, else oucap._sk_numpy."""
    return _sk_core if _sk_core is not None else _sk_numpy
