"""The simulation kernel: oucap._sk_numpy.

Simulation reaches the kernel only through get_backend(), so a caller that
wraps the module's ``filter_batch`` (a profiler, say) sees every call.  The
kernel carries the filter's error state (Theta0 - m0, Z0 - m1, zeta0 - m2)
and only reads the noise buffers xi1/xi2 it is given.
"""

from __future__ import annotations

from . import _sk_numpy


def get_backend():
    """Return the kernel module, oucap._sk_numpy."""
    return _sk_numpy
