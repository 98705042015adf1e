"""The simulation kernel, oucap._sk_numpy.  Simulation looks it up through
get_backend() at each call, so a caller that wraps the module's
``filter_batch`` (a profiler, say) sees every call."""

from __future__ import annotations

from . import _sk_numpy


def get_backend():
    """Return the kernel module, oucap._sk_numpy."""
    return _sk_numpy
