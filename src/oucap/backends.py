"""The simulation kernel, oucap._sk_numpy.  Simulation calls the module's
``filter_batch`` directly, looked up for each batch, so a caller that wraps
it (a profiler, say) sees every call; this module stays only as perfbench's
way in to the kernel."""

from __future__ import annotations

from . import _sk_numpy


def get_backend():
    """Return the kernel module, oucap._sk_numpy."""
    return _sk_numpy
