"""Exception types raised by oucap, and the physical memory that
MemoryBudgetExceeded is judged against.

Each class corresponds to one failure mode of the numerical contracts;
callers that need exit-code mapping (the CLI) catch these by type.
"""

import os


class OucapError(Exception):
    """Base class for all oucap-specific errors."""


class RootNotBracketed(OucapError):
    """A bracketed root search found no sign change after expansion."""


class InvalidArma(OucapError):
    """ARMA parameters outside the solvable domain (|phi| >= 1 or power < 0)."""


class NotConverged(OucapError):
    """A limit was requested from a trajectory that has not settled."""


class StepSizeUnderflow(OucapError):
    """The adaptive ODE integrator failed to take a step."""


class GridMismatch(OucapError):
    """Two grid kernels do not share the same sample grid."""


class FilterDivergence(OucapError):
    """The simulation filter produced non-finite state."""


class StationarityViolated(OucapError):
    """A sampled stationarized-noise path failed its one-lag recursion identity."""


class MemoryBudgetExceeded(OucapError):
    """A run's arrays would not fit in the machine's physical memory."""


def _physical_memory() -> int | None:
    """Bytes of physical memory, from os.sysconf, or None where the
    platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
