"""Exception types raised by oucap.

Each class corresponds to one failure mode of the numerical contracts;
callers that need exit-code mapping (the CLI) catch these by type.
"""


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


class KernelDomainMismatch(OucapError):
    """A kernel is not usable on the requested grid (wrong domain, zero l_d)."""


class GridMismatch(OucapError):
    """Two grid kernels do not share the same sample grid."""


class FilterDivergence(OucapError):
    """The simulation filter produced non-finite state."""


class StationarityViolated(OucapError):
    """A sampled stationarized-noise path failed its one-lag recursion identity."""

