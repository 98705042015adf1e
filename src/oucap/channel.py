"""Channel parameters, regime classification, and the noise spectral density.

The channel adds a white Brownian component and an exponentially damped
(Ornstein-Uhlenbeck averaged) component with weight ``lam`` and reversion
rate ``kappa``.  Everything else in the package consumes these types.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class Regime(enum.Enum):
    """Capacity regime of the channel.

    COLORED_GAIN: -2*kappa < lam < 0, feedback strictly beats P/2.
    WHITE_EQUIVALENT: lam <= -2*kappa or lam >= 0, capacity equals P/2.
    """

    COLORED_GAIN = "ColoredGain"
    WHITE_EQUIVALENT = "WhiteEquivalent"


class Route(enum.Enum):
    """How a capacity value was produced."""

    CLOSED_FORM = "ClosedForm"
    ODE_LIMIT = "OdeLimit"
    DISCRETE_LIMIT = "DiscreteLimit"


@dataclass(frozen=True)
class ChannelParams:
    """Channel triple (lam, kappa, power).

    lam is dimensionless, kappa has units 1/time and must be positive,
    power is the average power budget P >= 0.
    """

    lam: float
    kappa: float
    power: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and math.isfinite(self.kappa)
                and math.isfinite(self.power)):
            raise ValueError("channel parameters must be finite")
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.power < 0:
            raise ValueError(f"power must be nonnegative, got {self.power}")

    def regime(self) -> Regime:
        return classify_regime(self)


@dataclass(frozen=True)
class CapacityResult:
    """A capacity value in nats per unit time with route and diagnostics.

    residual is the route's accuracy diagnostic: the defining cubic at the
    root over its slope, at least 4 ulp, for the closed form; the rate spread
    from the last ODE step boundary at or before 0.9 of the horizon to its
    end (at least the last tenth) for the ODE limit; the spread of the
    last two Richardson values for the discrete limit.
    """

    value: float
    route: Route
    residual: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"capacity must be nonnegative, got {self.value}")
        if self.residual < 0:
            raise ValueError(f"residual must be nonnegative, got {self.residual}")


def classify_regime(params: ChannelParams) -> Regime:
    """Classify (lam, kappa) into the capacity regime.

    The comparison is exact: parameters are user-supplied, so the
    boundaries lam = 0 and lam = -2*kappa are meaningful inputs and both
    belong to the white-equivalent case.
    """
    if -2.0 * params.kappa < params.lam < 0.0:
        return Regime.COLORED_GAIN
    return Regime.WHITE_EQUIVALENT


def noise_sdf(params: ChannelParams, x):
    """Spectral density of the stationarized noise at frequency x.

    S_z(x) = (x^2 + (kappa+lam)^2) / (2*pi*(x^2 + kappa^2)).

    Accepts scalars or arrays.  S_z is even, bounded, and vanishes only at
    x = 0 in the special case lam = -kappa.  A Python int or float x
    (np.float64 included) is computed with math and returns a float with
    the bits of the array path.  Out of float range that path returns inf
    or nan with no warning, and raises ZeroDivisionError where
    x^2 + kappa^2 underflows to 0; an array gives inf or nan there with a
    RuntimeWarning, as numpy does.
    """
    if isinstance(x, (int, float)):
        x, kappa = float(x), params.kappa
        c = kappa + params.lam
        # products, not **, which raises OverflowError where numpy gives inf
        return (x * x + c * c) / (2.0 * math.pi * (x * x + kappa * kappa))
    import numpy as np

    x = np.asarray(x, dtype=float)
    kappa = np.float64(params.kappa)
    c = kappa + params.lam
    out = (x * x + c * c) / (2.0 * np.pi * (x * x + kappa ** 2))
    return float(out) if out.ndim == 0 else out
