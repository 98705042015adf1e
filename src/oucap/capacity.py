"""Closed-form feedback capacity and its discrete-time limit experiment.

Two independent routes to the same number:

* ``feedback_capacity_closed_form`` — the capacity of the colored channel is
  the unique positive root of P(x+kappa)^2 = 2x(x+|kappa+lam|)^2, found by
  Newton's method in plain floats; white-equivalent parameters give P/2
  exactly.
* ``discrete_limit_sweep`` — sample the channel at step delta, reduce it to a
  stationary ARMA(1,1) noise model, solve that model's quartic capacity
  equation, and divide by delta.  As delta -> 0 the rates converge to the
  closed form at first order in delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .channel import CapacityResult, ChannelParams, Regime, Route, classify_regime
from .errors import InvalidArma
from .roots import bracketed_root


@dataclass(frozen=True)
class ArmaParams:
    """Stationary ARMA(1,1) noise model with per-symbol power budget.

    The noise is N_k = phi*N_{k-1} + U_k + theta*U_{k-1} with unit-variance
    innovations; |phi| < 1 is required for stationarity, and |theta| < 1e154
    for the capacity quartic, which squares theta, to stay finite.
    """

    phi: float
    theta: float
    power: float

    def __post_init__(self) -> None:
        if not abs(self.phi) < 1.0:
            raise InvalidArma(f"|phi| must be < 1, got phi={self.phi}")
        if not abs(self.theta) < 1e154:
            raise InvalidArma(f"|theta| must be < 1e154, got theta={self.theta}")
        if self.power < 0:
            raise InvalidArma(f"power must be nonnegative, got {self.power}")


@dataclass(frozen=True)
class DeltaSweep:
    """Rates C_FB(P*delta)/delta along a decreasing sequence of steps."""

    deltas: tuple
    rates: tuple
    extrapolated: float

    def __post_init__(self) -> None:
        if len(self.deltas) != len(self.rates):
            raise ValueError("deltas and rates must have equal length")
        if not all(math.isfinite(r) for r in self.rates):
            raise ValueError("all rates must be finite")


def feedback_capacity_closed_form(params: ChannelParams) -> CapacityResult:
    """Feedback capacity in nats per unit time, closed-form route.

    White-equivalent regime: P/2 with zero residual.  Colored-gain regime:
    the unique positive root of P(x+kappa)^2 = 2x(x+|kappa+lam|)^2, i.e. of
    p(x) = 2x^3 + (4c-P)x^2 + (2c^2-2P kappa)x - P kappa^2 with
    c = |kappa+lam| < kappa, by Newton's method from the upper bound
    max(kappa, 2P).  The root is at least P/2, where p is already convex and
    increasing, so the iterates fall monotonically onto it; the descent
    stops when rounding ends it, which leaves the value accurate relative to
    its own size for any P.  p is homogeneous of degree 3 in (x, P, kappa,
    c), so the iterates run exactly scaled by the power of 2 that brings
    max(P, kappa) into [1/2, 1), where nothing overflows; P/kappa below
    about 2^-1022 raises ValueError.  The residual is the defining
    polynomial at the root over its slope, the Newton step it asks for.
    """
    if classify_regime(params) is Regime.WHITE_EQUIVALENT:
        return CapacityResult(value=params.power / 2.0,
                              route=Route.CLOSED_FORM, residual=0.0)
    if params.power == 0.0:
        return CapacityResult(value=0.0, route=Route.CLOSED_FORM, residual=0.0)
    k = math.frexp(max(params.power, params.kappa))[1]
    P, kappa = math.ldexp(params.power, -k), math.ldexp(params.kappa, -k)
    if P < 2.0 ** -1022:
        raise ValueError(f"power {params.power!r} is too small against kappa "
                         f"{params.kappa!r} for the closed form in double precision")
    c = math.ldexp(abs(params.kappa + params.lam), -k)
    a2 = 4.0 * c - P
    a1 = 2.0 * c * c - 2.0 * P * kappa
    a0 = -P * kappa * kappa
    # a root x > kappa would give 2x^3 <= P(x+kappa)^2 < 4P x^2, so x <= 2P
    x = max(kappa, 2.0 * P)
    while True:
        slope = (6.0 * x + 2.0 * a2) * x + a1
        x_new = x - (((2.0 * x + a2) * x + a1) * x + a0) / slope
        if x_new < 0.5 * x:  # x - p/p' cancels: form it as one quotient
            x_new = ((4.0 * x + a2) * x * x - a0) / slope
        if not x_new < x:
            break
        x = x_new
    residual = abs(P * (x + kappa) ** 2 - 2.0 * x * (x + c) ** 2) / slope
    return CapacityResult(value=math.ldexp(x, k), route=Route.CLOSED_FORM,
                          residual=math.ldexp(residual, k))


def _sgn(x: float) -> float:
    return float(x > 0.0) - float(x < 0.0)


def _quartic_residual(x: float, arma: ArmaParams) -> float:
    """Cleared-denominator capacity polynomial for the ARMA(1,1) model.

    Negative at x -> 0+ and positive at x = 1 (for power > 0), so bisection
    on (0, 1) is always bracketed.  (1-x^2) is evaluated as (1-x)(1+x): the
    root sits within O(delta) of 1 in the small-step limit and the factored
    form keeps full precision there.
    """
    P = arma.power
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    if abs(arma.theta) <= 1.0:
        s = _sgn(arma.phi - arma.theta)
        lhs = P * x * x * (1.0 + s * arma.phi * x) ** 2
        rhs = one_minus_x2 * (1.0 + s * arma.theta * x) ** 2
    else:
        s = _sgn(arma.phi - 1.0 / arma.theta)
        lhs = P * x * x * (1.0 + s * arma.phi * x) ** 2
        rhs = one_minus_x2 * (arma.theta + s * x) ** 2
    return lhs - rhs


def solve_arma_quartic(arma: ArmaParams) -> tuple[float, float]:
    """Root x0 in (0, 1] of the ARMA(1,1) capacity polynomial, and the
    capacity cap = -(1/2) ln(x0^2) in nats per symbol.

    The branch with |theta| <= 1 solves
    P x^2 = (1-x^2)(1+s*theta*x)^2/(1+s*phi*x)^2 with s = sgn(phi-theta);
    for |theta| > 1 the moving-average factor is replaced by (theta+s*x)
    with s = sgn(phi-1/theta).  sgn(0)=0 collapses phi=theta to the
    memoryless P x^2 = 1-x^2.
    """
    if arma.power == 0.0:
        return 1.0, 0.0
    # denominators (1+s*phi*x) never vanish on (0,1] since |phi|<1, so the
    # cleared polynomial has the same root; bracket is [~0, 1].
    x0 = bracketed_root(lambda x: _quartic_residual(x, arma), 1e-300, 1.0)
    cap = -math.log(x0)
    return x0, cap


def arma_from_step(params: ChannelParams, delta: float) -> ArmaParams:
    """ARMA(1,1) reduction of the channel sampled at step delta.

    phi = -e^{-kappa*delta}, theta = lam/kappa - (lam/kappa + 1)e^{-kappa*delta},
    per-symbol power P*delta.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    e = math.exp(-params.kappa * delta)
    ratio = params.lam / params.kappa
    return ArmaParams(phi=-e, theta=ratio - (ratio + 1.0) * e,
                      power=params.power * delta)


def _richardson(deltas: Sequence[float], rates: Sequence[float], i: int) -> float:
    """Two-point Richardson value from entries i-1 and i, eliminating the
    first-order term of rate(delta) = limit + c*delta + o(delta)."""
    d1, d2 = deltas[i - 1], deltas[i]
    return (d1 * rates[i] - d2 * rates[i - 1]) / (d1 - d2)


def discrete_limit_sweep(params: ChannelParams,
                         deltas: Sequence[float]) -> DeltaSweep:
    """Per-unit-time rates cap(delta)/delta along a decreasing delta sequence.

    extrapolated is the two-point Richardson value from the last two
    entries, assuming a first-order error expansion rate(delta) =
    limit + c*delta + o(delta); the raw final rate is also retained in
    rates[-1] for callers that prefer not to rely on that assumption.
    """
    ds = [float(d) for d in deltas]
    if any(d <= 0 for d in ds):
        raise ValueError("all deltas must be positive")
    if any(b >= a for a, b in zip(ds, ds[1:])):
        raise ValueError("deltas must be strictly decreasing")
    rates = []
    for d in ds:
        _, cap = solve_arma_quartic(arma_from_step(params, d))
        rates.append(cap / d)
    extrapolated = _richardson(ds, rates, len(ds) - 1) if len(ds) >= 2 else rates[-1]
    return DeltaSweep(deltas=tuple(ds), rates=tuple(rates),
                      extrapolated=extrapolated)


def discrete_limit_capacity(params: ChannelParams,
                            deltas: Sequence[float]) -> CapacityResult:
    """CapacityResult wrapper around discrete_limit_sweep.

    value is the Richardson-extrapolated limit.  residual is the spread
    between the last two successive Richardson values (entries -3/-2 and
    -2/-1), which bounds the extrapolation's own error while the o(delta)
    remainder shrinks along the sweep.  Fewer than three deltas give no such
    spread, so they raise ValueError rather than report an error bar that
    bounds nothing.
    """
    if len(deltas) < 3:
        raise ValueError(
            f"the discrete limit needs at least three deltas, got {len(deltas)}")
    sweep = discrete_limit_sweep(params, deltas)
    value = max(sweep.extrapolated, 0.0)
    previous = _richardson(sweep.deltas, sweep.rates, len(sweep.deltas) - 2)
    return CapacityResult(value=value, route=Route.DISCRETE_LIMIT,
                          residual=abs(sweep.extrapolated - previous))


DEFAULT_SWEEP_DELTAS = tuple(0.1 * (10.0 ** (-0.25)) ** i for i in range(13))
"""Geometric sweep from 1e-1 down to 1e-4 (13 points, ratio 10^(1/4))."""
