"""The scalar Riccati-Abel ODE driving the feedback scheme, its limit
analysis, and the gain curve.

The coded input is X(t) = A(t)(Theta - E[Theta | observations]) with

    g' = -P g^3 + (P/sqrt(2)) g^2 + p(t) g + q(t)/sqrt(2),  g(0) = 1/sqrt(2),
    log A(t) = log sqrt(P) + int_0^t P g^2 ds,
    gain H(t) = sqrt(2) g(t) A(t)  (equivalently A + (1/l_d) int l_u A),

where p = -l_d'/l_d and q = (l_u + l_d')/l_d come from the separable
resolvent kernel.  The information rate of the scheme is P * r^2 for the
root r of the limiting cubic that g(t) settles on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import CapacityResult, ChannelParams, Route
from .errors import KernelDomainMismatch, NotConverged, StepSizeUnderflow
from .kernels import SeparableKernel, ou_resolvent_kernel

SQRT2 = math.sqrt(2.0)

ONE_REAL = "OneReal"
THREE_DISTINCT = "ThreeDistinct"
DOUBLE_ROOT = "DoubleRoot"


@dataclass(frozen=True)
class AbelCoefficients:
    """Time-dependent coefficients p(t), q(t) with their limits and the
    power budget P.

    p and q must accept numpy arrays or scalars.
    """

    p: Callable
    q: Callable
    p_limit: float
    q_limit: float
    power: float

    def __post_init__(self):
        if self.power < 0:
            raise ValueError(f"power must be nonnegative, got {self.power}")


def abel_from_kernel(kernel: SeparableKernel, power: float) -> AbelCoefficients:
    """Coefficients p = -l_d'/l_d, q = (l_u + l_d')/l_d for a separable
    kernel, using its overflow-safe ratio callables.

    Limits: p_limit = -beta, q_limit = alpha + beta.
    """
    return AbelCoefficients(
        p=lambda t: -np.asarray(kernel.ld_prime_over_ld(t), dtype=float),
        q=lambda t: np.asarray(kernel.lu_over_ld(t), dtype=float)
          + np.asarray(kernel.ld_prime_over_ld(t), dtype=float),
        p_limit=-kernel.beta,
        q_limit=kernel.alpha + kernel.beta,
        power=power)


def abel_for_channel(params: ChannelParams) -> AbelCoefficients:
    """Coefficients for the channel's own resolvent kernel."""
    return abel_from_kernel(ou_resolvent_kernel(params), params.power)


@dataclass(frozen=True)
class OdeTrajectory:
    """Sampled solution of the Abel ODE with amplitude and gain curves.

    log_a stores log A(t) (A grows like e^{rate * t}, so the log is the
    primary representation); the `a` property exponentiates and may
    overflow to inf for long horizons, by design.  gain is H(t) =
    sqrt(2) g A, the identity route; the quadrature route lives in
    gain_from_kernel as an independent cross-check.
    """

    times: np.ndarray
    g: np.ndarray
    log_a: np.ndarray
    r_limit: float
    converged_root_index: int
    power: float

    @property
    def a(self) -> np.ndarray:
        return np.exp(self.log_a)

    @property
    def gain(self) -> np.ndarray:
        return SQRT2 * self.g * np.exp(self.log_a)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


def _cubic_coefficients(coeffs: AbelCoefficients):
    return (-coeffs.power, coeffs.power / SQRT2,
            coeffs.p_limit, coeffs.q_limit / SQRT2)


def limiting_cubic_roots(coeffs: AbelCoefficients) -> tuple[str, tuple]:
    """Case label and ascending real roots of the limiting cubic
    -P y^3 + (P/sqrt 2) y^2 + p_limit y + q_limit/sqrt 2.

    Discriminant-classified with relative tolerance 1e-9: positive ->
    ThreeDistinct (three real roots), negative -> OneReal (one real root
    returned), near zero -> DoubleRoot (all three real parts returned, the
    repeated pair appearing twice).
    """
    a, b, c, d = _cubic_coefficients(coeffs)
    if a == 0.0:
        raise ValueError("power must be positive for the limiting cubic")
    disc = (18.0 * a * b * c * d - 4.0 * b ** 3 * d + b * b * c * c
            - 4.0 * a * c ** 3 - 27.0 * a * a * d * d)
    scale = max(abs(a), abs(b), abs(c), abs(d))
    disc_norm = disc / scale ** 4
    roots = np.roots([a, b, c, d])
    if abs(disc_norm) <= 1e-9:
        case = DOUBLE_ROOT
        real = np.sort(roots.real)
    elif disc_norm > 0.0:
        case = THREE_DISTINCT
        real = np.sort(roots.real)
    else:
        case = ONE_REAL
        real = np.array([roots[np.argmin(np.abs(roots.imag))].real])
    return case, tuple(float(r) for r in real)


@dataclass(frozen=True)
class RootConvergence:
    """Which real root of the limiting cubic the trajectory reached."""

    case: str
    roots: tuple
    root_index: int

    @property
    def root(self) -> float:
        return self.roots[self.root_index]


def integrate_abel(coeffs: AbelCoefficients, horizon: float,
                   step: float) -> OdeTrajectory:
    """Integrate the Abel ODE over [0, horizon], sampled every `step`.

    Adaptive embedded Runge-Kutta 4(5) with relative tolerance 1e-10;
    log A is accumulated as an extra state so amplitude quadrature shares
    the integrator's error control.  r_limit = g(horizon);
    converged_root_index is the nearest real root of the limiting cubic
    (index into limiting_cubic_roots' ascending list).
    """
    if horizon <= 0 or step <= 0:
        raise ValueError("horizon and step must be positive")
    if step > horizon / 100.0:
        raise ValueError(f"step must be <= horizon/100, got {step}")
    if coeffs.power <= 0:
        raise ValueError("power must be positive to integrate the scheme")
    from scipy.integrate import solve_ivp

    P = coeffs.power

    def rhs(t, y):
        g = y[0]
        d = (-P * g ** 3 + (P / SQRT2) * g * g
             + coeffs.p(t) * g + coeffs.q(t) / SQRT2)
        if not math.isfinite(d):
            # raise here: the step controller would otherwise shrink the
            # step forever without ever reporting failure
            raise StepSizeUnderflow(f"non-finite right-hand side at t={t}")
        return (d, P * g * g)

    n = int(math.ceil(horizon / step))
    times = np.linspace(0.0, horizon, n + 1)
    sol = solve_ivp(rhs, (0.0, horizon), (1.0 / SQRT2, 0.0), method="RK45",
                    rtol=1e-10, atol=1e-12, dense_output=True)
    if not sol.success:
        raise StepSizeUnderflow(f"ODE integration failed: {sol.message}")
    samples = sol.sol(times)
    g = samples[0]
    if not np.all(np.isfinite(g)):
        raise StepSizeUnderflow("non-finite solution samples")
    log_a = 0.5 * math.log(P) + samples[1]
    r_limit = float(g[-1])
    _, roots = limiting_cubic_roots(coeffs)
    idx = int(np.argmin([abs(r - r_limit) for r in roots]))
    return OdeTrajectory(times=times, g=g, log_a=log_a, r_limit=r_limit,
                         converged_root_index=idx, power=P)


def _tail_gap(traj: OdeTrajectory) -> tuple[float, int]:
    """|g(horizon) - g(0.9 horizon)| and the 0.9-horizon sample index."""
    i = int(np.argmin(np.abs(traj.times - 0.9 * traj.horizon)))
    return abs(traj.r_limit - float(traj.g[i])), i


def sk_rate_from_ode(traj: OdeTrajectory) -> CapacityResult:
    """Information rate P * r_limit^2 of the feedback scheme.

    Requires a settled trajectory: |g(T) - g(0.9 T)| < 1e-8, else
    NotConverged.  residual reports |value - P g(0.9 T)^2|, the window
    spread mapped to rate units.  In the colored-gain regime the value is
    the channel capacity; otherwise it is the scheme's rate, a strict
    lower bound of P/2.
    """
    gap, i = _tail_gap(traj)
    if not gap < 1e-8:
        raise NotConverged(
            f"trajectory tail gap {gap:.3e} >= 1e-8 at horizon "
            f"{traj.horizon}; integrate further")
    P = traj.power
    value = P * traj.r_limit ** 2
    residual = abs(value - P * float(traj.g[i]) ** 2)
    return CapacityResult(value=value, route=Route.ODE_LIMIT, residual=residual)


def classify_root_convergence(coeffs: AbelCoefficients,
                              horizon: float) -> RootConvergence:
    """Integrate to `horizon` and report which limiting-cubic root g
    converged to, with the discriminant case label.

    Raises NotConverged under the same window test as sk_rate_from_ode.
    """
    traj = integrate_abel(coeffs, horizon, horizon / 1000.0)
    gap, _ = _tail_gap(traj)
    if not gap < 1e-8:
        raise NotConverged(
            f"trajectory tail gap {gap:.3e} >= 1e-8 at horizon {horizon}")
    case, roots = limiting_cubic_roots(coeffs)
    idx = int(np.argmin([abs(r - traj.r_limit) for r in roots]))
    return RootConvergence(case=case, roots=roots, root_index=idx)


def gain_from_kernel(traj: OdeTrajectory, kernel: SeparableKernel,
                     identity_rtol: float = 1e-3) -> np.ndarray:
    """Gain curve H(t_i) = A(t_i) + (1/l_d(t_i)) int_0^{t_i} l_u A ds by
    trapezoid accumulation on the trajectory grid.

    Also asserts the defining identity sqrt(2) g A l_d = l_d A + int l_u A
    on the grid; a relative residual above identity_rtol means the kernel
    does not match the trajectory's coefficients (or the grid is far too
    coarse) and raises KernelDomainMismatch.  The default guard is loose;
    precision studies belong to the caller, who controls the grid.
    """
    t = traj.times
    ld = np.asarray(kernel.l_d(t), dtype=float)
    lu = np.asarray(kernel.l_u(t), dtype=float)
    if not (np.all(np.isfinite(ld)) and np.all(np.isfinite(lu))):
        raise KernelDomainMismatch("kernel factors not finite on [0, horizon]")
    if np.any(ld == 0.0):
        raise KernelDomainMismatch("l_d vanishes on the trajectory grid")
    from scipy.integrate import cumulative_trapezoid

    A = traj.a
    integral = cumulative_trapezoid(lu * A, t, initial=0.0)
    H = A + integral / ld
    lhs = SQRT2 * traj.g * A * ld
    rhs = ld * A + integral
    resid = float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(ld * A)))
    if not resid < identity_rtol:
        raise KernelDomainMismatch(
            f"gain identity residual {resid:.3e} exceeds {identity_rtol:.1e}; "
            "kernel and trajectory disagree")
    return H
