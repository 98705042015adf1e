"""The scalar Riccati-Abel ODE driving the feedback scheme, its limit
analysis, and the amplitude curve log A(t).

The coded input is X(t) = A(t)(Theta - E[Theta | observations]) with

    g' = -P g^3 + (P/sqrt(2)) g^2 + p(t) g + q(t)/sqrt(2),  g(0) = 1/sqrt(2),
    log A(t) = log sqrt(P) + int_0^t P g^2 ds,
    gain H(t) = sqrt(2) g(t) A(t)  (equivalently A + (1/l_d) int l_u A),

where p = -l_d'/l_d and q = (l_u + l_d')/l_d come from the separable
resolvent kernel.  The information rate of the scheme is P * r^2 for the
root r of the limiting cubic that g(t) settles on.

The ODE is integrated by a Dormand-Prince 5(4) stepper on Python floats, a
port of scipy's RK45 (same tolerances, step control and dense output), so
this module needs numpy and the standard library only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import CapacityResult, ChannelParams, Route
from .errors import NotConverged, StepSizeUnderflow
from .kernels import SeparableKernel, ou_resolvent_kernel

SQRT2 = math.sqrt(2.0)

ONE_REAL = "OneReal"
THREE_DISTINCT = "ThreeDistinct"
DOUBLE_ROOT = "DoubleRoot"


@dataclass(frozen=True)
class AbelCoefficients:
    """Time-dependent coefficients p(t), q(t) with their limits and the
    power budget P.

    p and q map a float t to a float.  The integrator calls them about a
    thousand times per trajectory, so math, not numpy, keeps it fast.
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

    Limits: p_limit = -beta, q_limit = alpha + beta.  Like the kernel's
    ratio callables, p and q take and return one float.
    """
    return AbelCoefficients(
        p=lambda t: -kernel.ld_prime_over_ld(t),
        q=lambda t: kernel.lu_over_ld(t) + kernel.ld_prime_over_ld(t),
        p_limit=-kernel.beta,
        q_limit=kernel.alpha + kernel.beta,
        power=power)


def abel_for_channel(params: ChannelParams) -> AbelCoefficients:
    """Coefficients for the channel's own resolvent kernel."""
    return abel_from_kernel(ou_resolvent_kernel(params), params.power)


@dataclass(frozen=True)
class OdeTrajectory:
    """Sampled solution of the Abel ODE with its amplitude curve.

    log_a stores log A(t) (A grows like e^{rate * t}, so the log is the
    primary representation); the `a` property exponentiates and may
    overflow to inf for long horizons, by design.
    """

    times: np.ndarray
    g: np.ndarray
    log_a: np.ndarray
    r_limit: float
    power: float

    @property
    def a(self) -> np.ndarray:
        return np.exp(self.log_a)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


def limiting_cubic_roots(coeffs: AbelCoefficients) -> tuple[str, tuple]:
    """Case label and ascending real roots of the limiting cubic
    -P y^3 + (P/sqrt 2) y^2 + p_limit y + q_limit/sqrt 2.

    Discriminant-classified with relative tolerance 1e-9: positive ->
    ThreeDistinct (three real roots), negative -> OneReal (one real root
    returned), near zero -> DoubleRoot (all three real parts returned, the
    repeated pair appearing twice).
    """
    a, b, c, d = (-coeffs.power, coeffs.power / SQRT2,
                  coeffs.p_limit, coeffs.q_limit / SQRT2)
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


# Dormand-Prince 5(4) pair with Shampine's quartic dense output, the method
# and constants of scipy.integrate.RK45 (Hairer, Norsett & Wanner, Solving
# ODEs I, Sec. II.4; Shampine, Math. Comp. 46 (1986) 135-150).  Stage 1
# enters only the later stages, so its B, E and P entries are 0 and dropped.
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9)
_A1 = 1 / 5
_A2 = (3 / 40, 9 / 40)
_A3 = (44 / 45, -56 / 15, 32 / 9)
_A4 = (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)
_A5 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
_B = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])


def _dormand_prince(f, power: float, g0: float, t_bound: float):
    """Adaptive RK45 on the state (g, s) with g' = f(t, g) and s' = P g^2.

    Error control as in scipy's RK45: RMS norm of the embedded error over
    atol + rtol max(|y|, |y_new|), safety 0.9, step factor in [0.2, 10], the
    same initial-step rule, first-same-as-last stages, and failure once the
    step falls below ten float spacings of t.  Returns per accepted step the
    start time, step, start state and the rows of the dense-output
    polynomial y(t0 + x h) = y0 + h sum_m Q[m] x^(m+1) for g and for s.
    """
    P = power
    rtol, atol = 1e-10, 1e-12

    def rms(a: float, b: float) -> float:
        return math.hypot(a, b) / SQRT2

    # initial step (Hairer, Norsett & Wanner, Sec. II.4)
    t, g, s = 0.0, g0, 0.0
    kg = f(t, g)
    ks = P * g * g
    sc_g, sc_s = atol + abs(g) * rtol, atol + abs(s) * rtol
    d0 = rms(g / sc_g, s / sc_s)
    d1 = rms(kg / sc_g, ks / sc_s)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    if not h0 > 0.0:
        raise StepSizeUnderflow(f"initial ODE step {h0!r} is not positive")
    g1 = g + h0 * kg
    d2 = rms((f(h0, g1) - kg) / sc_g, (P * g1 * g1 - ks) / sc_s) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100.0 * h0, h1, t_bound)

    steps = []
    c1, c2, c3, c4 = _C
    a20, a21 = _A2
    a30, a31, a32 = _A3
    a40, a41, a42, a43 = _A4
    a50, a51, a52, a53, a54 = _A5
    b0, b2, b3, b4, b5 = _B
    e0, e2, e3, e4, e5, e6 = _E
    while t < t_bound:
        min_step = 10.0 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeUnderflow(
                    f"ODE step size fell below {min_step:.3e} at t={t}")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            k1 = f(t + c1 * h, g + h * (_A1 * kg))
            y2 = g + h * (a20 * kg + a21 * k1)
            k2 = f(t + c2 * h, y2)
            y3 = g + h * (a30 * kg + a31 * k1 + a32 * k2)
            k3 = f(t + c3 * h, y3)
            y4 = g + h * (a40 * kg + a41 * k1 + a42 * k2 + a43 * k3)
            k4 = f(t + c4 * h, y4)
            y5 = g + h * (a50 * kg + a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4)
            k5 = f(t + h, y5)
            g_new = g + h * (b0 * kg + b2 * k2 + b3 * k3 + b4 * k4 + b5 * k5)
            k6 = f(t_new, g_new)
            # s' = P g^2 at each stage's g; s itself never enters a stage
            ks2, ks3, ks4, ks5 = P * y2 * y2, P * y3 * y3, P * y4 * y4, P * y5 * y5
            ks6 = P * g_new * g_new
            s_new = s + h * (b0 * ks + b2 * ks2 + b3 * ks3 + b4 * ks4 + b5 * ks5)
            err_g = h * (e0 * kg + e2 * k2 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6)
            err_s = h * (e0 * ks + e2 * ks2 + e3 * ks3 + e4 * ks4 + e5 * ks5
                         + e6 * ks6)
            err = rms(err_g / (atol + max(abs(g), abs(g_new)) * rtol),
                      err_s / (atol + max(abs(s), abs(s_new)) * rtol))
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        steps.append((t, h, g, s, kg, k2, k3, k4, k5, k6,
                      ks, ks2, ks3, ks4, ks5, ks6))
        t, g, s, kg, ks = t_new, g_new, s_new, k6, ks6
    table = np.array(steps, dtype=float)
    return (table[:, 0], table[:, 1], table[:, 2], table[:, 3],
            table[:, 4:10] @ _P, table[:, 10:16] @ _P)


def integrate_abel(coeffs: AbelCoefficients, horizon: float,
                   step: float) -> OdeTrajectory:
    """Integrate the Abel ODE over [0, horizon], sampled every `step`.

    Adaptive embedded Runge-Kutta 5(4) (Dormand-Prince) with relative
    tolerance 1e-10 and absolute tolerance 1e-12, on Python floats; log A is
    accumulated as an extra state so amplitude quadrature shares the
    integrator's error control.  The samples come from each step's quartic
    dense output.  r_limit = g(horizon); classify_root_convergence names the
    limiting-cubic root it settles on.  A right-hand side that is not finite
    or whose coefficients divide by zero, or a step size that underflows,
    raises StepSizeUnderflow.
    """
    if not (0.0 < horizon < math.inf and 0.0 < step < math.inf):
        raise ValueError("horizon and step must be positive and finite")
    if step > horizon / 100.0:
        raise ValueError(f"step must be <= horizon/100, got {step}")
    if coeffs.power <= 0:
        raise ValueError("power must be positive to integrate the scheme")

    P = coeffs.power
    p, q = coeffs.p, coeffs.q
    half_p = P / SQRT2
    isfinite = math.isfinite

    def rhs(t, g):
        try:
            pt, qt = p(t), q(t)
        except ZeroDivisionError:
            # math floats raise where numpy would return inf
            raise StepSizeUnderflow(f"coefficient divides by zero at t={t}") from None
        d = -P * g * g * g + half_p * g * g + pt * g + qt / SQRT2
        if not isfinite(d):
            # raise here: the step controller would otherwise shrink the
            # step forever without ever reporting failure
            raise StepSizeUnderflow(f"non-finite right-hand side at t={t}")
        return d

    t0, h, g0, s0, qg, qs = _dormand_prince(rhs, P, 1.0 / SQRT2, float(horizon))
    n = int(math.ceil(horizon / step))
    times = np.linspace(0.0, horizon, n + 1)
    # a sample on a step boundary takes the earlier step, as scipy's OdeSolution
    seg = np.clip(np.searchsorted(t0, times, side="left") - 1, 0, t0.size - 1)
    x = (times - t0[seg]) / h[seg]
    hx = h[seg] * x

    def dense(y0, Q):
        return y0[seg] + hx * (Q[seg, 0] + x * (Q[seg, 1] + x * (Q[seg, 2] + x * Q[seg, 3])))

    g = dense(g0, qg)
    if not np.all(np.isfinite(g)):
        raise StepSizeUnderflow("non-finite solution samples")
    log_a = 0.5 * math.log(P) + dense(s0, qs)
    return OdeTrajectory(times=times, g=g, log_a=log_a, r_limit=float(g[-1]),
                         power=P)


def _settled_tail(traj: OdeTrajectory) -> int:
    """Index of the 0.9-horizon sample, once |g(T) - g(0.9 T)| < 1e-8;
    NotConverged otherwise."""
    i = int(np.argmin(np.abs(traj.times - 0.9 * traj.horizon)))
    gap = abs(traj.r_limit - float(traj.g[i]))
    if not gap < 1e-8:
        raise NotConverged(
            f"trajectory tail gap {gap:.3e} >= 1e-8 at horizon "
            f"{traj.horizon}; integrate further")
    return i


def sk_rate_from_ode(traj: OdeTrajectory) -> CapacityResult:
    """Information rate P * r_limit^2 of the feedback scheme.

    Requires a settled trajectory: |g(T) - g(0.9 T)| < 1e-8, else
    NotConverged.  residual reports |value - P g(0.9 T)^2|, the window
    spread mapped to rate units.  In the colored-gain regime the value is
    the channel capacity; otherwise it is the scheme's rate, a strict
    lower bound of P/2.
    """
    i = _settled_tail(traj)
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
    _settled_tail(traj)
    case, roots = limiting_cubic_roots(coeffs)
    idx = int(np.argmin([abs(r - traj.r_limit) for r in roots]))
    return RootConvergence(case=case, roots=roots, root_index=idx)

