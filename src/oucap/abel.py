"""The scalar Riccati-Abel ODE driving the feedback scheme, its limit
analysis, and the amplitude curve log A(t).

The coded input is X(t) = A(t)(Theta - E[Theta | observations]) with

    g' = -P g^3 + (P/sqrt(2)) g^2 + p(t) g + q(t)/sqrt(2),  g(0) = 1/sqrt(2),
    log A(t) = log sqrt(P) + int_0^t P g^2 ds,
    gain H(t) = sqrt(2) g(t) A(t)  (equivalently A + (1/l_d) int l_u A),

where p = -l_d'/l_d and q = (l_u + l_d')/l_d come from the separable
resolvent kernel.  The scheme's information rate is P * r^2 for the root r
of the limiting cubic that g(t) tends to: the equation is scalar and
asymptotically autonomous, so its bounded g tends to one root (L. Markus
1956; H. R. Thieme, J. Math. Biol. 30 (1992) 755-763), the only real one
at any horizon, or the one g(T) is trapped beside (_reached_root).

The ODE is integrated by a Dormand-Prince 5(4) stepper on Python floats, a
port of scipy's RK45 (same tolerances, step control and dense output).
solve_abel stops there, and the rate and the root classification read its
floats, so they run on the standard library alone.  _dense_output
evaluates the steps' quartic dense output at an array of times, and only
it imports numpy: integrate_abel samples g and log A on a uniform grid,
and the Monte Carlo reads log A on its own grid, so the curve is
interpolated once, by the stepper's own polynomials.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from typing import Callable

from .channel import CapacityResult, ChannelParams, Route
from .errors import MemoryBudgetExceeded, NotConverged, StepSizeUnderflow, _physical_memory
from .kernels import SeparableKernel, ou_resolvent_kernel
from .roots import cubic_roots

SQRT2 = math.sqrt(2.0)


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
class AbelSolution:
    """The Abel ODE integrated to its horizon on floats.

    steps holds 16 doubles per accepted step: its start time, its size, g
    and s = log A - log sqrt(P) at its start, and the six stage slopes of g
    and of s, from which _dense_output evaluates g and log A at any time in
    [0, horizon].  r_limit is the stepper's own end state g(horizon), and
    coeffs the coefficients integrated, which sk_rate_from_ode reads.
    """

    steps: array
    power: float
    horizon: float
    r_limit: float
    coeffs: AbelCoefficients


@dataclass(frozen=True)
class OdeTrajectory(AbelSolution):
    """An AbelSolution with g and log A sampled at `times` from its dense
    output (integrate_abel).

    log_a stores log A(t) (A grows like e^{rate * t}, so the log is the
    primary representation); the `a` property exponentiates and may
    overflow to inf for long horizons, by design.  r_limit, the stepper's
    end state g(T), may differ from the dense-output sample g[-1] in its
    last bits.
    """

    times: np.ndarray
    g: np.ndarray
    log_a: np.ndarray

    @property
    def a(self) -> np.ndarray:
        import numpy as np

        return np.exp(self.log_a)


def _limiting_cubic(coeffs: AbelCoefficients) -> tuple:
    """The limiting cubic's coefficients negated and scaled by the power of
    2 that brings the largest into [1/2, 1); ValueError below 2^-1022."""
    coefficients = (coeffs.power, -coeffs.power / SQRT2, -coeffs.p_limit, -coeffs.q_limit / SQRT2)
    k = math.frexp(max(abs(x) for x in coefficients))[1]
    a, b, c, d = (math.ldexp(x, -k) for x in coefficients)
    if not a >= 2.0 ** -1022:
        raise ValueError(f"power {coeffs.power!r} is too small for the limiting cubic")
    return a, b, c, d


def limiting_cubic_roots(coeffs: AbelCoefficients) -> tuple[str, tuple]:
    """Case label and ascending real roots of the limiting cubic
    -P y^3 + (P/sqrt 2) y^2 + p_limit y + q_limit/sqrt 2, by
    roots.cubic_roots on _limiting_cubic's coefficients."""
    return cubic_roots(*_limiting_cubic(coeffs))


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
# _P, the dense output's coefficient rows, is only read by _dense_output, as
# a numpy matrix.
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9)
_A1 = 1 / 5
_A2 = (3 / 40, 9 / 40)
_A3 = (44 / 45, -56 / 15, 32 / 9)
_A4 = (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)
_A5 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
_B = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P = (
    (1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423))


# Attempted steps after which _dormand_prince gives up.  The explicit
# stepper's stability limit holds its step near 6.6/P, so a horizon of 50
# takes about 7.5 P steps: at (-0.5, 1, 3e4) 226 584 accepted of 264 326
# attempted, 1.7 s; 400 000 attempts, as at P = 1e8, take 2.4 s.
_MAX_ATTEMPTS = 400_000


def _dormand_prince(f, power: float, g0: float, t_bound: float):
    """Adaptive RK45 on the state (g, s) with g' = f(t, g) and s' = P g^2.

    Error control as in scipy's RK45: RMS norm of the embedded error over
    atol + rtol max(|y|, |y_new|), safety 0.9, step factor in [0.2, 10], the
    same initial-step rule, first-same-as-last stages, and failure once the
    step falls below ten float spacings of t (StepSizeUnderflow) or after
    _MAX_ATTEMPTS attempted steps (NotConverged).  Returns the accepted
    steps, 16 doubles each in one flat array (start time, step, start state
    and the six stage slopes of g and of s, from which the dense output is
    built), and the end state g(t_bound).
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

    steps = array("d")
    c1, c2, c3, c4 = _C
    a20, a21 = _A2
    a30, a31, a32 = _A3
    a40, a41, a42, a43 = _A4
    a50, a51, a52, a53, a54 = _A5
    b0, b2, b3, b4, b5 = _B
    e0, e2, e3, e4, e5, e6 = _E
    attempts = 0
    while t < t_bound:
        min_step = 10.0 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeUnderflow(
                    f"ODE step size fell below {min_step:.3e} at t={t}")
            attempts += 1
            if attempts > _MAX_ATTEMPTS:
                raise NotConverged(
                    f"ODE stepper gave up after {_MAX_ATTEMPTS} attempted steps at "
                    f"t={t:.6g} of {t_bound:g}: its stability limit holds the step "
                    f"near 6.6/P at P={P:g}, about 7.5 P steps per horizon of 50")
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
        # fromlist takes a list at half the cost of extend on a tuple
        steps.fromlist([t, h, g, s, kg, k2, k3, k4, k5, k6,
                        ks, ks2, ks3, ks4, ks5, ks6])
        t, g, s, kg, ks = t_new, g_new, s_new, k6, ks6
    return steps, g


def solve_abel(coeffs: AbelCoefficients, horizon: float) -> AbelSolution:
    """Integrate the Abel ODE over [0, horizon] on floats, without sampling.

    Adaptive embedded Runge-Kutta 5(4) (Dormand-Prince) with relative
    tolerance 1e-10 and absolute tolerance 1e-12; log A is accumulated as an
    extra state so amplitude quadrature shares the integrator's error
    control.  A right-hand side that is not finite or whose coefficients
    divide by zero, or a step size that underflows, raises
    StepSizeUnderflow; a run that needs more than _MAX_ATTEMPTS attempted
    steps (a power far above 3e4) raises NotConverged.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
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

    horizon = float(horizon)
    steps, g_end = _dormand_prince(rhs, P, 1.0 / SQRT2, horizon)
    return AbelSolution(steps=steps, power=P, horizon=horizon, r_limit=g_end, coeffs=coeffs)


def _dense_output(sol: AbelSolution, times: np.ndarray, log_a: bool = False) -> np.ndarray:
    """g, or log A when log_a is true, at `times` (a numpy array within [0,
    sol.horizon]) from each accepted step's quartic dense output.  A time on
    a step boundary takes the earlier step, as scipy's OdeSolution."""
    import numpy as np

    table = np.frombuffer(sol.steps, dtype=float).reshape(-1, 16)
    t0, h = table[:, 0], table[:, 1]
    # g's start value and stage slopes are columns 2 and 4:10, s's 3 and 10:16
    first = 10 if log_a else 4
    y0 = table[:, 3 if log_a else 2]
    Q = table[:, first:first + 6] @ np.array(_P, dtype=float)
    seg = np.clip(np.searchsorted(t0, times, side="left") - 1, 0, t0.size - 1)
    x = (times - t0[seg]) / h[seg]
    y = y0[seg] + h[seg] * x * (Q[seg, 0] + x * (Q[seg, 1] + x * (Q[seg, 2] + x * Q[seg, 3])))
    return 0.5 * math.log(sol.power) + y if log_a else y


# Doubles integrate_abel holds per sample at its peak, times, g and the
# dense evaluation of log A with its temporaries: 10.04 traced at 1e5
# samples, rounded up
_SAMPLE_WORDS = 11


def integrate_abel(coeffs: AbelCoefficients, horizon: float,
                   step: float) -> OdeTrajectory:
    """Integrate the Abel ODE over [0, horizon] (solve_abel) and sample g
    and log A every `step` from its dense output.

    The trajectory is the solution with the samples added, so
    sk_rate_from_ode gives the same bits on it as on solve_abel's result.
    Non-finite samples raise StepSizeUnderflow; samples that would exceed
    physical memory raise MemoryBudgetExceeded before anything is
    integrated.
    """
    if not (0.0 < horizon < math.inf and 0.0 < step < math.inf):
        raise ValueError("horizon and step must be positive and finite")
    if step > horizon / 100.0:
        raise ValueError(f"step must be <= horizon/100, got {step}")
    n = int(math.ceil(horizon / step))
    need = 8 * _SAMPLE_WORDS * (n + 1)
    have = _physical_memory()
    if have is not None and need > have:
        raise MemoryBudgetExceeded(
            f"{n + 1} samples need about {need / 2**30:.3g} GiB, more than the "
            f"{have / 2**30:.3g} GiB of physical memory")
    sol = solve_abel(coeffs, horizon)
    import numpy as np

    times = np.linspace(0.0, horizon, n + 1)
    g = _dense_output(sol, times)
    if not np.all(np.isfinite(g)):
        raise StepSizeUnderflow("non-finite solution samples")
    return OdeTrajectory(**vars(sol), times=times, g=g,
                         log_a=_dense_output(sol, times, log_a=True))


def _reached_root(sol: AbelSolution) -> RootConvergence:
    """The limiting-cubic root g tends to: the only real one, or the one
    nearest g(T) if trapped there, else NotConverged.  For t >= T the
    channel's p and q (Mobius in time, without a pole) lie between their
    values at T and their limits, and f rises with both while g > 0, which
    q >= 0 keeps.  So g leaves the smallest root's basin only upward, past
    the middle root of the cubic at the upper corner of (p, q), and the
    largest root's only downward, past that of the lower corner's."""
    coeffs, g, T = sol.coeffs, sol.r_limit, sol.horizon
    case, roots = limiting_cubic_roots(coeffs)
    i = min(range(len(roots)), key=lambda k: abs(roots[k] - g))
    if len(roots) > 1:
        ps = sorted((coeffs.p(T), coeffs.p_limit))
        qs = sorted((coeffs.q(T), coeffs.q_limit))
        bound = limiting_cubic_roots(replace(coeffs, p_limit=ps[i == 0], q_limit=qs[i == 0]))[1]
        if not (i in (0, len(roots) - 1) and g > 0.0 and qs[0] >= 0.0 and len(bound) == 3
                and (g < bound[1] if i == 0 else g > bound[1])):
            raise NotConverged(f"g({T:g}) = {g!r} is not trapped beside the limiting-cubic "
                               f"root {roots[i]!r} of {roots}; integrate further")
    return RootConvergence(case=case, roots=roots, root_index=i)


def sk_rate_from_ode(result: AbelSolution) -> CapacityResult:
    """Information rate P r^2 of the feedback scheme, r from _reached_root,
    on solve_abel's result or integrate_abel's trajectory (the same bits).

    residual, 2 P r dr + 4 ulp, dr = (|f(r)| + 8 * 2^-53 sum |terms of
    f(r)|)/|f'(r)| on the scaled limiting cubic f, bounds the error as the
    closed form's does.  The value is the capacity in the colored-gain
    regime, else the scheme's rate, below P/2."""
    r = _reached_root(result).root
    a, b, c, d = _limiting_cubic(result.coeffs)
    terms = (a * r * r * r, b * r * r, c * r, d)
    slope = abs((3.0 * a * r + 2.0 * b) * r + c)
    dr = (abs(sum(terms)) + 2.0 ** -50 * sum(map(abs, terms))) / slope if slope else math.inf
    value = result.power * r * r
    return CapacityResult(value=value, route=Route.ODE_LIMIT,
                          residual=result.power * (2.0 * r * dr) + 4.0 * math.ulp(value))


def classify_root_convergence(coeffs: AbelCoefficients, horizon: float) -> RootConvergence:
    """_reached_root on solve_abel's run to `horizon`."""
    return _reached_root(solve_abel(coeffs, horizon))
