import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import oucap.abel as abel
from oucap import (
    AbelCoefficients,
    ChannelParams,
    MemoryBudgetExceeded,
    NotConverged,
    Regime,
    Route,
    StepSizeUnderflow,
    abel_for_channel,
    abel_from_kernel,
    classify_root_convergence,
    feedback_capacity_closed_form,
    integrate_abel,
    limiting_cubic_roots,
    ou_resolvent_kernel,
    sk_rate_from_ode,
    solve_abel,
)

from oracles import (
    KernelDomainMismatch,
    abel_solve_ivp,
    capacity_cubic_exact,
    gain_from_kernel,
    limiting_cubic_label_exact,
    scaled_kernel,
)

SQRT2 = math.sqrt(2.0)


def constant_coefficients(p_val, q_val, power):
    return AbelCoefficients(
        pq=lambda t: (p_val, q_val),
        p_limit=p_val,
        q_limit=q_val,
        power=power,
    )


def test_awgn_trajectory_is_fixed_point():
    # p = q = 0: g(0) = 1/sqrt(2) solves the stationary equation, so the
    # trajectory never moves and the rate is P/2.
    traj = integrate_abel(constant_coefficients(0.0, 0.0, 2.0), horizon=50.0, step=0.05)
    assert np.max(np.abs(traj.g - 1.0 / SQRT2)) < 1e-9
    result = sk_rate_from_ode(traj)
    assert result.route is Route.ODE_LIMIT
    assert result.value == pytest.approx(1.0, abs=1e-9)


def test_limiting_coefficient_trajectory_matches_cubic_root():
    # constant coefficients p=0, q=1 are the critical-coloring limits at
    # kappa=1; the settled rate is the positive root of P(x+1)^2 = 2x^3
    traj = integrate_abel(constant_coefficients(0.0, 1.0, 2.0), horizon=50.0, step=0.05)
    value = sk_rate_from_ode(traj).value
    assert value == pytest.approx(capacity_cubic_exact(-1.0, 1.0, 2.0), abs=1e-8)


def test_channel_coefficients_limits():
    coeffs = abel_for_channel(ChannelParams(0.0, 1.0, 2.0))
    assert coeffs.p_limit == pytest.approx(-1.0)
    assert coeffs.q_limit == pytest.approx(1.0)
    for t in (5.0, 20.0, 35.0):
        p, q = coeffs.pq(t)
        assert p == pytest.approx(coeffs.p_limit, abs=1e-4)
        assert q == pytest.approx(coeffs.q_limit, abs=1e-4)


def test_coefficient_limits_attained_for_offset_coloring():
    for lam in (-0.5, -1.5, 0.8):
        coeffs = abel_for_channel(ChannelParams(lam, 1.0, 1.0))
        p, q = coeffs.pq(1e3)
        assert p == pytest.approx(coeffs.p_limit, abs=1e-6)
        assert q == pytest.approx(coeffs.q_limit, abs=1e-6)


def test_coefficient_limits_slow_at_critical_coloring():
    # at lam = -kappa the coefficients decay like 1/t; document the gap size
    coeffs = abel_for_channel(ChannelParams(-1.0, 1.0, 1.0))
    gap = abs(coeffs.pq(1e3)[0] - coeffs.p_limit)
    assert 1e-4 < gap < 2e-3


def test_ode_limit_matches_closed_form_when_offset():
    for lam, kappa, power in [(-0.5, 1.0, 2.0), (-1.4, 1.0, 1.0), (-0.35, 0.7, 3.0)]:
        params = ChannelParams(lam, kappa, power)
        traj = integrate_abel(abel_for_channel(params), horizon=50.0, step=0.05)
        value = sk_rate_from_ode(traj).value
        closed = feedback_capacity_closed_form(params).value
        assert value == pytest.approx(closed, abs=1e-6)


def assert_honest(result, lam, kappa, power):
    assert abs(result.value - capacity_cubic_exact(lam, kappa, power)) <= result.residual


def test_critical_coloring_gives_the_cubic_root_at_any_horizon():
    # g approaches its limit only like 1/t here, and the tail test once
    # raised NotConverged at horizon 50; the limiting cubic has one real
    # root, so the value is P r^2 whatever the horizon
    params = ChannelParams(-1.0, 1.0, 2.0)
    coeffs = abel_for_channel(params)
    results = [sk_rate_from_ode(solve_abel(coeffs, horizon)) for horizon in (0.5, 50.0, 500.0)]
    assert results[0] == results[1] == results[2]
    assert_honest(results[0], -1.0, 1.0, 2.0)
    assert results[0].residual < 1e-14


@pytest.mark.parametrize("lam, kappa, power, exact", [
    (-1e-300, 1e-300, 1e-300, 1.4375648970813894e-300),  # the tail test read 5e-301
    (-1.0, 1.0, 1e-300, 7.937005259840997e-101),
])
def test_ode_route_at_tiny_scales_is_the_cubic_root(lam, kappa, power, exact):
    assert capacity_cubic_exact(lam, kappa, power) == exact
    result = sk_rate_from_ode(solve_abel(abel_for_channel(ChannelParams(lam, kappa, power)), 50.0))
    assert_honest(result, lam, kappa, power)


def test_critical_coloring_converges_on_long_horizon():
    # the 1/t coefficient tail needs thousands of time units to settle
    params = ChannelParams(-1.0, 1.0, 2.0)
    traj = integrate_abel(abel_for_channel(params), horizon=5000.0, step=5.0)
    value = params.power * traj.g[-1] ** 2
    closed = feedback_capacity_closed_form(params).value
    assert value == pytest.approx(closed, abs=1e-3)


def test_limiting_cubic_double_root_case():
    case, roots = limiting_cubic_roots(constant_coefficients(0.0, 0.0, 2.0))
    assert case == "DoubleRoot"
    assert sorted(np.round(roots, 9)) == pytest.approx([0.0, 0.0, 1.0 / SQRT2], abs=1e-9)


def test_limiting_cubic_one_real_case():
    coeffs = abel_for_channel(ChannelParams(-1.0, 1.0, 2.0))
    case, roots = limiting_cubic_roots(coeffs)
    assert case == "OneReal"
    assert len(roots) == 1
    assert 2.0 * roots[0] ** 2 == pytest.approx(
        feedback_capacity_closed_form(ChannelParams(-1.0, 1.0, 2.0)).value, rel=1e-9
    )


def assert_root_is_the_capacity(params, roots):
    # in the colored regime the largest root r has P r^2 = C_FB
    closed = feedback_capacity_closed_form(params).value
    assert abs(params.power * roots[-1] ** 2 - closed) <= 8.0 * math.ulp(closed)


@pytest.mark.parametrize("power", [1e-12, 1e100, 1e300])
def test_limiting_cubic_label_holds_at_extreme_powers(power):
    # a fixed discriminant tolerance once called every channel DoubleRoot at
    # P = 1e-12, and its fourth power of the coefficients overflowed
    for lam in (-0.5, -1.0):
        params = ChannelParams(lam, 1.0, power)
        coeffs = abel_for_channel(params)
        case, roots = limiting_cubic_roots(coeffs)
        assert case == "OneReal" == limiting_cubic_label_exact(coeffs)
        assert_root_is_the_capacity(params, roots)


def test_limiting_cubic_at_power_far_below_the_coefficients():
    params = ChannelParams(-1.0, 1.0, 1e-300)
    case, roots = limiting_cubic_roots(abel_for_channel(params))
    assert case == "OneReal"
    assert_root_is_the_capacity(params, roots)
    with pytest.raises(ValueError, match="power"):
        limiting_cubic_roots(constant_coefficients(-1.0, 1.0, 0.0))


# lam/kappa: colored, white with lam > 0 up to lam >> kappa, white below
# -2 kappa, the two boundaries and the critical colouring
LAM_OVER_KAPPA = st.one_of(
    st.floats(min_value=-1.99, max_value=-0.01),
    st.floats(min_value=-3.0, max_value=6.0).map(lambda u: 10.0 ** u),
    st.floats(min_value=-3.0, max_value=6.0).map(lambda u: -2.0 - 10.0 ** u),
    st.sampled_from([0.0, -2.0, -1.0]))


@settings(max_examples=300, deadline=None)
@given(LAM_OVER_KAPPA, st.floats(min_value=-6.0, max_value=6.0),
       st.floats(min_value=-12.0, max_value=12.0), st.integers(min_value=-60, max_value=60))
def test_limiting_cubic_label_is_exact_and_scale_free(ratio, log10_kappa, log10_p_over_kappa, k):
    kappa = 10.0 ** log10_kappa
    params = ChannelParams(ratio * kappa, kappa, kappa * 10.0 ** log10_p_over_kappa)
    coeffs = abel_for_channel(params)
    case, roots = limiting_cubic_roots(coeffs)
    assert case == limiting_cubic_label_exact(coeffs)
    # the cubic is homogeneous in (lam, kappa, P): scaling by 2^k is exact
    scaled = ChannelParams(*(math.ldexp(x, k) for x in (params.lam, params.kappa, params.power)))
    assert limiting_cubic_roots(abel_for_channel(scaled)) == (case, roots)
    if params.regime() is Regime.COLORED_GAIN:
        assert_root_is_the_capacity(params, roots)


def test_classified_convergence_for_positive_lam_below_half_power():
    params = ChannelParams(1.0, 1.0, 2.0)
    conv = classify_root_convergence(abel_for_channel(params), horizon=50.0)
    assert 0.0 < conv.root < 1.0 / SQRT2
    assert params.power * conv.root**2 < params.power / 2.0
    assert conv.case in ("OneReal", "ThreeDistinct", "DoubleRoot")
    assert conv.roots[conv.root_index] == conv.root


@pytest.mark.parametrize("lam, kappa, power", [
    (-2.09816575783472e-08, 1.5855752663016909, 0.2385988403627643),
    (-1.1490765972397888e-08, 0.025708338784239063, 0.46706876033991257),
    (-0.00015275453400840212, 0.029503879427587195, 2.5493766226809064e-05),
])
def test_ode_residual_covers_the_rounding_of_the_cubic(lam, kappa, power):
    # each value is 5 ulp off the exact root, more than |f(r)|/|f'(r)| and
    # the 4-ulp floor allow without the 8 * 2^-53 sum |terms| term
    result = sk_rate_from_ode(solve_abel(abel_for_channel(ChannelParams(lam, kappa, power)), 50.0))
    assert abs(result.value - capacity_cubic_exact(lam, kappa, power)) == 5.0 * math.ulp(result.value)
    assert_honest(result, lam, kappa, power)


# lam/kappa near the critical colouring -1 on either side, and near the
# boundaries 0 and -2 from inside the colored regime
EPSILON = st.floats(min_value=-12.0, max_value=-1.0).map(lambda u: 10.0 ** u)
COLORED_RATIO = st.one_of(
    st.tuples(EPSILON, st.sampled_from([-1.0, 1.0])).map(lambda e: -1.0 - e[1] * e[0]),
    EPSILON.map(lambda e: -e),
    EPSILON.map(lambda e: e - 2.0),
    st.just(-1.0))


@settings(max_examples=100, deadline=None)
@given(COLORED_RATIO, st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-6.0, max_value=3.0))
def test_ode_route_residual_bounds_its_error_on_colored_channels(ratio, log10_kappa,
                                                                 log10_p_over_kappa):
    # the colored cubic has one real root, so the value does not depend on
    # the horizon: P T <= 5e3 (about 750 steps) keeps P = 1e6 from spending
    # seconds on the step budget, which a test of its own covers
    kappa = 10.0 ** log10_kappa
    lam, power = ratio * kappa, kappa * 10.0 ** log10_p_over_kappa
    coeffs = abel_for_channel(ChannelParams(lam, kappa, power))
    assert_honest(sk_rate_from_ode(solve_abel(coeffs, min(50.0, 5e3 / power))), lam, kappa, power)


def limit_by_radau(coeffs, horizon):
    # scipy's implicit Radau on g alone, independent of the library's stepper
    P = coeffs.power

    def rhs(t, y):
        p, q = coeffs.pq(t)
        return [-P * y[0] ** 3 + (P / SQRT2) * y[0] ** 2 + p * y[0] + q / SQRT2]

    sol = solve_ivp(rhs, (0.0, horizon), [1.0 / SQRT2], method="Radau", rtol=1e-10, atol=1e-12)
    assert sol.success, sol.message
    return float(sol.y[0][-1])


@pytest.mark.parametrize("lam, value", [(100.0, 0.05443788247174921),
                                        (-100.0, 0.056922890652494)])
def test_three_root_channel_is_certified_on_its_smallest_root(lam, value):
    # white-equivalent at large |lam| and P: g(T) is trapped below the
    # middle root from a horizon of 3e-3 on, and a long Radau run settles
    # on the smallest root too
    coeffs = abel_for_channel(ChannelParams(lam, 1.0, 1e3))
    for horizon in (0.01, 0.1, 1.0, 10.0, 50.0):
        conv = classify_root_convergence(coeffs, horizon)
        assert (conv.case, conv.root_index) == ("ThreeDistinct", 0)
        assert sk_rate_from_ode(solve_abel(coeffs, horizon)).value == value
    assert limit_by_radau(coeffs, 500.0) == pytest.approx(conv.root, rel=1e-12)
    with pytest.raises(NotConverged, match="not trapped"):
        sk_rate_from_ode(solve_abel(coeffs, 1e-3))


def test_double_root_is_certified_from_its_attracting_side_only():
    # this channel's limiting cubic is -P (y - 0.1)^2 (y - b): g passes near
    # the double root 0.1 and returns to b, and only from horizon 1 on is
    # it trapped above the lower corner cubic's middle root
    coeffs = abel_for_channel(ChannelParams(14.536529876420751, 1.0, 139.4394252689803))
    for horizon in (0.01, 0.1):
        with pytest.raises(NotConverged, match="not trapped"):
            classify_root_convergence(coeffs, horizon)
    conv = classify_root_convergence(coeffs, 50.0)
    assert (conv.case, conv.root_index) == ("DoubleRoot", 2)
    assert limit_by_radau(coeffs, 50.0) == pytest.approx(conv.root, rel=1e-9)
    # p = -10 e^{-t}, q = 0: g falls to about 3e-5 and then creeps away from
    # the double root 0 like 1/t, which no trap certifies
    creeping = AbelCoefficients(pq=lambda t: (-10.0 * math.exp(-t), 0.0),
                                p_limit=0.0, q_limit=0.0, power=2.0)
    with pytest.raises(NotConverged, match="not trapped"):
        classify_root_convergence(creeping, 50.0)


def test_fixed_point_residual_invariant():
    for lam in (-0.5, 0.8, -1.3):
        params = ChannelParams(lam, 1.0, 2.0)
        coeffs = abel_for_channel(params)
        traj = integrate_abel(coeffs, horizon=50.0, step=0.05)
        r = traj.r_limit
        power = params.power
        residual = (
            -power * r**3
            + (power / SQRT2) * r**2
            + coeffs.p_limit * r
            + coeffs.q_limit / SQRT2
        )
        assert abs(residual) < 1e-8


def test_rate_equivalence_tail_is_monotone():
    params = ChannelParams(-0.5, 1.0, 2.0)
    coeffs = abel_for_channel(params)
    target = None
    gaps = []
    for horizon in (25.0, 50.0):
        traj = integrate_abel(coeffs, horizon=horizon, step=0.025)
        if target is None:
            target = params.power * traj.g[-1] ** 2
        rate = (traj.log_a[-1] - 0.5 * math.log(params.power)) / horizon
        limit = params.power * traj.r_limit**2
        gaps.append(abs(rate - limit))
    assert gaps[1] < gaps[0]


def test_no_blow_up_bound():
    for lam, kappa, power in [(-0.5, 1.0, 2.0), (1.0, 1.0, 5.0), (-1.9, 1.0, 0.5)]:
        coeffs = abel_for_channel(ChannelParams(lam, kappa, power))
        traj = integrate_abel(coeffs, horizon=50.0, step=0.05)
        bound = 10.0 * (1.0 + abs(coeffs.p_limit) + abs(coeffs.q_limit) + power)
        assert np.max(np.abs(traj.g)) < bound


def test_gain_identity_awgn():
    params = ChannelParams(0.0, 1.0, 2.0)
    traj = integrate_abel(abel_for_channel(params), horizon=10.0, step=0.01)
    kernel = ou_resolvent_kernel(params)
    h = gain_from_kernel(traj, kernel)
    # l_u = 0 so H = A = sqrt(2) e^t
    assert np.allclose(h, SQRT2 * np.exp(traj.times), rtol=1e-7)
    assert np.allclose(h, traj.a, rtol=1e-12)


def test_gain_identity_ou_kernel():
    params = ChannelParams(-1.0, 1.0, 2.0)
    traj = integrate_abel(abel_for_channel(params), horizon=10.0, step=0.005)
    kernel = ou_resolvent_kernel(params)
    h = gain_from_kernel(traj, kernel)  # raises if the identity residual is big
    # 2 A A' = P H^2, with A' from centered finite differences
    a = traj.a
    da = np.gradient(a, traj.times)
    lhs = 2.0 * a[1:-1] * da[1:-1]
    rhs = params.power * h[1:-1] ** 2
    assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-3


def test_a_squared_identity():
    # A^2 = P (1 + int_0^t H^2) ties the ODE, the gain, and H together;
    # the trapezoid comparison converges at second order in the step
    params = ChannelParams(-0.5, 1.0, 2.0)
    rel = {}
    for step in (0.005, 0.0025):
        traj = integrate_abel(abel_for_channel(params), horizon=10.0, step=step)
        h = gain_from_kernel(traj, ou_resolvent_kernel(params))
        accum = np.concatenate(
            [[0.0], np.cumsum((h[1:] ** 2 + h[:-1] ** 2) * 0.5 * np.diff(traj.times))]
        )
        rhs = params.power * (1.0 + accum)
        rel[step] = np.max(np.abs(traj.a**2 - rhs) / rhs)
    assert rel[0.005] < 1e-4
    assert 3.5 < rel[0.005] / rel[0.0025] < 4.5


def test_gain_requires_matching_kernel():
    params = ChannelParams(-0.5, 1.0, 2.0)
    traj = integrate_abel(abel_for_channel(params), horizon=5.0, step=0.005)
    bad = ou_resolvent_kernel(ChannelParams(1.0, 1.0, 2.0))
    with pytest.raises(KernelDomainMismatch):
        gain_from_kernel(traj, bad)


def test_integrate_abel_validation():
    coeffs = constant_coefficients(0.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        integrate_abel(coeffs, horizon=0.0, step=0.01)
    with pytest.raises(ValueError):
        integrate_abel(coeffs, horizon=10.0, step=0.5)  # step > horizon/100
    with pytest.raises(ValueError):
        integrate_abel(constant_coefficients(0.0, 0.0, 0.0), horizon=10.0, step=0.05)
    # a non-finite horizon or step is refused, not integrated
    for horizon, step in ((math.nan, 0.05), (math.inf, 0.05), (10.0, math.nan),
                          (math.inf, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            integrate_abel(coeffs, horizon=horizon, step=step)


def test_non_finite_coefficients_raise_step_underflow():
    bad = AbelCoefficients(
        pq=lambda t: (math.nan, 0.0),
        p_limit=0.0,
        q_limit=0.0,
        power=2.0,
    )
    with pytest.raises(StepSizeUnderflow):
        integrate_abel(bad, horizon=10.0, step=0.05)


@pytest.mark.parametrize("lam, kappa", [(-0.5, 1e-300), (0.5, 1e-20)])
def test_kappa_far_below_lambda_raises_step_underflow(lam, kappa):
    # the kernel's float ratio denominator rounds to zero at t = 0
    coeffs = abel_for_channel(ChannelParams(lam, kappa, 2.0))
    with pytest.raises(StepSizeUnderflow, match="t=0.0"):
        integrate_abel(coeffs, horizon=50.0, step=0.05)


def test_huge_coefficient_raises_step_underflow():
    # the initial-step rule divides by a step that underflows to 0 here
    bad = AbelCoefficients(pq=lambda t: (-1e300, 0.0),
                           p_limit=-1e300, q_limit=0.0, power=2.0)
    with pytest.raises(StepSizeUnderflow, match="initial"):
        integrate_abel(bad, horizon=10.0, step=0.05)


def test_singular_coefficient_raises_step_underflow():
    # q grows like (1 - t)^-2: the right-hand side stays finite below t = 1
    # while the step shrinks onto the float spacing there
    bad = AbelCoefficients(
        pq=lambda t: (0.0 * t, 1.0 / (1.0 - t) ** 2 if t != 1.0 else math.inf),
        p_limit=0.0,
        q_limit=0.0,
        power=2.0,
    )
    with pytest.raises(StepSizeUnderflow, match="step size"):
        integrate_abel(bad, horizon=10.0, step=0.05)


def test_overflowing_solution_raises_step_underflow():
    # a huge jump in q drives g past the float range within one step; the
    # cube must overflow to inf and be reported, not raise OverflowError
    bad = AbelCoefficients(
        pq=lambda t: (0.0 * t, 0.0 if t < 1.0 else 1e300),
        p_limit=0.0,
        q_limit=0.0,
        power=2.0,
    )
    with pytest.raises(StepSizeUnderflow):
        integrate_abel(bad, horizon=10.0, step=0.05)


def test_mirror_symmetry_of_channel_coefficients():
    kappa = 1.0
    for lam in (-0.4, -0.9, -1.6):
        a = abel_for_channel(ChannelParams(lam, kappa, 2.0))
        b = abel_for_channel(ChannelParams(-2.0 * kappa - lam, kappa, 2.0))
        for t in np.linspace(0.0, 30.0, 61).tolist():
            assert np.allclose(a.pq(t), b.pq(t), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("lam,kappa", [
    (-0.5, 1.0),   # colored gain
    (0.8, 1.0),    # white equivalent, lam > 0
    (-3.0, 1.0),   # white equivalent, lam < -2 kappa
    (0.0, 1.0),    # boundary lam = 0
    (-2.0, 1.0),   # boundary lam = -2 kappa
    (-1.0, 1.0),   # critical coloring, kappa + lam = 0
    (-1.0, 10.0),  # |kappa + lam| = 9: the raw kernel factors overflow
])
def test_channel_q_is_kappa_and_p_limit_is_minus_rate_gap(lam, kappa):
    # q = (l_u + l_d')/l_d equals kappa at every t for this family, so the
    # limiting cubic -P y^3 + (P/sqrt 2) y^2 - |kappa+lam| y + kappa/sqrt 2
    # is the closed form's P(x+kappa)^2 = 2x(x+|kappa+lam|)^2 at x = P y^2
    coeffs = abel_for_channel(ChannelParams(lam, kappa, 2.0))
    t = np.linspace(0.0, 60.0, 601)
    assert max(abs(coeffs.pq(float(s))[1] - kappa) for s in t) <= 1e-13 * kappa
    assert abs(coeffs.q_limit - kappa) <= 1e-13 * kappa
    assert coeffs.p_limit == -abs(kappa + lam)


def test_kernel_factorization_scale_invariance_of_coefficients():
    params = ChannelParams(-0.5, 1.0, 2.0)
    kernel = ou_resolvent_kernel(params)
    base = abel_from_kernel(kernel, params.power)
    for c in (2.0, 10.0):
        scaled = abel_from_kernel(scaled_kernel(kernel, c), params.power)
        for t in np.linspace(0.0, 20.0, 41).tolist():
            assert base.pq(t) == scaled.pq(t)
        assert scaled.p_limit == base.p_limit
        assert scaled.q_limit == base.q_limit


@pytest.mark.parametrize("lam,kappa,power", [
    (-0.5, 1.0, 2.0),   # colored
    (-1.4, 1.0, 1.0),   # colored
    (-1.0, 1.0, 2.0),   # critical coloring
    (0.5, 1.0, 2.0),    # white-equivalent, above
    (-2.6, 1.0, 2.0),   # white-equivalent, below
    (0.0, 1.0, 2.0),    # boundary lam = 0
    (-2.0, 1.0, 2.0),   # boundary lam = -2 kappa
])
def test_integrate_abel_matches_solve_ivp_oracle(lam, kappa, power):
    params = ChannelParams(lam, kappa, power)
    coeffs = abel_for_channel(params)
    for horizon, step in ((50.0, 0.05), (10.0, 0.001)):
        traj = integrate_abel(coeffs, horizon=horizon, step=step)
        g, log_a = abel_solve_ivp(coeffs, horizon, step)
        assert np.max(np.abs(traj.g - g)) < 1e-11
        assert np.max(np.abs(traj.log_a - log_a)) < 1e-11
    # away from critical colouring g has settled by T = 50: the route's
    # P r^2 is the oracle's P g(T)^2
    if abs(lam + kappa) > 0.0:
        value = sk_rate_from_ode(integrate_abel(coeffs, horizon=50.0, step=0.05)).value
        assert abs(value - power * float(abel_solve_ivp(coeffs, 50.0, 0.05)[0][-1]) ** 2) < 1e-9


# (-0.5, 1, 2) to horizon 50 takes 182 steps, none rejected
ATTEMPTS_AT_50 = 182


def test_step_budget_counts_attempts_and_keeps_the_bits(monkeypatch):
    # a budget of exactly ATTEMPTS_AT_50 attempts gives the same trajectory,
    # bit for bit, and one fewer gives up with NotConverged
    coeffs = abel_for_channel(ChannelParams(-0.5, 1.0, 2.0))
    free = integrate_abel(coeffs, horizon=50.0, step=0.05)
    monkeypatch.setattr(abel, "_MAX_ATTEMPTS", ATTEMPTS_AT_50)
    capped = integrate_abel(coeffs, horizon=50.0, step=0.05)
    assert np.array_equal(free.g, capped.g) and np.array_equal(free.log_a, capped.log_a)
    monkeypatch.setattr(abel, "_MAX_ATTEMPTS", ATTEMPTS_AT_50 - 1)
    with pytest.raises(NotConverged, match="stability limit"):
        integrate_abel(coeffs, horizon=50.0, step=0.05)


def test_solve_abel_evaluates_the_coefficients_once_per_stage():
    # the initial-step rule evaluates the right-hand side twice and each
    # attempted step six times, one coefficient pair each
    coeffs = abel_for_channel(ChannelParams(-0.5, 1.0, 2.0))
    calls = []

    def counted(t):
        calls.append(t)
        return coeffs.pq(t)

    sol = solve_abel(replace(coeffs, pq=counted), 50.0)
    assert len(calls) == 2 + 6 * ATTEMPTS_AT_50
    assert sol.steps == solve_abel(coeffs, 50.0).steps


def test_accepted_steps_are_stored_as_doubles(monkeypatch):
    # 16 doubles (128 bytes) a step, then its two dense-output tables (64
    # bytes); a list of 16-float tuples took about 660 bytes a step here
    coeffs = abel_for_channel(ChannelParams(-0.5, 1.0, 1e3))
    accepted = []
    stepper = abel._dormand_prince

    def counted(*args):
        out = stepper(*args)
        accepted.append(len(out[0]) // 16)  # 16 doubles a step
        return out

    monkeypatch.setattr(abel, "_dormand_prince", counted)
    integrate_abel(coeffs, horizon=50.0, step=0.05)  # warm: first-call allocations
    tracemalloc.start()
    try:
        integrate_abel(coeffs, horizon=50.0, step=0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert accepted[-1] > 5000  # enough steps for the storage to dominate
    assert peak / accepted[-1] < 300


def test_oversize_trajectory_is_refused_before_it_allocates():
    # 5e12 samples would be 36 TiB per array: the typed error comes before
    # the ODE is integrated, not numpy's allocation error
    coeffs = abel_for_channel(ChannelParams(-0.5, 1.0, 2.0))
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetExceeded, match="physical memory"):
            integrate_abel(coeffs, 50.0, 1e-11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_sample_estimate_bounds_the_traced_peak():
    coeffs = abel_for_channel(ChannelParams(-0.5, 1.0, 2.0))
    samples = 100_001
    integrate_abel(coeffs, 10.0, 1e-4)  # one-off allocations of a first call
    tracemalloc.start()
    try:
        traj = integrate_abel(coeffs, 10.0, 1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.times.size == samples
    assert peak <= 8 * abel._SAMPLE_WORDS * samples


# sha256 of integrate_abel's times, g and log_a at horizon 50, step 0.05.
# The Monte Carlo reads these arrays, so a stepper or sampler change that
# moves their bits moves every seeded simulation and is a declared
# numerics change.
TIMES_SHA256 = "6c4c6f24aec2ec700256bb991a3f5db1543a97a94199c4a5e2eb62d995b90036"
TRAJECTORY_SHA256 = {
    (-0.5, 1.0, 2.0): (  # colored
        "f5b5f403c3f281065fc3fdb1e245aa947ea6439595b4338932f6d8c5b230814a",
        "e2b8055e927e10b258c8c3907d72e3049d56bad9475ebf7060849422a654edfd"),
    (-1.0, 1.0, 2.0): (  # critical colouring, not settled at 50
        "436a54c4ea5db982226029dd9a8f7964496f8a4f0c1f01762fc292c6dccc102b",
        "b3d5288384f27c080459853751e246fa2c83fd5cedf0cd52acd713c575262276"),
    (0.5, 1.0, 2.0): (  # white-equivalent
        "13f9d74e72a3136669e4009cfa1317beddb438b7875103791640259634596590",
        "4333c31fdca612e673d6e05b977b382d7c2ddbdf2909743282d4f0ab944f3bce"),
    # the two boundaries share their coefficients (p = -1, q = 1): g rests
    # at its fixed point 1/sqrt(2)
    (0.0, 1.0, 2.0): (
        "c906e462e25afd0894f02ead07a6ce7486e098da54879646fd6eb5f2117c438e",
        "307875b4694bf69af3d766ea7c18105f10640e183f3e8b74360dce09a148e2e2"),
    (-2.0, 1.0, 2.0): (
        "c906e462e25afd0894f02ead07a6ce7486e098da54879646fd6eb5f2117c438e",
        "307875b4694bf69af3d766ea7c18105f10640e183f3e8b74360dce09a148e2e2"),
    (-0.5, 1.0, 1e3): (  # colored at high power: 7758 steps
        "0cf4d3d792b8f81ef9735e92c8bcbada4872d92060432bc468a4c1ff442387cd",
        "a3f8b7b9350277cb3d4939e34fbac25120f7a5d94bc3ee4167dbef5640767564"),
}


@pytest.mark.parametrize("channel", list(TRAJECTORY_SHA256),
                         ids=["colored", "critical", "white", "boundary_zero",
                              "boundary_two_kappa", "power_1e3"])
def test_sampled_trajectory_bits_are_pinned(channel):
    coeffs = abel_for_channel(ChannelParams(*channel))
    traj = integrate_abel(coeffs, horizon=50.0, step=0.05)
    digests = [hashlib.sha256(a.tobytes()).hexdigest() for a in (traj.times, traj.g, traj.log_a)]
    assert digests == [TIMES_SHA256, *TRAJECTORY_SHA256[channel]]
    # the trajectory carries the float solution's scalars, so the rate has
    # the same bits on either, or fails the same way
    sol = solve_abel(coeffs, 50.0)
    assert (traj.power, traj.r_limit) == (sol.power, sol.r_limit)
    assert sol.r_limit == pytest.approx(traj.g[-1], abs=1e-15)
    outcomes = []
    for result in (traj, sol):
        try:
            outcomes.append(sk_rate_from_ode(result))
        except NotConverged as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]

