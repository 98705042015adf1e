import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oucap.abel as abel
from oucap import (
    AbelCoefficients,
    ChannelParams,
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
        p=lambda t: p_val + 0.0 * np.asarray(t),
        q=lambda t: q_val + 0.0 * np.asarray(t),
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
        assert np.allclose(coeffs.p(t), coeffs.p_limit, atol=1e-4)
        assert np.allclose(coeffs.q(t), coeffs.q_limit, atol=1e-4)


def test_coefficient_limits_attained_for_offset_coloring():
    for lam in (-0.5, -1.5, 0.8):
        coeffs = abel_for_channel(ChannelParams(lam, 1.0, 1.0))
        assert coeffs.p(1e3) == pytest.approx(coeffs.p_limit, abs=1e-6)
        assert coeffs.q(1e3) == pytest.approx(coeffs.q_limit, abs=1e-6)


def test_coefficient_limits_slow_at_critical_coloring():
    # at lam = -kappa the coefficients decay like 1/t; document the gap size
    coeffs = abel_for_channel(ChannelParams(-1.0, 1.0, 1.0))
    gap = abs(coeffs.p(1e3) - coeffs.p_limit)
    assert 1e-4 < gap < 2e-3


def test_ode_limit_matches_closed_form_when_offset():
    for lam, kappa, power in [(-0.5, 1.0, 2.0), (-1.4, 1.0, 1.0), (-0.35, 0.7, 3.0)]:
        params = ChannelParams(lam, kappa, power)
        traj = integrate_abel(abel_for_channel(params), horizon=50.0, step=0.05)
        value = sk_rate_from_ode(traj).value
        closed = feedback_capacity_closed_form(params).value
        assert value == pytest.approx(closed, abs=1e-6)


def test_not_converged_at_critical_coloring_short_horizon():
    params = ChannelParams(-1.0, 1.0, 2.0)
    traj = integrate_abel(abel_for_channel(params), horizon=50.0, step=0.05)
    with pytest.raises(NotConverged):
        sk_rate_from_ode(traj)


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
        p=lambda t: np.full_like(np.asarray(t, dtype=float), np.nan),
        q=lambda t: 0.0 * np.asarray(t),
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
    bad = AbelCoefficients(p=lambda t: -1e300, q=lambda t: 0.0,
                           p_limit=-1e300, q_limit=0.0, power=2.0)
    with pytest.raises(StepSizeUnderflow, match="initial"):
        integrate_abel(bad, horizon=10.0, step=0.05)


def test_singular_coefficient_raises_step_underflow():
    # q grows like (1 - t)^-2: the right-hand side stays finite below t = 1
    # while the step shrinks onto the float spacing there
    bad = AbelCoefficients(
        p=lambda t: 0.0 * t,
        q=lambda t: 1.0 / (1.0 - t) ** 2 if t != 1.0 else math.inf,
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
        p=lambda t: 0.0 * t,
        q=lambda t: 0.0 if t < 1.0 else 1e300,
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
            assert np.allclose(a.p(t), b.p(t), rtol=1e-12, atol=1e-12)
            assert np.allclose(a.q(t), b.q(t), rtol=1e-12, atol=1e-12)


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
    assert max(abs(coeffs.q(float(s)) - kappa) for s in t) <= 1e-13 * kappa
    assert abs(coeffs.q_limit - kappa) <= 1e-13 * kappa
    assert coeffs.p_limit == -abs(kappa + lam)


def test_kernel_factorization_scale_invariance_of_coefficients():
    params = ChannelParams(-0.5, 1.0, 2.0)
    kernel = ou_resolvent_kernel(params)
    base = abel_from_kernel(kernel, params.power)
    for c in (2.0, 10.0):
        scaled = abel_from_kernel(scaled_kernel(kernel, c), params.power)
        for t in np.linspace(0.0, 20.0, 41).tolist():
            assert base.p(t) == scaled.p(t)
            assert base.q(t) == scaled.q(t)
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
    # the ODE route's value, where it settles, is the oracle's P g(T)^2
    if abs(lam + kappa) > 0.0:
        value = sk_rate_from_ode(integrate_abel(coeffs, horizon=50.0, step=0.05)).value
        assert abs(value - power * float(abel_solve_ivp(coeffs, 50.0, 0.05)[0][-1]) ** 2) < 1e-9


def test_step_budget_counts_attempts_and_keeps_the_bits(monkeypatch):
    # (-0.5, 1, 2) to horizon 50 takes 182 steps, none rejected: a budget of
    # exactly 182 attempts gives the same trajectory, bit for bit, and one
    # fewer gives up with NotConverged
    coeffs = abel_for_channel(ChannelParams(-0.5, 1.0, 2.0))
    free = integrate_abel(coeffs, horizon=50.0, step=0.05)
    monkeypatch.setattr(abel, "_MAX_ATTEMPTS", 182)
    capped = integrate_abel(coeffs, horizon=50.0, step=0.05)
    assert np.array_equal(free.g, capped.g) and np.array_equal(free.log_a, capped.log_a)
    monkeypatch.setattr(abel, "_MAX_ATTEMPTS", 181)
    with pytest.raises(NotConverged, match="stability limit"):
        integrate_abel(coeffs, horizon=50.0, step=0.05)


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
}


@pytest.mark.parametrize("channel", list(TRAJECTORY_SHA256), ids=["colored", "critical", "white"])
def test_sampled_trajectory_bits_are_pinned(channel):
    coeffs = abel_for_channel(ChannelParams(*channel))
    traj = integrate_abel(coeffs, horizon=50.0, step=0.05)
    digests = [hashlib.sha256(a.tobytes()).hexdigest() for a in (traj.times, traj.g, traj.log_a)]
    assert digests == [TIMES_SHA256, *TRAJECTORY_SHA256[channel]]
    # the trajectory carries the float solution's scalars, so the rate has
    # the same bits on either, or fails the same way
    sol = solve_abel(coeffs, 50.0)
    assert (traj.power, traj.r_limit, traj.g_tail) == (sol.power, sol.r_limit, sol.g_tail)
    assert sol.r_limit == pytest.approx(traj.g[-1], abs=1e-15)
    outcomes = []
    for result in (traj, sol):
        try:
            outcomes.append(sk_rate_from_ode(result))
        except NotConverged as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_tail_state_is_the_last_step_boundary_before_nine_tenths():
    # so the rate's tail window covers at least the last tenth
    for horizon in (10.0, 50.0, 123.4):
        sol = solve_abel(abel_for_channel(ChannelParams(-0.5, 1.0, 2.0)), horizon)
        starts = list(sol.steps[::16])
        i = max(k for k, t in enumerate(starts) if t <= 0.9 * horizon)
        assert sol.g_tail == sol.steps[16 * i + 2]
