import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oucap import (
    ArmaParams,
    ChannelParams,
    DEFAULT_SWEEP_DELTAS,
    InvalidArma,
    NotConverged,
    RootNotBracketed,
    Route,
    arma_from_step,
    discrete_limit_capacity,
    discrete_limit_sweep,
    feedback_capacity_closed_form,
    solve_arma_quartic,
)
from oucap.roots import bracketed_root

from oracles import arma_quartic_bisection, capacity_cubic_exact

finite = dict(allow_nan=False, allow_infinity=False)

# value references computed from the defining cubic with independent bisection
FROZEN = [
    ((-1.0, 1.0, 2.0), 2.147899035705),
    ((-0.5, 1.0, 2.0), 1.547911999318),
    ((-1.5, 1.0, 2.0), 1.547911999318),
    ((-1.0, 1.0, 1.0), 1.437564897081),
    ((-0.9, 1.0, 2.0), 2.025916298058),
]


@pytest.mark.parametrize("triple,expected", FROZEN)
def test_closed_form_frozen_values(triple, expected):
    result = feedback_capacity_closed_form(ChannelParams(*triple))
    assert result.route is Route.CLOSED_FORM
    assert result.value == pytest.approx(expected, abs=5e-12)


@pytest.mark.parametrize("triple,_expected", FROZEN)
def test_closed_form_agrees_with_bisection_oracle(triple, _expected):
    value = feedback_capacity_closed_form(ChannelParams(*triple)).value
    assert value == pytest.approx(capacity_cubic_exact(*triple), abs=1e-10)


def test_white_regime_is_half_power():
    for lam, kappa in [(0.0, 1.0), (1.0, 1.0), (-2.0, 1.0), (-0.8, 0.4), (3.5, 0.9)]:
        for power in (0.0, 0.25, 2.0, 17.0):
            result = feedback_capacity_closed_form(ChannelParams(lam, kappa, power))
            assert result.value == power / 2.0
            assert result.residual == 0.0


def test_zero_power_gives_zero():
    assert feedback_capacity_closed_form(ChannelParams(-1.0, 1.0, 0.0)).value == 0.0


def test_cubic_residual_below_tolerance():
    for (lam, kappa, power), _v in FROZEN:
        x = feedback_capacity_closed_form(ChannelParams(lam, kappa, power)).value
        c = abs(kappa + lam)
        residual = power * (x + kappa) ** 2 - 2.0 * x * (x + c) ** 2
        assert abs(residual) < 1e-10


@pytest.mark.parametrize("triple", [
    (-0.5, 1.0, 1e6), (-0.5, 1.0, 1e103), (-0.5, 1.0, 1e200), (-0.5, 1.0, 1e308),
    (-1.0, 1.0, 1e308), (-1.5, 1.0, 8e307),
    # kappa at either extreme
    (-1e308, 1e308, 1e308), (-0.5e308, 1e308, 1e300), (-1e-300, 1e-300, 1e-300),
    (-0.5e-300, 1e-300, 2.0), (-1e-300, 1e-300, 1e308),
    # power far below kappa, where the root is far below the bracket's start
    (-0.5, 1.0, 1e-20), (-0.5, 1.0, 1e-100), (-1.0, 1.0, 1e-300), (-0.5, 1e300, 1e-5),
])
def test_closed_form_at_extreme_scales_matches_the_exact_root(triple):
    # the cubic is homogeneous of degree 3, so the solve runs on scaled
    # inputs; at the parent its Horner sum overflowed from P ~ 1e103 on
    result = feedback_capacity_closed_form(ChannelParams(*triple))
    assert result.value == pytest.approx(capacity_cubic_exact(*triple), rel=1e-15, abs=0.0)
    assert 0.0 <= result.residual <= 1e-15 * result.value


def test_closed_form_high_power_gain_tends_to_twice_the_rate_gap():
    # C - P/2 -> 2(kappa - |kappa + lam|) = 1 at (-0.5, 1)
    gain = feedback_capacity_closed_form(ChannelParams(-0.5, 1.0, 1e6)).value - 5e5
    assert gain == pytest.approx(0.9999975, abs=1e-6)


@pytest.mark.parametrize("triple", [(-1e308, 1e308, 2.0), (-0.5, 1e20, 1e-300)])
def test_closed_form_refuses_a_power_below_the_float_range_of_kappa(triple):
    with pytest.raises(ValueError, match="too small against kappa"):
        feedback_capacity_closed_form(ChannelParams(*triple))


def test_arma_rejects_a_theta_whose_square_overflows():
    with pytest.raises(InvalidArma, match="theta"):
        ArmaParams(phi=-0.5, theta=1e200, power=1.0)
    # lam = 1e308 samples to theta ~ 1e307 at delta = 0.1
    with pytest.raises(InvalidArma, match="theta"):
        discrete_limit_capacity(ChannelParams(1e308, 1.0, 2.0), DEFAULT_SWEEP_DELTAS)


colored = st.tuples(
    st.floats(min_value=0.05, max_value=0.95, **finite),  # position inside (-2k, 0)
    st.floats(min_value=0.1, max_value=5.0, **finite),    # kappa
    st.floats(min_value=0.01, max_value=20.0, **finite),  # power
)


@settings(max_examples=300, deadline=None)
@given(colored, st.floats(min_value=-12.0, max_value=6.0, **finite))
def test_closed_form_relative_accuracy_over_power_decades(triple, log10_power):
    # an absolute root tolerance loses relative accuracy as P -> 0
    frac, kappa, _power = triple
    lam = -2.0 * kappa * frac
    power = 10.0 ** log10_power
    value = feedback_capacity_closed_form(ChannelParams(lam, kappa, power)).value
    expected = capacity_cubic_exact(lam, kappa, power)
    assert value == pytest.approx(expected, rel=1e-12, abs=0.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, **finite),
       st.floats(min_value=-6.0, max_value=6.0, **finite),
       st.floats(min_value=-9.0, max_value=9.0, **finite))
@example(0.25, 0.0, -12.0)
@example(0.5, 0.0, -300.0)
@example(0.75, 300.0, -305.0)
def test_closed_form_residual_bounds_its_error(frac, log10_kappa, log10_ratio):
    # colored channels and both boundaries, log-uniform kappa and P/kappa;
    # the residual's 4-ulp floor covers the float the bisection lands on
    kappa = 10.0 ** log10_kappa
    lam, power = -2.0 * kappa * frac, kappa * 10.0 ** log10_ratio
    result = feedback_capacity_closed_form(ChannelParams(lam, kappa, power))
    assert abs(result.value - capacity_cubic_exact(lam, kappa, power)) <= result.residual
    assert result.residual <= 1e-15 * result.value


@settings(max_examples=150, deadline=None)
@given(colored, st.floats(min_value=0.1, max_value=10.0, **finite))
def test_closed_form_scale_invariance(triple, a):
    frac, kappa, power = triple
    lam = -2.0 * kappa * frac
    base = feedback_capacity_closed_form(ChannelParams(lam, kappa, power)).value
    scaled = feedback_capacity_closed_form(
        ChannelParams(a * lam, a * kappa, a * power)
    ).value
    assert scaled == pytest.approx(a * base, rel=1e-9)


@settings(max_examples=150, deadline=None)
@given(colored)
def test_closed_form_mirror_symmetry(triple):
    frac, kappa, power = triple
    lam = -2.0 * kappa * frac
    mirror = -2.0 * kappa - lam
    v1 = feedback_capacity_closed_form(ChannelParams(lam, kappa, power)).value
    v2 = feedback_capacity_closed_form(ChannelParams(mirror, kappa, power)).value
    assert v1 == pytest.approx(v2, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(colored, st.floats(min_value=1.01, max_value=4.0, **finite))
def test_closed_form_monotone_in_power(triple, factor):
    frac, kappa, power = triple
    lam = -2.0 * kappa * frac
    lo = feedback_capacity_closed_form(ChannelParams(lam, kappa, power)).value
    hi = feedback_capacity_closed_form(ChannelParams(lam, kappa, factor * power)).value
    assert hi > lo


def test_quartic_frozen_example():
    x0, cap = solve_arma_quartic(ArmaParams(phi=-0.5, theta=0.3, power=1.0))
    assert x0 == pytest.approx(0.548344862033, abs=1e-11)
    assert cap == pytest.approx(0.600850879688, abs=1e-11)
    assert cap == -math.log(x0)


@pytest.mark.parametrize(
    "phi,theta,power",
    [(-0.5, 0.3, 1.0), (-0.9, -0.99, 2.0), (0.4, 0.8, 0.7), (-0.5, 1.5, 1.0),
     (0.3, -2.5, 3.0), (-0.95, 4.0, 0.2)],
)
def test_quartic_agrees_with_bisection_oracle(phi, theta, power):
    x0, _cap = solve_arma_quartic(ArmaParams(phi, theta, power))
    assert x0 == pytest.approx(arma_quartic_bisection(phi, theta, power), abs=1e-10)


def test_quartic_zero_power():
    x0, cap = solve_arma_quartic(ArmaParams(-0.5, 0.3, 0.0))
    assert (x0, cap) == (1.0, 0.0)


def test_arma_validation():
    with pytest.raises(InvalidArma):
        ArmaParams(phi=1.0, theta=0.3, power=1.0)
    with pytest.raises(InvalidArma):
        ArmaParams(phi=-1.5, theta=0.3, power=1.0)
    with pytest.raises(InvalidArma):
        ArmaParams(phi=0.0, theta=0.3, power=-1.0)
    with pytest.raises(InvalidArma):
        ArmaParams(phi=math.nan, theta=0.3, power=1.0)


def test_arma_from_step_mapping():
    params = ChannelParams(lam=-0.4, kappa=0.8, power=1.5)
    delta = 0.01
    arma = arma_from_step(params, delta)
    assert arma.phi == pytest.approx(-math.exp(-0.8 * delta), rel=1e-15)
    ratio = params.lam / params.kappa
    assert arma.theta == pytest.approx(
        ratio - (ratio + 1.0) * math.exp(-0.8 * delta), rel=1e-14
    )
    assert arma.power == pytest.approx(params.power * delta, rel=1e-15)


def test_arma_from_step_unit_root_at_lam_equals_minus_kappa():
    arma = arma_from_step(ChannelParams(-1.0, 1.0, 2.0), 0.05)
    assert arma.theta == -1.0


def test_discrete_sweep_monotone_deltas_required():
    params = ChannelParams(-1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        discrete_limit_sweep(params, (1e-2, 1e-2))
    with pytest.raises(ValueError):
        discrete_limit_sweep(params, (1e-3, 1e-2))
    with pytest.raises(ValueError):
        discrete_limit_sweep(params, (-0.1, -0.2))
    # a single delta is fine: no extrapolation, the raw rate is the answer
    single = discrete_limit_sweep(params, (0.1,))
    assert single.extrapolated == single.rates[0]


def test_discrete_sweep_converges_colored():
    params = ChannelParams(-1.0, 1.0, 2.0)
    closed = feedback_capacity_closed_form(params).value
    sweep = discrete_limit_sweep(params, DEFAULT_SWEEP_DELTAS)
    errs = [abs(r - closed) for r in sweep.rates]
    assert errs[-1] < 5e-4
    assert errs[-1] < errs[0]
    # Richardson extrapolation sharpens the head of the sequence
    assert abs(sweep.extrapolated - closed) < errs[-1] / 10.0


def test_discrete_limit_capacity_wrapper():
    params = ChannelParams(-0.5, 1.0, 2.0)
    result = discrete_limit_capacity(params, DEFAULT_SWEEP_DELTAS)
    assert result.route is Route.DISCRETE_LIMIT
    closed = feedback_capacity_closed_form(params).value
    assert result.value == pytest.approx(closed, rel=1e-5)
    assert result.residual >= 0.0


@pytest.mark.parametrize("triple,_expected", FROZEN)
def test_discrete_limit_residual_bounds_actual_error(triple, _expected):
    params = ChannelParams(*triple)
    result = discrete_limit_capacity(params, DEFAULT_SWEEP_DELTAS)
    error = abs(result.value - feedback_capacity_closed_form(params).value)
    assert error <= result.residual < 1e-5


@pytest.mark.parametrize("power", [1e4, 1e10])
def test_discrete_limit_refuses_a_step_too_coarse_for_the_power(power):
    # P = 1e4 returned 4227.98 with residual 560 against 5001, and P = 1e10
    # returned 105843 with residual 4.38e4 against 5e9
    with pytest.raises(NotConverged, match="finest step"):
        discrete_limit_capacity(ChannelParams(-0.5, 1.0, power), DEFAULT_SWEEP_DELTAS)


def test_discrete_limit_residual_bounds_its_error_at_the_largest_power_it_takes():
    result = discrete_limit_capacity(ChannelParams(-0.5, 1.0, 1e3), DEFAULT_SWEEP_DELTAS)
    assert abs(result.value - capacity_cubic_exact(-0.5, 1.0, 1e3)) <= result.residual


def test_discrete_limit_refuses_fewer_than_three_deltas():
    # one or two rates give no Richardson spread, hence no honest error bar:
    # a single delta once returned 1.8136 with residual 0 against 2.1479
    params = ChannelParams(-1.0, 1.0, 2.0)
    for deltas in ((0.1,), (0.1, 0.05)):
        with pytest.raises(ValueError):
            discrete_limit_capacity(params, deltas)
    assert discrete_limit_capacity(params, (0.1, 0.05, 0.025)).residual > 0.0


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-12.0, max_value=6.0, **finite))
def test_bracketed_root_relative_accuracy(log10_root):
    # the bracket [0, 1] must expand for roots above 1, and bisection must
    # run on to full relative precision for roots far below the bracket
    root = 10.0 ** log10_root
    found = bracketed_root(lambda x: (x - root) * (x + 1.0), 0.0, 1.0)
    assert found == pytest.approx(root, rel=1e-14, abs=0.0)


def test_bracketed_root_without_sign_change_is_typed():
    with pytest.raises(RootNotBracketed):
        bracketed_root(lambda x: x * x + 1.0, 0.0, 1.0)


def test_discrete_limit_white_case():
    params = ChannelParams(1.0, 1.0, 2.0)
    sweep = discrete_limit_sweep(params, (1e-3, 1e-4))
    assert sweep.rates[-1] == pytest.approx(1.0, rel=4e-3)


@settings(max_examples=60, deadline=None)
@given(colored)
def test_quartic_rate_approaches_closed_form(triple):
    frac, kappa, power = triple
    lam = -2.0 * kappa * frac
    params = ChannelParams(lam, kappa, power)
    closed = feedback_capacity_closed_form(params).value
    delta = 1e-5 / kappa
    _x0, rate = solve_arma_quartic(arma_from_step(params, delta))
    assert rate / delta == pytest.approx(closed, rel=5e-3)
