import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oucap import ChannelParams, Regime, classify_regime, noise_sdf

from oracles import noise_sdf_direct

finite = dict(allow_nan=False, allow_infinity=False)


def test_regime_boundaries_are_white():
    assert classify_regime(ChannelParams(0.0, 1.0, 1.0)) is Regime.WHITE_EQUIVALENT
    assert classify_regime(ChannelParams(-2.0, 1.0, 1.0)) is Regime.WHITE_EQUIVALENT
    assert classify_regime(ChannelParams(-1.0, 1.0, 1.0)) is Regime.COLORED_GAIN
    assert ChannelParams(-1.0, 1.0, 1.0).regime() is Regime.COLORED_GAIN


@settings(max_examples=200, deadline=None)
@given(
    lam=st.floats(min_value=-50.0, max_value=50.0, **finite),
    kappa=st.floats(min_value=1e-3, max_value=50.0, **finite),
)
def test_regime_matches_interval_definition(lam, kappa):
    params = ChannelParams(lam, kappa, 1.0)
    expected = Regime.COLORED_GAIN if -2.0 * kappa < lam < 0.0 else Regime.WHITE_EQUIVALENT
    assert classify_regime(params) is expected


def test_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ChannelParams(0.0, -2.0, 1.0)
    with pytest.raises(ValueError):
        ChannelParams(0.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        ChannelParams(math.nan, 1.0, 1.0)
    with pytest.raises(ValueError):
        ChannelParams(0.0, math.inf, 1.0)


def test_noise_sdf_matches_direct_formula():
    params = ChannelParams(-0.7, 1.3, 2.0)
    x = np.linspace(-20.0, 20.0, 401)
    assert np.allclose(noise_sdf(params, x), noise_sdf_direct(-0.7, 1.3, x), rtol=1e-14)


def test_noise_sdf_white_cases_are_flat():
    x = np.linspace(-5.0, 5.0, 101)
    for lam, kappa in [(0.0, 1.0), (-2.0, 1.0), (0.0, 0.3), (-0.6, 0.3)]:
        vals = noise_sdf(ChannelParams(lam, kappa, 1.0), x)
        assert np.allclose(vals, 1.0 / (2.0 * math.pi), rtol=1e-15)


def test_noise_sdf_vanishes_only_at_origin_when_lam_is_minus_kappa():
    params = ChannelParams(-1.0, 1.0, 1.0)
    assert noise_sdf(params, 0.0) == 0.0
    assert noise_sdf(params, 1e-8) > 0.0


@settings(max_examples=100, deadline=None)
@given(
    lam=st.floats(min_value=-4.0, max_value=4.0, **finite),
    kappa=st.floats(min_value=0.1, max_value=4.0, **finite),
    x=st.floats(min_value=-100.0, max_value=100.0, **finite),
)
def test_noise_sdf_even_and_nonnegative(lam, kappa, x):
    params = ChannelParams(lam, kappa, 1.0)
    v = noise_sdf(params, x)
    assert v >= 0.0
    assert v == noise_sdf(params, -x)


def test_noise_sdf_scalar_and_array_shapes():
    params = ChannelParams(0.5, 1.0, 1.0)
    assert isinstance(noise_sdf(params, 1.0), float)
    out = noise_sdf(params, np.ones((3, 2)))
    assert out.shape == (3, 2)


def test_noise_sdf_float_path_has_the_array_paths_bits():
    # the CLI fuzz extremes of test_cli, at frequencies from 0 past the
    # float range: the math path returns what the array path computes, bit
    # for bit, and raises ZeroDivisionError exactly where the array path
    # divides by 0 (x^2 + kappa^2 underflows)
    from test_cli import FUZZ_KAPPAS, FUZZ_LAMBDAS

    xs = [0.0, -0.0, 5e-324, 1e-300, 1e-160, 1e-20, 0.5, -1.0, 3.0, 1e20, 1e154,
          -1e160, 1e300, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
    for lam, kappa in itertools.product(FUZZ_LAMBDAS, FUZZ_KAPPAS):
        params = ChannelParams(lam, kappa, 1.0)
        with np.errstate(all="ignore"):
            array = noise_sdf(params, np.array(xs))
            zero_d = [noise_sdf(params, np.array(x)) for x in xs]
        for x, a, z in zip(xs, array, zero_d):
            assert a == z or (math.isnan(a) and math.isnan(z))
            try:
                v = noise_sdf(params, x)
            except ZeroDivisionError:
                assert x * x + kappa * kappa == 0.0, (lam, kappa, x)
                assert not math.isfinite(a)
                continue
            assert type(v) is float
            assert (v == a and math.copysign(1.0, v) == math.copysign(1.0, a)) or (
                math.isnan(v) and math.isnan(a)), (lam, kappa, x, v, a)
