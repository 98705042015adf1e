import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oucap import (
    ChannelParams,
    InputSpectrum,
    flat_input_limit_sweep,
    p_max,
    pinsker_rate,
    waterfill_bandlimited,
    waterfill_sweep,
)

from oracles import (
    bisect_root,
    noise_sdf_direct,
    p_max_quad,
    pinsker_rate_quad,
    waterfill_rate_quad,
)

TWO_PI = 2.0 * math.pi
finite = dict(allow_nan=False, allow_infinity=False)


def test_input_spectrum_validation():
    with pytest.raises(ValueError):
        InputSpectrum([((1.0, 0.5), 1.0)])  # empty interval
    with pytest.raises(ValueError):
        InputSpectrum([((0.0, 1.0), -0.1)])
    with pytest.raises(ValueError):
        InputSpectrum([((0.0, 1.0), math.inf)])
    with pytest.raises(ValueError):
        InputSpectrum([((0.0, 2.0), 1.0), ((1.0, 3.0), 1.0)])  # overlap
    spec = InputSpectrum([((2.0, 3.0), 0.5), ((-1.0, 0.0), 2.0)])
    assert spec.bands[0][0] == (-1.0, 0.0)  # sorted
    assert spec.total_power == pytest.approx(2.0 + 0.5)
    # touching intervals are allowed
    InputSpectrum([((0.0, 1.0), 1.0), ((1.0, 2.0), 1.0)])


def test_two_sided_flat_power():
    spec = InputSpectrum.two_sided_flat(offset=10.0, width=4.0, density=0.25)
    assert spec.total_power == pytest.approx(1.0)
    (lo0, hi0), _ = spec.bands[0]
    (lo1, hi1), _ = spec.bands[1]
    assert (lo0, hi0) == (-12.0, -10.0)
    assert (lo1, hi1) == (10.0, 12.0)


def test_pinsker_zero_input_is_zero():
    spec = InputSpectrum([((0.0, 5.0), 0.0)])
    assert pinsker_rate(spec, ChannelParams(-1.0, 1.0, 2.0)) == 0.0


def test_pinsker_white_noise_closed_form():
    # flat noise floor 1/2pi: rate = width * log(1 + 2 pi d) / (4 pi),
    # independent of where the bands sit
    params = ChannelParams(0.0, 1.0, 1.0)
    for offset in (0.0, 3.0, 50.0):
        spec = InputSpectrum.two_sided_flat(offset, width=8.0, density=0.5)
        expect = 8.0 * math.log1p(TWO_PI * 0.5) / (4.0 * math.pi)
        assert pinsker_rate(spec, params) == pytest.approx(expect, rel=1e-9)


def test_pinsker_additive_over_disjoint_supports():
    params = ChannelParams(-0.5, 1.0, 1.0)
    left = InputSpectrum([((1.0, 2.0), 0.7)])
    right = InputSpectrum([((4.0, 6.5), 0.2)])
    both = InputSpectrum([((1.0, 2.0), 0.7), ((4.0, 6.5), 0.2)])
    total = pinsker_rate(left, params) + pinsker_rate(right, params)
    assert pinsker_rate(both, params) == pytest.approx(total, rel=1e-9)


def test_pinsker_handles_noise_zero_at_origin():
    # lam = -kappa: the noise density vanishes at x = 0 but the log
    # singularity is integrable
    params = ChannelParams(-1.0, 1.0, 1.0)
    spec = InputSpectrum([((-1.0, 1.0), 0.5)])
    rate = pinsker_rate(spec, params)
    assert math.isfinite(rate)
    # reference: substitute x = e^y, which smooths out the log singularity
    def integrand(y):
        x = math.exp(y)
        return math.log1p(0.5 / noise_sdf_direct(-1.0, 1.0, x)) * x

    ref = 2.0 * quad(integrand, -30.0, 0.0, epsabs=1e-12, epsrel=1e-12, limit=400)[0]
    assert rate == pytest.approx(ref / (4.0 * math.pi), rel=1e-6)


def test_flat_sweep_white_noise_k_independent():
    params = ChannelParams(0.0, 1.0, 1.0)
    rows = flat_input_limit_sweep(params, n_values=[16.0], k_values=[1.0, 10.0, 100.0])
    rates = [r for (_, _, r, _) in rows]
    analytic = rows[0][3]
    for r in rates:
        assert r == pytest.approx(analytic, rel=1e-9)
    assert analytic == pytest.approx((16.0 / (4 * math.pi)) * math.log1p(TWO_PI / 16.0))


def test_flat_sweep_converges_in_offset():
    # pushing the bands out makes the noise look flat, so the gap to the
    # analytic limit shrinks monotonically (from either side of it)
    for lam in (1.0, -1.0):
        params = ChannelParams(lam, 1.0, 1.0)
        rows = flat_input_limit_sweep(params, [64.0], [32.0, 128.0, 512.0, 4096.0])
        gaps = [abs(r - analytic) for (_, _, r, analytic) in rows]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-3


def test_flat_sweep_reaches_half_power():
    params = ChannelParams(1.0, 1.0, 1.0)
    ((_, _, rate, _),) = flat_input_limit_sweep(params, [1024.0], [4096.0])
    assert abs(rate - 0.5) < 0.005 * 0.5
    ((_, _, rate2, _),) = flat_input_limit_sweep(params, [2048.0], [4096.0])
    assert abs(rate2 - 0.5) < 0.002 * 0.5  # doubling the width halves the gap
    with pytest.raises(ValueError):
        flat_input_limit_sweep(params, [0.0], [1.0])
    with pytest.raises(ValueError):
        flat_input_limit_sweep(params, [1.0], [-1.0])


def test_waterfill_white_closed_form():
    params = ChannelParams(0.0, 1.0, 2.0)
    for band, power in ((10.0, 2.0), (1000.0, 2.0), (5.0, 0.3)):
        level, rate = waterfill_bandlimited(params, band, power)
        assert level == pytest.approx(1.0 / TWO_PI + power / (2.0 * band), rel=1e-12)
        expect = (band / TWO_PI) * math.log1p(math.pi * power / band)
        assert rate == pytest.approx(expect, rel=1e-10)
        assert rate < power / 2.0 + 1e-6


def test_waterfill_wide_band_approaches_half_power():
    params = ChannelParams(0.0, 1.0, 2.0)
    _, rate = waterfill_bandlimited(params, 1000.0, 2.0)
    assert abs(rate - 1.0) < 4e-3


def test_waterfill_zero_power():
    params = ChannelParams(-0.5, 1.0, 1.0)
    s_min = min(noise_sdf_direct(-0.5, 1.0, 0.0), noise_sdf_direct(-0.5, 1.0, 7.0))
    level, rate = waterfill_bandlimited(params, 7.0, 0.0)
    assert rate == 0.0
    assert level == pytest.approx(s_min, rel=1e-12)


def test_waterfill_validation():
    params = ChannelParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        waterfill_bandlimited(params, 0.0, 1.0)
    with pytest.raises(ValueError):
        waterfill_bandlimited(params, 1.0, -0.5)
    with pytest.raises(ValueError):
        waterfill_bandlimited(params, math.inf, 1.0)


def test_waterfill_monotone_in_power_and_band():
    params = ChannelParams(-0.5, 1.0, 1.0)
    rates_p = [waterfill_bandlimited(params, 20.0, p)[1] for p in (0.5, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(rates_p, rates_p[1:]))
    rates_w = [waterfill_bandlimited(params, w, 1.0)[1] for w in (1.0, 5.0, 25.0, 125.0)]
    assert all(a < b for a, b in zip(rates_w, rates_w[1:]))


@pytest.mark.parametrize("lam", [-0.5, 0.5, -1.0])
def test_waterfill_level_absorbs_requested_power(lam):
    # oracle: rebuild the wet set by bisection on the noise density and
    # integrate (level - S_z) over it with quadrature
    params = ChannelParams(lam, 1.0, 1.0)
    band, power = 6.0, 1.0
    level, _ = waterfill_bandlimited(params, band, power)

    def gap(x):
        return noise_sdf_direct(lam, 1.0, x) - level

    g0, gW = gap(0.0), gap(band)
    if g0 < 0.0 and gW < 0.0:
        a, b = 0.0, band
    elif g0 < 0.0:
        a, b = 0.0, bisect_root(gap, 0.0, band)
    else:
        a, b = bisect_root(gap, 0.0, band), band
    absorbed = 2.0 * quad(lambda x: level - noise_sdf_direct(lam, 1.0, x), a, b,
                          epsabs=1e-12, epsrel=1e-12, limit=400)[0]
    assert absorbed == pytest.approx(power, rel=1e-7)


def test_waterfill_colored_beats_flat_noise_reference():
    # a noise well below the flat floor leaves room for a higher rate than
    # the same budget achieves against flat noise of the limiting density
    params = ChannelParams(-1.0, 1.0, 2.0)
    band, power = 50.0, 2.0
    _, rate = waterfill_bandlimited(params, band, power)
    flat_ref = (band / TWO_PI) * math.log1p(math.pi * power / band)
    assert rate > flat_ref


def test_waterfill_rate_stabilizes_at_small_power():
    # once the well holds the whole budget, widening the band changes nothing
    params = ChannelParams(-1.0, 1.0, 0.25)
    assert params.power < p_max(params)
    _, r1 = waterfill_bandlimited(params, 1e3, params.power)
    _, r2 = waterfill_bandlimited(params, 1e4, params.power)
    assert abs(r1 - r2) < 1e-6


def test_flat_sweep_drops_an_atan_term_whose_constant_underflows():
    # kappa = 1e-162 at critical coloring: sqrt(b / (1 + p)) underflows to 0
    # at this density, and x / root divided by zero; the noise is flat to
    # within kappa^2 / x^2, far below rounding
    rows = flat_input_limit_sweep(ChannelParams(-1e-162, 1e-162, 1e5), (16.0,), (32.0,))
    white = flat_input_limit_sweep(ChannelParams(0.0, 1.0, 1e5), (16.0,), (32.0,))
    assert rows[0][2] == pytest.approx(white[0][2], rel=1e-14)


def test_flat_sweep_refuses_a_rate_that_overflows():
    # the density P/n times x^2 overflows; the rate came out nan
    with pytest.raises(ValueError, match="overflows"):
        flat_input_limit_sweep(ChannelParams(-0.5, 1.0, 1e308), (16.0,), (32.0,))


@pytest.mark.parametrize("lam,kappa", [(-0.5, 1e308), (-0.5, 1e-300), (0.0, 1e-300),
                                       (-1e200, 1e200)])
def test_waterfill_refuses_a_noise_density_out_of_float_range(lam, kappa):
    # kappa^2 overflowed (OverflowError), or S_z(0) = c^2/(2 pi kappa^2)
    # came out inf (an inf level and rate) or nan (no sign change in [nan,
    # nan]), or S_z(W) underflowed to 0 (level and rate 0)
    with pytest.raises(ValueError, match="noise density"):
        waterfill_bandlimited(ChannelParams(lam, kappa, 2.0), 10.0, 2.0)


@pytest.mark.parametrize("lam,kappa,band", [(-0.5, 1e20, 100.0), (-0.5, 1.0, 10.0)])
def test_waterfill_refuses_a_power_below_the_level_resolution(lam, kappa, band):
    # 1e-300 cannot lift the level off the floor by one ulp: the first case
    # found no sign change, the second returned a rate of 1e-24 against a
    # bound of 1e-300 / (4 pi min S_z)
    with pytest.raises(ValueError, match="too small to resolve"):
        waterfill_bandlimited(ChannelParams(lam, kappa, 1e-300), band, 1e-300)


def test_p_max_values_and_cross_check():
    assert p_max(ChannelParams(-1.0, 1.0, 1.0)) == pytest.approx(0.5)
    assert p_max(ChannelParams(0.0, 1.0, 1.0)) == 0.0
    assert p_max(ChannelParams(1.0, 1.0, 1.0)) == pytest.approx(-1.5)
    for lam, kappa in ((-1.0, 1.0), (-0.3, 2.0), (0.7, 1.0)):
        value = p_max(ChannelParams(lam, kappa, 1.0))
        assert abs(p_max_quad(lam, kappa) - value) <= 1e-7 * max(1.0, abs(value))


def test_p_max_positive_only_when_colored():
    for lam, kappa in ((-0.5, 1.0), (-1.9, 1.0), (-1.0, 2.0)):
        assert p_max(ChannelParams(lam, kappa, 1.0)) > 0.0
    for lam, kappa in ((0.0, 1.0), (-2.0, 1.0), (0.5, 1.0), (-3.0, 1.0)):
        assert p_max(ChannelParams(lam, kappa, 1.0)) <= 0.0


def test_pinsker_resolves_narrow_spike_at_critical_coloring():
    # lam = -kappa with a faint input: log(1 + d/S_z) is a spike of width
    # about sqrt(2 pi d) at x = 0 that an adaptive quadrature over the
    # whole band steps over (it returned 5.000e-4, 71% low)
    rate = pinsker_rate(InputSpectrum.two_sided_flat(0.0, 1000.0, 1e-6),
                        ChannelParams(-1.0, 1.0, 1e-3))
    assert rate == pytest.approx(1.7533066291543875e-3, rel=1e-9)


def decades(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi, **finite).map(lambda e: 10.0 ** e)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.just(-1.0), st.floats(min_value=-3.0, max_value=1.5, **finite)),
       decades(-1.0, 1.0), decades(-4.0, 2.0),
       st.one_of(st.just(0.0), decades(-3.0, 4.0)), decades(-2.0, 3.5))
def test_exact_integrals_match_quadrature_oracle(ratio, kappa, power, offset, width):
    # ratio = lam/kappa; -1 is the critical coloring, where S_z(0) = 0
    lam = ratio * kappa
    params = ChannelParams(lam, kappa, power)
    spec = InputSpectrum.two_sided_flat(offset, width, power / width)
    expect = pinsker_rate_quad(spec.bands, lam, kappa)
    assert pinsker_rate(spec, params) == pytest.approx(expect, rel=1e-9, abs=0.0)
    level, rate = waterfill_bandlimited(params, width, power)
    expect = waterfill_rate_quad(lam, kappa, width, level)
    assert rate == pytest.approx(expect, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("band", [1000.0, 37.5])
def test_waterfill_sweep_fills_each_band_of_its_grid_at_the_channels_power(band):
    params = ChannelParams(-0.5, 1.0, 2.0)
    rows = waterfill_sweep(params, band)
    assert [row[0] for row in rows][::8] == [band / 100.0, band]
    for w, level, rate, flat_noise in rows:
        assert (level, rate) == waterfill_bandlimited(params, w, params.power)
        assert flat_noise == pytest.approx(w / (2 * math.pi) * math.log1p(math.pi * 2.0 / w),
                                           rel=1e-15)
    with pytest.raises(ValueError, match="100 times the smallest float"):
        waterfill_sweep(params, 1e-322)
