import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oucap import (
    ChannelParams,
    GridKernel,
    GridMismatch,
    SeparableKernel,
    ou_resolvent_kernel,
    recover_h_from_l,
    resolvent_residual,
    sample_kernel,
)

from oracles import (
    exact_resolvent_pair,
    recover_h_by_rows,
    resolvent_residual_full,
    sample_kernel_by_columns,
    scaled_kernel,
)


def grid_kernel_from_arrays(grid, values):
    return GridKernel(grid=grid, values=values)


def test_exact_pair_has_small_residual_and_second_order_decay():
    # h = 1, l = -e^{u-s} solve -h = l + h*l in closed form
    grid, h, l = exact_resolvent_pair(4.0, 400)
    res = resolvent_residual(grid_kernel_from_arrays(grid, h), grid_kernel_from_arrays(grid, l))
    assert res < 1e-4
    grid2, h2, l2 = exact_resolvent_pair(4.0, 799)  # halves the step
    res2 = resolvent_residual(
        grid_kernel_from_arrays(grid2, h2), grid_kernel_from_arrays(grid2, l2)
    )
    assert res2 <= res / 3.0


def test_recover_h_reproduces_exact_pair():
    grid, h, l = exact_resolvent_pair(4.0, 400)
    recovered = recover_h_from_l(grid_kernel_from_arrays(grid, l))
    assert np.max(np.abs(recovered.values - h)) < 5e-4


@pytest.mark.parametrize("lam", [-1.0, -0.5, 1.0])
def test_ou_round_trip_residual(lam):
    params = ChannelParams(lam, 1.0, 1.0)
    l = sample_kernel(ou_resolvent_kernel(params), horizon=4.0, n=400)
    h = recover_h_from_l(l)
    assert resolvent_residual(h, l) < 1e-4


def test_ou_kernel_limits_match_declared_alpha_beta():
    # ratios l_u/l_d and l_d'/l_d must approach alpha and beta
    for lam, kappa in [(-0.5, 1.0), (1.0, 1.0), (-1.7, 1.0), (0.3, 0.7)]:
        kernel = ou_resolvent_kernel(ChannelParams(lam, kappa, 1.0))
        t = 40.0 / kappa
        assert kernel.ratios(t) == pytest.approx((kernel.alpha, kernel.beta), abs=1e-9)


def test_ou_kernel_alpha_beta_branches():
    # lam + kappa > 0
    k1 = ou_resolvent_kernel(ChannelParams(0.5, 1.0, 1.0))
    assert k1.alpha == pytest.approx(-0.5)
    assert k1.beta == pytest.approx(1.5)
    # lam + kappa < 0
    k2 = ou_resolvent_kernel(ChannelParams(-1.5, 1.0, 1.0))
    assert k2.alpha == pytest.approx(2.0 - 1.5)
    assert k2.beta == pytest.approx(0.5)
    # lam + kappa = 0: rational kernel, beta = 0
    k3 = ou_resolvent_kernel(ChannelParams(-1.0, 1.0, 1.0))
    assert k3.alpha == pytest.approx(1.0)
    assert k3.beta == 0.0
    assert k3.l_u(1.0) / k3.l_d(2.0) == pytest.approx(1.0 * (1.0 * 1.0 + 1.0) / (1.0 * 2.0 + 2.0))


def test_ou_kernel_mirror_symmetry_of_ratios():
    kappa = 1.0
    for lam in (-0.3, -0.8, -1.6):
        a = ou_resolvent_kernel(ChannelParams(lam, kappa, 1.0))
        b = ou_resolvent_kernel(ChannelParams(-2.0 * kappa - lam, kappa, 1.0))
        for t in (0.0, 0.7, 3.0, 25.0):
            assert a.ratios(t) == pytest.approx(b.ratios(t), rel=1e-12, abs=1e-12)


def test_separable_scaling_leaves_kernel_invariant():
    base = ou_resolvent_kernel(ChannelParams(-0.5, 1.0, 1.0))
    pts = [(1.0, 0.2), (3.0, 2.9), (0.5, 0.0)]
    for c in (2.0, 10.0):
        scaled = scaled_kernel(base, c)
        assert scaled.alpha == base.alpha and scaled.beta == base.beta
        for s, u in pts:
            assert scaled.l_u(u) / scaled.l_d(s) == pytest.approx(base.l_u(u) / base.l_d(s),
                                                                  rel=1e-12)
            assert scaled.ratios(s) == base.ratios(s)


def test_grid_kernel_validation():
    grid = np.linspace(0.0, 1.0, 5)
    good = np.tril(np.ones((5, 5)))
    GridKernel(grid=grid, values=good)
    with pytest.raises(ValueError):
        GridKernel(grid=grid, values=np.ones((5, 5)))  # upper triangle not zero
    with pytest.raises(ValueError):
        GridKernel(grid=grid[:4], values=good)
    with pytest.raises(ValueError):
        GridKernel(grid=np.array([0.0, 0.1, 0.3, 0.6, 1.0]), values=good)
    with pytest.raises(ValueError):
        GridKernel(grid=grid[::-1], values=good)  # uniform but decreasing
    with pytest.raises(ValueError):
        GridKernel(grid=np.array([0.0, np.inf]), values=np.tril(np.ones((2, 2))))


@pytest.mark.parametrize("horizon", [0.0, -4.0])
def test_sample_kernel_rejects_a_grid_that_does_not_increase(horizon):
    # on such a grid the round trip means nothing: a zero step makes the
    # residual 0.0, and horizon -4 makes it about 1e4
    kernel = ou_resolvent_kernel(ChannelParams(-0.5, 1.0, 1.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        sample_kernel(kernel, horizon=horizon, n=50)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grid_kernel_rejects_non_finite_values(bad):
    grid = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="finite"):
        GridKernel(grid=grid, values=np.tril(np.full((5, 5), bad)))
    one = np.tril(np.ones((5, 5)))
    one[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        GridKernel(grid=grid, values=one)


def test_residual_requires_matching_grids():
    g1, h1, l1 = exact_resolvent_pair(4.0, 50)
    g2, h2, l2 = exact_resolvent_pair(5.0, 50)
    with pytest.raises(GridMismatch):
        resolvent_residual(
            grid_kernel_from_arrays(g1, h1), grid_kernel_from_arrays(g2, l2)
        )


def test_sample_kernel_matches_direct_evaluation():
    kernel = ou_resolvent_kernel(ChannelParams(-0.5, 1.0, 1.0))
    sampled = sample_kernel(kernel, horizon=2.0, n=21)
    for i in (0, 7, 20):
        for j in range(0, i + 1, 3):
            s, u = sampled.grid[i], sampled.grid[j]
            assert sampled.values[i, j] == pytest.approx(kernel.l_u(u) / kernel.l_d(s),
                                                         rel=1e-12)
    assert np.all(np.triu(sampled.values, 1) == 0.0)


def test_kernel_row_decay_is_bounded():
    # the normalized ratio pair stays finite far beyond the point where
    # the raw exponential factors overflow, and agree with them while both
    # are representable
    for lam in (-0.5, 1.0, -1.0, -1.9):
        kernel = ou_resolvent_kernel(ChannelParams(lam, 1.0, 1.0))
        far = [kernel.ratios(t) for t in (0.0, 1.0, 100.0, 700.0, 1e6)]
        assert np.all(np.isfinite(far))
        for t in (0.0, 1.0, 10.0):
            assert kernel.l_u(t) / kernel.l_d(t) == pytest.approx(kernel.ratios(t)[0],
                                                                  rel=1e-12)


# Grid sizes around the 64-row panels of recover_h_from_l and
# resolvent_residual, and the sizes the acceptance test and benchmark use.
ORACLE_SIZES = [2, 3, 63, 64, 65, 128, 129, 400, 799]
# kappa = 1: colored on both sides of the critical point, critical
# (lam = -kappa), lam > 0, and the boundaries lam = 0 and lam = -2 kappa,
# where l vanishes identically
ORACLE_LAMBDAS = [-0.5, -1.5, -1.0, 1.0, 0.0, -2.0]


def _ou_grid(lam, n):
    return sample_kernel(ou_resolvent_kernel(ChannelParams(lam, 1.0, 1.0)), 4.0, n)


@pytest.mark.parametrize("n", ORACLE_SIZES)
@pytest.mark.parametrize("lam", ORACLE_LAMBDAS)
def test_sample_kernel_matches_the_column_sampler_bit_for_bit(lam, n):
    kernel = ou_resolvent_kernel(ChannelParams(lam, 1.0, 1.0))
    grid, values = sample_kernel_by_columns(kernel, 4.0, n)
    sampled = sample_kernel(kernel, 4.0, n)
    assert np.array_equal(sampled.grid, grid)
    assert np.array_equal(sampled.values, values)


def _random_lower(n, seed, scale=1.0):
    """A seeded lower-triangular matrix, entries uniform in [-scale, scale]."""
    return np.tril(np.random.default_rng(seed).uniform(-scale, scale, (n, n)))


def _l_case(case, n):
    """(grid, values of l): the exact pair's l, a seeded lower-triangular
    kernel with no structure on [0, 1], or the channel's l at lam."""
    if case == "exact":
        grid, _h, l = exact_resolvent_pair(4.0, n)
        return grid, l
    if case == "random":
        return np.linspace(0.0, 1.0, n), _random_lower(n, seed=n)
    l = _ou_grid(case, n)
    return l.grid, l.values


ORACLE_CASES = ["exact", "random"] + ORACLE_LAMBDAS
# the exact pair at n = 3 has dt = 2 and 1 + dt/2 l(u,u) = 0: a singular
# trapezoid system, checked on its own below
RECOVER_CASES = [(case, n) for case in ORACLE_CASES for n in ORACLE_SIZES
                 if (case, n) != ("exact", 3)]


def _assert_recovers_like_the_rows(grid, values):
    expect = recover_h_by_rows(grid, values)
    got = recover_h_from_l(GridKernel(grid=grid, values=values))
    assert np.max(np.abs(got.values - expect)) <= 1e-12 * max(1.0, np.max(np.abs(expect)))


@pytest.mark.parametrize("case,n", RECOVER_CASES)
def test_recover_h_matches_row_by_row_substitution(case, n):
    _assert_recovers_like_the_rows(*_l_case(case, n))


def test_recover_h_stays_lower_triangular_when_the_block_inverse_pivots():
    # dt max|l| up to 3: the inverse of the diagonal block swaps rows, which
    # leaves rounding noise above its diagonal unless it is cut away
    _assert_recovers_like_the_rows(np.linspace(0.0, 1.0, 5), _random_lower(5, seed=7, scale=12.0))


def test_recover_h_rejects_a_singular_trapezoid_system():
    grid, _h, l = exact_resolvent_pair(4.0, 3)
    with pytest.raises(ValueError, match="singular"):
        recover_h_from_l(GridKernel(grid=grid, values=l))


@pytest.mark.parametrize("n", ORACLE_SIZES)
@pytest.mark.parametrize("case", ORACLE_CASES)
def test_residual_matches_the_full_product(case, n):
    # h is exact for the exact pair, an unrelated seeded matrix for the
    # random case (so the diagonal residual is not zero), and the
    # row-by-row solution otherwise
    grid, l = _l_case(case, n)
    if case == "exact":
        h = exact_resolvent_pair(4.0, n)[1]
    elif case == "random":
        h = _random_lower(n, seed=n + 1000)
    else:
        h = recover_h_by_rows(grid, l)
    expect = resolvent_residual_full(grid, h, l)
    got = resolvent_residual(GridKernel(grid=grid, values=h), GridKernel(grid=grid, values=l))
    assert abs(got - expect) <= 1e-11


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-2.0, max_value=1.0), st.floats(min_value=0.5, max_value=1.5),
       st.integers(min_value=400, max_value=799))
def test_round_trip_residual_in_the_criterion_7_domain(ratio, kappa, n):
    # horizon 4 with lam = ratio * kappa, from the boundary lam = -2 kappa to
    # lam = kappa; the largest residual, at (ratio, kappa, n) = (1, 1.5, 400),
    # is about 7.8e-5
    l = sample_kernel(ou_resolvent_kernel(ChannelParams(ratio * kappa, kappa, 1.0)), 4.0, n)
    assert resolvent_residual(recover_h_from_l(l), l) < 1e-4
