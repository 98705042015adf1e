import math

import numpy as np
import pytest

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

from oracles import exact_resolvent_pair, scaled_kernel


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
        assert kernel.lu_over_ld(t) == pytest.approx(kernel.alpha, abs=1e-9)
        assert kernel.ld_prime_over_ld(t) == pytest.approx(kernel.beta, abs=1e-9)


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
    assert k3(2.0, 1.0) == pytest.approx(1.0 * (1.0 * 1.0 + 1.0) / (1.0 * 2.0 + 2.0))


def test_ou_kernel_mirror_symmetry_of_ratios():
    kappa = 1.0
    for lam in (-0.3, -0.8, -1.6):
        a = ou_resolvent_kernel(ChannelParams(lam, kappa, 1.0))
        b = ou_resolvent_kernel(ChannelParams(-2.0 * kappa - lam, kappa, 1.0))
        for t in (0.0, 0.7, 3.0, 25.0):
            assert a.lu_over_ld(t) == pytest.approx(b.lu_over_ld(t), rel=1e-12, abs=1e-12)
            assert a.ld_prime_over_ld(t) == pytest.approx(
                b.ld_prime_over_ld(t), rel=1e-12, abs=1e-12
            )


def test_separable_scaling_leaves_kernel_invariant():
    base = ou_resolvent_kernel(ChannelParams(-0.5, 1.0, 1.0))
    pts = [(1.0, 0.2), (3.0, 2.9), (0.5, 0.0)]
    for c in (2.0, 10.0):
        scaled = scaled_kernel(base, c)
        assert scaled.alpha == base.alpha and scaled.beta == base.beta
        for s, u in pts:
            assert scaled(s, u) == pytest.approx(base(s, u), rel=1e-12)
            assert scaled.lu_over_ld(s) == base.lu_over_ld(s)


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
            assert sampled.values[i, j] == pytest.approx(kernel(s, u), rel=1e-12)
    assert np.all(np.triu(sampled.values, 1) == 0.0)


def test_kernel_row_decay_is_bounded():
    # the normalized ratio callables stay finite far beyond the point where
    # the raw exponential factors overflow, and agree with them while both
    # are representable
    for lam in (-0.5, 1.0, -1.0, -1.9):
        kernel = ou_resolvent_kernel(ChannelParams(lam, 1.0, 1.0))
        far = [kernel.lu_over_ld(t) for t in (0.0, 1.0, 100.0, 700.0, 1e6)]
        assert np.all(np.isfinite(far))
        for t in (0.0, 1.0, 10.0):
            assert kernel(t, t) == pytest.approx(kernel.lu_over_ld(t), rel=1e-12)
