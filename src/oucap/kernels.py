"""Separable Volterra kernels, the channel's resolvent kernel, and the
numerical resolvent identity.

The noise-whitening theory runs through a pair of lower-triangular Volterra
kernels h and l related by

    -h(s,u) = l(s,u) + int_u^s h(s,v) l(v,u) dv
            = l(s,u) + int_u^s l(s,v) h(v,u) dv,

with l available in separable form l(s,u) = l_u(u) / l_d(s) for this channel
family.  This module builds the channel's l, samples kernels on uniform
grids, recovers h from l in panels of BLAS products, and measures the
identity residual (using the *other* line of the identity than the solver, so
the round trip is a genuine cross-check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import ChannelParams
from .errors import GridMismatch

PANEL = 64  # rows per panel: BLAS-3 speed, little triangular work outside it


@dataclass(frozen=True)
class SeparableKernel:
    """Kernel l(s,u) = l_u(u) / l_d(s) with its large-time ratio limits.

    alpha = lim l_u(t)/l_d(t), beta = lim l_d'(t)/l_d(t).  l_u and l_d take
    arrays of times.  The ratio callables map a float t to the float
    l_u(t)/l_d(t) or l_d'(t)/l_d(t), in overflow-safe form (the raw factors
    grow exponentially for this family).
    """

    l_u: Callable
    l_d: Callable
    alpha: float
    beta: float
    lu_over_ld: Callable
    ld_prime_over_ld: Callable

    def __call__(self, s, u):
        """Kernel value l(s, u); zero above the diagonal is the caller's
        concern (sampling helpers enforce it)."""
        return self.l_u(u) / self.l_d(s)

@dataclass(frozen=True)
class GridKernel:
    """Kernel sampled on an increasing uniform grid; finite, zero above the diagonal.

    values[i, j] = K(grid[i], grid[j]) for i >= j, 0 otherwise.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)
        n = grid.size
        if vals.shape != (n, n):
            raise ValueError(f"values must be {n}x{n}, got {vals.shape}")
        steps = np.diff(grid)
        if n < 2 or not 0.0 < steps[0] < math.inf or not np.allclose(
                steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("grid must be finite, uniform, strictly increasing, 2+ points")
        if np.any(vals, where=~np.tri(n, dtype=bool)) or not np.isfinite(vals).all():
            raise ValueError("values must be finite and vanish strictly above the diagonal")

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])


def ou_resolvent_kernel(params: ChannelParams) -> SeparableKernel:
    """The channel's resolvent kernel in separable form.

    For kappa+lam != 0:
        l(s,u) = [lam(2k+l)^2 e^{(k+l)u} + lam^2(2k+l) e^{-(k+l)u}]
                 / [lam^2 e^{-(k+l)s} - (2k+l)^2 e^{(k+l)s}];
    for kappa+lam == 0:
        l(s,u) = kappa(kappa*u + 1) / (kappa*s + 2).

    The printed numerator/denominator are kept verbatim as (l_u, l_d);
    common factors are harmless since only the ratio enters downstream.
    l_d never vanishes on [0, inf): for kappa+lam != 0, l_d(0) =
    -4 kappa (kappa+lam) and l_d' has the same sign, so l_d only moves away
    from zero.  In floats it can: once kappa falls below about 5e-17 |lam|,
    the ratios' denominator rounds to zero at t = 0, and they raise
    ZeroDivisionError there (integrate_abel reports StepSizeUnderflow).
    alpha and beta follow the large-time limits of l_u/l_d and l_d'/l_d.

    The ratio callables are algebraically normalized so they stay finite
    for arbitrarily large t (the raw factors overflow near t ~ 700/|k+l|).
    They take and return one float, computed with math: the ODE integrator
    calls them about a thousand times per trajectory.  l_u and l_d take
    arrays, for sample_kernel's grids.
    """
    lam, kap = params.lam, params.kappa
    a = kap + lam
    if a == 0.0:
        l_u = lambda u: kap * (kap * np.asarray(u, dtype=float) + 1.0)
        l_d = lambda s: kap * np.asarray(s, dtype=float) + 2.0
        return SeparableKernel(
            l_u=l_u, l_d=l_d, alpha=kap, beta=0.0,
            lu_over_ld=lambda t: kap * (kap * t + 1.0) / (kap * t + 2.0),
            ld_prime_over_ld=lambda t: kap / (kap * t + 2.0))
    b = 2.0 * kap + lam

    def l_u(u):
        u = np.asarray(u, dtype=float)
        return lam * b * b * np.exp(a * u) + lam * lam * b * np.exp(-a * u)

    def l_d(s):
        s = np.asarray(s, dtype=float)
        return lam * lam * np.exp(-a * s) - b * b * np.exp(a * s)

    # The mirror lam -> -2 kappa - lam sends (lam, b) to (-b, -lam) and
    # flips the signs of l_u, l_d and kappa + lam, leaving the kernel as
    # it is; so kappa + lam < 0 takes the kappa + lam > 0 form at
    # (m, n) = (-b, -lam).  That form divides through by n^2 e^{ct}, c =
    # |kappa + lam|, and its w -> 0.
    c = abs(a)
    m, n = (lam, b) if a > 0.0 else (-b, -lam)

    def lu_over_ld(t):
        e = math.exp(-2.0 * c * t)
        return (m + (m * m / n) * e) / ((m * m / (n * n)) * e - 1.0)

    def ld_prime_over_ld(t):
        w = (m * m / (n * n)) * math.exp(-2.0 * c * t)
        return -c * (w + 1.0) / (w - 1.0)

    return SeparableKernel(l_u=l_u, l_d=l_d, alpha=-m, beta=c,
                           lu_over_ld=lu_over_ld, ld_prime_over_ld=ld_prime_over_ld)


def sample_kernel(kernel: SeparableKernel, horizon: float, n: int) -> GridKernel:
    """GridKernel of l(s,u) = l_u(u)/l_d(s) on n uniform points of [0, horizon],
    divided on the lower triangle only, so nothing above it can overflow."""
    grid = np.linspace(0.0, horizon, n)
    l_u, l_d = (np.asarray(f(grid), dtype=float) for f in (kernel.l_u, kernel.l_d))
    vals = np.divide(l_u, l_d[:, None], out=np.zeros((n, n)), where=np.tri(n, dtype=bool))
    return GridKernel(grid=grid, values=vals)


def resolvent_residual(h: GridKernel, l: GridKernel) -> float:
    """Max residual of the identity -h = l + h*l on the common grid.

    Checks max over s >= u of |h(s,u) + l(s,u) + int_u^s h(s,v) l(v,u) dv|
    with trapezoid quadrature.  This is the first line of the resolvent
    identity; recover_h_from_l solves the second, so feeding its output here
    cross-checks both.  It is dt H L' + H + (1 - dt/2 diag H) L, L' = L with
    its diagonal halved, PANEL rows at a time up to the panel's last column
    (a third of the flops of the full product); like both kernels, each
    panel is exactly zero above the diagonal.
    """
    if h.grid.shape != l.grid.shape or not np.array_equal(h.grid, l.grid):
        raise GridMismatch("h and l must share one grid")
    dt, H, L = h.step, h.values, l.values
    half_diag, w = 0.5 * np.diag(L), 1.0 - 0.5 * dt * np.diag(H)
    worst = []
    for a in range(0, L.shape[0], PANEL):
        rows, cols = slice(a, a + PANEL), slice(0, a + PANEL)
        Hp = H[rows, cols]
        r = dt * (Hp @ L[cols, cols] - Hp * half_diag[cols]) + Hp + w[rows, None] * L[rows, cols]
        worst.append(np.max(np.abs(r)))
    return float(np.max(worst))


def recover_h_from_l(l: GridKernel) -> GridKernel:
    """Solve -h(s,u) = l(s,u) + int_u^s l(s,v) h(v,u) dv for h on the grid.

    Trapezoid weights make it the lower-triangular system M H = B, M[i,i] =
    1 + dt/2 L[i,i], M[i,v] = dt L[i,v] (v < i), B[i,j] = -L[i,j] M[j,j],
    solved PANEL rows at a time: one product takes the solved rows off the
    panel, and the inverse of M's diagonal block, cut to its lower triangle,
    finishes it.  With dt max|L| about 1e-2 (criterion 7), h is within
    1e-15 max|h| of row-by-row substitution.  A singular M raises ValueError.
    """
    dt, L = l.step, l.values
    diag_m = 1.0 + 0.5 * dt * np.diag(L)
    if not np.all(diag_m):
        raise ValueError("1 + dt/2 l(u,u) vanishes: the trapezoid system is singular")
    F = L * -diag_m
    for a in range(0, L.shape[0], PANEL):
        rows, cols = slice(a, a + PANEL), slice(0, a + PANEL)
        F[rows, :a] -= dt * (L[rows, :a] @ F[:a, :a])
        block = dt * L[rows, rows]
        np.fill_diagonal(block, diag_m[rows])
        F[rows, cols] = np.tril(np.linalg.inv(block)) @ F[rows, cols]
    return GridKernel(grid=l.grid.copy(), values=F)
