"""Separable Volterra kernels, the channel's resolvent kernel, and the
numerical resolvent identity.

The noise-whitening theory runs through a pair of lower-triangular Volterra
kernels h and l related by

    -h(s,u) = l(s,u) + int_u^s h(s,v) l(v,u) dv
            = l(s,u) + int_u^s l(s,v) h(v,u) dv,

with l available in separable form l(s,u) = l_u(u) / l_d(s) for this channel
family.  This module builds the channel's l, samples kernels on uniform
grids, recovers h from l by forward substitution, and measures the identity
residual (using the *other* line of the identity than the solver, so the
round trip is a genuine cross-check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import ChannelParams
from .errors import GridMismatch


@dataclass(frozen=True)
class SeparableKernel:
    """Kernel l(s,u) = l_u(u) / l_d(s) with its large-time ratio limits.

    alpha = lim l_u(t)/l_d(t), beta = lim l_d'(t)/l_d(t).  The ratio
    callables evaluate l_u/l_d and l_d'/l_d in overflow-safe form (the raw
    factors grow exponentially for this family).
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

    def scaled(self, c: float) -> "SeparableKernel":
        """Same kernel under the factorization (c*l_u, c*l_d)."""
        if c == 0:
            raise ValueError("scaling constant must be nonzero")
        return SeparableKernel(
            l_u=lambda t: c * self.l_u(t),
            l_d=lambda t: c * self.l_d(t),
            alpha=self.alpha, beta=self.beta,
            lu_over_ld=self.lu_over_ld,
            ld_prime_over_ld=self.ld_prime_over_ld)


@dataclass(frozen=True)
class GridKernel:
    """Kernel sampled on a uniform grid; zero above the diagonal.

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
        if n < 2 or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("grid must be uniform with at least 2 points")
        if np.any(np.triu(vals, k=1) != 0.0):
            raise ValueError("values must vanish strictly above the diagonal")

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @classmethod
    def from_function(cls, fn, horizon: float, n: int) -> "GridKernel":
        """Sample K(s,u) = fn(s, u) on an n-point uniform grid over
        [0, horizon], zeroing everything above the diagonal."""
        grid = np.linspace(0.0, horizon, n)
        vals = np.zeros((n, n))
        for j in range(n):
            vals[j:, j] = fn(grid[j:], grid[j])
        return cls(grid=grid, values=vals)


def _real(t):
    """A Python number as a float, anything else as a float array."""
    return float(t) if isinstance(t, (float, int)) else np.asarray(t, dtype=float)


def _exp(x):
    """math.exp on a float, np.exp on an array."""
    return math.exp(x) if isinstance(x, float) else np.exp(x)


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
    from zero.
    alpha and beta follow the large-time limits of l_u/l_d and l_d'/l_d.

    The ratio callables are algebraically normalized so they stay finite
    for arbitrarily large t (the raw factors overflow near t ~ 700/|k+l|).
    They answer a Python float with a float computed by math, which is what
    the ODE integrator calls them with, and an array with an array.
    """
    lam, kap = params.lam, params.kappa
    a = kap + lam
    if a == 0.0:
        l_u = lambda u: kap * (kap * np.asarray(u, dtype=float) + 1.0)
        l_d = lambda s: kap * np.asarray(s, dtype=float) + 2.0
        kernel = SeparableKernel(
            l_u=l_u, l_d=l_d, alpha=kap, beta=0.0,
            lu_over_ld=lambda t: kap * (kap * _real(t) + 1.0) / (kap * _real(t) + 2.0),
            ld_prime_over_ld=lambda t: kap / (kap * _real(t) + 2.0))
    else:
        b = 2.0 * kap + lam

        def l_u(u):
            u = np.asarray(u, dtype=float)
            return lam * b * b * np.exp(a * u) + lam * lam * b * np.exp(-a * u)

        def l_d(s):
            s = np.asarray(s, dtype=float)
            return lam * lam * np.exp(-a * s) - b * b * np.exp(a * s)

        if a > 0.0:
            # divide through by b^2 e^{at}; w -> 0
            alpha, beta = -lam, a

            def lu_over_ld(t):
                e = _exp(-2.0 * a * _real(t))
                return (lam + (lam * lam / b) * e) / ((lam * lam / (b * b)) * e - 1.0)

            def ld_prime_over_ld(t):
                w = (lam * lam / (b * b)) * _exp(-2.0 * a * _real(t))
                return -a * (w + 1.0) / (w - 1.0)
        else:
            # divide through by lam^2 e^{-at}; w -> 0
            alpha, beta = b, -a

            def lu_over_ld(t):
                e = _exp(2.0 * a * _real(t))
                return (b + (b * b / lam) * e) / (1.0 - (b * b / (lam * lam)) * e)

            def ld_prime_over_ld(t):
                w = (b * b / (lam * lam)) * _exp(2.0 * a * _real(t))
                return -a * (1.0 + w) / (1.0 - w)

        kernel = SeparableKernel(l_u=l_u, l_d=l_d, alpha=alpha, beta=beta,
                                 lu_over_ld=lu_over_ld,
                                 ld_prime_over_ld=ld_prime_over_ld)
    return kernel


def sample_kernel(kernel: SeparableKernel, horizon: float, n: int) -> GridKernel:
    """GridKernel of l(s,u) = l_u(u)/l_d(s) on n uniform points of [0, horizon]."""
    return GridKernel.from_function(
        lambda s, u: np.asarray(kernel.l_u(u) / kernel.l_d(s), dtype=float),
        horizon, n)


def resolvent_residual(h: GridKernel, l: GridKernel) -> float:
    """Max residual of the identity -h = l + h*l on the common grid.

    Checks max over s >= u of |h(s,u) + l(s,u) + int_u^s h(s,v) l(v,u) dv|
    with trapezoid quadrature.  This is the first line of the resolvent
    identity; recover_h_from_l solves the second, so feeding its output here
    cross-checks both.
    """
    if h.grid.shape != l.grid.shape or not np.array_equal(h.grid, l.grid):
        raise GridMismatch("h and l must share one grid")
    dt = h.step
    H, L = h.values, l.values
    # H is zero above and L zero below their index bounds, so (H @ L)[i, j]
    # is exactly sum_{v=j..i} H[i,v] L[v,j]; trapezoid halves the endpoints.
    inner = H @ L - 0.5 * (H * np.diag(L)[None, :] + np.diag(H)[:, None] * L)
    resid = H + L + dt * inner
    return float(np.max(np.abs(np.tril(resid))))


def recover_h_from_l(l: GridKernel) -> GridKernel:
    """Solve -h(s,u) = l(s,u) + int_u^s l(s,v) h(v,u) dv for h on the grid.

    Forward substitution down the rows: with trapezoid weights the diagonal
    entry is h(u,u) = -l(u,u) (zero-width integral), and each later row
    solves a scalar equation in h(t_i, t_j) given rows j..i-1.
    """
    L = l.values
    n = L.shape[0]
    dt = l.step
    F = np.zeros_like(L)
    diag_F = np.empty(n)
    for i in range(n):
        diag_F[i] = -L[i, i]
        F[i, i] = diag_F[i]
    for i in range(1, n):
        # d[j] = sum_{v=j..i-1} L[i,v] F[v,j]; F vanishes above its diagonal
        d = L[i, :i] @ F[:i, :i]
        j = slice(0, i)
        F[i, j] = -(L[i, j] + dt * (d - 0.5 * L[i, j] * diag_F[j])) \
            / (1.0 + 0.5 * dt * L[i, i])
    return GridKernel(grid=l.grid.copy(), values=F)
