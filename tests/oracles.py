"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's own numerics: plain
bisection, exact rational arithmetic, direct quadrature of defining
integrals where the library uses closed forms, scipy's integrators where
the library has its own, and explicit closed forms, so agreement is
evidence rather than tautology.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import dblquad, quad, solve_ivp
from scipy.signal import lfilter

from oucap.errors import FilterDivergence, OucapError
from oucap.kernels import SeparableKernel


def bisect_root(f, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection; requires a sign change on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("no sign change on the bracket")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def capacity_cubic_exact(lam: float, kappa: float, power: float) -> float:
    """Positive root of P(x+kappa)^2 = 2x(x+|kappa+lam|)^2 to the nearest
    float, for any finite inputs: bisection over the ordered bit patterns
    of the positive floats, with the cubic's sign evaluated exactly in
    rationals, so nothing can overflow or round."""
    P, K = Fraction(power), Fraction(kappa)
    C = abs(K + Fraction(lam))

    def f(x: float) -> Fraction:   # positive below the root, negative above
        X = Fraction(x)
        return P * (X + K) ** 2 - 2 * X * (X + C) ** 2

    def as_float(bits: int) -> float:
        return struct.unpack("<d", struct.pack("<q", bits))[0]

    lo, hi = 0, struct.unpack("<q", struct.pack("<d", math.inf))[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(as_float(mid)) > 0:
            lo = mid
        else:
            hi = mid
    a, b = as_float(lo), as_float(hi)
    return a if abs(f(a)) <= abs(f(b)) else b


def limiting_cubic_label_exact(coeffs) -> str:
    """Case label of the limiting cubic -P y^3 + (P/sqrt 2) y^2 + p_limit y
    + q_limit/sqrt 2, from the sign of the discriminant of its float
    coefficients, computed exactly in rationals."""
    root2 = math.sqrt(2.0)
    a, b, c, d = (Fraction(x) for x in (-coeffs.power, coeffs.power / root2,
                                        coeffs.p_limit, coeffs.q_limit / root2))
    disc = (18 * a * b * c * d - 4 * b ** 3 * d + b * b * c * c
            - 4 * a * c ** 3 - 27 * a * a * d * d)
    if disc > 0:
        return "ThreeDistinct"
    return "OneReal" if disc < 0 else "DoubleRoot"


def arma_quartic_bisection(phi: float, theta: float, power: float) -> float:
    """Root in (0, 1] of the stationary one-step prediction fixed point."""

    def sgn(v: float) -> float:
        return math.copysign(1.0, v) if v != 0.0 else 0.0

    if abs(theta) <= 1.0:
        s = sgn(phi - theta)

        def f(x: float) -> float:
            return power * x * x * (1.0 + s * phi * x) ** 2 - (1.0 - x * x) * (
                1.0 + s * theta * x
            ) ** 2

    else:
        s = sgn(phi - 1.0 / theta)

        def f(x: float) -> float:
            return power * x * x * (1.0 + s * phi * x) ** 2 - (1.0 - x * x) * (
                theta + s * x
            ) ** 2

    return bisect_root(f, 1e-12, 1.0)


def noise_sdf_direct(lam: float, kappa: float, x):
    """(x^2 + (kappa+lam)^2) / (2 pi (x^2 + kappa^2)) written out directly."""
    x = np.asarray(x, dtype=float)
    return (x * x + (kappa + lam) ** 2) / (2.0 * math.pi * (x * x + kappa * kappa))


def variance_of_z(lam: float, kappa: float, horizon: float) -> float:
    """Var Z(T) for Z = B + lam * time-integral of the stationary-start OU.

    Uses Var = T + 2 lam I1 + lam^2 I2 with I1 = int_0^T (1-e^{-kappa s})/kappa ds
    (covariance of B with the integrated zero-start part plus the tail term's
    independence) and I2 the double integral of the stationary OU covariance
    e^{-kappa|s-r|}/(2 kappa), evaluated by quadrature.
    """
    i1, _ = quad(lambda s: (1.0 - math.exp(-kappa * s)) / kappa, 0.0, horizon)
    # fold the |s - r| kink away: integrate over the r <= s triangle and double
    half, _ = dblquad(
        lambda r, s: math.exp(-kappa * (s - r)) / (2.0 * kappa),
        0.0,
        horizon,
        0.0,
        lambda s: s,
        epsabs=1e-10,
    )
    return horizon + 2.0 * lam * i1 + lam * lam * 2.0 * half


def exact_resolvent_pair(horizon: float, n: int):
    """Grids of the exact pair h(s,u) = 1, l(s,u) = -e^{u-s} on [0, horizon].

    They satisfy -h = l + h*l = l + l*h exactly (the convolution integral
    telescopes), giving a discretization-free reference for the Volterra ops.
    """
    grid = np.linspace(0.0, horizon, n)
    s = grid[:, None]
    u = grid[None, :]
    h = np.tril(np.ones((n, n)))
    l = np.tril(-np.exp(u - s))
    return grid, h, l


def sample_kernel_by_columns(kernel: SeparableKernel, horizon: float, n: int):
    """(grid, values) of l(s,u) = l_u(u)/l_d(s) on [0, horizon], one column
    at a time: the sampler the library used before its broadcast division."""
    grid = np.linspace(0.0, horizon, n)
    vals = np.zeros((n, n))
    for j in range(n):
        vals[j:, j] = kernel.l_u(grid[j]) / kernel.l_d(grid[j:])
    return grid, vals


def recover_h_by_rows(grid, L) -> np.ndarray:
    """h from l by trapezoid forward substitution, one row at a time: the
    diagonal is h(u,u) = -l(u,u), and each later row solves a scalar
    equation in h(t_i, t_j) given rows j..i-1."""
    n = L.shape[0]
    dt = float(grid[1] - grid[0])
    F = np.zeros_like(L)
    diag_F = -np.diag(L)
    F[np.arange(n), np.arange(n)] = diag_F
    for i in range(1, n):
        # d[j] = sum_{v=j..i-1} L[i,v] F[v,j]; F vanishes above its diagonal
        d = L[i, :i] @ F[:i, :i]
        j = slice(0, i)
        F[i, j] = -(L[i, j] + dt * (d - 0.5 * L[i, j] * diag_F[j])) \
            / (1.0 + 0.5 * dt * L[i, i])
    return F


def resolvent_residual_full(grid, H, L) -> float:
    """max over s >= u of |h + l + h*l| by one full-matrix product H @ L
    with the trapezoid's end points taken off afterwards."""
    dt = float(grid[1] - grid[0])
    # H is zero above and L zero below their index bounds, so (H @ L)[i, j]
    # is exactly sum_{v=j..i} H[i,v] L[v,j]; trapezoid halves the endpoints.
    inner = H @ L - 0.5 * (H * np.diag(L)[None, :] + np.diag(H)[:, None] * L)
    resid = H + L + dt * inner
    return float(np.max(np.abs(np.tril(resid))))


def joseph_filter_coefficients(params, cfg, amp):
    """Feedback-filter gains by the full 3x3 Joseph-form covariance update.

    The state is (Theta0, Z0, zeta0); the update holds for any gain, so it
    does not rely on the optimal-gain simplification the library uses.
    Returns (K0, K1, K2, inv_sqrt_s, var_theta) like the library routine.
    """
    n = cfg.steps
    delta = cfg.delta
    lam = params.lam
    kappa = params.kappa
    u = math.exp(-kappa * delta)
    sig2 = -math.expm1(-2.0 * kappa * delta) / (2.0 * kappa)
    rho = -math.expm1(-kappa * delta) / kappa
    f_diag = np.array([1.0, u, 1.0])
    q = np.diag([0.0, sig2, 0.0])
    c = np.array([0.0, rho, 0.0])
    p = np.diag([1.0, 0.0, 1.0 / (2.0 * kappa)])
    k0 = np.empty(n)
    k1 = np.empty(n)
    k2 = np.empty(n)
    inv_sqrt_s = np.empty(n)
    var_theta = np.empty(n + 1)
    var_theta[0] = 1.0
    lam_delta = lam * delta
    for k in range(n):
        h = np.array([amp[k] * delta, lam_delta, lam * math.exp(-kappa * k * delta) * delta])
        ph = p @ h
        s = float(h @ ph) + delta
        gain = (f_diag * ph + c) / s
        m = f_diag[:, None] * p - np.outer(gain, ph)
        p = (
            m * f_diag[None, :]
            - np.outer(m @ h, gain)
            + q
            + delta * np.outer(gain, gain)
            - np.outer(c, gain)
            - np.outer(gain, c)
        )
        p = 0.5 * (p + p.T)
        if not np.all(np.isfinite(p)) or min(p[0, 0], p[1, 1], p[2, 2]) < -1e-9:
            raise FilterDivergence(f"covariance lost positive semidefiniteness at step {k}")
        k0[k] = gain[0]
        k1[k] = gain[1]
        k2[k] = gain[2]
        inv_sqrt_s[k] = 1.0 / math.sqrt(s)
        var_theta[k + 1] = p[0, 0]
    return k0, k1, k2, inv_sqrt_s, var_theta


def _noise_draws(master_seed: int, trial: int, steps: int):
    gen = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=(trial,))))
    head = gen.standard_normal(2)
    return head, gen.standard_normal((2, steps))


@dataclass(frozen=True)
class NoisePath:
    """One sampled path of the channel noise, with its building blocks.

    brownian_increments[k] = dB_k ~ N(0, delta); ou_state[k] = Z0(t_k) for
    k = 0..n (exact OU recursion); tail = zeta0 ~ N(0, 1/(2 kappa));
    z_increments[k] = lam (Z0(t_k) + zeta0 e^{-kappa t_k}) delta + dB_k.
    """

    brownian_increments: np.ndarray
    ou_state: np.ndarray
    tail: float
    z_increments: np.ndarray


def simulate_noise(params, cfg, trial: int = 0) -> NoisePath:
    """Sample one channel-noise path (trial `trial` of cfg.trials) from the
    trial's contract draws, running the exact OU recursion as a plain loop."""
    if not 0 <= trial < cfg.trials:
        raise ValueError("trial index out of range")
    head, xi = _noise_draws(cfg.master_seed, trial, cfg.steps)
    delta = cfg.delta
    kappa = params.kappa
    u = math.exp(-kappa * delta)
    sig2 = -math.expm1(-2.0 * kappa * delta) / (2.0 * kappa)
    rho = -math.expm1(-kappa * delta) / kappa
    c2 = math.sqrt(max(sig2 - rho * rho / delta, 0.0))
    zeta0 = head[1] / math.sqrt(2.0 * kappa)
    db = math.sqrt(delta) * xi[0]
    eta = (rho / math.sqrt(delta)) * xi[0] + c2 * xi[1]
    # exact OU recursion Z0(t_{k+1}) = u Z0(t_k) + eta_k from Z0(0) = 0
    ou = np.empty(cfg.steps + 1)
    ou_k = 0.0
    ou[0] = ou_k
    for k, e in enumerate(eta.tolist(), start=1):
        ou_k = e + u * ou_k
        ou[k] = ou_k
    tk = np.arange(cfg.steps) * delta
    z_inc = params.lam * (ou[:-1] + zeta0 * np.exp(-kappa * tk)) * delta + db
    return NoisePath(brownian_increments=db, ou_state=ou, tail=float(zeta0), z_increments=z_inc)


def scalar_filter_batch(th0, zeta0, xi1, xi2, hA, hzeta, K0, K1, K2, inv_sqrt_s,
                        u, sqrt_delta, lam_delta, c1, c2,
                        out_idx, sqerr_out, mtheta_out, innov_out):
    """The filter recursion in plain Python floats, one trial and one
    operation at a time: the arithmetic order the numpy kernel keeps.
    Same contract as filter_batch, except that xi1 and xi2 are only read."""
    m, n = xi1.shape
    hA, hzeta, K0, K1, K2, inv_sqrt_s = (
        a.tolist() for a in (hA, hzeta, K0, K1, K2, inv_sqrt_s))
    out_idx = out_idx.tolist()
    n_out = len(out_idx)
    store = innov_out is not None
    for i in range(m):
        e0 = float(th0[i])
        e1 = 0.0
        e2 = float(zeta0[i])
        row1 = xi1[i].tolist()
        row2 = xi2[i].tolist()
        out_pos = 0
        for k in range(n):
            if out_pos < n_out and out_idx[out_pos] == k:
                sqerr_out[i, out_pos] = e0 * e0
                out_pos += 1
            x1 = sqrt_delta * row1[k]
            x2 = c1 * row1[k] + c2 * row2[k]
            nu = ((hA[k] * e0 + lam_delta * e1) + hzeta[k] * e2) + x1
            if store:
                innov_out[i, k] = nu * inv_sqrt_s[k]
            e0 = e0 - K0[k] * nu
            e1 = (u * e1 + x2) - K1[k] * nu
            e2 = e2 - K2[k] * nu
        if out_pos < n_out and out_idx[out_pos] == n:
            sqerr_out[i, out_pos] = e0 * e0
        mtheta_out[i] = float(th0[i]) - e0


def grid_decode(grid_size: int, mtheta: np.ndarray) -> np.ndarray:
    """The message decoder the library used before it stopped forming the
    grid: all grid_size points built in a loop, the estimate bracketed by
    searchsorted, the nearer of the pair winning and a tie going to the lower
    message.  Returns the decoded message of each estimate, 1..grid_size."""
    from statistics import NormalDist

    m_size = grid_size
    inv_cdf = NormalDist().inv_cdf
    grid = np.array([inv_cdf((w - 0.5) / m_size) for w in range(1, m_size + 1)])

    # grid[hi - 1] and grid[hi] bracket the estimate (the end pair outside
    # the grid); the nearer one wins and a tie goes to the lower message
    hi = np.clip(np.searchsorted(grid, mtheta, side="right"), 1, m_size - 1)
    decoded = np.where(np.abs(grid[hi] - mtheta) < np.abs(grid[hi - 1] - mtheta), hi + 1, hi)
    return decoded


class _LazyGrid:
    """The grid of grid_decode as a sequence whose points are computed when
    read, so that bisect can search a grid far too large to form."""

    def __init__(self, size: int) -> None:
        from statistics import NormalDist

        self.size = size
        self.inv_cdf = NormalDist().inv_cdf

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> float:
        return self.inv_cdf((i + 0.5) / self.size)


def lazy_grid_decode(grid_size: int, estimate: float) -> int:
    """grid_decode's rule for one estimate at any grid size: searchsorted is
    a binary search, so on the sorted grid bisect_right finds the same
    bracket reading only about log2(grid_size) points."""
    from bisect import bisect_right

    grid = _LazyGrid(grid_size)
    hi = min(max(bisect_right(grid, estimate), 1), grid_size - 1)
    return hi + 1 if abs(grid[hi] - estimate) < abs(grid[hi - 1] - estimate) else hi


def lfilter_ou_state(params, cfg, trial: int) -> np.ndarray:
    """Zero-start OU path Z0(t_k), k = 0..n, of one trial, by the first-order
    scipy.signal.lfilter the library once used."""
    _head, xi = _noise_draws(cfg.master_seed, trial, cfg.steps)
    delta = cfg.delta
    kappa = params.kappa
    u = math.exp(-kappa * delta)
    sig2 = -math.expm1(-2.0 * kappa * delta) / (2.0 * kappa)
    rho = -math.expm1(-kappa * delta) / kappa
    c2 = math.sqrt(max(sig2 - rho * rho / delta, 0.0))
    eta = (rho / math.sqrt(delta)) * xi[0] + c2 * xi[1]
    ou = np.empty(cfg.steps + 1)
    ou[0] = 0.0
    ou[1:] = lfilter([1.0], [1.0, -u], eta)
    return ou


def lfilter_stationary_arma_noise(params, cfg) -> np.ndarray:
    """Stationarized discrete noise, shape (trials, steps), one trial at a time
    with the scipy.signal.lfilter formula the library once used."""
    n = cfg.steps
    delta = cfg.delta
    kappa = params.kappa
    u = math.exp(-kappa * delta)
    rho = -math.expm1(-kappa * delta) / kappa
    m_delta = math.sqrt(2.0 * kappa * delta / -math.expm1(-2.0 * kappa * delta))
    decay = np.exp(-kappa * np.arange(n) * delta)
    out = np.empty((cfg.trials, n))
    for i in range(cfg.trials):
        head, xi = _noise_draws(cfg.master_seed, i, n)
        zeta0 = head[1] / math.sqrt(2.0 * kappa)
        b = math.sqrt(delta) * xi[0]
        w = lfilter([0.0, 1.0], [1.0, -u], b)
        out[i] = b + params.lam * (rho * w + (rho * m_delta * zeta0) * decay)
    return out


def direct_ljung_box(innovations, lags: int = 20) -> np.ndarray:
    """Ljung-Box Q per row, one full (m, n - j) product array per lag: the
    formula the library used before it worked through row blocks."""
    v = np.atleast_2d(np.asarray(innovations, dtype=float))
    n = v.shape[1]
    den = np.sum(v * v, axis=1)
    q = np.zeros(v.shape[0])
    for j in range(1, lags + 1):
        r = np.sum(v[:, :-j] * v[:, j:], axis=1) / den
        q += r * r / (n - j)
    return n * (n + 2.0) * q


def _sdf(lam: float, kappa: float, x: float) -> float:
    return (x * x + (kappa + lam) ** 2) / (2.0 * math.pi * (x * x + kappa * kappa))


def _quad_log_spaced(f, u: float, v: float) -> float:
    """Integral of f over [u, v], 0 <= u < v, by quad on pieces split at the
    powers of ten, so that features near 0 at any scale are resolved."""
    cuts = [u] + [10.0 ** k for k in range(-15, 12) if u < 10.0 ** k < v] + [v]
    return sum(quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=400)[0]
               for a, b in zip(cuts, cuts[1:]))


def pinsker_rate_quad(bands, lam: float, kappa: float) -> float:
    """(1/4pi) integral of log(1 + d/S_z) over ((lo, hi), d) bands, by
    log-spaced piecewise quadrature of the even integrand."""
    total = 0.0
    for (lo, hi), d in bands:
        f = lambda x, d=d: math.log1p(d / _sdf(lam, kappa, x))
        if lo < 0.0 < hi:
            total += _quad_log_spaced(f, 0.0, -lo) + _quad_log_spaced(f, 0.0, hi)
        elif hi <= 0.0:
            total += _quad_log_spaced(f, -hi, -lo)
        else:
            total += _quad_log_spaced(f, lo, hi)
    return total / (4.0 * math.pi)


def waterfill_rate_quad(lam: float, kappa: float, band: float, level: float) -> float:
    """(1/4pi) integral over [-band, band] of log(max(level/S_z, 1)): the wet
    set is rebuilt by bisection on S_z = level, then integrated piecewise."""
    gap = lambda x: _sdf(lam, kappa, x) - level
    g0, g_edge = gap(0.0), gap(band)
    if g0 >= 0.0 and g_edge >= 0.0:
        return 0.0
    if g0 < 0.0 and g_edge < 0.0:
        a, b = 0.0, band
    elif g0 < 0.0:
        a, b = 0.0, bisect_root(gap, 0.0, band)
    else:
        a, b = bisect_root(gap, 0.0, band), band
    f = lambda x: math.log(level / _sdf(lam, kappa, x))
    return _quad_log_spaced(f, a, b) / (2.0 * math.pi)


def p_max_quad(lam: float, kappa: float) -> float:
    """Water volume below the floor 1/(2 pi): 2 * integral over [0, inf) of
    (1/(2 pi) - S_z), by quadrature."""
    integral, _err = quad(lambda x: 1.0 / (2.0 * math.pi) - _sdf(lam, kappa, x),
                          0.0, np.inf, epsabs=1e-10, limit=400)
    return 2.0 * integral


def abel_solve_ivp(coeffs, horizon: float, step: float):
    """(g, log A) of the Abel ODE on the library's sample grid, by scipy's
    RK45 with the library's tolerances and its dense output."""
    power = coeffs.power
    root2 = math.sqrt(2.0)

    def rhs(t, y):
        g = y[0]
        p, q = coeffs.pq(t)
        return (-power * g ** 3 + (power / root2) * g * g + p * g + q / root2, power * g * g)

    times = np.linspace(0.0, horizon, int(math.ceil(horizon / step)) + 1)
    sol = solve_ivp(rhs, (0.0, horizon), (1.0 / root2, 0.0), method="RK45",
                    rtol=1e-10, atol=1e-12, dense_output=True)
    assert sol.success, sol.message
    samples = sol.sol(times)
    return samples[0], 0.5 * math.log(power) + samples[1]


# relative residual of the gain identity above which gain_from_kernel rejects
# the kernel as not matching the trajectory
GAIN_IDENTITY_RTOL = 1e-3


class KernelDomainMismatch(OucapError):
    """A kernel is not usable on the requested grid (wrong domain, zero l_d)."""


def gain_from_kernel(traj, kernel: SeparableKernel) -> np.ndarray:
    """Gain curve H(t_i) = A(t_i) + (1/l_d(t_i)) int_0^{t_i} l_u A ds by
    trapezoid accumulation on the trajectory grid.

    Also asserts the defining identity sqrt(2) g A l_d = l_d A + int l_u A
    on the grid; a relative residual above GAIN_IDENTITY_RTOL means the
    kernel does not match the trajectory's coefficients (or the grid is far
    too coarse) and raises KernelDomainMismatch.  The guard is loose;
    precision studies belong to the caller, who controls the grid.
    """
    t = traj.times
    ld = np.asarray(kernel.l_d(t), dtype=float)
    lu = np.asarray(kernel.l_u(t), dtype=float)
    if not (np.all(np.isfinite(ld)) and np.all(np.isfinite(lu))):
        raise KernelDomainMismatch("kernel factors not finite on [0, horizon]")
    if np.any(ld == 0.0):
        raise KernelDomainMismatch("l_d vanishes on the trajectory grid")
    A = traj.a
    y = lu * A
    integral = np.concatenate(([0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)))
    H = A + integral / ld
    lhs = math.sqrt(2.0) * traj.g * A * ld
    rhs = ld * A + integral
    resid = float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(ld * A)))
    if not resid < GAIN_IDENTITY_RTOL:
        raise KernelDomainMismatch(
            f"gain identity residual {resid:.3e} exceeds {GAIN_IDENTITY_RTOL:.1e}; "
            "kernel and trajectory disagree")
    return H


def scaled_kernel(kernel: SeparableKernel, c: float) -> SeparableKernel:
    """The same kernel under the factorization (c*l_u, c*l_d)."""
    if c == 0:
        raise ValueError("scaling constant must be nonzero")
    return SeparableKernel(
        l_u=lambda t: c * kernel.l_u(t),
        l_d=lambda t: c * kernel.l_d(t),
        alpha=kernel.alpha, beta=kernel.beta, ratios=kernel.ratios)
