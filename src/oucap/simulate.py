"""Monte Carlo simulation of the continuous-time feedback coding scheme.

The channel output increment over one step of size delta is

    dY = [A(t_k) Theta0 + lam Z0(t_k) + lam zeta0 e^{-kappa t_k}] delta + dB_k,

where Z0 is the zero-start OU component (exactly discretized) and zeta0 the
stationary tail.  The receiver runs an exact Kalman filter on the augmented
linear-Gaussian state (Theta0, Z0, zeta0); the OU transition noise is
correlated with the measurement noise because both ride on the same Brownian
motion.  The transition and its noise are diagonal, so the covariance
recursion runs as scalar updates of the six distinct entries of the
symmetric 3x3 covariance, O(1) work per step.

Randomness contract (all stochastic entry points): trial i uses
``Generator(PCG64(SeedSequence(master_seed).spawn(trials)[i]))`` and draws,
in order, a head block of 2 standard normals (Theta0 slot, then zeta0 slot,
scaled by (2 kappa)^{-1/2}) followed by a (2, steps) standard-normal matrix
whose first row scales into the Brownian increments and whose second row
supplies the extra OU randomness; decode_message's trials then draw their
message index (``_draw_trial``).  Aggregation is in trial order with a fixed
batch size, so results are bit-identical regardless of batching or thread
count.

The filter runs in the numpy kernel oucap._sk_numpy, looked up through
oucap.backends.get_backend() at each call, one batch at a time on the
calling thread.  It carries the estimation error rather than the
estimate, so the squared error keeps its relative precision however small
the MMSE gets.  The recursion is linear with coefficients shared by every
trial, so the kernel applies each block of steps to the whole batch as one
matrix, in BLAS products that round each trial alike whatever its batch and
however many threads BLAS runs; it only reads the batch's noise draws.  One
batch of draws is alive at a time: its trials are drawn straight into the
batch's buffers, split over the usable CPUs when trials are long
(SPLIT_STEPS).  The stationary noise sampler draws through the same batch
path, all its trials as one batch, and ljung_box works through its rows in
cache-sized blocks.

The gain curve reaches the simulation grid through a cubic Hermite spline
written in numpy, and decode_message takes its message grid from the
standard library's normal quantile, so simulation needs no scipy.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import backends
from .abel import OdeTrajectory
from .capacity import arma_from_step
from .channel import ChannelParams
from .errors import FilterDivergence, StationarityViolated


# Trials per filter batch.  Batching only groups trials for vectorization;
# it never changes results.
BATCH_SIZE = 512
# Rows of the run_sk_scheme curves, at (near-)equispaced step indices
# including 0 and n.
OUTPUT_POINTS = 101
# Steps per trial from which a batch's draws are split over threads.  A
# normal fill releases the GIL only while it runs, and each trial's
# generator set-up holds it, so on shorter trials two threads drew a batch
# more slowly than one (2 CPUs, 512 x 200: 0.036 s against 0.022 s); the two
# crossed near 1500 steps.
SPLIT_STEPS = 2048
# Elements of the scratch block that ljung_box works through at a time
# (1 MiB, which stays in a core's cache).
_LJUNG_BOX_BLOCK = 1 << 17


def _integer(name: str, value) -> int:
    """value as an int; ValueError unless it is an integer (a Python or
    numpy integer, not a float or a string)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SimConfig:
    """Simulation grid and sampling plan.

    horizon T and steps n fix the step delta = T/n.
    """

    horizon: float
    steps: int
    trials: int
    master_seed: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be positive and finite")
        for name in ("steps", "trials", "master_seed"):
            _integer(name, getattr(self, name))
        if self.steps < 100:
            raise ValueError("steps must be at least 100")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be a nonnegative integer")

    @property
    def delta(self) -> float:
        return self.horizon / self.steps


@dataclass(frozen=True)
class SimReport:
    """Aggregated Monte Carlo output.

    Curves are sampled at `times`; half-widths are 95% normal-approximation
    bands (infinite for a single trial).  mmse_analytic is the scheme's law
    (1 + int_0^t H^2)^{-1}, evaluated through the exact identity
    (A^2/P)' = H^2 as P/A(t)^2; mmse_filter is the deterministic conditional
    variance of the discrete filter, which differs from it by O(delta).
    empirical_rate = log(A(T)/sqrt(P))/T from the gain trajectory.
    """

    times: np.ndarray
    mmse_emp: np.ndarray
    mmse_analytic: np.ndarray
    mmse_hw: np.ndarray
    power_emp: np.ndarray
    power_hw: np.ndarray
    mmse_filter: np.ndarray
    empirical_rate: float
    master_seed: int
    innovations: np.ndarray | None = None

    @property
    def mmse_curve(self) -> list[tuple[float, float, float, float]]:
        return [
            (float(t), float(e), float(a), float(h))
            for t, e, a, h in zip(
                self.times, self.mmse_emp, self.mmse_analytic, self.mmse_hw
            )
        ]

    @property
    def power_curve(self) -> list[tuple[float, float, float]]:
        return [
            (float(t), float(e), float(h))
            for t, e, h in zip(self.times, self.power_emp, self.power_hw)
        ]


def _draw_trial(master_seed: int, trial: int, steps: int, messages: int = 0,
                head: np.ndarray | None = None,
                xi: tuple[np.ndarray, np.ndarray] | None = None):
    """Trial `trial`'s standard draws, in contract order: (head of 2 normals,
    xi of shape (2, steps), message index), the last an integer drawn
    uniformly from 1..messages when messages > 0 and 0 (not drawn) otherwise.
    Given a C-contiguous `head` of 2 and `xi` as two C-contiguous rows of
    `steps`, the normals are drawn into them in place; the rows are filled
    one after the other, which is the stream of one (2, steps) fill.

    The child seed is built directly; its stream is identical to
    SeedSequence(master_seed).spawn(trials)[trial] without the O(trials) spawn.
    """
    child = np.random.SeedSequence(master_seed, spawn_key=(trial,))
    g = np.random.Generator(np.random.PCG64(child))
    head = g.standard_normal(2, out=head)
    xi = np.empty((2, steps)) if xi is None else xi
    for row in xi:
        g.standard_normal(out=row)
    message = int(g.integers(1, messages + 1)) if messages else 0
    return head, xi, message


def _step_constants(params: ChannelParams, delta: float) -> tuple[float, float, float, float]:
    """(u, sig2, rho, c2): OU decay, transition-noise variance, its covariance
    with the Brownian increment, and the independent-component scale."""
    kappa = params.kappa
    u = math.exp(-kappa * delta)
    sig2 = -math.expm1(-2.0 * kappa * delta) / (2.0 * kappa)
    rho = -math.expm1(-kappa * delta) / kappa
    c2 = math.sqrt(max(sig2 - rho * rho / delta, 0.0))
    return u, sig2, rho, c2


def stationary_arma_noise(params: ChannelParams, cfg: SimConfig) -> np.ndarray:
    """Sample the stationarized discrete noise, shape (trials, steps).

    Each row is Z~_k = B_k + lam d_k (m(delta) zeta0 + sum_{i<k} e^{kappa
    t_{i+1}} B_i) with d_k = e^{-kappa t_k} (1-e^{-kappa delta})/kappa and
    m(x) = sqrt(2 kappa x / (1 - e^{-2 kappa x})); the tail weight makes the
    sequence exactly stationary.  Each path is verified against the one-lag
    recursion Z~_{k+1} = e^{-kappa delta} Z~_k + B_{k+1} + theta(delta) B_k;
    a path that fails it raises StationarityViolated.
    """
    n = cfg.steps
    m = cfg.trials
    delta = cfg.delta
    kappa = params.kappa
    lam = params.lam
    u, _, rho, _ = _step_constants(params, delta)
    theta = arma_from_step(params, delta).theta
    m_delta = math.sqrt(2.0 * kappa * delta / -math.expm1(-2.0 * kappa * delta))
    decay = np.exp(-kappa * np.arange(n) * delta)
    sqrt_delta = math.sqrt(delta)
    # xi2 is drawn only because the randomness contract draws it
    th0, zeta0, xi1, xi2, sent = _draw_batch(cfg.master_seed, 0, m, n, 0)
    tail = rho * m_delta * (zeta0 / math.sqrt(2.0 * kappa))
    # time-major: row k holds step k of every trial, so the recursion below
    # runs over time with each step vectorised across trials
    bt = np.empty((n, m))
    np.multiply(xi1.T, sqrt_delta, out=bt)
    # free the draws before the recursion allocates its own (n, m) arrays
    del th0, zeta0, xi1, xi2, sent
    # w_k = sum_{i<k} e^{-kappa (t_k - t_{i+1})} B_i via the stable
    # recursion w_{k+1} = u w_k + B_k; then d_k * sum = rho * w_k.
    zt = np.empty((n, m))
    w = np.zeros(m)
    for k in range(n):
        if k:
            w = bt[k - 1] + u * w
        zt[k] = bt[k] + lam * (rho * w + tail * decay[k])
    resid = zt[1:] - (u * zt[:-1] + bt[1:] + theta * bt[:-1])
    scale = np.maximum(1.0, np.max(np.abs(zt), axis=0))
    if not np.all(np.abs(resid) < 1e-9 * scale):
        raise StationarityViolated("stationarized-noise recursion identity violated")
    return np.ascontiguousarray(zt.T)


def arma_recursion_residual(z: np.ndarray, brownian: np.ndarray,
                            params: ChannelParams, delta: float) -> float:
    """Max deviation of a path from the stationary one-lag recursion."""
    arma = arma_from_step(params, delta)
    u, theta = -arma.phi, arma.theta
    resid = z[1:] - (u * z[:-1] + brownian[1:] + theta * brownian[:-1])
    return float(np.max(np.abs(resid))) if resid.size else 0.0


def _gain_on_grid(traj: OdeTrajectory, params: ChannelParams, times: np.ndarray) -> np.ndarray:
    """log A on the simulation grid by the cubic Hermite spline through the
    trajectory's samples with their exact slopes, (log A)' = P g^2."""
    if traj.power != params.power:
        raise ValueError("trajectory was computed for a different power")
    if traj.horizon < times[-1] - 1e-9:
        raise ValueError("trajectory horizon shorter than the simulation horizon")
    x, y, dydx = traj.times, traj.log_a, params.power * traj.g**2
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    c3, c2 = t / dx, (slope - dydx[:-1]) / dx - t
    at = np.minimum(times, x[-1])
    # interval [x_i, x_{i+1}) holds a point; the last point closes the last one
    i = np.clip(np.searchsorted(x, at, side="right") - 1, 0, dx.size - 1)
    s = at - x[i]
    return y[i] + dydx[i] * s + c2[i] * (s * s) + c3[i] * (s * s * s)


def _filter_coefficients(params: ChannelParams, delta: float,
                         h_amp: np.ndarray, h_zeta: np.ndarray):
    """Per-step filter gains and the deterministic variance curve.

    The measurement row at step k is h = (h_amp[k], lam delta, h_zeta[k]) on
    the state (Theta0, Z0, zeta0).  With F = diag(1, u, 1), Q = diag(0, sig2,
    0), the transition/measurement noise cross-covariance c = (0, rho, 0),
    b = F P h + c and s = h'P h + delta, the optimal gain b/s makes the
    Joseph-form update collapse to P' = F P F + Q - b b'/s, which is run here
    on the six distinct entries of the symmetric P.

    Returns (K0, K1, K2, inv_sqrt_s, var_theta) where var_theta[k] is the
    conditional variance of Theta0 given the first k increments.  Raises
    FilterDivergence if an entry of the covariance turns non-finite or a
    diagonal entry drops below -1e-9.
    """
    n = h_amp.shape[0]
    u, sig2, rho, _ = _step_constants(params, delta)
    uu = u * u
    h1 = params.lam * delta
    p00, p01, p02, p11, p12, p22 = 1.0, 0.0, 0.0, 0.0, 0.0, 1.0 / (2.0 * params.kappa)
    k0 = np.empty(n)
    k1 = np.empty(n)
    k2 = np.empty(n)
    inv_sqrt_s = np.empty(n)
    var_theta = np.empty(n + 1)
    var_theta[0] = 1.0
    # memoryviews read and write Python floats without per-element numpy scalars
    w0, w1, w2, w3, wv = (memoryview(a) for a in (k0, k1, k2, inv_sqrt_s, var_theta))
    inf = math.inf
    sqrt = math.sqrt
    for k, (h0, h2) in enumerate(zip(memoryview(h_amp), memoryview(h_zeta))):
        b0 = p00 * h0 + p01 * h1 + p02 * h2
        ph1 = p01 * h0 + p11 * h1 + p12 * h2
        b2 = p02 * h0 + p12 * h1 + p22 * h2
        s = h0 * b0 + h1 * ph1 + h2 * b2 + delta
        b1 = u * ph1 + rho
        g0 = b0 / s
        g1 = b1 / s
        g2 = b2 / s
        p00 -= g0 * b0
        p01 = u * p01 - g0 * b1
        p02 -= g0 * b2
        p11 = uu * p11 + sig2 - g1 * b1
        p12 = u * p12 - g1 * b2
        p22 -= g2 * b2
        # chained comparisons are False for NaN as well as out of range
        if not (-1e-9 <= p00 < inf and -1e-9 <= p11 < inf and -1e-9 <= p22 < inf
                and abs(p01) < inf and abs(p02) < inf and abs(p12) < inf):
            raise FilterDivergence(f"covariance lost positive semidefiniteness at step {k}")
        w0[k] = g0
        w1[k] = g1
        w2[k] = g2
        w3[k] = 1.0 / sqrt(s)
        wv[k + 1] = p00
    return k0, k1, k2, inv_sqrt_s, var_theta


@dataclass(frozen=True)
class _Scheme:
    """The scheme laid out on the simulation grid.

    coeffs holds the filter_batch arguments that follow the per-trial noise:
    (hA, hzeta, K0, K1, K2, inv_sqrt_s, u, sqrt_delta, lam_delta, c1, c2).
    """

    times: np.ndarray
    log_amp: np.ndarray
    amp: np.ndarray
    var_theta: np.ndarray
    zeta_scale: float
    coeffs: tuple


def _prepare_scheme(params: ChannelParams, cfg: SimConfig, traj: OdeTrajectory) -> _Scheme:
    n = cfg.steps
    delta = cfg.delta
    times = np.arange(n + 1) * delta
    log_amp = _gain_on_grid(traj, params, times)
    amp = np.exp(log_amp)
    h_amp = amp[:n] * delta
    h_zeta = params.lam * np.exp(-params.kappa * times[:n]) * delta
    k0, k1, k2, inv_sqrt_s, var_theta = _filter_coefficients(params, delta, h_amp, h_zeta)
    u, _, rho, c2 = _step_constants(params, delta)
    sqrt_delta = math.sqrt(delta)
    coeffs = (h_amp, h_zeta, k0, k1, k2, inv_sqrt_s,
              u, sqrt_delta, params.lam * delta, rho / sqrt_delta, c2)
    return _Scheme(times=times, log_amp=log_amp, amp=amp, var_theta=var_theta,
                   zeta_scale=1.0 / math.sqrt(2.0 * params.kappa), coeffs=coeffs)


def _draw_batch(master_seed: int, lo: int, hi: int, n: int, messages: int,
                parts: int = 1):
    """Trials lo..hi-1 drawn by _draw_trial into one (m, 2) head and two
    (m, n) noise buffers, every parts-th trial by each of `parts` threads
    (the calling thread one of them): (th0, zeta0, xi1, xi2, message
    indices), all C-contiguous."""
    m = hi - lo
    head = np.empty((m, 2))
    xi1 = np.empty((m, n))
    xi2 = np.empty((m, n))
    sent = np.empty(m, dtype=np.int64)

    def draw(part: int) -> None:
        for i in range(part, m, parts):
            _, _, sent[i] = _draw_trial(master_seed, lo + i, n, messages,
                                        head[i], (xi1[i], xi2[i]))

    # an executor starts its threads on submit, so a serial draw starts none
    with ThreadPoolExecutor(max_workers=max(parts - 1, 1)) as pool:
        helpers = [pool.submit(draw, part) for part in range(1, parts)]
        draw(0)
        for helper in helpers:
            helper.result()
    th0, zeta0 = head.T.copy()
    return th0, zeta0, xi1, xi2, sent


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_trials(params: ChannelParams, cfg: SimConfig, traj: OdeTrajectory,
                out_idx: np.ndarray, grid: np.ndarray | None = None,
                innov_rows: np.ndarray | None = None):
    """Filter all cfg.trials trials, BATCH_SIZE at a time; the one batch loop.

    Trial i sends its standard-normal Theta0 or, given `grid`, the grid point
    of the message index 1..grid.size it draws after its noise block.  The
    batches run one after another on the calling thread, each drawn, from
    SPLIT_STEPS steps on, by one thread per usable CPU, so one batch of
    draws is alive at a time.  Returns (scheme, per-trial rows of the
    squared error at out_idx, terminal estimates, message indices);
    per-trial rows make results independent of batching and threads.
    innov_rows, if given, receives the standardized innovations.
    """
    kern = backends.get_backend()
    n = cfg.steps
    trials = cfg.trials
    scheme = _prepare_scheme(params, cfg, traj)
    messages = 0 if grid is None else grid.size
    sq_rows = np.empty((trials, out_idx.size))
    mtheta = np.empty(trials)
    sent = np.empty(trials, dtype=np.int64)
    parts = _usable_cpus() if n >= SPLIT_STEPS else 1
    for lo in range(0, trials, BATCH_SIZE):
        hi = min(lo + BATCH_SIZE, trials)
        th0, zeta0, xi1, xi2, sent[lo:hi] = _draw_batch(cfg.master_seed, lo, hi, n,
                                                        messages, parts)
        if grid is not None:
            th0 = grid[sent[lo:hi] - 1]
        zeta0 = zeta0 * scheme.zeta_scale
        innov = None if innov_rows is None else innov_rows[lo:hi]
        kern.filter_batch(th0, zeta0, xi1, xi2, *scheme.coeffs,
                          out_idx, sq_rows[lo:hi], mtheta[lo:hi], innov)
        # free this batch's draws before the next batch is drawn
        del th0, zeta0, xi1, xi2
    return scheme, sq_rows, mtheta, sent


def run_sk_scheme(params: ChannelParams, cfg: SimConfig, traj: OdeTrajectory,
                  return_innovations: bool = False) -> SimReport:
    """Run the feedback scheme for cfg.trials trials and aggregate.

    `traj` must come from the gain ODE for the same parameters with horizon
    at least cfg.horizon.  Results are bit-identical for a fixed
    (master_seed, cfg) however the trials are batched and however many
    threads draw them.
    """
    n = cfg.steps
    out_idx = np.unique(np.round(np.linspace(0, n, OUTPUT_POINTS)).astype(np.int64))
    innov_rows = np.empty((cfg.trials, n)) if return_innovations else None
    scheme, sq_rows, _, _ = _run_trials(params, cfg, traj, out_idx,
                                        innov_rows=innov_rows)

    trials = cfg.trials
    mean = sq_rows.sum(axis=0) / trials
    if trials > 1:
        dev = sq_rows - mean
        var = (dev * dev).sum(axis=0) / (trials - 1)
        hw = 1.96 * np.sqrt(var / trials)
    else:
        hw = np.full(out_idx.size, np.inf)
    amp_out_sq = scheme.amp[out_idx] ** 2
    log_p = math.log(params.power)
    return SimReport(
        times=scheme.times[out_idx],
        mmse_emp=mean,
        mmse_analytic=np.exp(log_p - 2.0 * scheme.log_amp[out_idx]),
        mmse_hw=hw,
        power_emp=amp_out_sq * mean,
        power_hw=amp_out_sq * hw,
        mmse_filter=scheme.var_theta[out_idx],
        empirical_rate=float((scheme.log_amp[n] - 0.5 * log_p) / cfg.horizon),
        master_seed=cfg.master_seed,
        innovations=innov_rows,
    )


def decode_message(params: ChannelParams, cfg: SimConfig, traj: OdeTrajectory,
                   grid_size: int) -> float:
    """Empirical decoding error rate for a grid of `grid_size` messages.

    Message w in {1..M} maps to the equiprobable-cell Gaussian grid point
    Phi^{-1}((w - 1/2)/M); the decoder picks the grid point nearest the
    filter's terminal estimate.  The per-trial message index is drawn after
    the standard noise block (one extra integer draw per trial).
    """
    m_size = _integer("grid_size", grid_size)
    if m_size < 1:
        raise ValueError("grid_size must be at least 1")
    if m_size == 1:
        return 0.0
    inv_cdf = NormalDist().inv_cdf
    grid = np.array([inv_cdf((w - 0.5) / m_size) for w in range(1, m_size + 1)])
    out_idx = np.array([cfg.steps], dtype=np.int64)
    _, _, mtheta, sent = _run_trials(params, cfg, traj, out_idx, grid=grid)

    # grid[hi - 1] and grid[hi] bracket the estimate (the end pair outside
    # the grid); the nearer one wins and a tie goes to the lower message
    hi = np.clip(np.searchsorted(grid, mtheta, side="right"), 1, m_size - 1)
    decoded = np.where(np.abs(grid[hi] - mtheta) < np.abs(grid[hi - 1] - mtheta), hi + 1, hi)
    return int(np.sum(decoded != sent)) / cfg.trials


def ljung_box(innovations: np.ndarray, lags: int = 20) -> np.ndarray:
    """Portmanteau whiteness statistic per trial (rows of `innovations`).

    Q = n(n+2) sum_{j<=L} r_j^2/(n-j); under whiteness Q ~ chi^2(L).  The
    rows are worked through in blocks of about _LJUNG_BOX_BLOCK elements:
    each block's squares and lagged products go into one reused scratch
    buffer, so the arithmetic stays in cache.  Every row's sum is still one
    reduction over the same contiguous run of products, so the result is
    bit-identical to forming each full product array.  Raises ValueError
    unless lags is an integer with 1 <= lags < n and every row has a
    nonzero sum of squares.
    """
    v = np.atleast_2d(np.asarray(innovations, dtype=float))
    if v.ndim != 2:
        raise ValueError("innovations must be one series or a 2-D array of rows")
    m, n = v.shape
    lags = _integer("lags", lags)
    if lags < 1 or lags >= n:
        raise ValueError("lags must satisfy 1 <= lags < series length")
    rows = max(1, _LJUNG_BOX_BLOCK // n)
    scratch = np.empty((min(rows, m), n))
    # acf[j] holds each row's sum of v_k v_{k+j}; acf[0] the sum of squares
    acf = np.empty((lags + 1, m))
    for lo in range(0, m, rows):
        x = v[lo:lo + rows]
        for j in range(lags + 1):
            t = scratch[:x.shape[0], :n - j]
            np.multiply(x[:, :n - j], x[:, j:], out=t)
            np.add.reduce(t, axis=1, out=acf[j, lo:lo + rows])
    den = acf[0]
    zero = np.flatnonzero(den == 0.0)
    if zero.size:
        raise ValueError(f"row {zero[0]} has a zero sum of squares")
    q = np.zeros(m)
    for j in range(1, lags + 1):
        r = acf[j] / den
        q += r * r / (n - j)
    return n * (n + 2.0) * q
