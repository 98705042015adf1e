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
message index.  The stationary noise sampler uses only the head and the
first row, so its draws stop after the first row: a prefix of the same
stream.  Aggregation is in trial order with a fixed batch size, so results
are bit-identical regardless of batching or thread count.

No generator is built per trial.  Child i is SeedSequence(master_seed,
spawn_key=(i,)), and _seed_words runs NumPy's SeedSequence hash for every
trial of a batch in one pass on a uint32 array, one trial index per element
(SimConfig keeps the indices below 2**32); PCG64's seeding step turns each
trial's 4 words into its 128-bit state in Python ints, and each drawing
thread keeps one PCG64 whose state it sets once per trial (_fill_trial).
The states are bit for bit those of numpy's own construction.

Everything that depends on the channel, the grid and the gain ODE's
solution but not on the trials or the seed (the gain on the grid, the
filter coefficients and var_theta) is the plan, _Scheme.  The gain log A
is read on the simulation grid straight from the solution's dense output
(abel._dense_output), the curve every route shares.  The last plan built
is kept, read-only, and a later call on the same inputs (run_sk_scheme
again, or decode_message after run_sk_scheme) reuses it instead of running
the covariance recursion again; a call on other inputs, or on a solution
whose step table was changed in place, builds a new one, which replaces it.

The filter runs in the numpy kernel oucap._sk_numpy, its filter_batch
looked up on the module for each batch, one batch at a time on the calling
thread.  It carries the estimation error rather than the estimate, so the
squared error keeps its relative precision however small the MMSE gets.
The recursion is linear with coefficients shared by every trial, so the
kernel applies each block of steps to the whole batch as one matrix, in
BLAS products that round each trial alike whatever its batch and however
many threads BLAS runs; it only reads the batch's noise draws.  One batch
of draws is alive at a time: its trials are drawn straight into the
batch's buffers.  The stationary noise sampler draws through the same
batch path, all its trials as one batch with one row each, and ljung_box
works through its rows in cache-sized blocks.  A batch's draws and
ljung_box's rows are shared over the usable CPUs by one rule and one
helper (_parts, _on_cpus) once the job is large enough to repay a thread's
start (SPLIT_WORK); each row is worked by one thread in the same order
whatever the split, so the bits do not depend on it, and every helper
thread ends before the call returns.

decode_message takes each message point from the standard library's normal
quantile as a trial needs it, so simulation needs no scipy and no grid.
"""

from __future__ import annotations

import hashlib
import math
import operator
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import _sk_numpy
from .abel import AbelSolution, _dense_output
from .capacity import arma_from_step
from .channel import ChannelParams
from .errors import (FilterDivergence, MemoryBudgetExceeded, StationarityViolated,
                     _physical_memory)


# Trials per filter batch.  Batching only groups trials for vectorization;
# it never changes results.
BATCH_SIZE = 512
# Rows of the run_sk_scheme curves, at (near-)equispaced step indices
# including 0 and n.
OUTPUT_POINTS = 101
# A job of independent rows (a batch's draws, ljung_box's series) is split
# over the usable CPUs, one part per CPU and at most one per row (_parts),
# once it holds SPLIT_WORK elements: a helper thread's start, with the first
# touch of its share of fresh buffers, costs a few ms, which a split must
# repay.  The first call in fresh processes, 2 CPUs, medians of 7 to 9
# processes, one part against two: draws of 50 x 1e4 (`oucap simulate
# --trials 50`) 17.4 ms against 24.4 ms, 200 x 1e4 46.9 against 49.5, 512 x
# 4096 50.1 against 50.9, 350 x 1e4 76.9 against 75.4, 512 x 1e4 108 against
# 95; ljung_box of 32 x 1e5 37.9 against 38.3, 48 x 1e5 57.2 against 43.2.
# A batch of BATCH_SIZE trials splits only from 6836 steps on, past the
# short rows where each trial's set-up, which holds the GIL, outweighs its
# fills; ljung_box's many short rows split as its few long ones do (4096 x
# 1000 on 2 CPUs: 205-243 ms on one part, 108-123 ms on two).
SPLIT_WORK = 3_500_000
# Elements of the scratch block that ljung_box works through at a time
# (1 MiB, which stays in a core's cache).
_LJUNG_BOX_BLOCK = 1 << 17


def _integer(name: str, value) -> int:
    """value as an int; ValueError unless it is an integer (a Python or
    numpy integer, not a bool, a float or a string)."""
    # a bool is an int to operator.index, True being 1
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


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
        # stored as Python ints, so that a numpy integer neither wraps nor
        # warns in the seed hash's 32-bit arithmetic
        for name in ("steps", "trials", "master_seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.steps < 100:
            raise ValueError("steps must be at least 100")
        # trial indices stay one 32-bit word each (_seed_words)
        if not 1 <= self.trials <= 2**32:
            raise ValueError("trials must be between 1 and 2**32")
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


# NumPy's SeedSequence (NEP 19, numpy/random/bit_generator.pyx) hashes its
# entropy into a pool of 4 uint32 words with these constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (O'Neill 2014)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words32(n: int) -> list[int]:
    """A nonnegative int as SeedSequence reads it: its 32-bit words, least
    significant first, [0] for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


# SeedSequence's two mixing steps, on Python ints and uint32 arrays alike:
# the masks keep Python ints to 32 bits, and uint32 arrays wrap by themselves
# (a numpy scalar would warn on overflow instead).
def _hashmix(value, h: int, mult: int = _MULT_A):
    """(value hashed with the hash constant h, the next hash constant)."""
    value = value ^ h
    h = h * mult & _MASK32
    value = value * h & _MASK32
    return value ^ value >> 16, h


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


def _absorb(pool: list, word, h: int) -> int:
    """Mix one entropy word past the pool's first fill into every pool word;
    returns the next hash constant."""
    for dst in range(_POOL_SIZE):
        hashed, h = _hashmix(word, h)
        pool[dst] = _mix(pool[dst], hashed)
    return h


def _seed_words(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """Row i - lo is SeedSequence(master_seed, spawn_key=(i,)).generate_state(4,
    np.uint64), the words PCG64 seeds from, for trials i = lo..hi-1 in one
    pass; hi is at most 2**32, so that each index is one 32-bit word.

    The entropy is master_seed's words, padded with zeros to the pool size
    (a spawn key follows), then the trial index.  The part common to every
    trial is mixed once in Python ints; the indices are then mixed in on a
    uint32 array, one trial per element, and the pool is hashed out into 8
    words read in pairs as little-endian uint64.
    """
    run = _words32(master_seed)
    run += [0] * (_POOL_SIZE - len(run))
    h = _INIT_A
    pool = []
    for word in run[:_POOL_SIZE]:
        word, h = _hashmix(word, h)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], hashed)
    for word in run[_POOL_SIZE:]:
        h = _absorb(pool, word, h)
    mixer = [np.full(hi - lo, word, dtype=np.uint32) for word in pool]
    _absorb(mixer, np.arange(lo, hi, dtype=np.uint32), h)
    state = []
    h = _INIT_B
    for i in range(8):
        word, h = _hashmix(mixer[i % _POOL_SIZE], h, _MULT_B)
        state.append(word)
    return np.stack(state, axis=1).astype("<u4").view("<u8")


def _fill_trial(gen: np.random.Generator, words: np.ndarray, head: np.ndarray,
                xi: np.ndarray, messages: int) -> int:
    """Draw one trial with gen, the per-trial step of every draw, called on
    the thread that draws the trial.

    gen's PCG64 gets the state that PCG64(SeedSequence) seeds from the
    trial's 4 words (_seed_words); then the normals fill `head` (2) and each
    row of `xi` in turn, the stream of one (rows, steps) fill.  Returns the
    message index drawn next, uniform on 1..messages, when messages > 0, and
    0 (not drawn) otherwise.
    """
    # PCG64's seeding: inc = 2 initseq + 1, then two LCG steps from state 0,
    # with initstate added after the first
    w0, w1, w2, w3 = words.tolist()
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128
    gen.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    gen.standard_normal(out=head)
    for row in xi:
        gen.standard_normal(out=row)
    return int(gen.integers(1, messages + 1)) if messages else 0


def _check_memory(cfg: SimConfig, innovations: bool = False, sampler: bool = False) -> int:
    """The bytes a Monte Carlo run on cfg holds at its peak, estimated before
    it allocates anything; raises MemoryBudgetExceeded when they exceed
    physical memory.

    In doubles: for run_sk_scheme and decode_message (sampler False) the
    plan's per-step arrays and their build, 16 (steps + 1), within which
    the dense evaluation of log A stays: it runs first, while only the grid
    is alive, and holds about 10 a step with its temporaries; the per-trial
    rows, trials (OUTPUT_POINTS + 3); one batch of draws, 2 steps + 8 per
    trial of the batch; the kernel's scratch, twice _sk_numpy._budget; and
    the innovations, trials x steps, when kept.  decode_message's number of
    messages adds nothing.  For stationary_arma_noise, 5 (steps, trials)
    arrays, as its recursion and identity check hold four at once, and 16
    (steps + trials) for its per-step and per-trial vectors.
    """
    n, m = cfg.steps, cfg.trials
    if sampler:
        words = 5 * m * n + 16 * (n + m)
    else:
        batch = min(BATCH_SIZE, m)
        words = (16 * (n + 1) + m * (OUTPUT_POINTS + 3)
                 + batch * (2 * n + 8) + 2 * _sk_numpy._budget(batch, n)
                 + (m * n if innovations else 0))
    need = 8 * words
    have = _physical_memory()
    if have is not None and need > have:
        raise MemoryBudgetExceeded(
            f"{m} trials x {n} steps need about {need / 2**30:.3g} GiB, more than "
            f"the {have / 2**30:.3g} GiB of physical memory")
    return need


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
    a path that fails it raises StationarityViolated.  A shape whose arrays
    would exceed physical memory raises MemoryBudgetExceeded first.
    """
    _check_memory(cfg, sampler=True)
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
    # the first row is all the sampler uses, so its draws stop there
    _, zeta0, xi1, _, _ = _draw_batch(cfg.master_seed, 0, m, n, 0, rows=1)
    tail = rho * m_delta * (zeta0 / math.sqrt(2.0 * kappa))
    # time-major: row k holds step k of every trial, so the recursion below
    # runs over time with each step vectorised across trials
    bt = np.empty((n, m))
    np.multiply(xi1.T, sqrt_delta, out=bt)
    # free the draws before the recursion allocates its own (n, m) arrays
    del zeta0, xi1
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
    """The plan: the scheme laid out on the simulation grid for one
    (channel, grid, trajectory), whatever the trials and the seed.

    coeffs holds the filter_batch arguments that follow the per-trial noise:
    (hA, hzeta, K0, K1, K2, inv_sqrt_s, u, sqrt_delta, lam_delta, c1, c2).
    Its arrays are read-only, since one plan serves many calls.
    """

    times: np.ndarray
    log_amp: np.ndarray
    amp: np.ndarray
    var_theta: np.ndarray
    zeta_scale: float
    coeffs: tuple


# (scalars, step table digest, plan) of the last plan _prepare_scheme
# built, or None
_last_plan = None


def _prepare_scheme(params: ChannelParams, cfg: SimConfig, traj: AbelSolution) -> _Scheme:
    """The plan for (params, cfg.horizon, cfg.steps, traj): the last one
    built when the bits of everything it reads match, else a new one, which
    then replaces it: lam, kappa, P, the horizon, the solution's power and
    horizon (so -0.0 and 0.0 differ), the steps, and the sha256 of the
    solution's step table, taken again at each call, so that a table
    changed in place gets a new plan.  Neither cfg.trials nor
    cfg.master_seed enters the plan.  A solution for another power, or one
    that ends short of cfg.horizon, raises ValueError."""
    global _last_plan
    scalars = (struct.pack("<6d", params.lam, params.kappa, params.power, cfg.horizon,
                           traj.power, traj.horizon), cfg.steps)
    digest = hashlib.sha256(traj.steps).digest()
    last = _last_plan
    if last is not None and last[0] == scalars and last[1] == digest:
        return last[2]
    if traj.power != params.power:
        raise ValueError("trajectory was computed for a different power")
    n = cfg.steps
    delta = cfg.delta
    if traj.horizon < n * delta * (1.0 - 1e-9):
        raise ValueError("trajectory horizon shorter than the simulation horizon")
    # the old plan goes before the new one is built
    last = _last_plan = None
    times = np.arange(n + 1) * delta
    log_amp = _dense_output(traj, np.minimum(times, traj.horizon), log_a=True)
    amp = np.exp(log_amp)
    h_amp = amp[:n] * delta
    h_zeta = params.lam * np.exp(-params.kappa * times[:n]) * delta
    k0, k1, k2, inv_sqrt_s, var_theta = _filter_coefficients(params, delta, h_amp, h_zeta)
    for a in (times, log_amp, amp, h_amp, h_zeta, k0, k1, k2, inv_sqrt_s, var_theta):
        a.flags.writeable = False
    u, _, rho, c2 = _step_constants(params, delta)
    sqrt_delta = math.sqrt(delta)
    coeffs = (h_amp, h_zeta, k0, k1, k2, inv_sqrt_s,
              u, sqrt_delta, params.lam * delta, rho / sqrt_delta, c2)
    plan = _Scheme(times=times, log_amp=log_amp, amp=amp, var_theta=var_theta,
                   zeta_scale=1.0 / math.sqrt(2.0 * params.kappa), coeffs=coeffs)
    _last_plan = (scalars, digest, plan)
    return plan


def _draw_batch(master_seed: int, lo: int, hi: int, n: int, messages: int,
                parts: int = 1, rows: int = 2):
    """Trials lo..hi-1 drawn into one (m, 2) head and `rows` (m, n) noise
    buffers: (th0, zeta0, xi1, xi2, message indices), all C-contiguous, and
    xi2 None when rows is 1, which stops each trial's stream after its first
    row (only without messages, which come after the second).  The trials'
    seed words come from _seed_words in one pass; each of `parts` parts,
    run by _on_cpus, keeps one generator and draws every parts-th trial
    with _fill_trial."""
    m = hi - lo
    words = _seed_words(master_seed, lo, hi)
    head = np.empty((m, 2))
    xi = np.empty((rows, m, n))
    sent = np.empty(m, dtype=np.int64)

    def draw(part: int) -> None:
        # seed 0 is a placeholder: _fill_trial sets each trial's state
        gen = np.random.Generator(np.random.PCG64(0))
        for i in range(part, m, parts):
            sent[i] = _fill_trial(gen, words[i], head[i], xi[:, i], messages)

    _on_cpus(draw, parts)
    th0, zeta0 = head.T.copy()
    return th0, zeta0, xi[0], (xi[1] if rows > 1 else None), sent


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parts(rows: int, cols: int) -> int:
    """How many parts a job of `rows` independent rows of `cols` elements
    is split into: one per usable CPU, but never more than its rows, once
    it holds SPLIT_WORK elements; else 1.  A draw batch of BATCH_SIZE trials
    splits only from 6836 steps on, and ljung_box's many short rows split
    as its few long ones do.  Read at each call, so SPLIT_WORK and
    _usable_cpus may be patched."""
    if rows * cols < SPLIT_WORK:
        return 1
    return max(1, min(_usable_cpus(), rows))


def _on_cpus(work, parts: int) -> None:
    """Run work(part) for part = 0..parts-1: part 0 on the calling thread,
    the others on up to parts - 1 helper threads started for this call.
    Returns once every part has ended and every helper has exited, and
    re-raises a part's error.  One part runs without the thread machinery,
    which is not even imported."""
    if parts == 1:
        work(0)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=parts - 1) as pool:
        helpers = [pool.submit(work, part) for part in range(1, parts)]
        work(0)
        for helper in helpers:
            helper.result()


def _run_trials(params: ChannelParams, cfg: SimConfig, traj: AbelSolution,
                out_idx: np.ndarray, messages: int = 0,
                innov_rows: np.ndarray | None = None):
    """Filter all cfg.trials trials, BATCH_SIZE at a time; the one batch loop.

    The plan comes from _prepare_scheme, so a call on the channel, grid and
    trajectory of the last one reuses its plan.  Trial i sends its
    standard-normal Theta0 or, given `messages`, the point (_message_point)
    of the message index 1..messages it draws after its noise block.  The
    batches run one after another on the calling thread, each drawn in the
    parts _parts gives its trials and steps, so one batch of draws is alive
    at a time; each batch looks up _sk_numpy.filter_batch afresh, so a wrapper
    installed between calls sees every batch.  Returns (plan, per-trial
    rows of the squared error at out_idx, terminal estimates, message
    indices); per-trial rows make results independent of batching and
    threads.
    innov_rows, if given, receives the standardized innovations.
    """
    n = cfg.steps
    trials = cfg.trials
    scheme = _prepare_scheme(params, cfg, traj)
    sq_rows = np.empty((trials, out_idx.size))
    mtheta = np.empty(trials)
    sent = np.empty(trials, dtype=np.int64)
    for lo in range(0, trials, BATCH_SIZE):
        hi = min(lo + BATCH_SIZE, trials)
        th0, zeta0, xi1, xi2, sent[lo:hi] = _draw_batch(cfg.master_seed, lo, hi, n,
                                                        messages, _parts(hi - lo, n))
        if messages:
            th0 = np.array([_message_point(w, messages) for w in sent[lo:hi].tolist()])
        zeta0 = zeta0 * scheme.zeta_scale
        innov = None if innov_rows is None else innov_rows[lo:hi]
        _sk_numpy.filter_batch(th0, zeta0, xi1, xi2, *scheme.coeffs,
                               out_idx, sq_rows[lo:hi], mtheta[lo:hi], innov)
        # free this batch's draws before the next batch is drawn
        del th0, zeta0, xi1, xi2
    return scheme, sq_rows, mtheta, sent


def run_sk_scheme(params: ChannelParams, cfg: SimConfig, traj: AbelSolution,
                  return_innovations: bool = False) -> SimReport:
    """Run the feedback scheme for cfg.trials trials and aggregate.

    `traj` is the gain ODE's solution for the same parameters (solve_abel,
    or integrate_abel's trajectory, which carries it) with horizon at least
    cfg.horizon; log A is read on the grid from its dense output.  Results
    are bit-identical for a fixed (master_seed, cfg) however the trials are
    batched and however many threads draw them.  A run whose arrays would exceed physical memory
    raises MemoryBudgetExceeded before it allocates them.
    """
    _check_memory(cfg, innovations=return_innovations)
    n = cfg.steps
    # steps >= 100, so the rounded indices are strictly increasing
    out_idx = np.round(np.linspace(0, n, OUTPUT_POINTS)).astype(np.int64)
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


def _message_point(w: int, messages: int) -> float:
    """Message w's point, the normal quantile Phi^{-1}((w - 1/2)/messages)."""
    from statistics import NormalDist

    return NormalDist().inv_cdf((w - 0.5) / messages)


def _decodes(w: int, estimate: float, messages: int) -> bool:
    """Whether `estimate` is nearer message w's point than the one below and
    no farther than the one above: the nearest point, ties to the lower."""
    gap = abs(_message_point(w, messages) - estimate)
    return ((w == 1 or gap < abs(_message_point(w - 1, messages) - estimate))
            and (w == messages or gap <= abs(_message_point(w + 1, messages) - estimate)))


def decode_message(params: ChannelParams, cfg: SimConfig, traj: AbelSolution,
                   grid_size: int) -> float:
    """Empirical decoding error rate for a grid of `grid_size` messages.

    Message w in {1..M}, drawn after the trial's noise block, maps to the
    point Phi^{-1}((w - 1/2)/M); the decoder picks the point nearest the
    terminal estimate from the sent point and its two neighbours (_decodes),
    so time and memory do not grow with M.  M above 2**40, where the points'
    spacing nears the rounding of the distances, raises ValueError; a run too
    large for physical memory raises MemoryBudgetExceeded before it allocates.
    """
    m_size = _integer("grid_size", grid_size)
    if not 1 <= m_size <= 2**40:
        raise ValueError("grid_size must be between 1 and 2**40")
    if m_size == 1:
        return 0.0
    _check_memory(cfg)
    _, _, mtheta, sent = _run_trials(params, cfg, traj, np.array([cfg.steps]), messages=m_size)
    decoded = sum(_decodes(w, est, m_size) for w, est in zip(sent.tolist(), mtheta.tolist()))
    return (cfg.trials - decoded) / cfg.trials


def ljung_box(innovations: np.ndarray, lags: int = 20) -> np.ndarray:
    """Portmanteau whiteness statistic per trial (rows of `innovations`).

    Q = n(n+2) sum_{j<=L} r_j^2/(n-j); under whiteness Q ~ chi^2(L).  The
    rows are split into contiguous parts, one per usable CPU for a large
    enough job (_parts), and each part works through its rows in blocks:
    each block's squares and lagged products go into the part's own reused
    scratch buffer, so the arithmetic stays in cache, and the parts share
    one budget of _LJUNG_BOX_BLOCK elements.  Every row's sum is still one
    reduction over the same contiguous run of products, so the result is
    bit-identical to forming each full product array, for any number of
    parts.  Helper threads end before the call returns.  Raises ValueError
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
    parts = _parts(m, n)
    # the parts share one scratch budget, each working in its own block
    rows = max(1, _LJUNG_BOX_BLOCK // (parts * n))
    # acf[j] holds each row's sum of v_k v_{k+j}; acf[0] the sum of squares
    acf = np.empty((lags + 1, m))

    def work(part: int) -> None:
        a, b = m * part // parts, m * (part + 1) // parts
        scratch = np.empty((min(rows, b - a), n))
        for lo in range(a, b, rows):
            hi = min(lo + rows, b)
            x = v[lo:hi]
            for j in range(lags + 1):
                t = scratch[:hi - lo, :n - j]
                np.multiply(x[:, :n - j], x[:, j:], out=t)
                np.add.reduce(t, axis=1, out=acf[j, lo:hi])

    _on_cpus(work, parts)
    den = acf[0]
    zero = np.flatnonzero(den == 0.0)
    if zero.size:
        raise ValueError(f"row {zero[0]} has a zero sum of squares")
    q = np.zeros(m)
    for j in range(1, lags + 1):
        r = acf[j] / den
        q += r * r / (n - j)
    return n * (n + 2.0) * q
