import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
import warnings
from array import array
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from scipy.stats import chi2

import oucap.backends as backends
import oucap.simulate as simulate
from oucap import (
    ChannelParams,
    FilterDivergence,
    MemoryBudgetExceeded,
    OucapError,
    SimConfig,
    StationarityViolated,
    abel_for_channel,
    arma_recursion_residual,
    decode_message,
    integrate_abel,
    ljung_box,
    run_sk_scheme,
    solve_abel,
    stationary_arma_noise,
)

from oracles import (
    direct_ljung_box,
    grid_decode,
    joseph_filter_coefficients,
    lazy_grid_decode,
    lfilter_ou_state,
    lfilter_stationary_arma_noise,
    simulate_noise,
    variance_of_z,
)

P_STD = ChannelParams(lam=-1.0, kappa=1.0, power=2.0)


def make_traj(params, horizon):
    return integrate_abel(abel_for_channel(params), horizon=horizon, step=horizon / 1000.0)


@pytest.fixture(scope="module")
def traj_std():
    return make_traj(P_STD, 10.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(horizon=0.0, steps=200, trials=1, master_seed=0)
    with pytest.raises(ValueError):
        SimConfig(horizon=1.0, steps=99, trials=1, master_seed=0)
    with pytest.raises(ValueError):
        SimConfig(horizon=1.0, steps=200, trials=0, master_seed=0)
    with pytest.raises(ValueError):
        SimConfig(horizon=1.0, steps=200, trials=1, master_seed=-3)
    # counts and seeds are integers: a float, a string or a bool is refused
    # here, not later as a misleading trajectory error or a bare TypeError
    for bad in ({"steps": 200.5}, {"steps": 200.0}, {"trials": 3.5}, {"trials": "3"},
                {"master_seed": 1.5}, {"master_seed": None}, {"steps": True},
                {"trials": True}, {"master_seed": True}, {"master_seed": False}):
        with pytest.raises(ValueError, match="must be an integer"):
            SimConfig(**{"horizon": 2.0, "steps": 200, "trials": 3, "master_seed": 1, **bad})
    assert SimConfig(horizon=2.0, steps=np.int64(200), trials=np.int32(3),
                     master_seed=np.uint64(1)).delta == 0.01
    # trial indices are one 32-bit word each in the seed hash
    with pytest.raises(ValueError, match="2\\*\\*32"):
        SimConfig(horizon=1.0, steps=200, trials=2**32 + 1, master_seed=0)
    assert SimConfig(horizon=1.0, steps=200, trials=2**32, master_seed=0).trials == 2**32


@pytest.mark.parametrize("kind", [np.uint32, np.int64, np.uint64])
def test_numpy_integer_config_runs_as_python_ints(traj_std, kind):
    # numpy integers are stored as Python ints, so the seed hash neither
    # overflows nor warns, and the bits are those of the Python-int run
    cfg = SimConfig(horizon=2.0, steps=200, trials=6, master_seed=2**32 - 9)
    np_cfg = SimConfig(horizon=2.0, steps=kind(200), trials=kind(6),
                       master_seed=kind(2**32 - 9))
    assert all(type(getattr(np_cfg, name)) is int for name in ("steps", "trials", "master_seed"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_sk_scheme(P_STD, np_cfg, traj_std)
        noise = stationary_arma_noise(P_STD, np_cfg)
    assert got.mmse_emp.tobytes() == run_sk_scheme(P_STD, cfg, traj_std).mmse_emp.tobytes()
    assert np.array_equal(noise, stationary_arma_noise(P_STD, cfg))


def test_noise_path_white_case_is_pure_brownian():
    cfg = SimConfig(horizon=5.0, steps=500, trials=4, master_seed=11)
    path = simulate_noise(ChannelParams(0.0, 1.0, 1.0), cfg, trial=2)
    assert np.array_equal(path.z_increments, path.brownian_increments)
    assert path.ou_state[0] == 0.0


def test_noise_path_deterministic_per_trial():
    cfg = SimConfig(horizon=5.0, steps=500, trials=4, master_seed=11)
    a = simulate_noise(P_STD, cfg, trial=1)
    b = simulate_noise(P_STD, cfg, trial=1)
    c = simulate_noise(P_STD, cfg, trial=3)
    assert np.array_equal(a.z_increments, b.z_increments)
    assert not np.array_equal(a.z_increments, c.z_increments)
    with pytest.raises(ValueError):
        simulate_noise(P_STD, cfg, trial=4)


def test_noise_ou_one_step_recursion():
    kappa = 0.8
    params = ChannelParams(-0.4, kappa, 1.0)
    cfg = SimConfig(horizon=2.0, steps=200, trials=3000, master_seed=3)
    u = math.exp(-kappa * cfg.delta)
    sig2 = -math.expm1(-2.0 * kappa * cfg.delta) / (2.0 * kappa)
    for i in range(0, cfg.trials, 500):
        path = simulate_noise(params, cfg, trial=i)
        eta = path.ou_state[1:] - u * path.ou_state[:-1]
        # increments must be mean-zero with the exact one-step variance
        z = np.mean(eta) / math.sqrt(sig2 / eta.size)
        assert abs(z) < 5.0
        ratio = np.var(eta) / sig2
        assert abs(ratio - 1.0) < 5.0 * math.sqrt(2.0 / eta.size)


def test_tail_variance_across_trials():
    kappa = 1.3
    params = ChannelParams(-0.5, kappa, 1.0)
    trials = 4000
    cfg = SimConfig(horizon=1.0, steps=100, trials=trials, master_seed=21)
    tails = np.array([simulate_noise(params, cfg, trial=i).tail for i in range(trials)])
    target = 1.0 / (2.0 * kappa)
    emp = np.var(tails)
    se = target * math.sqrt(2.0 / trials)
    assert abs(emp - target) < 3.0 * se


def test_terminal_noise_variance_matches_quadrature_oracle():
    params = ChannelParams(1.0, 1.0, 1.0)
    horizon = 10.0
    trials = 4000
    cfg = SimConfig(horizon=horizon, steps=2000, trials=trials, master_seed=9)
    z_final = np.empty(trials)
    for i in range(trials):
        z_final[i] = simulate_noise(params, cfg, trial=i).z_increments.sum()
    oracle = variance_of_z(1.0, 1.0, horizon)
    emp = np.var(z_final)
    se = oracle * math.sqrt(2.0 / trials)
    # 3 sigma Monte Carlo band plus a small Euler-drift allowance
    assert abs(emp - oracle) < 3.0 * se + 0.3


def test_stationary_noise_recursion_and_flat_variance():
    params = ChannelParams(-1.0, 1.0, 1.0)
    cfg = SimConfig(horizon=10.0, steps=200, trials=3000, master_seed=17)
    z = stationary_arma_noise(params, cfg)
    assert z.shape == (3000, 200)
    scaled_var = np.var(z, axis=0) / cfg.delta
    # no index trend: the spread across indices stays inside the sampling band
    level = scaled_var.mean()
    se = level * math.sqrt(2.0 / cfg.trials)
    assert scaled_var.max() - scaled_var.min() < 8.0 * se


def test_stationary_noise_white_case_is_brownian():
    params = ChannelParams(0.0, 1.0, 1.0)
    cfg = SimConfig(horizon=5.0, steps=150, trials=4, master_seed=23)
    z = stationary_arma_noise(params, cfg)
    # with lam = 0 the tail weight vanishes: rows are raw Brownian increments
    for i in range(cfg.trials):
        g = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(cfg.master_seed).spawn(cfg.trials)[i])
        )
        g.standard_normal(2)
        xi = g.standard_normal((2, cfg.steps))
        assert np.array_equal(z[i], math.sqrt(cfg.delta) * xi[0])


# colored gain (critical and offset) and white equivalent (above and below)
REGIMES = [-1.0, -0.4, 0.5, -2.6]


@pytest.mark.parametrize("lam", REGIMES)
def test_ou_state_bit_identical_to_lfilter_oracle(lam):
    params = ChannelParams(lam, 1.3, 1.0)
    cfg = SimConfig(horizon=4.0, steps=3000, trials=3, master_seed=41)
    for i in range(cfg.trials):
        path = simulate_noise(params, cfg, trial=i)
        assert np.array_equal(path.ou_state, lfilter_ou_state(params, cfg, i))


@pytest.mark.parametrize("lam", REGIMES)
def test_stationary_noise_bit_identical_to_lfilter_oracle(lam):
    params = ChannelParams(lam, 1.3, 1.0)
    cfg = SimConfig(horizon=10.0, steps=200, trials=37, master_seed=43)
    z = stationary_arma_noise(params, cfg)
    assert z.flags.c_contiguous
    assert np.array_equal(z, lfilter_stationary_arma_noise(params, cfg))


def test_stationary_noise_identity_failure_is_typed(monkeypatch):
    params = ChannelParams(-0.7, 1.0, 1.0)
    cfg = SimConfig(horizon=10.0, steps=200, trials=2, master_seed=29)
    exact = simulate._step_constants

    def perturbed(p, delta):
        u, sig2, rho, c2 = exact(p, delta)
        return u, sig2, rho * (1.0 + 1e-3), c2

    monkeypatch.setattr(simulate, "_step_constants", perturbed)
    with pytest.raises(StationarityViolated) as info:
        stationary_arma_noise(params, cfg)
    assert isinstance(info.value, OucapError)


def test_recursion_residual_helper():
    params = ChannelParams(-0.7, 1.0, 1.0)
    cfg = SimConfig(horizon=10.0, steps=200, trials=5, master_seed=29)
    z = stationary_arma_noise(params, cfg)
    for i in range(cfg.trials):
        g = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(cfg.master_seed).spawn(cfg.trials)[i])
        )
        g.standard_normal(2)
        xi = g.standard_normal((2, cfg.steps))
        b = math.sqrt(cfg.delta) * xi[0]
        assert arma_recursion_residual(z[i], b, params, cfg.delta) < 1e-12


def test_run_sk_deterministic_and_backend_independent():
    cfg = SimConfig(horizon=5.0, steps=500, trials=300, master_seed=31)
    traj = make_traj(P_STD, 5.0)
    a = run_sk_scheme(P_STD, cfg, traj)
    b = run_sk_scheme(P_STD, cfg, traj)
    assert np.array_equal(a.mmse_emp, b.mmse_emp)
    assert np.array_equal(a.power_emp, b.power_emp)
    # the one kernel, reached through oucap.backends
    assert backends.get_backend() is backends._sk_numpy


def test_run_sk_batch_size_invariance(traj_std, monkeypatch):
    cfg = SimConfig(horizon=10.0, steps=300, trials=257, master_seed=37)
    # a short horizon, so that decoding makes errors
    dcfg = replace(cfg, horizon=2.0)
    a = run_sk_scheme(P_STD, cfg, traj_std)
    err_a = decode_message(P_STD, dcfg, traj_std, grid_size=64)
    assert 0.0 < err_a < 1.0
    monkeypatch.setattr(simulate, "BATCH_SIZE", 32)
    b = run_sk_scheme(P_STD, cfg, traj_std)
    assert np.array_equal(a.mmse_emp, b.mmse_emp)
    assert np.array_equal(a.mmse_hw, b.mmse_hw)
    assert decode_message(P_STD, dcfg, traj_std, grid_size=64) == err_a


def test_run_sk_thread_invariance(traj_std, monkeypatch):
    cfg = SimConfig(horizon=10.0, steps=300, trials=500, master_seed=41)
    dcfg = replace(cfg, horizon=2.0)  # decoding makes errors
    monkeypatch.setattr(simulate, "BATCH_SIZE", 64)
    one = run_sk_scheme(P_STD, cfg, traj_std)
    err_one = decode_message(P_STD, dcfg, traj_std, grid_size=64)
    assert 0.0 < err_one < 1.0
    # each batch's draws split over 1 and 4 threads, forced on at 64 x 300
    monkeypatch.setattr(simulate, "SPLIT_WORK", 0)
    on_cpus = simulate._on_cpus
    batches = []

    def spy_on_cpus(work, parts):
        ran = []  # (part, thread) for each part of this batch
        batches.append(ran)

        def traced(part):
            ran.append((part, threading.get_ident()))
            work(part)

        on_cpus(traced, parts)

    monkeypatch.setattr(simulate, "_on_cpus", spy_on_cpus)
    caller = threading.get_ident()
    for width in (1, 4):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: width)
        batches.clear()
        split = run_sk_scheme(P_STD, cfg, traj_std)
        # _on_cpus promises part 0 on the calling thread and the others on
        # helpers; a helper may run several parts, so threads are not counted
        assert len(batches) == math.ceil(cfg.trials / simulate.BATCH_SIZE)
        for ran in batches:
            assert sorted(part for part, _ in ran) == list(range(width))
            assert all((thread == caller) == (part == 0) for part, thread in ran)
        assert np.array_equal(one.mmse_emp, split.mmse_emp)
        assert decode_message(P_STD, dcfg, traj_std, grid_size=64) == err_one
    monkeypatch.setattr(simulate, "_on_cpus", on_cpus)
    # two threads fill the batch buffers with each trial's own draws
    lo, hi, messages = 3, 70, 64
    th0, zeta0, xi1, xi2, sent = simulate._draw_batch(cfg.master_seed, lo, hi, cfg.steps,
                                                      messages, 2)
    # each trial drawn alone, as a batch of one
    trials = [simulate._draw_batch(cfg.master_seed, i, i + 1, cfg.steps, messages)
              for i in range(lo, hi)]
    for got, alone in zip((th0, zeta0, xi1, xi2, sent), zip(*trials)):
        assert np.array_equal(got, np.concatenate(alone))
    assert 1 <= sent.min() < sent.max() <= messages
    monkeypatch.undo()
    monkeypatch.setattr(simulate, "BATCH_SIZE", 64)

    kern = backends.get_backend()
    original = kern.filter_batch
    callers = set()

    def spy(*args):
        callers.add(threading.get_ident())
        return original(*args)

    monkeypatch.setattr(kern, "filter_batch", spy)
    a = run_sk_scheme(P_STD, cfg, traj_std)
    # the batches are filtered one after another on the calling thread
    assert callers == {threading.get_ident()}
    assert np.array_equal(one.mmse_emp, a.mmse_emp)


def test_run_sk_bits_do_not_depend_on_blas_threads():
    # the filter's matrix products run in BLAS: a seeded run gives the same
    # bytes on one BLAS thread as on BLAS's default thread count
    body = """
import hashlib
from oucap import ChannelParams, SimConfig, abel_for_channel, integrate_abel, run_sk_scheme
params = ChannelParams(-0.5, 1.0, 2.0)
cfg = SimConfig(horizon=5.0, steps=3000, trials=600, master_seed=89)
traj = integrate_abel(abel_for_channel(params), horizon=5.0, step=0.005)
rep = run_sk_scheme(params, cfg, traj, return_innovations=True)
print(hashlib.sha256(rep.mmse_emp.tobytes() + rep.innovations.tobytes()).hexdigest())
"""
    src = str(Path(simulate.__file__).resolve().parent.parent)
    digests = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", body], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_filter_gets_c_contiguous_buffers(traj_std, monkeypatch):
    # each trial's normals are drawn in place into its rows, which a normal
    # fill needs C-contiguous, and the kernel is handed those same buffers:
    # every array it gets is C-contiguous, on the serial and on the split
    # draw path alike
    monkeypatch.setattr(simulate, "BATCH_SIZE", 16)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    kern = backends.get_backend()
    original = kern.filter_batch
    handed = []

    def spy(*args):
        handed.extend(a for a in args if isinstance(a, np.ndarray))
        return original(*args)

    monkeypatch.setattr(kern, "filter_batch", spy)
    cfg = SimConfig(horizon=2.0, steps=200, trials=40, master_seed=5)
    for split_work, parts in ((simulate.SPLIT_WORK, 1), (0, 2)):
        monkeypatch.setattr(simulate, "SPLIT_WORK", split_work)
        for arr in simulate._draw_batch(cfg.master_seed, 3, 37, cfg.steps, 16, parts):
            assert arr.flags.c_contiguous
        handed.clear()
        run_sk_scheme(P_STD, cfg, traj_std, return_innovations=True)
        decode_message(P_STD, cfg, traj_std, grid_size=16)
        assert len(handed) > 0
        assert all(arr.flags.c_contiguous for arr in handed)


def test_usable_cpus_follow_the_affinity_set(monkeypatch):
    assert 1 <= simulate._usable_cpus() <= (os.cpu_count() or 1)
    # the draw threads never exceed the usable CPUs, which an affinity set
    # narrows below the machine's count
    for affinity in ({0}, {0, 1, 2}, set(range(8))):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        assert simulate._usable_cpus() == len(affinity)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert simulate._usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert simulate._usable_cpus() == 1


def test_one_usable_cpu_draws_on_the_calling_thread(traj_std, monkeypatch):
    # pinned to one CPU, a long-trial run starts no thread: its draws and
    # its filtering stay on the calling thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(simulate, "SPLIT_WORK", 0)
    monkeypatch.setattr(simulate, "BATCH_SIZE", 16)
    original = simulate._fill_trial
    callers = set()

    def spy(*args):
        callers.add(threading.get_ident())
        return original(*args)

    monkeypatch.setattr(simulate, "_fill_trial", spy)
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: pytest.fail("a thread was started"))
    cfg = SimConfig(horizon=2.0, steps=200, trials=40, master_seed=5)
    run_sk_scheme(P_STD, cfg, traj_std)
    decode_message(P_STD, cfg, traj_std, grid_size=16)
    assert callers == {threading.get_ident()}


def test_split_draws_leave_no_thread_behind(traj_std, monkeypatch):
    monkeypatch.setattr(simulate, "SPLIT_WORK", 0)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(simulate, "BATCH_SIZE", 16)
    cfg = SimConfig(horizon=2.0, steps=200, trials=40, master_seed=5)
    before = threading.active_count()
    run_sk_scheme(P_STD, cfg, traj_std)
    assert threading.active_count() == before
    decode_message(P_STD, cfg, traj_std, grid_size=16)
    assert threading.active_count() == before


def test_split_rule_repays_a_thread_start(monkeypatch):
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    # benchmark shapes: the batches of 512 x 1e4 and 64 x 1e5 and a
    # Ljung-Box of 64 x 1e5 split; a CLI run of 50 x 1000 and the noise
    # sampler's 1e4 x 200 do not
    for rows, cols, parts in ((512, 10_000, 2), (64, 100_000, 2),
                              (50, 1000, 1), (10_000, 200, 1), (50, 10_000, 1)):
        assert simulate._parts(rows, cols) == parts
    # never more parts than rows
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 8)
    assert [simulate._parts(rows, 10**7) for rows in (1, 3, 20)] == [1, 3, 8]
    # the work threshold alone keeps a draw batch with short rows, whose
    # trials' set-up holds the GIL, on one part at any CPU count
    assert simulate.SPLIT_WORK >= simulate.BATCH_SIZE * 2048
    for cpus in (1, 2, 3, 8, 64):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        for rows in (1, 2, 100, simulate.BATCH_SIZE - 1, simulate.BATCH_SIZE):
            assert all(simulate._parts(rows, cols) == 1
                       for cols in (1, 100, 1000, 2000, 2047))


def test_short_run_on_two_cpus_draws_on_the_calling_thread(traj_std, monkeypatch):
    # 50 trials x 1e4 steps, `oucap simulate --trials 50`, is too little
    # work to repay a thread's start: two usable CPUs, yet no thread starts
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    original = simulate._fill_trial
    callers = set()

    def spy(*args):
        callers.add(threading.get_ident())
        return original(*args)

    monkeypatch.setattr(simulate, "_fill_trial", spy)
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: pytest.fail("a thread was started"))
    cfg = SimConfig(horizon=10.0, steps=10_000, trials=50, master_seed=5)
    run_sk_scheme(P_STD, cfg, traj_std)
    assert callers == {threading.get_ident()}


def _contract_draws(seed, steps, messages):
    """(head, xi, message) drawn by numpy's own generator from `seed`, in
    the randomness contract's order."""
    g = np.random.Generator(np.random.PCG64(seed))
    head = g.standard_normal(2)
    xi = g.standard_normal((2, steps))
    return head, xi, int(g.integers(1, messages + 1)) if messages else 0


# SimConfig keeps trial indices below 2**32, one 32-bit word each
SEED_WINDOWS = [(0, 70), (2**32 - 4, 2**32)]


@pytest.mark.parametrize("master_seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**96,
                                         2**128 - 1, 2**128 + 1, 2**200 + 3])
def test_seed_words_and_draws_match_numpy(master_seed):
    # every trial's PCG64 state comes from one vectorised pass over the
    # window; it must be numpy's own, up to the last trial index and for
    # master seeds longer than the pool
    steps, messages = 12, 40
    for lo, hi in SEED_WINDOWS:
        words = simulate._seed_words(master_seed, lo, hi)
        assert words.shape == (hi - lo, 4) and words.dtype == np.uint64
        th0, zeta0, xi1, xi2, sent = simulate._draw_batch(master_seed, lo, hi, steps, messages)
        for i in range(lo, hi):
            child = np.random.SeedSequence(master_seed, spawn_key=(i,))
            assert np.array_equal(words[i - lo], child.generate_state(4, np.uint64))
            head, xi, message = _contract_draws(child, steps, messages)
            assert (th0[i - lo], zeta0[i - lo]) == tuple(head)
            assert np.array_equal(xi1[i - lo], xi[0]) and np.array_equal(xi2[i - lo], xi[1])
            assert sent[i - lo] == message


def test_draws_follow_the_contracts_spawned_children():
    # the contract's literal form: child i of SeedSequence(master_seed).spawn(trials)
    master_seed, trials, steps, messages = 2**70 + 3, 40, 30, 64
    th0, zeta0, xi1, xi2, sent = simulate._draw_batch(master_seed, 0, trials, steps, messages,
                                                      parts=2)
    for i, child in enumerate(np.random.SeedSequence(master_seed).spawn(trials)):
        head, xi, message = _contract_draws(child, steps, messages)
        assert (th0[i], zeta0[i]) == tuple(head)
        assert np.array_equal(xi1[i], xi[0]) and np.array_equal(xi2[i], xi[1])
        assert sent[i] == message


def test_no_generator_is_set_up_per_trial(traj_std, monkeypatch):
    # each drawing thread builds one PCG64 for its batch and reseeds it per
    # trial from the batch's seed words; a batch builds at most one
    # SeedSequence, SeedSequence(master_seed) for its pool, and no trial one
    made, seeded = [], []

    # named PCG64, since the state setter checks the class name
    class PCG64(np.random.PCG64):
        def __init__(self, *args):
            made.append(threading.get_ident())
            super().__init__(*args)

    real_seed_sequence = np.random.SeedSequence

    def counted_seed_sequence(*args, **kwargs):
        seeded.append((args, kwargs))
        return real_seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "PCG64", PCG64)
    monkeypatch.setattr(np.random, "SeedSequence", counted_seed_sequence)
    monkeypatch.setattr(simulate, "BATCH_SIZE", 16)
    cfg = SimConfig(horizon=2.0, steps=200, trials=40, master_seed=5)
    batches = math.ceil(cfg.trials / simulate.BATCH_SIZE)
    monkeypatch.setattr(simulate, "SPLIT_WORK", 0)
    for width in (1, 2):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: width)
        for run in (lambda: run_sk_scheme(P_STD, cfg, traj_std),
                    lambda: decode_message(P_STD, cfg, traj_std, grid_size=16)):
            made.clear()
            seeded.clear()
            run()
            assert made.count(threading.get_ident()) == batches
            assert len(made) <= batches * width
            assert len(seeded) <= batches
            assert seeded == [((cfg.master_seed,), {})] * len(seeded)
    made.clear()
    seeded.clear()
    stationary_arma_noise(ChannelParams(-0.7, 1.0, 1.0), cfg)
    assert made == [threading.get_ident()]
    assert seeded == [((cfg.master_seed,), {})]


def test_noise_sampler_draws_one_row_per_trial(monkeypatch):
    # the sampler uses each trial's head and first row, so its draws hold
    # one (trials, steps) buffer: a second row's buffer would double them
    params = ChannelParams(-0.7, 1.0, 1.0)
    cfg = SimConfig(horizon=10.0, steps=200, trials=2000, master_seed=29)
    draw_batch = simulate._draw_batch
    peaks = []

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            out = draw_batch(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(simulate, "_draw_batch", traced)
    stationary_arma_noise(params, cfg)
    buffer_bytes = cfg.trials * cfg.steps * 8
    assert len(peaks) == 1 and buffer_bytes < peaks[0] < 1.5 * buffer_bytes


@pytest.mark.parametrize("lam,kappa", [
    (-0.5, 1.0),   # colored
    (-1.0, 1.0),   # critical, lam = -kappa
    (0.5, 1.0),    # white-equivalent, lam >= 0
    (-2.0, 1.0),   # white-equivalent boundary, lam = -2 kappa
])
def test_filter_coefficients_match_joseph_oracle(lam, kappa):
    params = ChannelParams(lam, kappa, 2.0)
    horizon = 10.0
    cfg = SimConfig(horizon=horizon, steps=20000, trials=1, master_seed=0)
    scheme = simulate._prepare_scheme(params, cfg, make_traj(params, horizon))
    got = scheme.coeffs[2:6] + (scheme.var_theta,)
    want = joseph_filter_coefficients(params, cfg, scheme.amp)
    for g, w in zip(got, want):
        scale = np.max(np.abs(w))
        assert np.max(np.abs(g - w)) <= 1e-12 * scale


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_amplitude_raises_filter_divergence(bad):
    cfg = SimConfig(horizon=1.0, steps=200, trials=1, master_seed=0)
    h_amp = np.full(cfg.steps, cfg.delta)
    h_amp[37] = bad
    h_zeta = P_STD.lam * np.exp(-P_STD.kappa * np.arange(cfg.steps) * cfg.delta) * cfg.delta
    with pytest.raises(FilterDivergence, match="at step 37"):
        simulate._filter_coefficients(P_STD, cfg.delta, h_amp, h_zeta)


def test_white_channel_mmse_matches_exponential_law(traj_std):
    params = ChannelParams(0.0, 1.0, 2.0)
    traj = make_traj(params, 10.0)
    cfg = SimConfig(horizon=10.0, steps=2000, trials=2000, master_seed=43)
    rep = run_sk_scheme(params, cfg, traj)
    # analytic MMSE for P=2 white: (1 + int 2e^{2s})^{-1} = e^{-2t}
    assert np.allclose(rep.mmse_analytic, np.exp(-2.0 * rep.times), rtol=1e-8)
    sig = rep.mmse_hw / 1.96
    allow = 3.0 * sig + 10.0 * cfg.delta * rep.mmse_analytic
    assert np.all(np.abs(rep.mmse_emp - rep.mmse_analytic) <= allow)
    assert rep.empirical_rate == pytest.approx(1.0, abs=1e-9)


def test_mmse_keeps_its_digits_at_horizon_40():
    # criterion 5's bound far past the horizon where th0 - m0 would be all
    # rounding: the analytic MMSE at T = 40 is about 3.6e-54, while a filter
    # that carries the estimate m0 stalls near (eps * |th0|)^2 ~ 1e-32
    params = ChannelParams(-0.5, 1.0, 2.0)
    cfg = SimConfig(horizon=40.0, steps=4000, trials=1000, master_seed=0)
    rep = run_sk_scheme(params, cfg, make_traj(params, cfg.horizon))
    assert rep.mmse_analytic[-1] < 1e-50
    sig = rep.mmse_hw / 1.96
    allow = 3.0 * sig + 10.0 * cfg.delta * rep.mmse_analytic
    assert np.all(np.abs(rep.mmse_emp - rep.mmse_analytic) <= allow)


def test_filter_variance_tracks_analytic_with_first_order_bias():
    params = P_STD
    traj = make_traj(params, 6.0)
    rel = {}
    for steps in (600, 1200):
        cfg = SimConfig(horizon=6.0, steps=steps, trials=1, master_seed=1)
        rep = run_sk_scheme(params, cfg, traj)
        err = np.abs(rep.mmse_filter - rep.mmse_analytic) / rep.mmse_analytic
        rel[steps] = err.max()
        assert rel[steps] < 6.0 * cfg.delta
    ratio = rel[600] / rel[1200]
    assert 1.5 < ratio < 2.7  # halving delta roughly halves the bias


def test_output_indices_strictly_increase_from_the_smallest_step_count():
    # SimConfig takes steps >= 100, so the 101 rounded indices of run_sk_scheme's
    # output grid are distinct without a dedupe
    for n in (*range(100, 20001), 100000, 123457, 999999, 1000000):
        idx = np.round(np.linspace(0, n, simulate.OUTPUT_POINTS)).astype(np.int64)
        assert idx.size == 101 and np.all(idx[1:] > idx[:-1]), n


def test_power_curve_flat_at_budget(traj_std):
    cfg = SimConfig(horizon=10.0, steps=2000, trials=3000, master_seed=47)
    rep = run_sk_scheme(P_STD, cfg, traj_std)
    sig = rep.power_hw / 1.96
    assert np.all(np.abs(rep.power_emp - P_STD.power) <= 3.0 * sig + 1e-12)


def test_innovations_are_white(traj_std):
    cfg = SimConfig(horizon=10.0, steps=2000, trials=200, master_seed=53)
    rep = run_sk_scheme(P_STD, cfg, traj_std, return_innovations=True)
    assert rep.innovations.shape == (200, 2000)
    lags = 20
    stats = ljung_box(rep.innovations, lags=lags)
    accepted = np.mean(stats < chi2.ppf(0.99, lags))
    assert accepted >= 0.95
    # standardized innovations should also have near-unit variance
    v = rep.innovations.var()
    assert abs(v - 1.0) < 0.02


def test_trials_one_reports_infinite_half_widths(traj_std):
    cfg = SimConfig(horizon=10.0, steps=200, trials=1, master_seed=59)
    rep = run_sk_scheme(P_STD, cfg, traj_std)
    assert np.all(np.isinf(rep.mmse_hw))
    assert np.all(np.isinf(rep.power_hw))


def test_traj_mismatch_raises(traj_std):
    cfg = SimConfig(horizon=20.0, steps=2000, trials=2, master_seed=61)
    with pytest.raises(ValueError):
        run_sk_scheme(P_STD, cfg, traj_std)  # horizon too short
    other = ChannelParams(-1.0, 1.0, 1.0)
    cfg2 = SimConfig(horizon=10.0, steps=200, trials=2, master_seed=61)
    with pytest.raises(ValueError):
        run_sk_scheme(other, cfg2, traj_std)  # power mismatch


def test_short_trajectory_is_refused_at_a_tiny_horizon():
    # the guard is relative to the horizon: a trajectory of half the horizon
    # is refused at T = 1e-10 as at T = 10, not held flat over the rest
    traj = integrate_abel(abel_for_channel(P_STD), horizon=5e-11, step=5e-14)
    cfg = SimConfig(horizon=1e-10, steps=100, trials=2, master_seed=61)
    with pytest.raises(ValueError, match="horizon shorter"):
        run_sk_scheme(P_STD, cfg, traj)
    # a trajectory of the full tiny horizon is accepted
    full = integrate_abel(abel_for_channel(P_STD), horizon=1e-10, step=1e-13)
    assert np.all(np.isfinite(run_sk_scheme(P_STD, cfg, full).mmse_emp))


def _count_filter_coefficients(monkeypatch):
    """A list that gains an entry each time simulate._filter_coefficients
    runs, with the plan cache emptied first."""
    calls = []
    original = simulate._filter_coefficients

    def spy(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(simulate, "_filter_coefficients", spy)
    monkeypatch.setattr(simulate, "_last_plan", None)
    return calls


def test_plan_is_built_once_for_a_channel_and_grid(traj_std, monkeypatch):
    calls = _count_filter_coefficients(monkeypatch)
    cfg = SimConfig(horizon=2.0, steps=300, trials=40, master_seed=5)
    rep = run_sk_scheme(P_STD, cfg, traj_std, return_innovations=True)
    # other seeds and trial counts share the plan
    decode_message(P_STD, replace(cfg, trials=70, master_seed=6), traj_std, grid_size=16)
    run_sk_scheme(P_STD, replace(cfg, trials=3, master_seed=7), traj_std)
    assert len(calls) == 1
    # a warm plan gives the bits of a cold one
    warm = run_sk_scheme(P_STD, cfg, traj_std, return_innovations=True)
    monkeypatch.setattr(simulate, "_last_plan", None)
    cold = run_sk_scheme(P_STD, cfg, traj_std, return_innovations=True)
    assert len(calls) == 2
    for a, b, c in ((rep.mmse_emp, warm.mmse_emp, cold.mmse_emp),
                    (rep.power_emp, warm.power_emp, cold.power_emp),
                    (rep.mmse_filter, warm.mmse_filter, cold.mmse_filter),
                    (rep.innovations, warm.innovations, cold.innovations)):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def test_plan_is_rebuilt_when_what_it_reads_changes(traj_std, monkeypatch):
    calls = _count_filter_coefficients(monkeypatch)
    cfg = SimConfig(horizon=2.0, steps=300, trials=4, master_seed=5)
    other_power = ChannelParams(P_STD.lam, P_STD.kappa, 1.0)
    white = ChannelParams(0.0, 1.0, 2.0)
    white_traj = make_traj(white, 2.0)
    moved = replace(traj_std, steps=array("d", traj_std.steps))
    runs = [
        (P_STD, cfg, traj_std),
        (P_STD, replace(cfg, steps=301), traj_std),
        (P_STD, replace(cfg, horizon=2.5), traj_std),
        (other_power, cfg, make_traj(other_power, 2.0)),
        (white, cfg, white_traj),
        (ChannelParams(-0.0, 1.0, 2.0), cfg, white_traj),
        (P_STD, cfg, traj_std),
    ]
    for params, c, traj in runs:
        run_sk_scheme(params, c, traj)
    assert len(calls) == len(runs)
    # solutions are compared by their step tables: an equal copy shares the
    # plan, until it is changed in place
    run_sk_scheme(P_STD, cfg, moved)
    assert len(calls) == len(runs)
    moved.steps[-1] += 1e-12  # the last step's last slope of log A
    run_sk_scheme(P_STD, cfg, moved)
    assert len(calls) == len(runs) + 1
    run_sk_scheme(P_STD, cfg, moved)
    assert len(calls) == len(runs) + 1
    # by bits, as the scalars are: -0.0 in place of 0.0 is a change too
    assert moved.steps[0] == 0.0 and not math.copysign(1.0, moved.steps[0]) < 0
    moved.steps[0] = -0.0
    run_sk_scheme(P_STD, cfg, moved)
    assert len(calls) == len(runs) + 2
    # the solution's horizon, which the plan reads, is part of the key
    run_sk_scheme(P_STD, cfg, replace(moved, horizon=math.nextafter(moved.horizon, math.inf)))
    assert len(calls) == len(runs) + 3


def test_the_run_reads_the_solution_not_its_samples(monkeypatch):
    # the plan evaluates log A from the solution's step table, so the
    # solution and trajectories sampled at any step give the same bytes
    coeffs = abel_for_channel(P_STD)
    cfg = SimConfig(horizon=2.0, steps=300, trials=4, master_seed=5)
    reports = []
    for traj in (solve_abel(coeffs, 2.0), integrate_abel(coeffs, 2.0, 2.0 / 300),
                 integrate_abel(coeffs, 2.0, 2.0 / 1000)):
        monkeypatch.setattr(simulate, "_last_plan", None)
        reports.append(run_sk_scheme(P_STD, cfg, traj, return_innovations=True))
    for rep in reports[1:]:
        for name in ("times", "mmse_emp", "mmse_analytic", "power_emp", "mmse_filter",
                     "innovations"):
            assert getattr(rep, name).tobytes() == getattr(reports[0], name).tobytes()
        assert rep.empirical_rate == reports[0].empirical_rate


def test_plan_gain_is_the_sampled_dense_output_at_a_coarse_grid():
    # at 150 steps the plan's log A is integrate_abel's sample at T/150 on
    # every interior point, bit for bit: no interpolation between samples
    horizon, steps = 10.0, 150
    coeffs = abel_for_channel(P_STD)
    cfg = SimConfig(horizon=horizon, steps=steps, trials=1, master_seed=5)
    plan = simulate._prepare_scheme(P_STD, cfg, solve_abel(coeffs, horizon))
    traj = integrate_abel(coeffs, horizon, horizon / steps)
    assert np.array_equal(plan.times[1:-1], traj.times[1:-1])
    assert np.array_equal(plan.log_amp[1:-1], traj.log_a[1:-1])


def test_plan_arrays_are_read_only(traj_std):
    cfg = SimConfig(horizon=2.0, steps=300, trials=4, master_seed=5)
    plan = simulate._prepare_scheme(P_STD, cfg, traj_std)
    arrays = [plan.times, plan.log_amp, plan.amp, plan.var_theta]
    arrays += [a for a in plan.coeffs if isinstance(a, np.ndarray)]
    assert len(arrays) == 10
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_threads_sharing_the_plan_cache_get_their_own_plans(traj_std):
    # threads on two grids replace each other's plan all the time; each
    # call must still run on the plan of its own inputs
    cfgs = [SimConfig(horizon=2.0, steps=steps, trials=8, master_seed=5) for steps in (200, 240)]
    want = [run_sk_scheme(P_STD, c, traj_std).mmse_emp for c in cfgs]
    bad = []

    def work(k):
        for i in range(10):
            c = cfgs[(k + i) % 2]
            if not np.array_equal(run_sk_scheme(P_STD, c, traj_std).mmse_emp,
                                  want[(k + i) % 2]):
                bad.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def test_kernel_hook_sees_every_batch_of_a_warm_plan(traj_std, monkeypatch):
    # perfbench wraps get_backend().filter_batch after a warm-up call has
    # built the plan; each batch of a later call must still go through it
    cfg = SimConfig(horizon=2.0, steps=100, trials=1100, master_seed=5)
    run_sk_scheme(P_STD, replace(cfg, trials=1), traj_std)
    plan = simulate._last_plan
    kern = backends.get_backend()
    original = kern.filter_batch
    calls = []

    def spy(*args):
        calls.append(args[2].shape[0])
        return original(*args)

    monkeypatch.setattr(kern, "filter_batch", spy)
    run_sk_scheme(P_STD, cfg, traj_std)
    assert simulate._last_plan is plan
    assert len(calls) == math.ceil(cfg.trials / simulate.BATCH_SIZE)
    assert sum(calls) == cfg.trials


def test_decode_trivial_and_two_messages(traj_std):
    params = ChannelParams(0.0, 1.0, 2.0)
    traj = make_traj(params, 10.0)
    cfg = SimConfig(horizon=10.0, steps=1000, trials=2000, master_seed=67)
    assert decode_message(params, cfg, traj, grid_size=1) == 0.0
    err = decode_message(params, cfg, traj, grid_size=2)
    assert err < 1e-3
    with pytest.raises(ValueError):
        decode_message(params, cfg, traj, grid_size=0)
    # a grid size is an integer: 2.5 is refused, not truncated to 2, and
    # True is not the one-message grid
    for bad in (2.5, 2.0, "8", None, True):
        with pytest.raises(ValueError, match="grid_size must be an integer"):
            decode_message(params, cfg, traj, grid_size=bad)
    assert decode_message(params, cfg, traj, grid_size=np.int64(2)) == err


def test_decode_error_rate_decreases_with_horizon():
    params = ChannelParams(0.0, 1.0, 2.0)
    rate = 0.8  # fraction of capacity P/2 = 1
    errs = []
    for horizon in (5.0, 10.0):
        traj = make_traj(params, horizon)
        cfg = SimConfig(horizon=horizon, steps=int(200 * horizon), trials=1500,
                        master_seed=71)
        m = max(2, int(math.exp(rate * horizon)))
        errs.append(decode_message(params, cfg, traj, grid_size=m))
    assert errs[1] <= errs[0]
    assert errs[0] < 0.2


def test_decode_message_draws_each_message_after_its_noise(traj_std):
    # the randomness contract: trial i's message index is the first integer
    # its generator draws after the noise block
    cfg = SimConfig(horizon=2.0, steps=300, trials=100, master_seed=79)
    m_size = 64
    grid = np.array([NormalDist().inv_cdf((w - 0.5) / m_size) for w in range(1, m_size + 1)])
    scheme = simulate._prepare_scheme(P_STD, cfg, traj_std)
    sent = np.empty(cfg.trials, dtype=np.int64)
    zeta0 = np.empty(cfg.trials)
    xi1 = np.empty((cfg.trials, cfg.steps))
    xi2 = np.empty((cfg.trials, cfg.steps))
    children = np.random.SeedSequence(cfg.master_seed).spawn(cfg.trials)
    for i, child in enumerate(children):
        g = np.random.Generator(np.random.PCG64(child))
        zeta0[i] = g.standard_normal(2)[1] * scheme.zeta_scale
        xi1[i], xi2[i] = g.standard_normal((2, cfg.steps))
        sent[i] = g.integers(1, m_size + 1)
    mtheta = np.empty(cfg.trials)
    out_idx = np.array([cfg.steps], dtype=np.int64)
    backends._sk_numpy.filter_batch(grid[sent - 1], zeta0, xi1, xi2, *scheme.coeffs,
                                    out_idx, np.empty((cfg.trials, 1)), mtheta, None)
    _, _, got_mtheta, got_sent = simulate._run_trials(P_STD, cfg, traj_std, out_idx,
                                                      messages=m_size)
    assert np.array_equal(got_sent, sent)
    assert np.array_equal(got_mtheta, mtheta)
    # nearest grid point by brute force
    decoded = 1 + np.argmin(np.abs(grid[None, :] - mtheta[:, None]), axis=1)
    want = np.count_nonzero(decoded != sent) / cfg.trials
    assert 0.0 < want < 1.0
    assert decode_message(P_STD, cfg, traj_std, grid_size=m_size) == want


@pytest.mark.parametrize("params", [P_STD, ChannelParams(0.0, 1.0, 2.0)],
                         ids=["colored", "white"])
def test_decode_counts_equal_the_grid_oracle(params):
    # at horizons this short many estimates miss their point: the
    # three-point decision counts what the full grid counted
    traj = make_traj(params, 2.0)
    out_idx = np.array([300], dtype=np.int64)
    missed = []
    for m_size in (2, 3, 64, 1024, 100_000):
        for horizon, seed in ((0.2, 83), (0.5, 84), (1.0, 85)):
            cfg = SimConfig(horizon=horizon, steps=300, trials=200, master_seed=seed)
            _, _, mtheta, sent = simulate._run_trials(params, cfg, traj, out_idx,
                                                      messages=m_size)
            errors = int(np.count_nonzero(grid_decode(m_size, mtheta) != sent))
            assert decode_message(params, cfg, traj, grid_size=m_size) == errors / cfg.trials
            missed.append(errors)
    assert all(missed[:6]) and sum(0 < e < cfg.trials for e in missed) >= 9


def _synthetic_decode_cases(rng):
    """(M, w, estimate) for M from 2 to 2**40 and sampled messages w, both
    ends among them: w's point, the midpoints to its neighbours and the two
    floats on each side of them, 0 and +-50."""
    sizes = [2, 3, 4, 5, 7, 64, 1000, 1024, 10**5, 2**31, 10**10, 10**12, 2**40 - 1, 2**40]
    sizes += [int(2 ** rng.uniform(1, 40)) for _ in range(10)]
    for m_size in sizes:
        def point(w):
            return NormalDist().inv_cdf((w - 0.5) / m_size)

        messages = {1, 2, 3, m_size // 2, m_size // 2 + 1, m_size - 2, m_size - 1, m_size}
        messages |= {rng.randint(1, m_size) for _ in range(3)}
        for w in sorted(v for v in messages if 1 <= v <= m_size):
            estimates = {point(w), 0.0, 50.0, -50.0}
            for v in (w - 1, w + 1):
                if 1 <= v <= m_size:
                    mid = 0.5 * (point(w) + point(v))
                    estimates.add(mid)
                    for toward in (math.inf, -math.inf):
                        x = mid
                        for _ in range(2):
                            x = math.nextafter(x, toward)
                            estimates.add(x)
            for est in sorted(estimates):
                yield m_size, w, est


def test_decision_is_the_grid_rule_up_to_two_to_the_forty():
    # the grid oracle's bracket, found by bisection on points computed as it
    # reads them, against the three-point decision at and around its answer
    cases = 0
    for m_size, w, est in _synthetic_decode_cases(random.Random(5)):
        want = lazy_grid_decode(m_size, est)
        point = simulate._message_points(m_size)
        for v in {want - 1, want, want + 1, w - 1, w, w + 1} - {0, m_size + 1}:
            assert simulate._decodes(v, point(v), est, m_size, point) == (v == want), (
                m_size, v, est, want)
            cases += 1
    assert cases > 5000
    # the bisection reads the grid as the full array does
    rng = np.random.default_rng(5)
    estimates = np.concatenate([[-50.0, 0.0, 50.0], rng.standard_normal(200)])
    for m_size in (2, 3, 64, 1024):
        assert list(grid_decode(m_size, estimates)) == [
            lazy_grid_decode(m_size, float(e)) for e in estimates]


def test_decode_peak_does_not_grow_with_messages(traj_std):
    cfg = SimConfig(horizon=1.0, steps=300, trials=600, master_seed=86)
    peaks = []
    for m_size in (16, 2**40):
        decode_message(P_STD, cfg, traj_std, grid_size=m_size)  # one-off allocations
        tracemalloc.start()
        try:
            decode_message(P_STD, cfg, traj_std, grid_size=m_size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] <= peaks[0] + 16_384


def test_too_many_messages_are_refused_before_any_draw(traj_std, monkeypatch):
    cfg = SimConfig(horizon=1.0, steps=300, trials=10, master_seed=87)
    for name in ("_prepare_scheme", "_draw_batch"):
        monkeypatch.setattr(simulate, name, lambda *a, **k: pytest.fail("a trial was run"))
    with pytest.raises(ValueError, match=r"2\*\*40"):
        decode_message(P_STD, cfg, traj_std, grid_size=2**40 + 1)


def test_monte_carlo_holds_one_batch_of_draws_at_a_time(traj_std, monkeypatch):
    # a batch draws 2 * BATCH_SIZE * steps normals; holding the previous
    # batch while drawing the next doubles the peak.  The per-trial state
    # (seed words, output rows) stays small against that at this shape.
    monkeypatch.setattr(simulate, "BATCH_SIZE", 64)
    monkeypatch.setattr(simulate, "OUTPUT_POINTS", 11)
    cfg = SimConfig(horizon=10.0, steps=2000, trials=192, master_seed=73)
    batch_bytes = 2 * simulate.BATCH_SIZE * cfg.steps * 8
    bound = 1.5 * batch_bytes
    warm = replace(cfg, trials=1)
    # the second pass splits each batch's draws over two threads, which must
    # fill the one batch of buffers rather than draw a batch each
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    for split_work in (simulate.SPLIT_WORK, 0):
        monkeypatch.setattr(simulate, "SPLIT_WORK", split_work)
        for run in (lambda c: run_sk_scheme(P_STD, c, traj_std),
                    lambda c: decode_message(P_STD, c, traj_std, grid_size=64)):
            run(warm)  # one-off allocations of a first call are not per batch
            tracemalloc.start()
            try:
                run(cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound


def test_ljung_box_rejects_correlated_series():
    rng = np.random.default_rng(5)
    white = rng.standard_normal((50, 1000))
    corr = np.cumsum(white, axis=1) * 0.1
    lags = 10
    q_white = ljung_box(white, lags=lags)
    q_corr = ljung_box(corr, lags=lags)
    thresh = chi2.ppf(0.99, lags)
    assert np.mean(q_white < thresh) > 0.9
    assert np.all(q_corr > thresh)
    with pytest.raises(ValueError):
        ljung_box(white, lags=0)


def test_ljung_box_rejects_zero_rows_and_non_integer_lags():
    v = np.random.default_rng(6).standard_normal((4, 300))
    v[2] = 0.0
    with pytest.raises(ValueError, match="row 2"):
        ljung_box(v, lags=5)
    for lags in (2.5, 2.0, "3", None, True):
        with pytest.raises(ValueError, match="integer"):
            ljung_box(v[:2], lags=lags)
    assert ljung_box(v[:2], lags=np.int64(5)).shape == (2,)
    with pytest.raises(ValueError, match="2-D"):
        ljung_box(np.ones((2, 2, 300)), lags=5)


def _series(m, n, seed=0):
    """Rows of unequal scale, so each row's sums are its own."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, n)) * rng.uniform(0.1, 10.0, (m, 1))


@pytest.mark.parametrize("m, n, lags, rows", [
    (1, 1000, 20, None),       # one row
    (2, 600, 7, None),         # fewer rows than parts
    (7, 500, 1, 3),            # m not a multiple of the block's rows, lag 1
    (11, 300, 5, 8),           # m not a multiple of parts x rows
    (5, 400, 399, 2),          # lag n - 1
    (40, 5000, 20, None),      # n below the block: 26 rows a block
    (3, simulate._LJUNG_BOX_BLOCK + 1000, 4, None),  # n above it: 1 row
    (1800, 2000, 20, None),    # many short rows, split at the default threshold
])
def test_ljung_box_bit_identical_to_direct_oracle(monkeypatch, m, n, lags, rows):
    v = _series(m, n)
    if rows is not None:
        monkeypatch.setattr(simulate, "_LJUNG_BOX_BLOCK", rows * n)
    want = direct_ljung_box(v, lags)
    start = threading.Thread.start
    started = []

    def counted_start(self):
        started.append(self)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    # at the default threshold on 2 CPUs, a helper thread starts only for a
    # job that _parts splits
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    assert np.array_equal(ljung_box(v, lags), want)
    assert (len(started) > 0) == (simulate._parts(m, n) > 1) == (m * n >= simulate.SPLIT_WORK)
    # one series as a 1-D array is the one-row case
    assert np.array_equal(ljung_box(v[0], lags), direct_ljung_box(v[:1], lags))
    # the rows split over 1, 2 and 3 parts, forced on at any size: the
    # calling thread runs one part, and helper threads (one may run two
    # parts, once it is free) the others
    monkeypatch.setattr(simulate, "SPLIT_WORK", 0)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        started.clear()
        assert np.array_equal(ljung_box(v, lags), want)
        parts = min(cpus, m)
        assert (parts > 1) == (len(started) > 0) and len(started) < parts
        assert not any(thread.is_alive() for thread in started)


def test_serial_ljung_box_starts_no_thread(monkeypatch):
    # below the split thresholds, and for one row at any size, the rows
    # stay on the calling thread
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: pytest.fail("a thread was started"))
    v = _series(40, 5000)
    assert np.array_equal(ljung_box(v), direct_ljung_box(v, 20))
    monkeypatch.setattr(simulate, "SPLIT_WORK", 0)
    assert np.array_equal(ljung_box(v[:1]), direct_ljung_box(v[:1], 20))


def test_ljung_box_works_in_one_block_of_scratch():
    m, n = 16, 50_000
    v = _series(m, n, seed=1)
    ljung_box(v)  # one-off allocations of a first call
    tracemalloc.start()
    try:
        ljung_box(v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block of scratch and a few (m,)-sized arrays, far below the
    # 6.4 MB of a single (m, n - 1) product array
    assert peak < simulate._LJUNG_BOX_BLOCK * 8 + 64 * m * 8 + 16_384


def test_split_ljung_box_shares_one_block_of_scratch(monkeypatch):
    # two parts each work in their own block, within the one budget
    monkeypatch.setattr(simulate, "SPLIT_WORK", 0)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    m, n = 16, 50_000
    v = _series(m, n, seed=1)
    ljung_box(v)
    tracemalloc.start()
    try:
        ljung_box(v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < simulate._LJUNG_BOX_BLOCK * 8 + 64 * m * 8 + 16_384


def test_memory_estimate_bounds_the_traced_peak(traj_std):
    # the estimate covers what each entry point really holds at its peak
    for m, n in ((600, 2000), (1100, 300)):
        cfg = SimConfig(horizon=10.0, steps=n, trials=m, master_seed=3)
        for run, kwargs in (
                (lambda: run_sk_scheme(P_STD, cfg, traj_std), {}),
                (lambda: run_sk_scheme(P_STD, cfg, traj_std, return_innovations=True),
                 {"innovations": True}),
                (lambda: decode_message(P_STD, cfg, traj_std, grid_size=100_000), {}),
                (lambda: stationary_arma_noise(P_STD, cfg), {"sampler": True})):
            run()  # one-off allocations of a first call
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= simulate._check_memory(cfg, **kwargs)


def test_memory_estimate_covers_the_clis_trajectory():
    # at few trials and many steps the gain ODE and the plan's build are a
    # large share of the peak: both for a trajectory sampled once a step
    # and for `oucap simulate`'s path, solve_abel then the run
    cfg = SimConfig(horizon=10.0, steps=20_000, trials=2, master_seed=3)
    coeffs = abel_for_channel(P_STD)
    run_sk_scheme(P_STD, cfg, make_traj(P_STD, cfg.horizon))  # one-off allocations
    for solve in (lambda: integrate_abel(coeffs, horizon=cfg.horizon,
                                         step=cfg.horizon / cfg.steps),
                  lambda: solve_abel(coeffs, cfg.horizon)):
        tracemalloc.start()
        try:
            run_sk_scheme(P_STD, cfg, solve())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= simulate._check_memory(cfg)


def test_memory_estimate_reads_the_kernels_scratch_budget(monkeypatch):
    # the kernel's scratch rule is read at each call, from the kernel
    cfg = SimConfig(horizon=10.0, steps=2000, trials=4, master_seed=3)
    need = simulate._check_memory(cfg)
    elements = backends._sk_numpy._CHUNK_ELEMENTS
    monkeypatch.setattr(backends._sk_numpy, "_CHUNK_ELEMENTS", 4 * elements)
    assert simulate._check_memory(cfg) == need + 8 * 2 * 3 * elements


def test_oversize_run_is_refused_before_it_allocates(traj_std, monkeypatch):
    # physical memory patched just below each estimate: every entry point
    # raises the typed error before allocating its arrays
    cfg = SimConfig(horizon=10.0, steps=3000, trials=600, master_seed=3)
    for run, kwargs in (
            (lambda: run_sk_scheme(P_STD, cfg, traj_std, return_innovations=True),
             {"innovations": True}),
            (lambda: decode_message(P_STD, cfg, traj_std, grid_size=100_000), {}),
            (lambda: stationary_arma_noise(P_STD, cfg), {"sampler": True})):
        need = simulate._check_memory(cfg, **kwargs)
        monkeypatch.setattr(simulate, "_physical_memory", lambda: need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryBudgetExceeded, match="physical memory"):
                run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        # at the estimate itself, or where memory is unknown, the run goes ahead
        for have in (need, None):
            monkeypatch.setattr(simulate, "_physical_memory", lambda: have)
            run()
    assert issubclass(MemoryBudgetExceeded, OucapError)


def test_physical_memory_comes_from_sysconf(monkeypatch):
    assert simulate._physical_memory() > 0
    monkeypatch.setattr(os, "sysconf", lambda name: 4096 if name == "SC_PAGE_SIZE" else 10)
    assert simulate._physical_memory() == 40960

    def unknown(name):
        raise ValueError(name)

    monkeypatch.setattr(os, "sysconf", unknown)
    assert simulate._physical_memory() is None


def test_output_indices_are_the_distinct_rounded_grid(traj_std):
    # np.unique is the reference
    for steps in (100, 150, 199, 333):
        cfg = SimConfig(horizon=2.0, steps=steps, trials=2, master_seed=1)
        rep = run_sk_scheme(P_STD, cfg, traj_std)
        want = np.unique(np.round(np.linspace(0, steps, 101)).astype(np.int64))
        assert np.array_equal(rep.times, (np.arange(steps + 1) * cfg.delta)[want])
