import tracemalloc

import numpy as np
import pytest

import oucap.backends as backends
from oucap import ChannelParams, SimConfig, abel_for_channel, integrate_abel
from oucap.simulate import _draw_batch, _prepare_scheme

from oracles import scalar_filter_batch


def _batch(params, horizon, steps, trials, seed):
    cfg = SimConfig(horizon=horizon, steps=steps, trials=trials, master_seed=seed)
    traj = integrate_abel(abel_for_channel(params), horizon=horizon, step=horizon / 1000.0)
    scheme = _prepare_scheme(params, cfg, traj)
    th0, zeta0, xi1, xi2, _ = _draw_batch(seed, 0, trials, steps, 0)
    return scheme, th0, zeta0 * scheme.zeta_scale, xi1, xi2


def _filter(kern, scheme, th0, zeta0, xi1, xi2, out_idx, store):
    trials, steps = xi1.shape
    sqerr = np.empty((trials, out_idx.size))
    mtheta = np.empty(trials)
    innov = np.empty((trials, steps)) if store else None
    kern(th0, zeta0, xi1, xi2, *scheme.coeffs, out_idx, sqerr, mtheta, innov)
    return sqerr, mtheta, innov


@pytest.mark.parametrize("store", [True, False], ids=["innovations", "no-innovations"])
@pytest.mark.parametrize("trials,steps,out_idx", [
    (5, 400, [0, 1, 200, 399, 400]),         # recorded steps off any block grid
    (5, 1007, [0, 1, 200, 399, 400, 1007]),  # steps not a multiple of a block
    (5, 100, [0, 37, 100]),                  # the fewest steps SimConfig allows
    (1, 400, [0, 1, 200, 399, 400]),         # a lone trial
], ids=["400", "1007", "100", "one-trial"])
@pytest.mark.parametrize("lam", [-1.0, -0.5, 0.5])
def test_kernel_matches_the_scalar_oracle(lam, trials, steps, out_idx, store):
    # the scalar oracle runs the recursion one trial and one operation at a
    # time; the kernel applies blocks of steps as matrices, so its sums run
    # in another order and it may differ by rounding: e0 by 1e-12 of the
    # filter's standard deviation sqrt(var_theta), which is the scale of
    # e0 itself, and the unit-variance innovations by 1e-12
    params = ChannelParams(lam, 1.0, 2.0)
    scheme, th0, zeta0, xi1, xi2 = _batch(params, 4.0, steps, trials, 17)
    out_idx = np.array(out_idx, dtype=np.int64)
    drawn = xi1.copy(), xi2.copy()
    want = _filter(scalar_filter_batch, scheme, th0, zeta0, xi1, xi2, out_idx, store)
    got = _filter(backends._sk_numpy.filter_batch, scheme, th0, zeta0, xi1, xi2, out_idx, store)
    # the kernel only reads its noise buffers
    assert np.array_equal(xi1, drawn[0]) and np.array_equal(xi2, drawn[1])
    sd = np.sqrt(scheme.var_theta)
    assert np.all(np.abs(np.sqrt(got[0]) - np.sqrt(want[0])) <= 1e-12 * sd[out_idx])
    assert np.all(np.abs(got[1] - want[1]) <= 1e-12 * sd[steps])
    if store:
        assert np.all(np.abs(got[2] - want[2]) <= 1e-12)
    # and the recursion did filter: the squared error shrank
    assert got[0][:, -1].sum() < got[0][:, 0].sum()


@pytest.mark.parametrize("store", [True, False], ids=["innovations", "no-innovations"])
def test_a_trials_bits_do_not_depend_on_its_batch(store):
    # BLAS rounds a one-row product, and the last rows of some products,
    # differently from the rest; a trial must come out the same alone, in a
    # pair or in a batch of 64, whatever rows it sits in
    trials, steps = 64, 1007
    scheme, th0, zeta0, xi1, xi2 = _batch(ChannelParams(-0.5, 1.0, 2.0), 4.0, steps, trials, 23)
    # long segments between recorded steps, and one that ends in a block of
    # 16 steps: products that sum 16 and more terms
    out_idx = np.array([0, 36, 500, steps], dtype=np.int64)
    kern = backends._sk_numpy.filter_batch
    whole = _filter(kern, scheme, th0, zeta0, xi1, xi2, out_idx, store)
    for rows in (slice(0, 1), slice(37, 38), slice(0, 2), slice(62, 64)):
        part = _filter(kern, scheme, th0[rows], zeta0[rows], xi1[rows], xi2[rows],
                       out_idx, store)
        for w, p in zip(whole, part):
            assert w is None and p is None or np.array_equal(w[rows], p)


@pytest.mark.parametrize("store", [True, False], ids=["innovations", "no-innovations"])
@pytest.mark.parametrize("trials,steps,out_idx", [
    (64, 1007, [0, 36, 500, 1007]),
    # a batch whose own share of scratch exceeds the smaller budgets
    (16, 20000, [0, 36, 500, 9999, 20000]),
], ids=["64x1007", "16x20000"])
def test_chunking_does_not_change_bits(monkeypatch, trials, steps, out_idx, store):
    # the scratch budget only groups blocks into chunks and runs; a trial's
    # bits are the same whatever it is
    scheme, th0, zeta0, xi1, xi2 = _batch(ChannelParams(-0.5, 1.0, 2.0), 4.0, steps, trials, 29)
    out_idx = np.array(out_idx, dtype=np.int64)
    results = []
    for elements in (1 << 12, 1 << 16, 1 << 22):
        monkeypatch.setattr(backends._sk_numpy, "_CHUNK_ELEMENTS", elements)
        results.append(_filter(backends._sk_numpy.filter_batch, scheme, th0, zeta0,
                               xi1, xi2, out_idx, store))
    for other in results[1:]:
        for w, p in zip(results[0], other):
            assert w is None and p is None or np.array_equal(w, p)


def test_numpy_kernel_allocates_far_less_than_its_draws():
    # one draw buffer of the batch is trials * steps doubles; per-step lists
    # or an O(trials * steps) temporary would each exceed a quarter of it
    trials, steps = 64, 20000
    scheme, th0, zeta0, xi1, xi2 = _batch(ChannelParams(-0.5, 1.0, 2.0), 10.0, steps, trials, 5)
    out_idx = np.unique(np.round(np.linspace(0, steps, 101)).astype(np.int64))
    sqerr = np.empty((trials, out_idx.size))
    mtheta = np.empty(trials)
    innov = np.empty((trials, steps))
    tracemalloc.start()
    try:
        backends._sk_numpy.filter_batch(th0, zeta0, xi1, xi2, *scheme.coeffs,
                                        out_idx, sqerr, mtheta, innov)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < xi1.nbytes / 4


def test_numpy_kernel_without_innovations_allocates_far_less_than_its_draws():
    # the same bound for a wide batch that keeps no innovations
    trials, steps = 512, 2000
    scheme, th0, zeta0, xi1, xi2 = _batch(ChannelParams(-0.5, 1.0, 2.0), 10.0, steps, trials, 5)
    out_idx = np.unique(np.round(np.linspace(0, steps, 101)).astype(np.int64))
    sqerr = np.empty((trials, out_idx.size))
    mtheta = np.empty(trials)
    tracemalloc.start()
    try:
        backends._sk_numpy.filter_batch(th0, zeta0, xi1, xi2, *scheme.coeffs,
                                        out_idx, sqerr, mtheta, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < xi1.nbytes / 4
