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


@pytest.mark.parametrize("store", [True, False], ids=["innovations", "no-innovations"])
@pytest.mark.parametrize("lam", [-1.0, -0.5, 0.5])
def test_numpy_kernel_follows_the_compiled_arithmetic_order(lam, store):
    # the scalar oracle runs the recursion one trial and one operation at a
    # time, so the numpy kernel's bit-identity to it pins its arithmetic order
    params = ChannelParams(lam, 1.0, 2.0)
    trials, steps = 5, 400
    scheme, th0, zeta0, xi1, xi2 = _batch(params, 4.0, steps, trials, 17)
    out_idx = np.array([0, 1, 200, 399, 400], dtype=np.int64)
    outputs = []
    for kern in (scalar_filter_batch, backends._sk_numpy.filter_batch):
        sqerr = np.empty((trials, out_idx.size))
        mtheta = np.empty(trials)
        innov = np.empty((trials, steps)) if store else None
        kern(th0, zeta0, xi1.copy(), xi2.copy(), *scheme.coeffs,
             out_idx, sqerr, mtheta, innov)
        outputs.append((sqerr, mtheta, innov))
    for want, got in zip(*outputs):
        assert np.array_equal(want, got)
    # and the loop did filter: every trial's error shrank
    assert np.all(outputs[0][0][:, -1] < outputs[0][0][:, 0])


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
