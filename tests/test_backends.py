import tracemalloc

import numpy as np
import pytest

import oucap.backends as backends
from oucap import ChannelParams, SimConfig, abel_for_channel, integrate_abel, run_sk_scheme
from oucap.simulate import _draw_batch, _prepare_scheme

from oracles import scalar_filter_batch

compiled = pytest.mark.skipif(backends._sk_core is None,
                              reason="compiled extension oucap._sk_core is not built")


def _batch(params, horizon, steps, trials, seed):
    cfg = SimConfig(horizon=horizon, steps=steps, trials=trials, master_seed=seed)
    traj = integrate_abel(abel_for_channel(params), horizon=horizon, step=horizon / 1000.0)
    scheme = _prepare_scheme(params, cfg, traj)
    th0, zeta0, xi1, xi2, _ = _draw_batch(seed, 0, trials, steps, 0)
    return scheme, th0, zeta0 * scheme.zeta_scale, xi1, xi2


def test_get_backend_default_prefers_compiled():
    expected = "numpy" if backends._sk_core is None else "cython"
    assert backends.get_backend().NAME == expected


@compiled
def test_built_kernel_is_the_one_used():
    params = ChannelParams(-1.0, 1.0, 2.0)
    cfg = SimConfig(horizon=2.0, steps=200, trials=8, master_seed=3)
    traj = integrate_abel(abel_for_channel(params), horizon=2.0, step=0.002)
    assert run_sk_scheme(params, cfg, traj).backend == "cython"


@compiled
@pytest.mark.parametrize("lam", [-1.0, -0.5, 0.5])
def test_compiled_kernel_matches_numpy_kernel(lam):
    trials, steps = 37, 500
    scheme, th0, zeta0, xi1, xi2 = _batch(ChannelParams(lam, 1.0, 2.0), 5.0, steps, trials, 31)
    out_idx = np.array([0, 1, 250, 499, 500], dtype=np.int64)
    outputs = []
    for kern in (backends._sk_numpy, backends._sk_core):
        sqerr = np.empty((trials, out_idx.size))
        mtheta = np.empty(trials)
        innov = np.empty((trials, steps))
        # each kernel consumes its noise buffers
        kern.filter_batch(th0, zeta0, xi1.copy(), xi2.copy(), *scheme.coeffs,
                          out_idx, sqerr, mtheta, innov)
        outputs.append((sqerr, mtheta, innov))
    for want, got in zip(*outputs):
        assert np.array_equal(want, got)


@pytest.mark.parametrize("store", [True, False], ids=["innovations", "no-innovations"])
@pytest.mark.parametrize("lam", [-1.0, -0.5, 0.5])
def test_numpy_kernel_follows_the_compiled_arithmetic_order(lam, store):
    # the scalar oracle copies the .pyx loop operation for operation, so the
    # numpy kernel's bit-identity to it is the order the compiled kernel must
    # reproduce, checked without Cython
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
