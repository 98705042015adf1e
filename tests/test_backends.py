import numpy as np
import pytest

import oucap.backends as backends
from oucap import ChannelParams, SimConfig, abel_for_channel, integrate_abel, run_sk_scheme
from oucap.simulate import _draw_batch, _prepare_scheme

compiled = pytest.mark.skipif(backends._sk_core is None,
                              reason="compiled extension oucap._sk_core is not built")


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
    params = ChannelParams(lam, 1.0, 2.0)
    cfg = SimConfig(horizon=5.0, steps=500, trials=37, master_seed=31)
    traj = integrate_abel(abel_for_channel(params), horizon=5.0, step=0.005)
    scheme = _prepare_scheme(params, cfg, traj)
    th0, zeta0, xi1, xi2, _ = _draw_batch(cfg.master_seed, 0, cfg.trials, cfg.steps)
    zeta0 = zeta0 * scheme.zeta_scale
    out_idx = np.array([0, 1, 250, 499, 500], dtype=np.int64)
    outputs = []
    for kern in (backends._sk_numpy, backends._sk_core):
        sqerr = np.empty((cfg.trials, out_idx.size))
        mtheta = np.empty(cfg.trials)
        innov = np.empty((cfg.trials, cfg.steps))
        kern.filter_batch(th0, zeta0, xi1, xi2, *scheme.coeffs,
                          out_idx, sqerr, mtheta, innov)
        outputs.append((sqerr, mtheta, innov))
    for want, got in zip(*outputs):
        assert np.array_equal(want, got)
