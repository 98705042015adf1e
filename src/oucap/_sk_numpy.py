"""Pure-numpy kernel for the per-step feedback-filter recursion.

It runs where the compiled oucap._sk_core is not built (oucap.backends), and
it is the reference the compiled kernel is tested against.  It mirrors
oucap._sk_core exactly: same draw layout, same arithmetic order
(left-associated sums, no fused operations), so the two kernels produce
bit-identical trajectories on IEEE-754 hardware.  Its per-step loop holds
the GIL, so simulate runs its batches on the calling thread.
"""

from __future__ import annotations

import numpy as np

NAME = "numpy"


def filter_batch(th0, zeta0, xi1, xi2, hA, hzeta, K0, K1, K2, inv_sqrt_s,
                 u, sqrt_delta, lam_delta, c1, c2,
                 out_idx, sqerr_out, mtheta_out, innov_out):
    """Run the exact discrete filter for a batch of trials.

    Parameters are per-step coefficient arrays of length n (hA = A_k*delta,
    hzeta = lam*e^{-kappa t_k}*delta, gains K0..K2, 1/sqrt(S_k)) and
    per-trial arrays: th0/zeta0 of shape (m,), noise xi1/xi2 of shape (m,n).
    out_idx lists the step indices (including 0 and n) at which the squared
    estimation error (th0 - m_theta)^2 is recorded into sqerr_out (m, len).
    mtheta_out receives the terminal estimate.  innov_out, when not None,
    receives the standardized innovations (m, n).
    """
    m = th0.shape[0]
    n = xi1.shape[1]
    m0 = np.zeros(m)
    m1 = np.zeros(m)
    m2 = np.zeros(m)
    z = np.zeros(m)
    store = innov_out is not None
    out_pos = 0
    n_out = out_idx.shape[0]
    for k in range(n):
        if out_pos < n_out and out_idx[out_pos] == k:
            d = th0 - m0
            sqerr_out[:, out_pos] = d * d
            out_pos += 1
        x1 = xi1[:, k]
        y = hA[k] * th0 + lam_delta * z + hzeta[k] * zeta0 + sqrt_delta * x1
        nu = y - (hA[k] * m0 + lam_delta * m1 + hzeta[k] * m2)
        if store:
            innov_out[:, k] = nu * inv_sqrt_s[k]
        m0 = m0 + K0[k] * nu
        m1 = u * m1 + K1[k] * nu
        m2 = m2 + K2[k] * nu
        z = u * z + c1 * x1 + c2 * xi2[:, k]
    if out_pos < n_out and out_idx[out_pos] == n:
        d = th0 - m0
        sqerr_out[:, out_pos] = d * d
    mtheta_out[:] = m0
    return None
