"""Numpy kernel for the per-step feedback-filter recursion.

Each step is a handful of ``out=`` ufunc calls vectorised across the trials
of a batch, in a fixed arithmetic order (left-associated sums, no fused
operations), so a trial's trajectory does not depend on the batch it runs
in.  The per-step loop holds the GIL, so simulate runs its batches on the
calling thread.

The kernel carries the error state e = (Theta0 - m0, Z0 - m1, zeta0 - m2)
rather than the estimate m, so the squared error e0^2 keeps its relative
precision however small it gets; the channel output and the OU path never
need forming, because the innovation depends on the error alone.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

NAME = "numpy"

# Elements of the scratch block that _drives_in_place works through at a time.
_DRIVE_BLOCK = 1 << 15


def _drives_in_place(xi1, xi2, sqrt_delta, c1, c2):
    """Overwrite xi1 with sqrt_delta*xi1 (the Brownian increments) and xi2
    with c1*xi1 + c2*xi2 (the OU transition noise), a few rows at a time, so
    the only temporary is one block of rows."""
    m, n = xi1.shape
    rows = max(1, _DRIVE_BLOCK // max(n, 1))
    scratch = np.empty((min(rows, m), n))
    for lo in range(0, m, rows):
        x1 = xi1[lo:lo + rows]
        x2 = xi2[lo:lo + rows]
        t = scratch[:x1.shape[0]]
        np.multiply(x1, c1, out=t)
        np.multiply(x2, c2, out=x2)
        np.add(t, x2, out=x2)
        np.multiply(x1, sqrt_delta, out=x1)


def filter_batch(th0, zeta0, xi1, xi2, hA, hzeta, K0, K1, K2, inv_sqrt_s,
                 u, sqrt_delta, lam_delta, c1, c2,
                 out_idx, sqerr_out, mtheta_out, innov_out):
    """Run the exact discrete filter for a batch of trials.

    Parameters are per-step coefficient arrays of length n (hA = A_k*delta,
    hzeta = lam*e^{-kappa t_k}*delta, gains K0..K2, 1/sqrt(S_k)) and
    per-trial arrays: th0/zeta0 of shape (m,), noise xi1/xi2 of shape (m,n).
    The kernel consumes xi1 and xi2: it overwrites them with the noise drives,
    so their contents are unspecified on return.
    out_idx lists the step indices (including 0 and n) at which the squared
    estimation error e0^2 = (th0 - m_theta)^2 is recorded into sqerr_out
    (m, len).  mtheta_out receives the terminal estimate th0 - e0.
    innov_out, when not None, receives the standardized innovations (m, n).

    Per step, with x1 = sqrt_delta*xi1 and x2 = c1*xi1 + c2*xi2:
      nu = ((hA e0 + lam_delta e1) + hzeta e2) + x1
      e0 = e0 - K0 nu;  e1 = (u e1 + x2) - K1 nu;  e2 = e2 - K2 nu
    """
    m, n = xi1.shape
    _drives_in_place(xi1, xi2, sqrt_delta, c1, c2)
    # rows e0, e1, e2 of one array, so that the innovation is one product and
    # one sum over rows, and the gain update one product and one difference
    err = np.empty((3, m))
    err[0] = th0
    err[1] = 0.0
    err[2] = zeta0
    e0, e1 = err[0], err[1]
    prod = np.empty((3, m))
    nu = np.empty(m)
    # per-step measurement rows and gains as (3, 1) columns against err
    h = np.empty((n, 3, 1))
    h[:, 0, 0] = hA
    h[:, 1, 0] = lam_delta
    h[:, 2, 0] = hzeta
    gain = np.empty((n, 3, 1))
    gain[:, 0, 0] = K0
    gain[:, 1, 0] = K1
    gain[:, 2, 0] = K2
    store = innov_out is not None
    record = out_idx.tolist() + [-1]
    pos = 0
    mul, add, sub, add_rows = np.multiply, np.add, np.subtract, np.add.reduce
    # memoryview yields the per-step scale as a Python float, without
    # per-element numpy scalars or a list of all n
    for k, (h_k, g_k, s_k, x1, x2, innov) in enumerate(zip(
            h, gain, memoryview(inv_sqrt_s), xi1.T, xi2.T,
            innov_out.T if store else repeat(None, n))):
        if k == record[pos]:
            mul(e0, e0, out=sqerr_out[:, pos])
            pos += 1
        mul(err, h_k, out=prod)
        add_rows(prod, axis=0, out=nu)
        add(nu, x1, out=nu)
        if store:
            mul(nu, s_k, out=innov)
        mul(e1, u, out=e1)
        add(e1, x2, out=e1)
        mul(g_k, nu, out=prod)
        sub(err, prod, out=err)
    if record[pos] == n:
        mul(e0, e0, out=sqerr_out[:, pos])
    sub(th0, e0, out=mtheta_out)
    return None
