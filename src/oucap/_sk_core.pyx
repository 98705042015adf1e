# cython: language_level=3
"""Compiled kernel for the per-step feedback-filter recursion.

When the build compiles it, simulation uses it in place of oucap._sk_numpy.
Arithmetic mirrors oucap._sk_numpy operation for operation (left-associated
sums, no reordering), so both kernels produce bit-identical trajectories.
Like it, the loop carries the error state (Theta0 - m0, Z0 - m1, zeta0 - m2),
and tests/oracles.py holds a pure-Python copy of this loop that the numpy
kernel is checked against where this extension is not built.
The loop releases the GIL; batches can therefore run on worker threads.
"""

import numpy as np

cimport cython

NAME = "cython"


@cython.boundscheck(False)
@cython.wraparound(False)
@cython.cdivision(True)
def filter_batch(double[::1] th0, double[::1] zeta0,
                 double[:, ::1] xi1, double[:, ::1] xi2,
                 double[::1] hA, double[::1] hzeta,
                 double[::1] K0, double[::1] K1, double[::1] K2,
                 double[::1] inv_sqrt_s,
                 double u, double sqrt_delta, double lam_delta,
                 double c1, double c2,
                 long[::1] out_idx,
                 double[:, ::1] sqerr_out, double[::1] mtheta_out,
                 innov_out):
    """Same contract as oucap._sk_numpy.filter_batch.

    The drives sqrt_delta*xi1 and c1*xi1 + c2*xi2 are formed per element
    instead of in place; the contract leaves xi1 and xi2 unspecified on
    return either way.
    """
    cdef Py_ssize_t m = th0.shape[0]
    cdef Py_ssize_t n = xi1.shape[1]
    cdef Py_ssize_t n_out = out_idx.shape[0]
    cdef bint store = innov_out is not None
    cdef double[:, ::1] innov = innov_out if store else np.empty((1, 1))
    cdef Py_ssize_t i, k, out_pos
    cdef double e0, e1, e2, x1, x2, nu
    with nogil:
        for i in range(m):
            e0 = th0[i]
            e1 = 0.0
            e2 = zeta0[i]
            out_pos = 0
            for k in range(n):
                if out_pos < n_out and out_idx[out_pos] == k:
                    sqerr_out[i, out_pos] = e0 * e0
                    out_pos += 1
                x1 = sqrt_delta * xi1[i, k]
                x2 = c1 * xi1[i, k] + c2 * xi2[i, k]
                nu = ((hA[k] * e0 + lam_delta * e1) + hzeta[k] * e2) + x1
                if store:
                    innov[i, k] = nu * inv_sqrt_s[k]
                e0 = e0 - K0[k] * nu
                e1 = (u * e1 + x2) - K1[k] * nu
                e2 = e2 - K2[k] * nu
            if out_pos < n_out and out_idx[out_pos] == n:
                sqerr_out[i, out_pos] = e0 * e0
            mtheta_out[i] = th0[i] - e0
    return None
