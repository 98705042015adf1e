# cython: language_level=3
"""Compiled kernel for the per-step feedback-filter recursion.

When the build compiles it, simulation uses it in place of oucap._sk_numpy.
Arithmetic mirrors oucap._sk_numpy operation for operation (left-associated
sums, no reordering), so both kernels produce bit-identical trajectories.
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
    """Same contract as oucap._sk_numpy.filter_batch."""
    cdef Py_ssize_t m = th0.shape[0]
    cdef Py_ssize_t n = xi1.shape[1]
    cdef Py_ssize_t n_out = out_idx.shape[0]
    cdef bint store = innov_out is not None
    cdef double[:, ::1] innov = innov_out if store else np.empty((1, 1))
    cdef Py_ssize_t i, k, out_pos
    cdef double m0, m1, m2, z, t0, zt, x1, y, nu, d
    with nogil:
        for i in range(m):
            m0 = 0.0
            m1 = 0.0
            m2 = 0.0
            z = 0.0
            t0 = th0[i]
            zt = zeta0[i]
            out_pos = 0
            for k in range(n):
                if out_pos < n_out and out_idx[out_pos] == k:
                    d = t0 - m0
                    sqerr_out[i, out_pos] = d * d
                    out_pos += 1
                x1 = xi1[i, k]
                y = hA[k] * t0 + lam_delta * z + hzeta[k] * zt + sqrt_delta * x1
                nu = y - (hA[k] * m0 + lam_delta * m1 + hzeta[k] * m2)
                if store:
                    innov[i, k] = nu * inv_sqrt_s[k]
                m0 = m0 + K0[k] * nu
                m1 = u * m1 + K1[k] * nu
                m2 = m2 + K2[k] * nu
                z = u * z + c1 * x1 + c2 * xi2[i, k]
            if out_pos < n_out and out_idx[out_pos] == n:
                d = t0 - m0
                sqerr_out[i, out_pos] = d * d
            mtheta_out[i] = m0
    return None
