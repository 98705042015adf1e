"""Numpy kernel for the feedback-filter recursion, as a blocked linear scan.

The kernel carries the error state e = (Theta0 - m0, Z0 - m1, zeta0 - m2)
rather than the estimate m, so the squared error e0^2 keeps its relative
precision however small it gets; the channel output and the OU path never
need forming, because the innovation depends on the error alone.

One step of the error recursion is linear in the state and the step's two
normals, with coefficients that are the same for every trial.  So a block
of up to _BLOCK steps is one matrix, built once from the coefficients and
applied to all the trials of a batch by BLAS matrix products: a call makes
a few numpy calls per block of steps, not several per step.  BLAS computes
each row of a product on its own, so a trial's bits do not depend on the
batch it runs in or on BLAS's thread count; _width and filter_batch steer
clear of the two product shapes for which OpenBLAS's rounding does depend
on the rows.
"""

from __future__ import annotations

import numpy as np

# Steps per block.  Building the matrices of a chunk of blocks costs a few
# numpy calls per step of a block, and applying one costs two calls; 20
# steps (23 rows with innovations, padded to 24) ran faster than 13, 16,
# 21, 25 or 29 at 64 x 1e5 steps.
_BLOCK = 20
# Least elements of scratch the kernel works in: the block matrices of a
# chunk of blocks, with a quarter more for the noise terms of a run of
# blocks.  A batch works in a 32nd of the elements of one of its noise
# buffers where that is more, so its temporaries stay far below those
# buffers while a long batch builds its maps in fewer, larger chunks (about
# 3x larger at 64 x 1e5 steps).  Chunking groups blocks only; it never
# changes results.
_CHUNK_ELEMENTS = 1 << 16


def _budget(m, n):
    """Elements of scratch a batch of m trials of n steps works in."""
    return max(_CHUNK_ELEMENTS, m * n // 32)


def _width(rows):
    """Columns of a block map's product: its rows of output, padded with
    zero columns to a multiple of 8.  OpenBLAS rounds the last rows of a
    product whose width is not (from 16 summed terms on) differently from
    the others, which would make a trial's bits depend on its batch."""
    return -(-rows // 8) * 8


def _runs(n, out_idx, most):
    """(first step, steps per block, blocks) of each run of equal blocks, in
    step order.  The recorded steps cut 0..n into segments; each segment is
    a run of _BLOCK-step blocks and, if steps are left over, one shorter
    block, and no run holds more than `most` blocks."""
    cuts = sorted(set(out_idx.tolist()) | {0, n})
    runs = []
    for a, b in zip(cuts, cuts[1:]):
        full, rest = divmod(b - a, _BLOCK)
        for lo in range(0, full, most):
            runs.append((a + lo * _BLOCK, _BLOCK, min(most, full - lo)))
        if rest:
            runs.append((b - rest, rest, 1))
    return runs


def _chunks(runs, most):
    """Consecutive runs grouped into chunks of at most `most` blocks."""
    chunk, blocks = [], 0
    for run in runs:
        if chunk and blocks + run[2] > most:
            yield chunk
            chunk, blocks = [], 0
        chunk.append(run)
        blocks += run[2]
    if chunk:
        yield chunk


def _block_maps(starts, r, store, hA, hzeta, K0, K1, K2, inv_sqrt_s,
                u, sqrt_delta, lam_delta, c1, c2):
    """The transposed maps W^T, shape (blocks, 3 + 2r, rows), of the blocks
    of r steps that start at `starts`.  A block's W maps its inputs, ordered
    [entry state (3); xi1_0, xi2_0, xi1_1, xi2_1, ...], to its exit state
    (row group 0:3) and, when `store`, its r standardized innovations (rows
    3:3+r; rows = 3 + r, else 3).  Built by running the recursion on the
    3 + 2r unit inputs, vectorised over the blocks, in the per-step order:
      nu = ((hA e0 + lam_delta e1) + hzeta e2) + sqrt_delta xi1
      e0 -= K0 nu;  e1 = (u e1 + (c1 xi1 + c2 xi2)) - K1 nu;  e2 -= K2 nu
    """
    q = starts.size
    cols = 3 + 2 * r
    steps = np.arange(r)[:, None] + starts
    # per step, the measurement row and the gain as (3, 1, blocks) columns
    h = np.stack((hA[steps], np.full((r, q), lam_delta), hzeta[steps]))[:, :, None]
    gain = np.stack((K0[steps], K1[steps], K2[steps]))[:, :, None]
    scale = inv_sqrt_s[steps]
    wt = np.zeros((q, cols, _width(3 + r if store else 3)))
    # e[i, c, b]: e_i of block b's response to its unit input c; with the
    # inputs on the middle axis, the inputs a step reaches are contiguous
    e = np.zeros((3, cols, q))
    e[0, 0] = e[1, 1] = e[2, 2] = 1.0
    # the inputs of step j enter at zero, so the recursion gives them
    # nu = sqrt_delta, e = (0, c1, 0) - K sqrt_delta (xi1) and nu = 0,
    # e = (0, c2, 0) (xi2); they are set here and step j skips them
    kick = gain[:, :, 0] * sqrt_delta
    np.negative(kick, out=e[:, 3::2])
    np.subtract(c1, kick[1], out=e[1, 3::2])
    e[1, 4::2] = c2
    if store:
        wt[:, 3 + 2 * np.arange(r), 3 + np.arange(r)] = (scale * sqrt_delta).T
    nu_buf = np.empty((cols, q))
    prod_buf = np.empty((3, cols, q))
    for j in range(r):
        c = 3 + 2 * j
        ej, nu, prod = e[:, :c], nu_buf[:c], prod_buf[:, :c]
        np.multiply(ej, h[:, j], out=prod)
        np.add.reduce(prod, axis=0, out=nu)
        if store:
            np.multiply(nu, scale[j], out=wt[:, :c, 3 + j].T)
        np.multiply(ej[1], u, out=ej[1])
        np.multiply(gain[:, j], nu, out=prod)
        np.subtract(ej, prod, out=ej)
    wt[:, :, :3] = e.transpose(2, 1, 0)
    return wt


def filter_batch(th0, zeta0, xi1, xi2, hA, hzeta, K0, K1, K2, inv_sqrt_s,
                 u, sqrt_delta, lam_delta, c1, c2,
                 out_idx, sqerr_out, mtheta_out, innov_out):
    """Run the exact discrete filter for a batch of trials.

    Parameters are per-step coefficient arrays of length n (hA = A_k*delta,
    hzeta = lam*e^{-kappa t_k}*delta, gains K0..K2, 1/sqrt(S_k)) and
    per-trial arrays: th0/zeta0 of shape (m,), noise xi1/xi2 of shape (m,n),
    which the kernel only reads.
    out_idx lists the step indices (including 0 and n), in increasing order,
    at which the squared estimation error e0^2 = (th0 - m_theta)^2 is
    recorded into sqerr_out (m, len).  mtheta_out receives the terminal
    estimate th0 - e0.  innov_out, when not None, receives the standardized
    innovations (m, n).

    Per step, the recursion is
      nu = ((hA e0 + lam_delta e1) + hzeta e2) + sqrt_delta xi1
      e0 -= K0 nu;  e1 = (u e1 + (c1 xi1 + c2 xi2)) - K1 nu;  e2 -= K2 nu
    and the standardized innovation is nu/sqrt(S_k).  The recorded steps cut
    0..n into segments, and each segment into blocks of _BLOCK steps and a
    shorter last block where steps are left over, so every recorded e0 is
    the state between two blocks.  Block b is one matrix W_b from [entry state; its xi1; its xi2]
    to [exit state; its innovations], built from the coefficients by
    _block_maps.  Pass 1 applies the noise columns of W_b to each run of
    equal blocks as one batched product on the trial-major views of xi1 and
    xi2; pass 2 goes block by block, adding the product of the entry state
    with W_b's state columns.

    An output of a block is then a sum of up to 3 + 2*_BLOCK products in
    BLAS's order, where the per-step order adds each step's terms to a
    running state, so
    results differ from that order by rounding only: e0 by a few 1e-14 of
    sqrt(var_theta), the scale of e0 itself, however small that gets, and
    the innovations by about 2e-15.
    """
    m, n = xi1.shape
    if m == 1:
        # BLAS takes a one-row product down a matrix-vector path whose
        # rounding differs from its matrix-matrix path, so a lone trial runs
        # as two copies of itself and keeps the bits of any larger batch
        sq = np.empty((2, out_idx.size))
        mt = np.empty(2)
        innov = None if innov_out is None else np.empty((2, n))
        filter_batch(np.repeat(th0, 2), np.repeat(zeta0, 2),
                     np.repeat(xi1, 2, axis=0), np.repeat(xi2, 2, axis=0),
                     hA, hzeta, K0, K1, K2, inv_sqrt_s,
                     u, sqrt_delta, lam_delta, c1, c2, out_idx, sq, mt, innov)
        sqerr_out[:] = sq[:1]
        mtheta_out[:] = mt[:1]
        if innov is not None:
            innov_out[:] = innov[:1]
        return None
    coeffs = (hA, hzeta, K0, K1, K2, inv_sqrt_s, u, sqrt_delta, lam_delta, c1, c2)
    store = innov_out is not None
    width = _width(3 + _BLOCK if store else 3)
    # a chunk's blocks fit the budget with their innovation rows (per
    # block: the map, cols x width, the recursion's state and products, 3 x
    # cols each, and about 12 gathered coefficients per step); a run's noise
    # terms and their xi2 part take a quarter of it
    cols = 3 + 2 * _BLOCK
    budget = _budget(m, n)
    per_chunk = max(1, budget // (cols * (_width(3 + _BLOCK) + 6) + 12 * _BLOCK))
    per_run = max(1, budget // (8 * m * width))
    record = {k: pos for pos, k in enumerate(out_idx.tolist())}
    e = np.empty((m, 3))
    e[:, 0] = th0
    e[:, 1] = 0.0
    e[:, 2] = zeta0
    for chunk in _chunks(_runs(n, out_idx, min(per_run, per_chunk)), per_chunk):
        # the maps of the chunk's blocks of each length, in step order
        maps, used = {}, {}
        for r in {r for _, r, _ in chunk}:
            starts = np.concatenate([a + r * np.arange(q) for a, rr, q in chunk if rr == r])
            maps[r], used[r] = _block_maps(starts, r, store, *coeffs), 0
        for a, r, q in chunk:
            if a in record:
                np.multiply(e[:, 0], e[:, 0], out=sqerr_out[:, record[a]])
            wt = maps[r][used[r]:used[r] + q]
            used[r] += q
            # pass 1: the noise terms of the run's q blocks, (q, m, width)
            span = slice(a, a + q * r)
            x1 = xi1[:, span].reshape(m, q, r).transpose(1, 0, 2)
            x2 = xi2[:, span].reshape(m, q, r).transpose(1, 0, 2)
            y = np.matmul(x1, wt[:, 3::2])
            np.add(y, np.matmul(x2, wt[:, 4::2]), out=y)
            # pass 2: block by block, the entry state's part
            state = np.empty(y.shape[1:])
            for i in range(q):
                np.matmul(e, wt[i, :3], out=state)
                np.add(y[i], state, out=y[i])
                e = y[i, :, :3]
            if store:
                # into a view of the output, with no (m, q * r) temporary
                np.copyto(innov_out[:, span].reshape(m, q, r),
                          y[:, :, 3:3 + r].transpose(1, 0, 2))
            # keep the state, not the run's noise buffer it lies in
            e = e.copy()
    if n in record:
        np.multiply(e[:, 0], e[:, 0], out=sqerr_out[:, record[n]])
    np.subtract(th0, e[:, 0], out=mtheta_out)
    return None
