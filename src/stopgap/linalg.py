"""Dense linear-algebra helpers: operator norms, row-wise products, guarded
pseudo-inverses."""

import math

import numpy as np

from .errors import ConvergenceError, DegenerateProblemError

# relative cutoff below which singular/eigen values count as zero
RANK_RTOL = 1e-10
# power iteration: relative change of the Rayleigh quotient at which it
# stops, and its budget (exceeding it raises ConvergenceError)
NORM_RTOL = 1e-9
NORM_MAX_ITERS = 10_000
# A vector load from an array that starts mid cache line straddles two lines.
# From ALIGN_MIN_BYTES on that slows the grid products: on a Xeon with 2 MiB
# of L2, 41 products with a 400 x 400 matrix and 41 with its transpose take
# 1.2 ms aligned and 1.6 to 2.9 ms at the offsets the heap happens to give.
# Below it the copy costs more than it saves.
CACHE_LINE = 64
ALIGN_MIN_BYTES = 1 << 16


def operator_norm(A):
    """Spectral norm of a matrix by power iteration on A^T A.

    The iteration runs on ``2**-e * A``, where ``2**(e-1) <= max|A_ij| <
    2**e``, and the result is scaled back by ``2**e``.  A power-of-two scale
    is exact, so wherever the scaled entries stay normal every iterate
    carries the bits of the unscaled iteration, and at any scale of ``A``
    (1e-300 to 1e300) the quotient neither overflows nor underflows.  Each
    step is one gemv with ``A``, one with ``A^T`` and two dot products.
    A nan or infinite entry raises DegenerateProblemError naming it.
    """
    A = np.asarray(A, dtype=float)
    absA = np.abs(A)
    amax = absA.max() if A.size else 0.0
    if not math.isfinite(amax):
        bad = np.argwhere(~np.isfinite(A))
        raise DegenerateProblemError("operator norm of a matrix with non-finite entries, "
                                     f"the first at {tuple(bad[0].tolist())}")
    if amax == 0.0:
        raise DegenerateProblemError("operator norm of a zero matrix")
    e = math.frexp(amax)[1]
    A = np.ldexp(A, -e)
    At = A.T
    # deterministic start along the row of largest absolute sum
    v = A[absA.sum(axis=1).argmax()]
    v = v / math.sqrt(v.dot(v))
    sq = 0.0
    for _ in range(NORM_MAX_ITERS):
        w = np.dot(At, np.dot(A, v))
        sq_new = float(v.dot(w))
        nw = math.sqrt(w.dot(w))
        if nw == 0.0:
            # v fell in the kernel; restart from a dense vector
            v = np.ones(A.shape[1]) / math.sqrt(A.shape[1])
            continue
        v = w / nw
        if abs(sq_new - sq) <= NORM_RTOL * max(sq_new, 1e-300):
            return math.ldexp(math.sqrt(sq_new), e)
        sq = sq_new
    raise ConvergenceError("power iteration did not converge in %d iterations" % NORM_MAX_ITERS)


def check_finite(a, what):
    """``a`` itself; raises DegenerateProblemError naming ``what`` when an
    entry is nan or infinite."""
    if not np.isfinite(a).all():
        raise DegenerateProblemError(f"{what} has non-finite entries")
    return a


def empty_aligned(shape, order="C"):
    """Uninitialised float array whose data starts on a cache line."""
    size = math.prod(shape)
    buf = np.empty(size + CACHE_LINE // 8)
    start = -buf.ctypes.data % CACHE_LINE // 8
    return buf[start:start + size].reshape(shape, order=order)


def aligned(a):
    """The float array ``a`` itself, or, when it holds at least
    ALIGN_MIN_BYTES, is contiguous and does not start on a cache line, a
    copy in the same memory order that does.  The strides stay the same, so
    numpy makes the same BLAS calls on the copy and they return the same
    bits."""
    if (a.nbytes < ALIGN_MIN_BYTES or a.ctypes.data % CACHE_LINE == 0
            or not (a.flags.c_contiguous or a.flags.f_contiguous)):
        return a
    out = empty_aligned(a.shape, order="C" if a.flags.c_contiguous else "F")
    out[...] = a
    return out


def rowwise(M, X):
    """``M @ X`` for a vector X, and M @ x for every row x of a 2-D X as a
    (k, m) array.

    For rows numpy issues one matrix-vector product per row, so each row
    carries the bits of the vector call; a 2-D ``M @ X.T`` goes through a
    matrix-matrix kernel whose summation order differs in the last bits.
    From ALIGN_MIN_BYTES on, X and the result start on a cache line
    (``aligned``).
    """
    if X.ndim == 1:
        return M @ X
    if X.nbytes < ALIGN_MIN_BYTES:
        return np.matmul(M, X[:, :, None])[:, :, 0]
    out = empty_aligned((X.shape[0], M.shape[0]))
    np.matmul(M, aligned(X)[:, :, None], out=out[:, :, None])
    return out


def pinv_solve(M, rhs):
    """Least-squares / pseudo-inverse solution of M z = rhs with rank cutoff."""
    z, *_ = np.linalg.lstsq(M, rhs, rcond=RANK_RTOL)
    return z


def stationarity_matrix(gram, A):
    """Symmetric [[gram, A^T], [A, 0]] with gram = Q^T Q: its kernel
    parametrises the saddle set of min 0.5 ||Q x - c||^2 subject to A x = b.
    The blocks are written into one array, holding the bytes of ``np.block``."""
    m, n = A.shape
    M = np.empty((n + m, n + m))
    M[:n, :n] = gram
    M[:n, n:] = A.T
    M[n:, :n] = A
    M[n:, n:] = 0.0
    return M
