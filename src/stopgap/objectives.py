"""Objective oracles: evaluation, proximal maps, Fenchel conjugates,
conjugate-domain projections and minimum-norm stationarity residuals for the
objectives used by the benchmark problems.

Every oracle is immutable after construction; prox/projection calls are pure,
so instances can be shared freely across workers.
"""

import math

import numpy as np

from .errors import ConfigError, DimensionMismatchError
from .linalg import RANK_RTOL, aligned, check_finite, eigh_psd, rowwise

INF = float("inf")
CONJ_TOL = 1e-8  # relative slack of every conjugate-domain test


def _check_dim(v, n, what, rows=False):
    """``v`` as a float array of shape (n,), or also (k, n) when ``rows``."""
    v = np.asarray(v, dtype=float)
    if v.shape != (n,) and not (rows and v.ndim == 2 and v.shape[1] == n):
        want = f"({n},) or (k, {n})" if rows else f"({n},)"
        raise DimensionMismatchError(f"{what}: expected shape {want}, got {v.shape}")
    return v


def _step(s, v):
    """The prox step against ``v``: ``s`` itself for a vector, and the column
    ``s[:, None]`` of a (k,) ``s`` for k rows."""
    if v.ndim == 1:
        return s
    s = np.asarray(s, dtype=float)
    if s.shape != v.shape[:1]:
        raise DimensionMismatchError(f"prox steps: expected shape ({len(v)},), got {s.shape}")
    return s[:, None]


class ObjectiveOracle:
    """Behaviour contract shared by all objectives.

    Subclasses provide: ``__call__`` (value, possibly +inf), ``prox``,
    ``value_diff``, ``conj`` (value of f*, possibly +inf),
    ``project_conj_domain``, ``prox_conj`` and ``stationarity_residual``
    (squared minimum-norm element of df(x)+g, possibly +inf), plus the
    constants below when they exist.

    ``prox(s, v)`` takes a vector v (n,) with a float step s, or rows v
    (k, n) with steps s (k,); ``value_diff(x, p)`` is f(x) - f(p) for p (n,),
    or per row of p (k, n), in a cancellation-free form (the difference can
    be ~1e-16 while the values are O(1), and criteria floors live at exactly
    that scale).  Row j of a k-row call has the bits of the vector call with
    s[j] and p[j], so the smoothed gap over a beta grid agrees exactly with
    the gap at each of its betas.
    """

    dim = None
    smooth_lipschitz = None       # L for smooth f, else None
    conj_lipschitz = None         # L_{f*} on dom f*, else None
    conj_part_lipschitz = None    # L_{f1*} of the Lipschitz conjugate part
    conj_grad_lipschitz = None    # L_g of the smooth conjugate part
    separable_conj = False        # whether the T7 assumption set holds


class LeastSquaresData:
    """f(x) = 0.5*||Q x - c||^2: every least-squares formula that
    ``LeastSquaresObjective`` and the x-block of ``NonnegativeQuadratic`` call.

    Caches Q^T Q (``gram``, formed nowhere else), Q^T c and the
    eigendecomposition Q^T Q = V diag(lam) V^T, and with it ``lam_max`` and
    ``inv_lam_min_pos``, 1/(smallest positive eigenvalue) or None.  Rank is
    decided by the relative cutoff RANK_RTOL on eigenvalues.  Q and V, which
    every grid streams once per beta, start on a cache line (``aligned``).
    """

    def __init__(self, design, target):
        self.design = aligned(check_finite(np.atleast_2d(np.asarray(design, dtype=float)),
                                           "design Q"))
        mq, n = self.design.shape
        self.target = check_finite(_check_dim(target, mq, "target"), "target c")
        self.n = n
        self.gram = self.design.T @ self.design
        self.qtc = self.design.T @ self.target
        self.lam, V = eigh_psd(self.gram)
        self.V = aligned(V)
        self.lam_max = float(self.lam.max()) if self.lam.size else 0.0
        self.pos = self.lam > RANK_RTOL * max(self.lam_max, 1e-300)
        self.inv_lam_min_pos = 1.0 / float(self.lam[self.pos].min()) if self.pos.any() else None
        # coordinates of (Q^T Q)^dagger Q^T c in the eigenbasis
        self._dhat = np.where(self.pos, (self.V.T @ self.qtc) / np.where(self.pos, self.lam, 1.0), 0.0)
        resid = self.design @ (self.V @ self._dhat) - self.target
        self._conj_const = 0.5 * float(resid @ resid)

    @np.errstate(over="ignore")  # +inf where the residual overflows
    def value(self, x):
        r = self.design @ x - self.target
        return 0.5 * float(r @ r)

    @np.errstate(over="ignore")
    def stationarity_residual(self, x, g):
        """||Q^T Q x - Q^T c + g||^2, the gradient being a singleton."""
        r = self.gram @ x - self.qtc + g
        return float(r @ r)

    def prox(self, s, v):
        """(Q^T Q + Id/s)^{-1} (Q^T c + v/s), solved in the eigenbasis, for a
        vector v or for every row of v with its own step."""
        s = _step(s, v)
        if (s <= 0).any() if v.ndim == 2 else s <= 0:
            raise ConfigError(f"prox step s must be positive, got {np.min(s)}")
        w = rowwise(self.V.T, self.qtc + v / s)
        return rowwise(self.V, w / (self.lam + 1.0 / s))

    def value_diff(self, x, p):
        """0.5(||Qx-c||^2 - ||Qp-c||^2) = 0.5 <Q(x-p), (Qx-c) + (Qp-c)>, per
        row of a 2-D p: every factor scales with x - p, so no large-value
        cancellation."""
        Q = self.design
        rx = Q @ x - self.target
        rp = rowwise(Q, p) - self.target
        return 0.5 * np.vecdot(rowwise(Q, x - p), rx + rp)

    def conj(self, mu):
        """f*(mu): +inf when the distance of mu to Ran(Q^T) = Ran(Q^T Q) is
        above CONJ_TOL * ||mu||, else the quadratic of its range part."""
        mh = self.V.T @ mu
        if np.linalg.norm(mh[~self.pos]) > CONJ_TOL * np.linalg.norm(mu):
            return INF
        mh = np.where(self.pos, mh, 0.0)
        quad = 0.5 * float(np.sum(np.where(self.pos, mh * mh / np.where(self.pos, self.lam, 1.0), 0.0)))
        return quad + float(mh @ self._dhat) - self._conj_const

    def range_projection(self, mu):
        mh = np.where(self.pos, self.V.T @ mu, 0.0)
        return self.V @ mh

    def prox_conj(self, s, w):
        """Prox of s*f* in the eigenbasis (zero outside Ran(Q^T))."""
        wh = self.V.T @ w
        mh = np.where(self.pos, self.lam * (wh - s * self._dhat) / (self.lam + s), 0.0)
        return self.V @ mh


class LeastSquaresObjective(ObjectiveOracle):
    """f(x) = 0.5*||Q x - c||^2 (smooth; conjugate finite on Ran(Q^T) only)."""

    separable_conj = True  # f1* = 0, f2* = f* on its affine domain

    def __init__(self, design, target):
        self.data = LeastSquaresData(design, target)
        self.dim = self.data.n
        self.smooth_lipschitz = self.data.lam_max
        self.conj_part_lipschitz = 0.0
        self.conj_grad_lipschitz = self.data.inv_lam_min_pos

    def __call__(self, x):
        return self.data.value(_check_dim(x, self.dim, "x"))

    def prox(self, s, v):
        return self.data.prox(s, _check_dim(v, self.dim, "v", rows=True))

    def conj(self, mu):
        return self.data.conj(_check_dim(mu, self.dim, "mu"))

    def project_conj_domain(self, mu):
        return self.data.range_projection(_check_dim(mu, self.dim, "mu"))

    def prox_conj(self, s, w):
        return self.data.prox_conj(s, _check_dim(w, self.dim, "w"))

    def stationarity_residual(self, x, g):
        return self.data.stationarity_residual(_check_dim(x, self.dim, "x"),
                                               _check_dim(g, self.dim, "g"))

    def value_diff(self, x, p):
        return self.data.value_diff(_check_dim(x, self.dim, "x"),
                                    _check_dim(p, self.dim, "p", rows=True))


class L1Norm(ObjectiveOracle):
    """f(x) = ||x||_1; prox is soft thresholding, f* the unit-box indicator."""

    conj_lipschitz = 0.0

    def __init__(self, dim):
        self.dim = int(dim)

    def __call__(self, x):
        return float(np.abs(_check_dim(x, self.dim, "x")).sum())

    def prox(self, s, v):
        v = _check_dim(v, self.dim, "v", rows=True)
        return np.sign(v) * np.maximum(np.abs(v) - _step(s, v), 0.0)

    def conj(self, mu):
        mu = _check_dim(mu, self.dim, "mu")
        return 0.0 if np.abs(mu).max(initial=0.0) <= 1.0 + CONJ_TOL else INF

    def project_conj_domain(self, mu):
        return np.clip(_check_dim(mu, self.dim, "mu"), -1.0, 1.0)

    def prox_conj(self, s, w):
        # prox of the indicator of the unit infinity ball is its projection
        return np.clip(_check_dim(w, self.dim, "w"), -1.0, 1.0)

    def stationarity_residual(self, x, g):
        x = _check_dim(x, self.dim, "x")
        g = _check_dim(g, self.dim, "g")
        on = x != 0.0
        terms = np.where(on, (np.sign(x) + g) ** 2, (np.clip(-g, -1.0, 1.0) + g) ** 2)
        return float(terms.sum())

    def value_diff(self, x, p):
        """The exactly rounded sum of the +|x_i|, -|p_i| terms, per row of a
        2-D p.  -sum|x_i| is first split into a few floats with exactly that
        sum (each fsum rounds what the earlier ones leave, until nothing is
        left), so a row sums those and its own |p_i| terms.  Round to
        nearest is symmetric, so negating that correctly rounded sum is
        exact, and 0.0 - s turns a zero into +0.0 as the direct sum does.
        Columns of |p| that are zero in every row are left out, since a zero
        term does not change an exactly rounded sum."""
        ax = np.abs(_check_dim(x, self.dim, "x")).tolist()
        p = _check_dim(p, self.dim, "p", rows=True)
        neg = []
        s = math.fsum(ax)
        while s != 0.0:
            neg.append(-s)
            if not math.isfinite(s):
                break
            s = math.fsum(ax + neg)
        ap = np.abs(p).reshape(-1, self.dim)
        d = [0.0 - math.fsum(neg + row) for row in ap[:, ap.any(axis=0)].tolist()]
        return d[0] if p.ndim == 1 else np.array(d)


class NonnegativeQuadratic(ObjectiveOracle):
    """Separable F(x, xt) = 0.5*||Q x - c||^2 + indicator(xt >= 0).

    The primal variable is the 2n-vector X = (x, xt).  All oracle operations
    split into the least-squares block (``LeastSquaresData``) and the
    nonnegativity block.
    """

    separable_conj = True  # f1* = indicator(mu_t <= 0), f2* = LS conjugate
    conj_part_lipschitz = 0.0

    def __init__(self, design, target):
        self.data = LeastSquaresData(design, target)
        self.block_dim = self.data.n
        self.dim = 2 * self.block_dim
        self.conj_grad_lipschitz = self.data.inv_lam_min_pos

    def _split(self, X, what="X"):
        X = _check_dim(X, self.dim, what)
        return X[: self.block_dim], X[self.block_dim:]

    def __call__(self, X):
        x, xt = self._split(X)
        if np.any(xt < 0.0):
            return INF
        return self.data.value(x)

    def prox(self, s, V):
        V = _check_dim(V, self.dim, "v", rows=True)
        nb = self.block_dim
        return np.concatenate([self.data.prox(s, V[..., :nb]),
                               np.maximum(V[..., nb:], 0.0)], axis=-1)

    def conj(self, mu):
        m1, m2 = self._split(mu, "mu")
        if np.any(m2 > CONJ_TOL * max(np.linalg.norm(mu), 1.0)):
            return INF
        return self.data.conj(m1)

    def project_conj_domain(self, mu):
        m1, m2 = self._split(mu, "mu")
        return np.concatenate([self.data.range_projection(m1), np.minimum(m2, 0.0)])

    def prox_conj(self, s, w):
        w1, w2 = self._split(w, "w")
        return np.concatenate([self.data.prox_conj(s, w1), np.minimum(w2, 0.0)])

    def stationarity_residual(self, X, J):
        x, xt = self._split(X)
        jl, jb = self._split(J, "J")
        if np.any(xt < 0.0):
            return INF
        extra = np.where(xt == 0.0, np.minimum(0.0, jb) ** 2, jb ** 2)
        return self.data.stationarity_residual(x, jl) + float(extra.sum())

    def value_diff(self, X, P):
        x, xt = self._split(X)
        P = _check_dim(P, self.dim, "P", rows=True)
        if np.any(xt < 0.0):
            return INF if P.ndim == 1 else np.full(len(P), INF)
        # prox outputs are always feasible: only the least-squares block differs
        return self.data.value_diff(x, P[..., :self.block_dim])
