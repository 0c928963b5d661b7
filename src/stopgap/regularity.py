"""Regularity constants feeding the bound theorems: the metric sub-regularity
constant gamma (smallest nonzero |eigenvalue| of the stationarity matrix) and
the quadratic-error-bound constant eta of the smoothed gap.

Set-up (``lipschitz_constants``) computes gamma once per instance.  eta
depends on beta, so the bounds read eta(beta) at each row's own beta through
an ``EtaCache``, which solves for it on first use.  The Lipschitz constants of
the objective and its conjugate parts are attributes of the objective
(``objectives.ObjectiveOracle``), and the bounds read them there.

For least-squares instances the smoothed gap is an explicit quadratic
z^T H z + <z, v> + cst; eta comes from the smallest positive eigenvalue of H.
"""

from dataclasses import dataclass

import numpy as np

from .criteria import GRID_VALUES, check_beta
from .errors import DegenerateProblemError, StopgapError
from .linalg import RANK_RTOL, null_space_basis, pinv_solve, stationarity_matrix
from .objectives import LeastSquaresObjective

DECLARED_DEFAULT = 1e-8  # gamma = eta fallback where computing them is intractable


@dataclass
class RegularityConstants:
    gamma: float
    provenance: dict

    def __post_init__(self):
        if self.gamma <= 0:
            raise StopgapError("regularity constant gamma must be positive")


@dataclass
class QuadraticFormModel:
    """G(z) = z^T H z + <z, v> + constant for an LC-LS instance."""

    H: np.ndarray
    v: np.ndarray
    constant: float

    def value(self, z):
        z = np.asarray(z, dtype=float)
        return float(z @ self.H @ z + z @ self.v + self.constant)


def msr_gamma(Q, A):
    """Smallest |eigenvalue| of the stationarity matrix above the rank
    cutoff: the metric sub-regularity constant of the Lagrangian gradient."""
    M = stationarity_matrix(Q, A)
    w = np.linalg.eigvalsh(M)
    scale = np.abs(w).max()
    kept = np.abs(w)[np.abs(w) > RANK_RTOL * scale]
    if kept.size == 0:
        raise DegenerateProblemError("stationarity matrix is numerically zero")
    return float(kept.min())


def qeb_eta(Q, c, A, b, beta):
    """Quadratic-error-bound constant of the smoothed gap at the float
    ``beta`` plus its model.

    Assembles B = Q^T Q + beta Id and

        M_xx = Q^T Q / 2 + (1 / 2 beta) A^T A + (beta^2 / 2) B^{-1}
               - (beta / 2) Id
        M_xy = A^T - beta B^{-1} A^T
        M_yy = A B^{-1} A^T / 2
        v_x  = beta B^{-1} Q^T c - Q^T c - (1/beta) A^T b
        v_y  = -A B^{-1} Q^T c

    and returns (eta, model) with eta = (smallest positive eigenvalue of
    H)/2.  H must be PSD up to round-off since the gap is nonnegative.
    """
    check_beta(beta)
    Q = np.atleast_2d(np.asarray(Q, float))
    A = np.atleast_2d(np.asarray(A, float))
    c = np.asarray(c, float)
    b = np.asarray(b, float)
    n = Q.shape[1]
    gram = Q.T @ Q
    qtc = Q.T @ c
    B = gram + beta * np.eye(n)
    Binv = np.linalg.inv(B)
    Mxx = (0.5 * gram + (1.0 / (2.0 * beta)) * (A.T @ A) + (beta * beta / 2.0) * Binv
           - (beta / 2.0) * np.eye(n))
    Mxy = A.T - beta * (Binv @ A.T)
    Myy = 0.5 * (A @ Binv @ A.T)
    H = np.block([[Mxx, 0.5 * Mxy], [0.5 * Mxy.T, Myy]])
    H = 0.5 * (H + H.T)
    w = np.linalg.eigvalsh(H)
    scale = max(np.abs(w).max(), 1e-300)
    if w.min() < -1e-8 * scale:
        raise StopgapError(f"smoothed-gap quadratic form is indefinite "
                           f"(min eig {w.min()}); assembly bug")
    pos = w[w > RANK_RTOL * scale]
    if pos.size == 0:
        raise DegenerateProblemError("quadratic form has no positive eigenvalues")
    eta = float(pos.min()) / 2.0

    vx = beta * (Binv @ qtc) - qtc - (1.0 / beta) * (A.T @ b)
    vy = -A @ (Binv @ qtc)
    resid = Q @ (Binv @ qtc) - c
    cst = (0.5 * float(c @ c) + (1.0 / (2.0 * beta)) * float(b @ b)
           - 0.5 * float(resid @ resid) - (beta / 2.0) * float((Binv @ qtc) @ (Binv @ qtc)))
    model = QuadraticFormModel(H=H, v=np.concatenate([vx, vy]), constant=cst)
    return eta, model


def lipschitz_constants(instance, steps=None):
    """Set-up constants of ``instance``: gamma with its provenance.

    Least squares: gamma from the spectrum of the stationarity matrix, and
    eta per beta.  Other objectives: gamma and eta fall back to the declared
    default 1e-8.  eta has one source, the ``EtaCache`` the bounds read
    eta(beta) from; the provenance says whether that is "per-beta" or
    "declared-default".
    ``steps`` is unused; the keyword stays for existing callers.
    """
    if isinstance(instance.objective, LeastSquaresObjective):
        gamma = msr_gamma(instance.objective.data.design, instance.constraint.matrix)
        return RegularityConstants(gamma, {"gamma": "computed", "eta": "per-beta"})
    return RegularityConstants(DECLARED_DEFAULT, {"gamma": "declared-default",
                                                  "eta": "declared-default"})


def saddle_set(Q, c, A, b):
    """Particular saddle point and an orthonormal basis of the saddle-set
    directions (kernel of the stationarity matrix)."""
    M = stationarity_matrix(Q, A)
    rhs = np.concatenate([Q.T @ c, b])
    z_p = pinv_solve(M, rhs)
    if np.linalg.norm(M @ z_p - rhs) > 1e-7 * (1.0 + np.linalg.norm(rhs)):
        raise DegenerateProblemError("stationarity system is inconsistent")
    return z_p, null_space_basis(M)


def distance_to_saddle_set(z, z_p, kernel_basis):
    """Euclidean distance via orthogonal projection onto z_p + ker(M)."""
    d = np.asarray(z, float) - z_p
    if kernel_basis.shape[1]:
        d = d - kernel_basis @ (kernel_basis.T @ d)
    return float(np.linalg.norm(d))


class EtaCache:
    """Memoised eta at the float beta for one least-squares instance; other
    objectives return the declared default.

    Only the fixed grid beta (``criteria.GRID_VALUES``) are kept: every row
    reads them, while the one other beta of a row, its own feasibility error,
    is solved for and returned without being stored."""

    def __init__(self, instance):
        self.instance = instance
        self._cache = {}
        self.computable = isinstance(instance.objective, LeastSquaresObjective)

    def __call__(self, beta):
        if not self.computable:
            return DECLARED_DEFAULT
        eta = self._cache.get(beta)
        if eta is None:
            obj = self.instance.objective
            eta = qeb_eta(obj.data.design, obj.data.target, self.instance.constraint.matrix,
                          self.instance.constraint.rhs, beta)[0]
            if beta in GRID_VALUES:
                self._cache[beta] = eta
        return eta
