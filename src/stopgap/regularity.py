"""Regularity constants feeding the bound theorems: the metric sub-regularity
constant gamma (smallest nonzero |eigenvalue| of the stationarity matrix) and
the quadratic-error-bound constant eta of the smoothed gap.

Both exist here for least-squares instances only.  There the smoothed gap
is a quadratic in z = (x, y) whose quadratic part z^T H z depends only on
Q^T Q, A and beta; eta is half the smallest positive eigenvalue of H.  Both
constants take Q^T Q as formed once by the objective
(``LeastSquaresObjective.gram``).

Set-up (``lipschitz_constants``) makes the instance's ``EtaCache``, which
computes gamma once.  eta depends on beta, so the cache solves for
eta(beta) at each row's own beta on first use.  The Lipschitz
constants of the objective and its conjugate parts are attributes of the
objective (``objectives.ObjectiveOracle``), and the bounds read them there.
"""

import numpy as np

from .criteria import GRID_VALUES, check_beta
from .errors import DegenerateProblemError, StopgapError
from .linalg import RANK_RTOL, stationarity_matrix
from .objectives import LeastSquaresObjective


def msr_gamma(gram, A):
    """Smallest |eigenvalue| above the rank cutoff of the stationarity matrix
    of ``gram`` = Q^T Q and A: the metric sub-regularity constant of the
    Lagrangian gradient."""
    M = stationarity_matrix(gram, A)
    w = np.linalg.eigvalsh(M)
    scale = np.abs(w).max()
    kept = np.abs(w)[np.abs(w) > RANK_RTOL * scale]
    if kept.size == 0:
        raise DegenerateProblemError("stationarity matrix is numerically zero")
    return float(kept.min())


def qeb_eta(gram, A, beta):
    """Quadratic-error-bound constant of the smoothed gap at the float
    ``beta`` and the quadratic part of the gap, from ``gram`` = Q^T Q and A.

    Assembles B = Q^T Q + beta Id and

        M_xx = Q^T Q / 2 + (1 / 2 beta) A^T A + (beta^2 / 2) B^{-1}
               - (beta / 2) Id
        M_xy = A^T - beta B^{-1} A^T
        M_yy = A B^{-1} A^T / 2

    and returns (eta, H) with H = [[M_xx, M_xy / 2], [M_xy^T / 2, M_yy]] and
    eta = (smallest positive eigenvalue of H)/2.  H must be PSD up to
    round-off since the gap is nonnegative.
    """
    check_beta(beta)
    gram = np.atleast_2d(np.asarray(gram, float))
    A = np.atleast_2d(np.asarray(A, float))
    n = gram.shape[0]
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
    return float(pos.min()) / 2.0, H


def lipschitz_constants(instance, steps=None):
    """The ``EtaCache`` of a least-squares ``instance``, which holds gamma
    and gives eta per beta; None for any other objective, which has
    neither.  ``steps`` is unused; the keyword stays for existing callers.
    """
    if not isinstance(instance.objective, LeastSquaresObjective):
        return None
    return EtaCache(instance)


class EtaCache:
    """The regularity constants of one least-squares instance: ``gamma``,
    computed when the cache is made, and eta at the float beta, memoised.

    Only the fixed grid beta (``criteria.GRID_VALUES``) are kept: every row
    reads them, while the one other beta of a row, its own feasibility error,
    is solved for and returned without being stored."""

    def __init__(self, instance):
        self.instance = instance
        self.gamma = msr_gamma(instance.objective.gram, instance.constraint.matrix)
        self._cache = {}

    def __call__(self, beta):
        eta = self._cache.get(beta)
        if eta is None:
            eta = qeb_eta(self.instance.objective.gram,
                          self.instance.constraint.matrix, beta)[0]
            if beta in GRID_VALUES:
                self._cache[beta] = eta
        return eta
