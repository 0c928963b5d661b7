"""Regularity oracles for the tests: the saddle set of a least-squares
instance, the distance to it, and the full quadratic model of the smoothed
gap.  ``stopgap.regularity`` needs only the quadratic part H of that model
(for eta); the certificates of criterion 5 need the rest."""

from dataclasses import dataclass

import numpy as np

from stopgap.errors import DegenerateProblemError
from stopgap.linalg import RANK_RTOL, pinv_solve, stationarity_matrix
from stopgap.regularity import qeb_eta


@dataclass
class QuadraticFormModel:
    """G(z) = z^T H z + <z, v> + constant for an LC-LS instance."""

    H: np.ndarray
    v: np.ndarray
    constant: float

    def value(self, z):
        z = np.asarray(z, dtype=float)
        return float(z @ self.H @ z + z @ self.v + self.constant)


def qeb_model(Q, c, A, b, beta):
    """(eta, model) at the float ``beta``: eta and H from ``qeb_eta``, plus
    the linear and constant terms of the smoothed gap, with
    B = Q^T Q + beta Id,

        v_x = beta B^{-1} Q^T c - Q^T c - (1/beta) A^T b
        v_y = -A B^{-1} Q^T c
    """
    eta, H = qeb_eta(Q, A, beta)
    Q = np.atleast_2d(np.asarray(Q, float))
    A = np.atleast_2d(np.asarray(A, float))
    c = np.asarray(c, float)
    b = np.asarray(b, float)
    qtc = Q.T @ c
    Binv = np.linalg.inv(Q.T @ Q + beta * np.eye(Q.shape[1]))
    vx = beta * (Binv @ qtc) - qtc - (1.0 / beta) * (A.T @ b)
    vy = -A @ (Binv @ qtc)
    resid = Q @ (Binv @ qtc) - c
    cst = (0.5 * float(c @ c) + (1.0 / (2.0 * beta)) * float(b @ b)
           - 0.5 * float(resid @ resid) - (beta / 2.0) * float((Binv @ qtc) @ (Binv @ qtc)))
    return eta, QuadraticFormModel(H=H, v=np.concatenate([vx, vy]), constant=cst)


def null_space_basis(M):
    """Orthonormal basis of ker(M), possibly empty (n, 0)."""
    U, sv, Vt = np.linalg.svd(M)
    tol = RANK_RTOL * (sv[0] if sv.size else 1.0)
    r = int(np.sum(sv > tol))
    return Vt[r:].T


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
