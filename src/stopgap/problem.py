"""Problem containers: affine constraints, primal-dual points, reference
solutions and the bundle tying an objective to its constraint."""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .linalg import aligned, check_finite, operator_norm


class AffineConstraint:
    """Equality constraint A x = b with at least one row and one column.  The
    zero row A = 0, b = 0 writes an unconstrained problem for criterion
    evaluation and the oracles only: ``solve`` refuses it, as ||A|| = 0 raises."""

    def __init__(self, matrix, rhs):
        self.matrix = aligned(check_finite(np.atleast_2d(np.asarray(matrix, dtype=float)),
                                           "constraint matrix A"))
        self.rhs = check_finite(_vector(rhs, "constraint rhs b"), "constraint rhs b")
        m, n = self.matrix.shape
        if n < 1 or m < 1:
            raise DimensionMismatchError("constraint matrix needs at least one row and column")
        if self.rhs.shape != (m,):
            raise DimensionMismatchError(
                f"rhs length {self.rhs.shape[0]} != row count {m}")
        self._norm = None

    @property
    def m(self):
        return self.matrix.shape[0]

    @property
    def n(self):
        return self.matrix.shape[1]

    def residual(self, x):
        """A x - b."""
        return self.matrix @ x - self.rhs

    def norm(self):
        """Cached spectral norm ||A||."""
        if self._norm is None:
            self._norm = operator_norm(self.matrix)
        return self._norm


def _vector(v, what):
    """``v`` as a 1-D float array: a float vector as it is, a scalar as a
    vector of one; an array of more axes raises, naming ``what``."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        return v
    if v.ndim:
        raise DimensionMismatchError(f"{what} must be a vector, got shape {v.shape}")
    return v.reshape(-1)


@dataclass(frozen=True, slots=True)
class PrimalDualPoint:
    """Iterate z = (x, y).  A trajectory keeps one per recorded iterate, so a
    point holds its two arrays and nothing else."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _vector(self.x, "x"))
        object.__setattr__(self, "y", _vector(self.y, "y"))

    def norms(self):
        return float(np.linalg.norm(self.x)), float(np.linalg.norm(self.y))


@dataclass(frozen=True)
class ReferenceSolution:
    """Known saddle point (x*, y*) and the optimal value f* = f(x*)."""

    x_star: np.ndarray
    f_star: float
    y_star: np.ndarray


@dataclass(frozen=True)
class ProblemInstance:
    """Objective + affine constraint (+ optional reference solution).

    What the constants and the bounds assume of an instance is read from its
    objective: its class (least squares or not) and its Lipschitz attributes.
    """

    objective: object
    constraint: AffineConstraint
    reference: ReferenceSolution | None = None
    label: str = ""

    def __post_init__(self):
        if self.constraint.n != self.objective.dim:
            raise DimensionMismatchError(
                f"constraint has {self.constraint.n} columns, objective dimension is "
                f"{self.objective.dim}")

    def check_point(self, z: PrimalDualPoint):
        if z.x.shape != (self.constraint.n,) or z.y.shape != (self.constraint.m,):
            raise DimensionMismatchError(
                f"point dims {z.x.shape}, {z.y.shape} do not match problem "
                f"({self.constraint.n},), ({self.constraint.m},)")
        return z
