"""Problem containers: affine constraints, primal-dual points, reference
solutions and the bundle tying an objective to its constraint."""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError
from .linalg import check_finite, operator_norm


class AffineConstraint:
    """Equality constraint A x = b.

    ``allow_empty`` admits m = 0 (used only when evaluating criteria on
    unconstrained counterexamples); the solver itself requires m >= 1.
    """

    def __init__(self, matrix, rhs, allow_empty=False):
        self.matrix = check_finite(np.atleast_2d(np.asarray(matrix, dtype=float)),
                                   "constraint matrix A")
        self.rhs = check_finite(np.asarray(rhs, dtype=float).reshape(-1), "constraint rhs b")
        m, n = self.matrix.shape
        if n < 1 or (m < 1 and not allow_empty):
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


def _vector(v):
    """``v`` as a 1-D float array: a float vector as it is, anything else
    converted and flattened."""
    v = np.asarray(v, dtype=float)
    return v if v.ndim == 1 else v.reshape(-1)


@dataclass(frozen=True, slots=True)
class PrimalDualPoint:
    """Iterate z = (x, y).  A trajectory keeps one per recorded iterate, so a
    point holds its two arrays and nothing else."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _vector(self.x))
        object.__setattr__(self, "y", _vector(self.y))

    def norms(self):
        return float(np.linalg.norm(self.x)), float(np.linalg.norm(self.y))


@dataclass(frozen=True)
class ReferenceSolution:
    """Known minimiser and optimal value with how they were obtained."""

    x_star: np.ndarray
    f_star: float
    provenance: str = "analytic"  # analytic | normal-equations | high-accuracy-solve


@dataclass
class ProblemInstance:
    """Objective + affine constraint (+ optional reference solution)."""

    objective: object
    constraint: AffineConstraint
    reference: ReferenceSolution | None = None
    label: str = ""
    family: str = ""  # ls | qp | bp: drives constants and bound applicability
    extras: dict = field(default_factory=dict)

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
