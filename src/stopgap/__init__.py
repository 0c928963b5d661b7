"""Primal-dual optimization toolkit: PDHG for affinely-constrained convex
problems, four comparable stopping criteria, and numeric certification of
the inequalities relating them."""

from .criteria import (PointValues, beta_grid, kkt_error, ogfe, projected_duality_gap,
                       select_beta, smoothed_duality_gap)
from .instances import make_1d, make_bp, make_do, make_iidg, make_ntc, make_pqp, read_libsvm
from .linalg import operator_norm
from .objectives import L1Norm, LeastSquaresObjective, NonnegativeQuadratic
from .pdhg import (SolveConfig, StepSizes, Trajectory, default_step_sizes, solve,
                   step_v1, step_v2)
from .problem import AffineConstraint, PrimalDualPoint, ProblemInstance, ReferenceSolution
from .regularity import lipschitz_constants, msr_gamma, qeb_eta

__all__ = [
    "AffineConstraint", "L1Norm",
    "LeastSquaresObjective", "NonnegativeQuadratic", "PointValues", "PrimalDualPoint",
    "ProblemInstance", "ReferenceSolution", "SolveConfig", "StepSizes",
    "Trajectory", "beta_grid", "default_step_sizes", "kkt_error", "lipschitz_constants",
    "make_1d", "make_bp", "make_do", "make_iidg", "make_ntc",
    "make_pqp", "msr_gamma", "ogfe", "operator_norm", "projected_duality_gap",
    "qeb_eta", "read_libsvm", "select_beta", "smoothed_duality_gap", "solve",
    "step_v1", "step_v2",
]

__version__ = "0.1.0"
