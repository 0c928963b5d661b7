"""Property test of the floor under the KKT, PDG and OG/FE gates.

``pdhg.solve`` skips those gates while the feasibility error alone is above
their threshold; that keeps every crossing only because each computed value
is at least its computed feasibility term, at any point.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stopgap.criteria import PointValues, kkt_error, ogfe, projected_duality_gap
from stopgap.objectives import L1Norm, LeastSquaresObjective, NonnegativeQuadratic
from stopgap.problem import AffineConstraint, PrimalDualPoint, ProblemInstance, ReferenceSolution


def random_problem(kind, m, n, rank, scale, rng):
    """A random instance with objective ``kind`` on n variables (2n for the
    nonnegative QP) and m constraint rows, whose A has rank at most ``rank``
    and entries of size about ``scale``; OG is measured against an arbitrary
    f*."""
    if kind == "l1":
        obj = L1Norm(n)
    elif kind == "ls":
        obj = LeastSquaresObjective(scale * rng.standard_normal((m, n)), rng.standard_normal(m))
    else:
        obj = NonnegativeQuadratic(rng.standard_normal((m, n)), rng.standard_normal(m))
    A = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, obj.dim))
    return ProblemInstance(objective=obj,
                           constraint=AffineConstraint(scale * A, scale * rng.standard_normal(m)),
                           reference=ReferenceSolution(np.zeros(obj.dim), float(rng.normal()),
                                                       np.zeros(m)))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(("l1", "ls", "nnq")), seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(1, 6), extra_rows=st.integers(0, 6), rank_cut=st.integers(0, 3),
       log_scale=st.integers(-6, 6), log_point=st.integers(-6, 6))
def test_fe_floor_of_every_non_sdg_measure(kind, seed, n, extra_rows, rank_cut,
                                           log_scale, log_point):
    # the solver skips the KKT, PDG and OG/FE gates while FE is above epsilon;
    # that is exact only because each computed value is at least the computed
    # FE term, at any point, for m > n, rank-deficient A and extreme scales
    rng = np.random.default_rng(seed)
    m = n + extra_rows
    problem = random_problem(kind, m, n, max(1, min(m, n) - rank_cut), 10.0 ** log_scale, rng)
    point_scale = 10.0 ** log_point
    x = point_scale * rng.standard_normal(problem.constraint.n)
    if kind == "nnq":
        x[n:] = np.abs(x[n:])  # keep f finite half the time, leave it +inf otherwise
        if seed % 2:
            x[-1] = -1.0
    z = PrimalDualPoint(x, point_scale * rng.standard_normal(m))
    r = problem.constraint.residual(z.x)
    fe2 = float(r @ r)
    assert kkt_error(PointValues(problem, z)) >= fe2
    assert projected_duality_gap(PointValues(problem, z)) >= fe2
    og, fe = ogfe(PointValues(problem, z))
    assert max(og, fe) >= fe
    assert fe == float(np.linalg.norm(r))
