"""The four optimality measures evaluated at a primal-dual point, each read
from the point's one ``PointValues``, plus the smoothing-parameter grid and
its selection rule.

Conventions: KKT and PDG are sums of squared residuals; OG/FE are plain
values; the smoothed gap is evaluated per smoothing parameter beta > 0 and
is provably >= 0 for the self-centered version.  The paper smooths with a
pair (beta_x, beta_y); every grid, gate and bound here sets both to one
beta, so only that diagonal is kept.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, StopgapError
from .linalg import rowwise
from .problem import PrimalDualPoint, ProblemInstance

INF = float("inf")

# grid of 40 log-equispaced smoothing values spanning [1e-8, 100]
GRID_VALUES = tuple(np.logspace(-8.0, 2.0, 40).tolist())


def beta_grid(feasibility_error=0.0):
    """The sorted beta grid: the 40 fixed log-spaced values plus the
    feasibility error when it is positive and finite."""
    extra = (float(feasibility_error),) if 0.0 < feasibility_error < INF else ()
    return np.array(sorted(GRID_VALUES + extra))


def _checked(kind, value):
    """``value`` itself; a measure is nonnegative or +inf, so a negative or
    nan value raises."""
    if not value >= 0.0:
        raise StopgapError(f"criterion {kind} evaluated to {value}")
    return value


class PointValues:
    """Every measure at one point ``z``, the one evaluation of an iterate
    that the gates, the trace and the bounds share.

    ``z`` is checked once, and ``r`` = Ax - b, ``rr`` = ||r||^2 and ``fe`` =
    ||r|| are formed up front, since every gate reads FE.  A^T y (``aty``),
    f(x) (``fx``), OG (``og``, None without a reference solution), ``kkt``,
    ``pdg`` and the smoothed gap over the beta grid built from FE (``sdg``)
    are formed at first use and kept, so a gate shut by its feasibility floor
    forms none of them.  Each property looks its measure up in this module
    when it runs, so a wrapper set on the module sees every call.
    """

    def __init__(self, problem: ProblemInstance, z: PrimalDualPoint):
        self.problem, self.z = problem, problem.check_point(z)
        self.r = problem.constraint.residual(z.x)
        self.rr = float(np.vdot(self.r, self.r))  # +inf on overflow, without a warning
        self.fe = math.sqrt(self.rr)  # the bits of np.linalg.norm(r)

    aty = cached_property(lambda self: self.problem.constraint.matrix.T @ self.z.y)
    fx = cached_property(lambda self: self.problem.objective(self.z.x))
    og = cached_property(lambda self: None if self.problem.reference is None
                         else ogfe(self)[0])
    kkt = cached_property(lambda self: kkt_error(self))
    pdg = cached_property(lambda self: projected_duality_gap(self))
    sdg = cached_property(lambda self: sdg_over_grid(self, beta_grid(self.fe)))


def ogfe(values: PointValues):
    """Optimality gap max(f(x) - f*, 0) and feasibility error ||Ax - b||.

    Requires a reference solution; OG is an oracle-only quantity.
    """
    check_reference(values.problem, ("ogfe",))
    og = max(values.fx - values.problem.reference.f_star, 0.0)
    return _checked("OG", og), _checked("FE", values.fe)


def check_reference(problem, names):
    """Refuse OG/FE among ``names`` when ``problem`` has no reference solution."""
    if "ogfe" in names and problem.reference is None:
        raise ConfigError(f"{problem.label}: ogfe requested but no reference solution")


def kkt_error(values: PointValues):
    """||df(x) + A^T y||_0^2 + ||Ax - b||^2 (squared minimum-norm subgradient
    plus squared feasibility error); +inf propagates from the residual."""
    stat = values.problem.objective.stationarity_residual(values.z.x, values.aty)
    return _checked("KKT", stat + values.rr)


def projected_duality_gap(values: PointValues):
    """|f(x) + f*(a) + <b,y>|^2 + ||a + A^T y||^2 + ||Ax - b||^2 with
    a = Proj_{dom f*}(-A^T y)."""
    obj, aty = values.problem.objective, values.aty
    a = obj.project_conj_domain(-aty)
    fa = obj.conj(a)
    if not math.isfinite(fa):
        raise StopgapError("projection onto dom f* returned a point with f* = +inf "
                           "(projection contract violated)")
    fx = values.fx
    da = a + aty
    if not math.isfinite(fx):
        value = INF
    else:
        gap = fx + fa + float(values.problem.constraint.rhs @ values.z.y)
        value = gap * gap + float(da @ da) + values.rr
    return _checked("PDG", value)


def check_beta(beta):
    """``beta`` as a float array: a scalar or a 1-D array of values in
    (0, inf); anything else raises."""
    b = np.asarray(beta, dtype=float)
    if b.ndim > 1 or not ((b > 0.0) & (b < INF)).all():
        raise ConfigError(f"beta must be a scalar or 1-D array of values in (0, inf), "
                          f"got {beta}")
    return b


def smoothed_duality_gap(values: PointValues, beta):
    """Self-centered smoothed gap in closed form, and its prox point.

    G_beta(z) = f(x) - f(p) + <A(x-p), y> - beta/2 ||p-x||^2
                + ||Ax-b||^2 / (2 beta)
    with p = prox_{f/beta}(x - A^T y / beta).  Nonnegative up to round-off;
    tiny negatives are clamped to zero.  Where ||Ax-b||^2 overflows, so does
    its floor ||Ax-b||^2 / (2 beta): the gap is +inf at every beta.

    ``beta`` is a float, giving (G, p) as a float and an (n,) vector, or a
    (k,) array, giving a (k,) array and one C-contiguous prox point per row
    of a (k, n) array.  Entry j of an array call has the bits of the call at
    beta[j].
    """
    b = check_beta(beta)
    x, y = values.z.x, values.z.y
    obj = values.problem.objective
    P = obj.prox(1.0 / b, x - values.aty / b[..., None])
    if not np.isfinite(P).all():
        raise StopgapError("prox returned a non-finite point")
    fe2 = values.rr
    if fe2 == INF:
        G = np.full(b.shape, INF)
        return (G if G.ndim else float(G)), P
    D = x - P
    # f(x) - f(p) through the cancellation-free path: near convergence the
    # difference sits many orders below f itself; it is +inf with f(x)
    value = (obj.value_diff(x, P) + np.vecdot(rowwise(values.problem.constraint.matrix, D), y)
             - 0.5 * b * np.vecdot(D, D) + fe2 / (2.0 * b))
    # the round-off tolerance -1e-9 * max(1, |f(x)|, ||r||^2) is at most
    # -1e-9, so f(x) is needed only when some value is below that
    if not (value >= -1e-9).all() and not (
            value >= -1e-9 * max(1.0, abs(values.fx), fe2)).all():
        if np.isnan(value).any():
            raise StopgapError("criterion SDG evaluated to nan")
        raise StopgapError(f"self-centered smoothed gap is negative ({np.min(value)}) "
                           "beyond round-off; prox is inconsistent")
    G = np.where(value < 0.0, 0.0, value)
    return (G if G.ndim else float(G)), P


@dataclass(frozen=True)
class SdgGrid:
    """The smoothed gap at every entry of a beta grid: ``beta`` (k,), ``gap``
    (k,) and ``prox`` (k, n), one C-contiguous prox point per beta."""

    beta: np.ndarray
    gap: np.ndarray
    prox: np.ndarray


def sdg_over_grid(values: PointValues, beta: np.ndarray):
    """``smoothed_duality_gap`` at every entry of the beta array."""
    return SdgGrid(beta, *smoothed_duality_gap(values, beta))


def best_sdg(grid: SdgGrid):
    """Index of the smallest certificate over a grid, and that certificate:
    the surrogate max(G, sqrt(2 beta G)), small iff the gap certifies an
    epsilon-solution at that beta.  Ties go to the first index, i.e. the
    smaller beta of a sorted grid; an all-+inf grid returns index 0."""
    G = grid.gap
    cert = np.maximum(G, np.sqrt(2.0 * grid.beta * G))
    j = int(select_beta(cert))
    return j, float(cert[j])


def select_beta(keys):
    """Index of the smallest finite key along the last axis: the first such
    index on ties, i.e. the smaller beta of a sorted grid, and 0 when no key
    is finite.  This is the one beta-selection rule; callers encode their
    criterion in the keys and mark an unusable beta with +inf."""
    return np.argmin(np.where(np.isfinite(keys), keys, INF), axis=-1)
