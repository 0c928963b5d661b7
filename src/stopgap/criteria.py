"""The four optimality measures evaluated at a primal-dual point, plus the
smoothing-parameter grid and its selection rule.

Conventions: KKT and PDG are sums of squared residuals; OG/FE are plain
values; the smoothed gap is evaluated per smoothing pair beta = (beta_x,
beta_y) and is provably >= 0 for the self-centered version.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, StopgapError
from .linalg import rowwise
from .problem import PrimalDualPoint, ProblemInstance

INF = float("inf")

# grid of 40 log-equispaced smoothing values spanning [1e-8, 100]
GRID_VALUES = tuple(np.logspace(-8.0, 2.0, 40).tolist())


@dataclass(frozen=True)
class SmoothingParams:
    """beta = (beta_x, beta_y), both strictly positive and finite."""

    beta_x: float
    beta_y: float

    def __post_init__(self):
        if not (0.0 < self.beta_x < INF and 0.0 < self.beta_y < INF):
            raise ConfigError(f"smoothing parameters must be in (0, inf): {self}")


def beta_grid(feasibility_error=0.0):
    """The sorted beta grid: the 40 fixed log-spaced values plus the
    feasibility error when it is positive."""
    extra = (float(feasibility_error),) if feasibility_error > 0.0 else ()
    return np.array(sorted(GRID_VALUES + extra))


@dataclass
class CriterionValue:
    """Tagged scalar output of one optimality measure.

    ``witnesses`` carries the PDG projection point ``a`` when applicable.
    """

    kind: str                       # OG | FE | KKT | PDG
    value: float
    witnesses: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("OG", "FE", "KKT", "PDG"):
            raise ConfigError(f"unknown criterion kind {self.kind!r}")
        if not (self.value >= 0.0 or self.value == INF):
            raise StopgapError(f"criterion {self.kind} evaluated to {self.value}")


# Each measure takes the products of z it shares with the others when the
# caller has formed them already: r = Ax - b, aty = A^T y and fx = f(x).


def ogfe(problem: ProblemInstance, z: PrimalDualPoint, r=None, fx=None):
    """Optimality gap max(f(x) - f*, 0) and feasibility error ||Ax - b||.

    Requires a reference solution; OG is an oracle-only quantity.
    """
    problem.check_point(z)
    if problem.reference is None:
        raise ConfigError(f"problem {problem.label!r} has no reference solution; "
                          "the optimality gap is not computable")
    if fx is None:
        fx = problem.objective(z.x)
    if r is None:
        r = problem.constraint.residual(z.x)
    og = max(fx - problem.reference.f_star, 0.0)
    return (CriterionValue("OG", og), CriterionValue("FE", float(np.linalg.norm(r))))


def kkt_error(problem: ProblemInstance, z: PrimalDualPoint, r=None, aty=None):
    """||df(x) + A^T y||_0^2 + ||Ax - b||^2 (squared minimum-norm subgradient
    plus squared feasibility error); +inf propagates from the residual."""
    problem.check_point(z)
    if aty is None:
        aty = problem.constraint.matrix.T @ z.y
    if r is None:
        r = problem.constraint.residual(z.x)
    stat = problem.objective.stationarity_residual(z.x, aty)
    return CriterionValue("KKT", stat + float(r @ r))


def projected_duality_gap(problem: ProblemInstance, z: PrimalDualPoint, r=None, aty=None,
                          fx=None):
    """|f(x) + f*(a) + <b,y>|^2 + ||a + A^T y||^2 + ||Ax - b||^2 with
    a = Proj_{dom f*}(-A^T y)."""
    problem.check_point(z)
    obj = problem.objective
    if aty is None:
        aty = problem.constraint.matrix.T @ z.y
    a = obj.project_conj_domain(-aty)
    fa = obj.conj(a)
    if not math.isfinite(fa):
        raise StopgapError("projection onto dom f* returned a point with f* = +inf "
                           "(projection contract violated)")
    if fx is None:
        fx = obj(z.x)
    if r is None:
        r = problem.constraint.residual(z.x)
    da = a + aty
    if not math.isfinite(fx):
        value = INF
    else:
        gap = fx + fa + float(problem.constraint.rhs @ z.y)
        value = gap * gap + float(da @ da) + float(r @ r)
    return CriterionValue("PDG", value, witnesses={"a": a})


def _smoothing(beta, name):
    b = np.asarray(beta, dtype=float)
    if b.ndim > 1 or not ((b > 0.0) & (b < INF)).all():
        raise ConfigError(f"{name} must be a scalar or 1-D array of values in "
                          f"(0, inf), got {beta}")
    return b


def smoothed_duality_gap(problem: ProblemInstance, z: PrimalDualPoint, beta_x, beta_y,
                         r=None, aty=None):
    """Self-centered smoothed gap in closed form, and its prox point.

    G_beta(z) = f(x) - f(p) + <A(x-p), y> - beta_x/2 ||p-x||^2
                + ||Ax-b||^2 / (2 beta_y)
    with p = prox_{f/beta_x}(x - A^T y / beta_x).  Nonnegative up to
    round-off; tiny negatives are clamped to zero.

    ``beta_x`` and ``beta_y`` are floats, giving (G, p) as a float and an
    (n,) vector, or equal-shape (k,) arrays, giving a (k,) array and one
    C-contiguous prox point per row of a (k, n) array.  Entry j of an array
    call has the bits of the call at (beta_x[j], beta_y[j]).  ``r`` (Ax - b)
    and ``aty`` (A^T y) are the caller's, when it has already formed them.
    """
    bx = _smoothing(beta_x, "beta_x")
    # the grid passes one array as both: check it once
    by = bx if beta_y is beta_x else _smoothing(beta_y, "beta_y")
    if bx.shape != by.shape:
        raise ConfigError(f"beta_x and beta_y differ in shape: {bx.shape} != {by.shape}")
    problem.check_point(z)
    obj = problem.objective
    A = problem.constraint.matrix
    if aty is None:
        aty = A.T @ z.y
    P = obj.prox(1.0 / bx, z.x - aty / bx[..., None])
    if not np.isfinite(P).all():
        raise StopgapError("prox returned a non-finite point")
    if r is None:
        r = problem.constraint.residual(z.x)
    fe2 = float(r @ r)
    D = z.x - P
    # f(x) - f(p) through the cancellation-free path: near convergence the
    # difference sits many orders below f itself; it is +inf with f(x)
    value = (obj.value_diff(z.x, P) + np.vecdot(rowwise(A, D), z.y)
             - 0.5 * bx * np.vecdot(D, D) + fe2 / (2.0 * by))
    # the round-off tolerance -1e-9 * max(1, |f(x)|, ||r||^2) is at most
    # -1e-9, so f(x) is needed only when some value is below that
    if not (value >= -1e-9).all() and not (
            value >= -1e-9 * max(1.0, abs(obj(z.x)), fe2)).all():
        if np.isnan(value).any():
            raise StopgapError("criterion SDG evaluated to nan")
        raise StopgapError(f"self-centered smoothed gap is negative ({np.min(value)}) "
                           "beyond round-off; prox is inconsistent")
    G = np.where(value < 0.0, 0.0, value)
    return (G if G.ndim else float(G)), P


@dataclass(frozen=True)
class SdgGrid:
    """The smoothed gap at every entry of a beta grid with beta_x = beta_y:
    ``beta`` (k,), ``gap`` (k,) and ``prox`` (k, n), one C-contiguous prox
    point per beta."""

    beta: np.ndarray
    gap: np.ndarray
    prox: np.ndarray


def sdg_over_grid(problem, z, beta: np.ndarray, r=None, aty=None):
    """``smoothed_duality_gap`` at every entry of the beta array, with
    beta_x = beta_y, and with ``r`` and ``aty`` when the caller has them."""
    return SdgGrid(beta, *smoothed_duality_gap(problem, z, beta, beta, r=r, aty=aty))


def best_sdg(grid: SdgGrid, raw=False):
    """Index of the smallest certificate over a grid, and that certificate:
    the surrogate max(G, sqrt(2 beta_y G)), small iff the gap certifies an
    epsilon-solution at that beta, or G itself when ``raw``.  Ties go to the
    first index, i.e. the smaller beta of a sorted grid; an all-+inf grid
    returns index 0."""
    G = grid.gap
    cert = G if raw else np.maximum(G, np.sqrt(2.0 * grid.beta * G))
    j = int(select_beta(cert))
    return j, float(cert[j])


def select_beta(keys):
    """Index of the smallest finite key along the last axis: the first such
    index on ties, i.e. the smaller beta of a sorted grid, and 0 when no key
    is finite.  This is the one beta-selection rule; callers encode their
    criterion in the keys and mark an unusable beta with +inf."""
    return np.argmin(np.where(np.isfinite(keys), keys, INF), axis=-1)


@dataclass(frozen=True)
class PointValues:
    """Every measure at one point: OG (None without a reference solution),
    FE, KKT, PDG, and the smoothed gap at each entry of the beta grid built
    from FE (``sdg.beta``)."""

    og: float | None
    fe: float
    kkt: float
    pdg: float
    sdg: SdgGrid


def evaluate_point(problem: ProblemInstance, z: PrimalDualPoint):
    """Evaluate every measure at ``z`` once, for the trace and the bounds;
    Ax - b, A^T y and f(x) are formed once and shared by the measures."""
    problem.check_point(z)
    r = problem.constraint.residual(z.x)
    aty = problem.constraint.matrix.T @ z.y
    fx = problem.objective(z.x)
    fe = float(np.linalg.norm(r))
    og = None if problem.reference is None else ogfe(problem, z, r=r, fx=fx)[0].value
    return PointValues(og=og, fe=fe, kkt=kkt_error(problem, z, r=r, aty=aty).value,
                       pdg=projected_duality_gap(problem, z, r=r, aty=aty, fx=fx).value,
                       sdg=sdg_over_grid(problem, z, beta_grid(fe), r=r, aty=aty))

