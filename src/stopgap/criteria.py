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

    ``witnesses`` carries the PDG projection point ``a`` or the SDG proximal
    point ``p`` when applicable; ``beta_used`` records the smoothing pair.
    """

    kind: str                       # OG | FE | KKT | PDG | SDG
    value: float
    witnesses: dict = field(default_factory=dict)
    beta_used: SmoothingParams | None = None

    def __post_init__(self):
        if self.kind not in ("OG", "FE", "KKT", "PDG", "SDG"):
            raise ConfigError(f"unknown criterion kind {self.kind!r}")
        if not (self.value >= 0.0 or self.value == INF):
            raise StopgapError(f"criterion {self.kind} evaluated to {self.value}")

    @property
    def finite(self):
        return math.isfinite(self.value)


def ogfe(problem: ProblemInstance, z: PrimalDualPoint):
    """Optimality gap max(f(x) - f*, 0) and feasibility error ||Ax - b||.

    Requires a reference solution; OG is an oracle-only quantity.
    """
    problem.check_point(z)
    if problem.reference is None:
        raise ConfigError(f"problem {problem.label!r} has no reference solution; "
                          "the optimality gap is not computable")
    fx = problem.objective(z.x)
    og = max(fx - problem.reference.f_star, 0.0)
    fe = float(np.linalg.norm(problem.constraint.residual(z.x)))
    return (CriterionValue("OG", og), CriterionValue("FE", fe))


def kkt_error(problem: ProblemInstance, z: PrimalDualPoint):
    """||df(x) + A^T y||_0^2 + ||Ax - b||^2 (squared minimum-norm subgradient
    plus squared feasibility error); +inf propagates from the residual."""
    problem.check_point(z)
    g = problem.constraint.matrix.T @ z.y
    stat = problem.objective.stationarity_residual(z.x, g)
    r = problem.constraint.residual(z.x)
    return CriterionValue("KKT", stat + float(r @ r))


def projected_duality_gap(problem: ProblemInstance, z: PrimalDualPoint):
    """|f(x) + f*(a) + <b,y>|^2 + ||a + A^T y||^2 + ||Ax - b||^2 with
    a = Proj_{dom f*}(-A^T y)."""
    problem.check_point(z)
    obj = problem.objective
    aty = problem.constraint.matrix.T @ z.y
    a = obj.project_conj_domain(-aty)
    fa = obj.conj(a)
    if not math.isfinite(fa):
        raise StopgapError("projection onto dom f* returned a point with f* = +inf "
                           "(projection contract violated)")
    fx = obj(z.x)
    r = problem.constraint.residual(z.x)
    da = a + aty
    if not math.isfinite(fx):
        value = INF
    else:
        gap = fx + fa + float(problem.constraint.rhs @ z.y)
        value = gap * gap + float(da @ da) + float(r @ r)
    return CriterionValue("PDG", value, witnesses={"a": a})


def smoothed_duality_gap(problem: ProblemInstance, z: PrimalDualPoint,
                         beta: SmoothingParams):
    """Self-centered smoothed gap in closed form.

    G_beta(z) = f(x) - f(p) + <A(x-p), y> - beta_x/2 ||p-x||^2
                + ||Ax-b||^2 / (2 beta_y)
    with p = prox_{f/beta_x}(x - A^T y / beta_x).  Nonnegative up to
    round-off; tiny negatives are clamped to zero.
    """
    problem.check_point(z)
    obj = problem.objective
    A = problem.constraint.matrix
    aty = A.T @ z.y
    p = obj.prox(1.0 / beta.beta_x, z.x - aty / beta.beta_x)
    if not np.all(np.isfinite(p)):
        raise StopgapError("prox returned a non-finite point")
    fx = obj(z.x)
    r = problem.constraint.residual(z.x)
    fe2 = float(r @ r)
    if not math.isfinite(fx):
        return CriterionValue("SDG", INF, witnesses={"p": p}, beta_used=beta)
    d = z.x - p
    # f(x) - f(p) through the cancellation-free path: near convergence the
    # difference sits many orders below f itself
    value = (obj.value_diff(z.x, p) + float((A @ d) @ z.y)
             - 0.5 * beta.beta_x * float(d @ d) + fe2 / (2.0 * beta.beta_y))
    scale = max(1.0, abs(fx), fe2)
    if value < 0.0:
        if value < -1e-9 * scale:
            raise StopgapError(f"self-centered smoothed gap is negative ({value}) "
                               "beyond round-off; prox is inconsistent")
        value = 0.0
    return CriterionValue("SDG", value, witnesses={"p": p}, beta_used=beta)


@dataclass(frozen=True)
class SdgGrid:
    """The smoothed gap at every entry of a beta grid with beta_x = beta_y:
    ``beta`` (k,), ``gap`` (k,) and ``prox`` (k, n), one C-contiguous prox
    point per beta."""

    beta: np.ndarray
    gap: np.ndarray
    prox: np.ndarray


def sdg_over_grid(problem, z, beta: np.ndarray):
    """``smoothed_duality_gap`` at every entry of the beta array (beta_x =
    beta_y), in one pass.

    The beta-independent terms are computed once and every per-beta product
    is taken row by row, so each entry has the bits of the single-point call.
    """
    problem.check_point(z)
    obj = problem.objective
    A = problem.constraint.matrix
    aty = A.T @ z.y
    P = obj.prox_rows(1.0 / beta, z.x - aty / beta[:, None])
    if not np.isfinite(P).all():
        raise StopgapError("prox returned a non-finite point")
    fx = obj(z.x)
    if not math.isfinite(fx):
        return SdgGrid(beta=beta, gap=np.full(beta.shape, INF), prox=P)
    r = problem.constraint.residual(z.x)
    fe2 = float(r @ r)
    D = z.x - P
    value = (obj.value_diff_rows(z.x, P) + np.vecdot(rowwise(A, D), z.y)
             - 0.5 * beta * np.vecdot(D, D) + fe2 / (2.0 * beta))
    scale = max(1.0, abs(fx), fe2)
    if np.any(value < -1e-9 * scale):
        raise StopgapError(f"self-centered smoothed gap is negative ({value.min()}) "
                           "beyond round-off; prox is inconsistent")
    if np.isnan(value).any():
        raise StopgapError("criterion SDG evaluated to nan")
    return SdgGrid(beta=beta, gap=np.where(value < 0.0, 0.0, value), prox=P)


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
    """Evaluate every measure at ``z`` once, for the trace and the bounds."""
    if problem.reference is not None:
        og, fe = (cv.value for cv in ogfe(problem, z))
    else:
        problem.check_point(z)
        og, fe = None, float(np.linalg.norm(problem.constraint.residual(z.x)))
    return PointValues(og=og, fe=fe, kkt=kkt_error(problem, z).value,
                       pdg=projected_duality_gap(problem, z).value,
                       sdg=sdg_over_grid(problem, z, beta_grid(fe)))

