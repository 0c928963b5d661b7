"""Evaluation of every comparability/approximation inequality at a
primal-dual point: per-iteration reports of lhs, rhs, their ratio and the
smoothing pair used, plus the trajectory-level ratio statistics.

Each ``bound_*`` writes one theorem's right-hand side (for the L6 floor, its
left-hand side) as a numpy expression: scalars broadcast, so one formula
serves a single smoothing pair and the whole beta grid.  The smoothing pair
of each report follows the grid-selection rules: for ``g(z) <= h_beta(z)``
the beta minimising the rhs; for ``g_beta(z) <= h_beta(z)`` the beta
minimising rhs/lhs.

The ratio rule (``ratio``) and the round-off slack of a verdict (``holds``)
are array expressions too: a ``BoundReport`` reads them at its own scalars,
and ``ratio_stats`` reads them over one theorem's lhs and rhs columns, one
entry per certified iterate, so a trajectory's statistics need two floats
per iterate and theorem rather than a report object.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import criteria as crit
from .criteria import SmoothingParams, select_beta
from .errors import ConfigError, StopgapError

INF = float("inf")

THEOREMS = ("T1_OG_KKT", "T2_OG_SDG", "T3_OG_PDG", "T4_SDG_KKT", "T5_KKT_SDG",
            "T6_SDG_PDG", "T7_PDG_SDG_manifold", "P4_PDG_SDG_lipschitz",
            "C1_FE_SDG", "L6_SDG_floor")
T2_CONSTANTS = ("proof", "statement")  # see bound_T2


@dataclass
class BoundReport:
    theorem_id: str
    lhs: float
    rhs: float
    beta_used: SmoothingParams | None = None

    def __post_init__(self):
        if self.theorem_id not in THEOREMS:
            raise ConfigError(f"unknown theorem id {self.theorem_id!r}")

    @property
    def holds(self):
        return bool(holds(self.lhs, self.rhs))

    @property
    def ratio(self):
        return float(ratio(self.lhs, self.rhs))


@np.errstate(over="ignore")
def holds(lhs, rhs):
    """Whether lhs <= rhs, elementwise.  The slack covers float round-off
    only: the inequalities are theorems."""
    return lhs <= rhs * (1.0 + 1e-9) + 1e-12


@np.errstate(divide="ignore", invalid="ignore")
def ratio(lhs, rhs):
    """rhs/lhs, elementwise, of a bound lhs <= rhs.  Where lhs = 0 it is +inf
    if rhs > 0 and 1 otherwise; elsewhere it is +inf where the rhs is not
    finite and 0 where only the lhs is not."""
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    q = np.where(np.isfinite(lhs), rhs / lhs, 0.0)
    q = np.where(np.isfinite(rhs), q, INF)
    return np.where(lhs == 0.0, np.where(rhs > 0.0, INF, 1.0), q)


@dataclass
class RatioStats:
    theorem_id: str
    mean: float
    std_dev: float
    count: int
    infinite_count: int
    zero_lhs_count: int
    violations: int


def _inf_unless_finite(v, rhs):
    """``rhs`` where ``v`` is finite and +inf elsewhere, so that a 0 * inf
    product in a discarded entry leaves no nan behind.  The formulas without
    this guard reach +inf from an infinite input on their own."""
    return np.where(np.isfinite(v), rhs, INF)


def bound_T1(K, y_norm, gamma):
    """OG <= (2/gamma) K + ||y|| sqrt(K) under metric sub-regularity."""
    return (2.0 / gamma) * K + y_norm * math.sqrt(K) if math.isfinite(K) else INF


@np.errstate(invalid="ignore")
def bound_T2(G, y_norm, bx, by, eta, constant="proof"):
    """OG <= (1 + c_beta) G + sqrt(2 beta_y) ||y|| sqrt(G) under the
    quadratic error bound; c_beta is 2 sqrt(beta_x/eta) as established by the
    proof ('statement' selects the printed 1 + sqrt(2 beta_x / eta))."""
    if constant == "proof":
        c = 2.0 * np.sqrt(bx / eta)
    elif constant == "statement":
        c = np.sqrt(2.0 * bx / eta)
    else:
        raise ConfigError(f"unknown T2 constant {constant!r}")
    return _inf_unless_finite(G, (1.0 + c) * G + np.sqrt(2.0 * by) * y_norm * np.sqrt(G))


def bound_T3(D, x_norm, y_norm, bx, by, eta):
    """OG <= (1 + ||x|| + sqrt(2/eta) sqrt((1+||x||+||y||) sqrt(D)
    + D/(2 beta_min))) sqrt(D)."""
    inner = (1.0 + x_norm + y_norm) * np.sqrt(D) + D / (2.0 * np.minimum(bx, by))
    return (1.0 + x_norm + np.sqrt(2.0 / eta) * np.sqrt(inner)) * np.sqrt(D)


def bound_T4(K, bx, by):
    """G <= max(1/beta_x, 1/(2 beta_y)) K."""
    return np.maximum(1.0 / bx, 1.0 / (2.0 * by)) * K


def bound_T5(G, bx, by, L):
    """K <= max(2(L+beta_x)^2/beta_x, 2 beta_y) G for L-smooth objectives;
    rhs is +inf when the objective is not smooth."""
    if L is None:
        return INF
    # Python's ** (libm pow) per beta: numpy's exact square differs from it
    # in the last bit for about one beta in a thousand
    sq = np.reshape([(L + b) ** 2 for b in np.ravel(bx).tolist()], np.shape(bx))
    return np.maximum(2.0 * sq / bx, 2.0 * by) * G


def bound_T6(D, x_norm, y_norm, bx, by):
    """G <= (1 + ||x|| + ||y||) sqrt(D) + D/(2 beta_min)."""
    return (1.0 + x_norm + y_norm) * np.sqrt(D) + D / (2.0 * np.minimum(bx, by))


@np.errstate(invalid="ignore")
def bound_T7(G, x_norm, y_norm, bx, by, L_g, L_f1_star):
    """D <= ((3 + beta_x L_g) G + (sqrt(2 beta_x)(2||x|| + L_f1*)
    + sqrt(2 beta_y)||y||) sqrt(G))^2 + 2 beta_max G, for objectives whose
    conjugate splits into a Lipschitz part and a smooth affine-domain part."""
    if L_g is None or L_f1_star is None:
        raise ConfigError("instance does not satisfy the separable-conjugate assumptions")
    lin = ((3.0 + bx * L_g) * G
           + (np.sqrt(2.0 * bx) * (2.0 * x_norm + L_f1_star)
              + np.sqrt(2.0 * by) * y_norm) * np.sqrt(G))
    return _inf_unless_finite(G, lin * lin + 2.0 * np.maximum(bx, by) * G)


@np.errstate(invalid="ignore")
def bound_P4(G, x_norm, y_norm, bx, by, L_f_star):
    """D <= (G + (sqrt(2 beta_x)(||x|| + L_f*) + sqrt(2 beta_y)||y||)
    sqrt(G))^2 + 2 beta_max G, for conjugates Lipschitz on their domain."""
    if L_f_star is None:
        raise ConfigError("objective conjugate is not Lipschitz on its domain")
    lin = (G + (np.sqrt(2.0 * bx) * (x_norm + L_f_star)
                + np.sqrt(2.0 * by) * y_norm) * np.sqrt(G))
    return _inf_unless_finite(G, lin * lin + 2.0 * np.maximum(bx, by) * G)


def bound_C1(G, by):
    """||Ax - b|| <= sqrt(2 beta_y G)."""
    return np.sqrt(2.0 * by * G)


def bound_L6(x, p, fe, bx, by):
    """Left-hand side of the floor beta_x/2 ||x - p||^2 + ||Ax-b||^2/(2 beta_y)
    <= G, with one prox point ``p`` per beta (rows of a 2-D array)."""
    d = x - p
    return 0.5 * bx * np.vecdot(d, d) + fe * fe / (2.0 * by)


def ratio_key(lhs, rhs):
    """Selection key of a two-sided bound: rhs/lhs where lhs is finite and
    positive, +inf (never selected) elsewhere."""
    ok = (lhs > 0.0) & (lhs < INF)
    return np.divide(rhs, lhs, out=np.full(np.shape(ok), INF), where=ok)


def evaluate_bounds(problem, z, consts, eta_of, values=None, t2_constant="proof"):
    """All applicable bound reports at one point.

    Every report but T1's is evaluated over the point's beta grid and reported
    at the beta ``select_beta`` picks from its key: the rhs for a one-sided
    bound, ``ratio_key(lhs, rhs)`` for T4, T6 and the L6 floor.  All keys go
    to one ``select_beta`` call.

    Parameters
    ----------
    consts : RegularityConstants for the instance.
    eta_of : callable SmoothingParams -> eta, such as a ``regularity.EtaCache``.
    values : the point's ``criteria.PointValues``; evaluated here when omitted.
    """
    problem.check_point(z)
    if values is None:
        values = crit.evaluate_point(problem, z)
    x_norm, y_norm = z.norms()
    og, fe, K, D = values.og, values.fe, values.kkt, values.pdg
    beta, G = values.sdg.beta, values.sdg.gap
    reports = {}
    rows = []   # (theorem id, lhs, rhs, selection key is the ratio)

    if og is not None:
        reports["T1_OG_KKT"] = BoundReport("T1_OG_KKT", og, bound_T1(K, y_norm, consts.gamma))
        eta = np.array([eta_of(SmoothingParams(b, b)) for b in beta.tolist()])
        rows += [("T2_OG_SDG", og, bound_T2(G, y_norm, beta, beta, eta, t2_constant), False),
                 ("T3_OG_PDG", og, bound_T3(D, x_norm, y_norm, beta, beta, eta), False)]
    rows += [("T4_SDG_KKT", G, bound_T4(K, beta, beta), True),
             ("T5_KKT_SDG", K, bound_T5(G, beta, beta, consts.L), False),
             ("T6_SDG_PDG", G, bound_T6(D, x_norm, y_norm, beta, beta), True)]
    if problem.objective.separable_conj and consts.L_g is not None:
        rows.append(("T7_PDG_SDG_manifold", D, bound_T7(
            G, x_norm, y_norm, beta, beta, consts.L_g, consts.L_f1_star), False))
    if consts.L_f_star is not None:
        rows.append(("P4_PDG_SDG_lipschitz", D, bound_P4(
            G, x_norm, y_norm, beta, beta, consts.L_f_star), False))
    rows.append(("C1_FE_SDG", fe, bound_C1(G, beta), False))
    # the floor's lhs varies with beta through the prox point; the gaps are
    # all +inf exactly when f(x) is, and then the floor says nothing
    if np.isfinite(G).any():
        rows.append(("L6_SDG_floor", bound_L6(z.x, values.sdg.prox, fe, beta, beta), G, True))

    rows = [(tid, np.broadcast_to(lhs, beta.shape), np.broadcast_to(rhs, beta.shape), ratio)
            for tid, lhs, rhs, ratio in rows]
    keys = np.array([ratio_key(lhs, rhs) if ratio else rhs for _, lhs, rhs, ratio in rows])
    for (tid, lhs, rhs, _), j in zip(rows, select_beta(keys).tolist()):
        b = float(beta[j])
        reports[tid] = BoundReport(tid, float(lhs[j]), float(rhs[j]), SmoothingParams(b, b))
    return reports


def ratio_stats(theorem_id, lhs, rhs):
    """Mean/std of rhs/lhs over the finite ratios of one theorem's lhs and
    rhs columns (one entry per certified iterate), and its violation count.

    Entries with lhs = 0 are left out of the mean and counted in
    ``zero_lhs_count``, and also as infinite when rhs > 0.  Raises on empty
    or unequal columns, and when no entry has a usable ratio.
    """
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    if lhs.ndim != 1 or lhs.shape != rhs.shape or not lhs.size:
        raise ConfigError(f"ratio_stats needs two nonempty columns of one length, "
                          f"got shapes {lhs.shape} and {rhs.shape}")
    zero = lhs == 0.0
    rho = ratio(lhs[~zero], rhs[~zero])
    finite = rho[np.isfinite(rho)]
    infinite = rho.size - finite.size + int(np.count_nonzero(rhs[zero] > 0.0))
    if not finite.size and not infinite:
        raise StopgapError("no usable ratios after filtering")
    if finite.size:
        mean, std = float(finite.mean()), float(finite.std())
    else:
        mean = std = INF
    return RatioStats(theorem_id=theorem_id, mean=mean, std_dev=std,
                      count=finite.size, infinite_count=infinite,
                      zero_lhs_count=int(np.count_nonzero(zero)),
                      violations=int(np.count_nonzero(~holds(lhs, rhs))))
