"""Evaluation of every comparability/approximation inequality at a
primal-dual point: per-iteration columns of lhs, rhs and the smoothing
parameter beta used, plus the trajectory-level ratio statistics.

Each ``bound_*`` writes one theorem's right-hand side (for the L6 floor, its
left-hand side) as a numpy expression: scalars broadcast, so one formula
serves a single beta and the whole beta grid.  The beta of each
bound follows the grid-selection rules: for ``g(z) <= h_beta(z)``
the beta minimising the rhs; for ``g_beta(z) <= h_beta(z)`` the beta
minimising rhs/lhs.

The ratio rule (``ratio``) and the round-off slack of a verdict (``holds``)
are array expressions too: the trace reads them over one row's theorems,
and ``ratio_stats`` over one theorem's lhs and rhs columns, one entry per
certified iterate, so a trajectory's statistics need two floats per
iterate and theorem.
"""

import math
from dataclasses import dataclass

import numpy as np

from .criteria import select_beta
from .errors import ConfigError, StopgapError

INF = float("inf")

THEOREMS = ("T1_OG_KKT", "T2_OG_SDG", "T3_OG_PDG", "T4_SDG_KKT", "T5_KKT_SDG",
            "T6_SDG_PDG", "T7_PDG_SDG_manifold", "P4_PDG_SDG_lipschitz",
            "C1_FE_SDG", "L6_SDG_floor")


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
def bound_T2(G, y_norm, beta, eta):
    """OG <= (1 + c_beta) G + sqrt(2 beta) ||y|| sqrt(G) under the quadratic
    error bound, with the proof's c_beta = 2 sqrt(beta/eta)."""
    c = 2.0 * np.sqrt(beta / eta)
    return _inf_unless_finite(G, (1.0 + c) * G + np.sqrt(2.0 * beta) * y_norm * np.sqrt(G))


def bound_T3(D, x_norm, y_norm, beta, eta):
    """OG <= (1 + ||x|| + sqrt(2/eta) sqrt((1+||x||+||y||) sqrt(D)
    + D/(2 beta))) sqrt(D)."""
    inner = (1.0 + x_norm + y_norm) * np.sqrt(D) + D / (2.0 * beta)
    return (1.0 + x_norm + np.sqrt(2.0 / eta) * np.sqrt(inner)) * np.sqrt(D)


def bound_T4(K, beta):
    """G <= max(1/beta, 1/(2 beta)) K = K/beta, the paper's constant; K/(2 beta) is sharp."""
    return (1.0 / beta) * K


def bound_T5(G, beta, L):
    """K <= max(2(L+beta)^2/beta, 2 beta) G for L-smooth objectives; rhs is
    +inf when the objective is not smooth."""
    if L is None:
        return INF
    # Python's ** (libm pow) per beta: numpy's exact square differs from it
    # in the last bit for about one beta in a thousand
    sq = np.reshape([(L + b) ** 2 for b in np.ravel(beta).tolist()], np.shape(beta))
    return np.maximum(2.0 * sq / beta, 2.0 * beta) * G


def bound_T6(D, x_norm, y_norm, beta):
    """G <= (1 + ||x|| + ||y||) sqrt(D) + D/(2 beta)."""
    return (1.0 + x_norm + y_norm) * np.sqrt(D) + D / (2.0 * beta)


@np.errstate(invalid="ignore")
def bound_T7(G, x_norm, y_norm, beta, L_g, L_f1_star):
    """D <= ((3 + beta L_g) G + sqrt(2 beta)(2||x|| + L_f1* + ||y||)
    sqrt(G))^2 + 2 beta G, for objectives whose conjugate splits into a
    Lipschitz part and a smooth affine-domain part."""
    if L_g is None or L_f1_star is None:
        raise ConfigError("instance does not satisfy the separable-conjugate assumptions")
    s = np.sqrt(2.0 * beta)
    lin = (3.0 + beta * L_g) * G + (s * (2.0 * x_norm + L_f1_star) + s * y_norm) * np.sqrt(G)
    return _inf_unless_finite(G, lin * lin + 2.0 * beta * G)


@np.errstate(invalid="ignore")
def bound_P4(G, x_norm, y_norm, beta, L_f_star):
    """D <= (G + sqrt(2 beta)(||x|| + L_f* + ||y||) sqrt(G))^2 + 2 beta G,
    for conjugates Lipschitz on their domain."""
    if L_f_star is None:
        raise ConfigError("objective conjugate is not Lipschitz on its domain")
    s = np.sqrt(2.0 * beta)
    lin = G + (s * (x_norm + L_f_star) + s * y_norm) * np.sqrt(G)
    return _inf_unless_finite(G, lin * lin + 2.0 * beta * G)


def bound_C1(G, beta):
    """||Ax - b|| <= sqrt(2 beta G)."""
    return np.sqrt(2.0 * beta * G)


def bound_L6(x, p, fe, beta):
    """Left-hand side of the floor beta/2 ||x - p||^2 + ||Ax-b||^2/(2 beta)
    <= G, with one prox point ``p`` per beta (rows of a 2-D array)."""
    d = x - p
    return 0.5 * beta * np.vecdot(d, d) + fe * fe / (2.0 * beta)


def ratio_key(lhs, rhs):
    """Selection key of a two-sided bound: rhs/lhs where lhs is finite and
    positive, +inf (never selected) elsewhere."""
    ok = (lhs > 0.0) & (lhs < INF)
    return np.divide(rhs, lhs, out=np.full(np.shape(ok), INF), where=ok)


def evaluate_bounds(values, consts):
    """Every bound at the point of ``values`` (a ``criteria.PointValues``),
    as three (len(THEOREMS),) float arrays: lhs, rhs and the beta used.

    Each array is nan where its theorem does not apply: T1-T3 without a
    reference solution or without regularity constants, T7 and P4 without
    their assumptions on the objective, and the L6 floor where f(x) = +inf.
    T1 has no beta.  Every other bound is evaluated over the point's beta
    grid and reported at the beta ``select_beta`` picks from its key: the
    rhs for a one-sided bound, ``ratio_key(lhs, rhs)`` for T4, T6 and the
    L6 floor.  All keys go to one ``select_beta`` call.

    Parameters
    ----------
    consts : the instance's ``regularity.EtaCache``: ``consts.gamma``, and
             eta(beta) as ``consts(beta)``; None where the instance has
             none.  The Lipschitz constants of T5, T7 and P4 are read from
             the objective.
    """
    x_norm, y_norm = values.z.norms()
    og, fe, K, D = values.og, values.fe, values.kkt, values.pdg
    beta, G = values.sdg.beta, values.sdg.gap
    out = np.full((3, len(THEOREMS)), np.nan)   # lhs, rhs and beta per theorem
    rows = []   # (theorem id, lhs, rhs, selection key is the ratio)

    if og is not None and consts is not None:
        out[:2, THEOREMS.index("T1_OG_KKT")] = og, bound_T1(K, y_norm, consts.gamma)
        eta = np.array([consts(b) for b in beta.tolist()])
        rows += [("T2_OG_SDG", og, bound_T2(G, y_norm, beta, eta), False),
                 ("T3_OG_PDG", og, bound_T3(D, x_norm, y_norm, beta, eta), False)]
    obj = values.problem.objective
    rows += [("T4_SDG_KKT", G, bound_T4(K, beta), True),
             ("T5_KKT_SDG", K, bound_T5(G, beta, obj.smooth_lipschitz), False),
             ("T6_SDG_PDG", G, bound_T6(D, x_norm, y_norm, beta), True)]
    if obj.conj_grad_lipschitz is not None and obj.conj_part_lipschitz is not None:
        rows.append(("T7_PDG_SDG_manifold", D, bound_T7(
            G, x_norm, y_norm, beta, obj.conj_grad_lipschitz, obj.conj_part_lipschitz), False))
    if obj.conj_lipschitz is not None:
        rows.append(("P4_PDG_SDG_lipschitz", D, bound_P4(
            G, x_norm, y_norm, beta, obj.conj_lipschitz), False))
    rows.append(("C1_FE_SDG", fe, bound_C1(G, beta), False))
    # the floor's lhs varies with beta through the prox point; the gaps are
    # all +inf exactly when f(x) or ||Ax - b||^2 is, and then the floor says
    # nothing
    if np.isfinite(G).any():
        rows.append(("L6_SDG_floor", bound_L6(values.z.x, values.sdg.prox, fe, beta), G, True))

    rows = [(tid, np.broadcast_to(lhs, beta.shape), np.broadcast_to(rhs, beta.shape), ratio)
            for tid, lhs, rhs, ratio in rows]
    keys = np.array([ratio_key(lhs, rhs) if ratio else rhs for _, lhs, rhs, ratio in rows])
    for (tid, lhs, rhs, _), j in zip(rows, select_beta(keys).tolist()):
        out[:, THEOREMS.index(tid)] = lhs[j], rhs[j], beta[j]
    return tuple(out)


def ratio_stats(lhs, rhs):
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
    return RatioStats(mean=mean, std_dev=std,
                      count=finite.size, infinite_count=infinite,
                      zero_lhs_count=int(np.count_nonzero(zero)),
                      violations=int(np.count_nonzero(~holds(lhs, rhs))))
