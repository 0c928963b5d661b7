"""Evaluation of every comparability/approximation inequality at a
primal-dual point: per-iteration reports of lhs, rhs, their ratio and the
smoothing pair used, plus the trajectory-level ratio statistics.

The smoothing pair for each report follows the grid-selection rules: for
``g(z) <= h_beta(z)`` the beta minimising the rhs; for
``g_beta(z) <= h_beta(z)`` the beta minimising rhs/lhs.
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
        # slack covers float round-off only; the inequalities are theorems
        return self.lhs <= self.rhs * (1.0 + 1e-9) + 1e-12

    @property
    def ratio(self):
        if self.lhs == 0.0:
            return INF if self.rhs > 0.0 else 1.0
        if not math.isfinite(self.rhs):
            return INF
        if not math.isfinite(self.lhs):
            return 1.0 if not math.isfinite(self.rhs) else 0.0
        return self.rhs / self.lhs


@dataclass
class RatioStats:
    theorem_id: str
    mean: float
    std_dev: float
    count: int
    infinite_count: int
    zero_lhs_count: int


def _sqrt(v):
    return math.sqrt(v) if math.isfinite(v) else INF


def bound_T1(og, K, y_norm, gamma):
    """OG <= (2/gamma) K + ||y|| sqrt(K) under metric sub-regularity."""
    rhs = (2.0 / gamma) * K + y_norm * _sqrt(K) if math.isfinite(K) else INF
    return BoundReport("T1_OG_KKT", og, rhs)


def bound_T2(og, G, y_norm, beta, eta, constant="proof"):
    """OG <= (1 + c_beta) G + sqrt(2 beta_y) ||y|| sqrt(G) under the
    quadratic error bound; c_beta is 2 sqrt(beta_x/eta) as established by the
    proof ('statement' selects the printed 1 + sqrt(2 beta_x / eta))."""
    if constant == "proof":
        c = 2.0 * math.sqrt(beta.beta_x / eta)
    elif constant == "statement":
        c = math.sqrt(2.0 * beta.beta_x / eta)
    else:
        raise ConfigError(f"unknown T2 constant {constant!r}")
    if math.isfinite(G):
        rhs = (1.0 + c) * G + math.sqrt(2.0 * beta.beta_y) * y_norm * math.sqrt(G)
    else:
        rhs = INF
    return BoundReport("T2_OG_SDG", og, rhs, beta_used=beta)


def bound_T3(og, D, x_norm, y_norm, beta, eta):
    """OG <= (1 + ||x|| + sqrt(2/eta) sqrt((1+||x||+||y||) sqrt(D)
    + D/(2 beta_min))) sqrt(D)."""
    if math.isfinite(D):
        bmin = min(beta.beta_x, beta.beta_y)
        inner = (1.0 + x_norm + y_norm) * math.sqrt(D) + D / (2.0 * bmin)
        rhs = (1.0 + x_norm + math.sqrt(2.0 / eta) * math.sqrt(inner)) * math.sqrt(D)
    else:
        rhs = INF
    return BoundReport("T3_OG_PDG", og, rhs, beta_used=beta)


def bound_T4(G, K, beta):
    """G <= max(1/beta_x, 1/(2 beta_y)) K."""
    bl = max(1.0 / beta.beta_x, 1.0 / (2.0 * beta.beta_y))
    rhs = bl * K if math.isfinite(K) else INF
    return BoundReport("T4_SDG_KKT", G, rhs, beta_used=beta)


def bound_T5(K, G, beta, L):
    """K <= max(2(L+beta_x)^2/beta_x, 2 beta_y) G for L-smooth objectives;
    rhs is +inf when the objective is not smooth."""
    if L is None or not math.isfinite(G):
        rhs = INF
    else:
        bL = max(2.0 * (L + beta.beta_x) ** 2 / beta.beta_x, 2.0 * beta.beta_y)
        rhs = bL * G
    return BoundReport("T5_KKT_SDG", K, rhs, beta_used=beta)


def bound_T6(G, D, x_norm, y_norm, beta):
    """G <= (1 + ||x|| + ||y||) sqrt(D) + D/(2 beta_min)."""
    if math.isfinite(D):
        bmin = min(beta.beta_x, beta.beta_y)
        rhs = (1.0 + x_norm + y_norm) * math.sqrt(D) + D / (2.0 * bmin)
    else:
        rhs = INF
    return BoundReport("T6_SDG_PDG", G, rhs, beta_used=beta)


def bound_T7(D, G, x_norm, y_norm, beta, L_g, L_f1_star):
    """D <= ((3 + beta_x L_g) G + (sqrt(2 beta_x)(2||x|| + L_f1*)
    + sqrt(2 beta_y)||y||) sqrt(G))^2 + 2 beta_max G, for objectives whose
    conjugate splits into a Lipschitz part and a smooth affine-domain part."""
    if L_g is None or L_f1_star is None:
        raise ConfigError("instance does not satisfy the separable-conjugate assumptions")
    if math.isfinite(G):
        bmax = max(beta.beta_x, beta.beta_y)
        lin = ((3.0 + beta.beta_x * L_g) * G
               + (math.sqrt(2.0 * beta.beta_x) * (2.0 * x_norm + L_f1_star)
                  + math.sqrt(2.0 * beta.beta_y) * y_norm) * math.sqrt(G))
        rhs = lin * lin + 2.0 * bmax * G
    else:
        rhs = INF
    return BoundReport("T7_PDG_SDG_manifold", D, rhs, beta_used=beta)


def bound_P4(D, G, x_norm, y_norm, beta, L_f_star):
    """D <= (G + (sqrt(2 beta_x)(||x|| + L_f*) + sqrt(2 beta_y)||y||)
    sqrt(G))^2 + 2 beta_max G, for conjugates Lipschitz on their domain."""
    if L_f_star is None:
        raise ConfigError("objective conjugate is not Lipschitz on its domain")
    if math.isfinite(G):
        bmax = max(beta.beta_x, beta.beta_y)
        lin = (G + (math.sqrt(2.0 * beta.beta_x) * (x_norm + L_f_star)
                    + math.sqrt(2.0 * beta.beta_y) * y_norm) * math.sqrt(G))
        rhs = lin * lin + 2.0 * bmax * G
    else:
        rhs = INF
    return BoundReport("P4_PDG_SDG_lipschitz", D, rhs, beta_used=beta)


def bound_C1(fe, G, beta):
    """||Ax - b|| <= sqrt(2 beta_y G)."""
    rhs = math.sqrt(2.0 * beta.beta_y * G) if math.isfinite(G) else INF
    return BoundReport("C1_FE_SDG", fe, rhs, beta_used=beta)


def bound_L6(G, beta, x, p, fe):
    """Floor: beta_x/2 ||x - p||^2 + ||Ax-b||^2/(2 beta_y) <= G."""
    d = np.asarray(x, float) - np.asarray(p, float)
    lhs = 0.5 * beta.beta_x * float(d @ d) + fe * fe / (2.0 * beta.beta_y)
    return BoundReport("L6_SDG_floor", lhs, G if math.isfinite(G) else INF, beta_used=beta)


def evaluate_bounds(problem, z, consts, eta_of=None, values=None, t2_constant="proof"):
    """All applicable bound reports at one point.

    Parameters
    ----------
    consts : RegularityConstants for the instance.
    eta_of : callable beta -> eta (defaults to the constant consts.eta).
    values : the point's ``criteria.PointValues``; evaluated here when omitted.
    """
    problem.check_point(z)
    if values is None:
        values = crit.evaluate_point(problem, z)
    if eta_of is None:
        eta_of = lambda beta: consts.eta
    x_norm, y_norm = z.norms()
    og, fe, K, D = values.og, values.fe, values.kkt, values.pdg
    reports = {}

    sdg = values.sdg
    betas = [SmoothingParams(b, b) for b in sdg.beta.tolist()]
    gaps = sdg.gap.tolist()

    def pick(mode, report_of):
        """The report, built once per grid beta, at the beta select_beta picks."""
        built = [report_of(b, G) for b, G in zip(betas, gaps)]
        beta, _ = select_beta(values.grid, [(r.beta_used, r.lhs, r.rhs) for r in built],
                              mode=mode)
        return next(r for r in built if r.beta_used == beta)

    if og is not None:
        reports["T1_OG_KKT"] = bound_T1(og, K, y_norm, consts.gamma)
        reports["T2_OG_SDG"] = pick("one-sided", lambda b, G: bound_T2(
            og, G, y_norm, b, eta_of(b), t2_constant))
        reports["T3_OG_PDG"] = pick("one-sided", lambda b, G: bound_T3(
            og, D, x_norm, y_norm, b, eta_of(b)))

    reports["T4_SDG_KKT"] = pick("ratio", lambda b, G: bound_T4(G, K, b))
    reports["T5_KKT_SDG"] = pick("one-sided", lambda b, G: bound_T5(K, G, b, consts.L))
    reports["T6_SDG_PDG"] = pick("ratio", lambda b, G: bound_T6(G, D, x_norm, y_norm, b))
    if problem.objective.separable_conj and consts.L_g is not None:
        reports["T7_PDG_SDG_manifold"] = pick("one-sided", lambda b, G: bound_T7(
            D, G, x_norm, y_norm, b, consts.L_g, consts.L_f1_star))
    if consts.L_f_star is not None:
        reports["P4_PDG_SDG_lipschitz"] = pick("one-sided", lambda b, G: bound_P4(
            D, G, x_norm, y_norm, b, consts.L_f_star))
    reports["C1_FE_SDG"] = pick("one-sided", lambda b, G: bound_C1(fe, G, b))

    # floor: lhs depends on beta through the prox witness; ratio selection
    floor_cands = [bound_L6(G, b, z.x, p, fe)
                   for b, G, p in zip(betas, gaps, sdg.prox) if math.isfinite(G)]
    if floor_cands:
        reports["L6_SDG_floor"] = min(
            floor_cands, key=lambda rep: rep.rhs / rep.lhs if rep.lhs > 0 else INF)
    return reports


def ratio_stats(reports):
    """Mean/std of rhs/lhs over finite-ratio reports of one theorem.

    Reports with lhs = 0 and rhs > 0 count as infinite; lhs = rhs = 0 counts
    as ratio 1.  Raises if the list is empty or mixes theorem ids.
    """
    if not reports:
        raise ConfigError("ratio_stats needs a nonempty report list")
    ids = {r.theorem_id for r in reports}
    if len(ids) > 1:
        raise ConfigError(f"mixed theorem ids in ratio_stats: {sorted(ids)}")
    finite = []
    infinite = 0
    zero_lhs = 0
    for r in reports:
        if r.lhs == 0.0:
            zero_lhs += 1
            if r.rhs > 0.0:
                infinite += 1
            continue
        rho = r.ratio
        if math.isfinite(rho):
            finite.append(rho)
        else:
            infinite += 1
    if not finite and not infinite:
        raise StopgapError("no usable ratios after filtering")
    arr = np.asarray(finite) if finite else np.asarray([np.nan])
    mean = float(arr.mean()) if finite else INF
    std = float(arr.std()) if finite else INF
    return RatioStats(theorem_id=ids.pop(), mean=mean, std_dev=std,
                      count=len(finite), infinite_count=infinite,
                      zero_lhs_count=zero_lhs)
