"""Independent verifiers for the main implementations.

The direct-sup smoothed gap here deliberately avoids the closed-form prox
path used by the criteria module: least-squares inner problems go through
conjugate-gradient solves of the stationarity system, and separable
nonsmooth pieces are minimised coordinate-wise by candidate enumeration.
Certificates come from strong convexity of the inner objective.
"""

import math

import numpy as np

from .criteria import PointValues, check_beta, smoothed_duality_gap
from .errors import ConvergenceError, StopgapError, check_count
from .objectives import L1Norm, LeastSquaresObjective, NonnegativeQuadratic
from .problem import PrimalDualPoint

INF = float("inf")
# verification_suite: certificate tolerance of the inner minimisations, and
# the range its smoothing parameters are drawn from, log-uniformly
SUITE_INNER_TOL = 1e-8
SUITE_BETA_RANGE = (1e-2, 1e2)
# gap_witness: tolerance of its identities, relative to their scale
WITNESS_TOL = 1e-9


# ---------------------------------------------------------------------------
# inner minimisers for the direct-sup smoothed gap


def _min_least_squares(ls, shift, center, bx, tol):
    """min over u of 0.5||Q u - c||^2 + <shift, u> + bx/2 ||u - center||^2
    for the LeastSquaresObjective ``ls``, as a value.

    Solved as (Q^T Q + bx I) u = Q^T c - shift + bx*center by CG; certified
    via the strong-convexity bound value_gap <= ||grad||^2 / (2 bx).
    """
    # imported here so that solving and certifying never load scipy
    from scipy.sparse.linalg import LinearOperator, cg

    n = center.shape[0]
    rhs = ls.qtc - shift + bx * center

    def mv(u):
        return ls.gram @ u + bx * u

    op = LinearOperator((n, n), matvec=mv)
    u, _ = cg(op, rhs, rtol=1e-14, atol=0.0, maxiter=20 * n + 200)
    grad = mv(u) - rhs
    cert = float(grad @ grad) / (2.0 * bx)
    if cert > tol:
        raise ConvergenceError(f"inner CG certificate {cert:.3e} above tolerance {tol:.3e}")
    r = ls.design @ u - ls.target
    return (0.5 * float(r @ r) + float(shift @ u)
            + 0.5 * bx * float((u - center) @ (u - center)))


def _min_abs_coord(g, center, bx):
    """Coordinate-wise min of |u| + g u + bx/2 (u - center)^2 by enumerating
    the stationary points of both linear branches plus the kink."""
    u_pos = center - (g + 1.0) / bx
    u_neg = center - (g - 1.0) / bx
    out = np.zeros_like(center)
    best = 0.5 * bx * center * center  # value at the kink u = 0
    for cand in (np.where(u_pos > 0, u_pos, 0.0), np.where(u_neg < 0, u_neg, 0.0)):
        val = np.abs(cand) + g * cand + 0.5 * bx * (cand - center) ** 2
        take = val < best
        out = np.where(take, cand, out)
        best = np.where(take, val, best)
    return out, float(best.sum())


def _min_nonneg_coord(g, center, bx):
    """Coordinate-wise min over u >= 0 of g u + bx/2 (u - center)^2."""
    u = np.maximum(center - g / bx, 0.0)
    val = g * u + 0.5 * bx * (u - center) ** 2
    return u, float(val.sum())


def _inner_min(problem, dual, center, bx, tol):
    """min over x' of f(x') + <x', A^T dual> + bx/2 ||x' - center||^2."""
    obj = problem.objective
    shift = problem.constraint.matrix.T @ dual
    if isinstance(obj, LeastSquaresObjective):
        return _min_least_squares(obj, shift, center, bx, tol)
    if isinstance(obj, L1Norm):
        _, val = _min_abs_coord(shift, center, bx)
        return val
    if isinstance(obj, NonnegativeQuadratic):
        nb = obj.block_dim
        _, v2 = _min_nonneg_coord(shift[nb:], center[nb:], bx)
        return _min_least_squares(obj.ls, shift[:nb], center[:nb], bx, tol) + v2
    raise StopgapError(f"no independent inner solver for {type(obj).__name__}")


def sdg_general_direct(problem, u, v, x_dot, y_dot, beta, inner_tol=1e-10):
    """Direct-sup smoothed gap G_beta((u, v); (x_dot, y_dot)).

    The dual maximisation is closed form; the primal minimisation goes
    through the independent inner solvers above.
    """
    check_beta(beta)
    A = problem.constraint.matrix
    fu = problem.objective(u)
    if not math.isfinite(fu):
        return INF
    ru = A @ u - problem.constraint.rhs
    val = fu + float(ru @ y_dot) + float(ru @ ru) / (2.0 * beta)
    val += float(problem.constraint.rhs @ v)
    val -= _inner_min(problem, v, x_dot, beta, inner_tol)
    return val


def sdg_direct(problem, z: PrimalDualPoint, beta, inner_tol=1e-10):
    """Self-centered direct-sup smoothed gap (cross-check of the closed form)."""
    problem.check_point(z)
    return sdg_general_direct(problem, z.x, z.y, z.x, z.y, beta, inner_tol)


def sdg_decomposition_gap(problem, z, z_star, beta, inner_tol=1e-10):
    """Residual of the saddle decomposition
    G(z) - G(x, y*; x*, y) - G(x*, y; x, y*), all by direct sup."""
    xs, ys = z_star
    total = sdg_direct(problem, z, beta, inner_tol)
    inner = sdg_general_direct(problem, z.x, ys, xs, z.y, beta, inner_tol)
    outer = sdg_general_direct(problem, xs, z.y, z.x, ys, beta, inner_tol)
    return total - (inner + outer), (total, inner, outer)


# ---------------------------------------------------------------------------
# smoothed-gap witness vectors


def gap_witness(problem, z: PrimalDualPoint, beta):
    """The identities and inequalities of the witness vectors at (z, beta),
    as a dict of name -> signed slack (>= 0 passes; the tolerance WITNESS_TOL
    is folded in).  The vectors are p = prox_{f/beta}(x - A^T y / beta),
    p* = prox_{beta f*}(beta x - A^T y) + A^T y (= beta (x - p)),
    a~ = -A^T y + beta (x - p), a subgradient at p, and a, the projection of
    -A^T y onto dom f*.

    Checks:
      moreau             ||p + p*/beta - x|| ~ 0
      proj_norm_monotone ||a + A^T y|| <= ||a~ + A^T y||
      atilde_norm        ||a~ + A^T y|| = ||p*||
      a_minus_atilde     ||a - a~|| <= ||p*||
      pstar_floor        ||p*||^2 <= 2 beta G
      fenchel_young      f(p) + f*(a~) = <p, a~>
      proj_inner         <-A^T y - a, a~ - a> <= 0
    """
    obj = problem.objective
    pv = PointValues(problem, z)
    G, p = smoothed_duality_gap(pv, beta)
    aty = pv.aty
    # Moreau gives prox_{beta f*}(beta x - A^T y) = beta (x - p) - A^T y; adding
    # A^T y back yields the quantity the norm chain and the gap floor use,
    # while keeping p_star on the independent conjugate-prox code path
    p_star = obj.prox_conj(beta, beta * z.x - aty) + aty
    a_tilde = -aty + beta * (z.x - p)
    a = obj.project_conj_domain(-aty)

    scale = max(1.0, float(np.linalg.norm(z.x)), float(np.linalg.norm(aty)))
    na = float(np.linalg.norm(a + aty))
    nat = float(np.linalg.norm(a_tilde + aty))
    nps = float(np.linalg.norm(p_star))
    fp = obj(p)
    fconj = obj.conj(a_tilde)
    inner = float(p @ a_tilde)
    # the pairing <p, a~> cancels from the ||p||*||a~|| scale down to O(f);
    # achievable equality precision is relative to the former
    fy_scale = max(1.0, abs(fp), abs(fconj),
                   float(np.linalg.norm(p)) * float(np.linalg.norm(a_tilde)))
    return {
        "moreau": WITNESS_TOL * scale - float(np.linalg.norm(p + p_star / beta - z.x)),
        "proj_norm_monotone": nat - na + WITNESS_TOL * scale,
        "atilde_norm": WITNESS_TOL * scale - abs(nat - nps),
        "a_minus_atilde": nps - float(np.linalg.norm(a - a_tilde)) + WITNESS_TOL * scale,
        "pstar_floor": 2.0 * beta * G - nps ** 2 + WITNESS_TOL * max(1.0, nps ** 2),
        "fenchel_young": WITNESS_TOL * fy_scale - abs(fp + fconj - inner),
        "proj_inner": -float((-aty - a) @ (a_tilde - a)) + WITNESS_TOL * scale,
    }


# ---------------------------------------------------------------------------
# regression counterexamples separating the criteria


def counterexample_kkt_vs_og(epsilon_list):
    """Huberised |x|-like family: f(x) = x for x > eps, x^2/(2 eps) + eps/2
    otherwise.  The derivative at x = eps is exactly 1 for every eps while
    the value gap f(eps) - f(0) = eps/2 vanishes."""
    rows = []
    for eps in epsilon_list:
        if eps <= 0:
            raise StopgapError("epsilon entries must be positive")

        def f(x, e=eps):
            return x if x > e else x * x / (2.0 * e) + e / 2.0

        deriv = 1.0                  # both branches give f'(eps) = 1 exactly
        gap = f(eps) - f(0.0)
        h = 1e-6 * max(eps, 1e-3)
        fd = (f(eps + 2 * h) - f(eps + h)) / h   # one-sided, inside the linear branch
        rows.append({"epsilon": eps, "derivative": deriv, "gap": gap,
                     "gap_expected": eps / 2.0, "fd_derivative": fd,
                     "separated": deriv == 1.0 and gap <= eps})
    return {"name": "kkt_vs_og", "rows": rows,
            "passed": all(r["separated"] and abs(r["gap"] - r["gap_expected"]) < 1e-15
                          and abs(r["fd_derivative"] - 1.0) < 1e-5 for r in rows)}


def counterexample_kkt_vs_sdg(x_list):
    """Unconstrained |x| at beta = 1: the KKT error stays 1 while the
    smoothed gap |x| - [|x|-1]_+ - ([|x|-1]_+ sgn(x) - x)^2 / 2 vanishes."""
    rows = []
    for x in x_list:
        if x == 0.0:
            raise StopgapError("x entries must be nonzero")
        shrink = max(abs(x) - 1.0, 0.0) * math.copysign(1.0, x)
        g = abs(x) - abs(shrink) - 0.5 * (shrink - x) ** 2
        kkt = 1.0  # subdifferential of |.| at x != 0 is the singleton {sgn(x)}
        small_x_formula = abs(x) - 0.5 * x * x if abs(x) <= 1.0 else None
        rows.append({"x": x, "sdg": g, "kkt": kkt, "sdg_small_x": small_x_formula})
    return {"name": "kkt_vs_sdg", "rows": rows,
            "passed": all(r["kkt"] == 1.0
                          and (r["sdg_small_x"] is None
                               or abs(r["sdg"] - r["sdg_small_x"]) < 1e-15)
                          for r in rows)}


# ---------------------------------------------------------------------------
# bundled verification suite (machine-readable, consumed by CI)


def _random_point(problem, rng, scale=2.0):
    return PrimalDualPoint(scale * rng.standard_normal(problem.constraint.n),
                           scale * rng.standard_normal(problem.constraint.m))


def _feasible_random_point(problem, rng, scale=2.0):
    """Random point with the primal pulled into dom f via one prox."""
    z = _random_point(problem, rng, scale)
    x = problem.objective.prox(1.0, z.x)
    return PrimalDualPoint(x, z.y)


def verification_suite(problem, seed=0, samples=100):
    """Cross-checks of the closed-form machinery against the independent
    oracles on one instance, each over ``samples`` random points; returns a
    JSON-ready summary.  With no sample a check would check nothing and pass."""
    check_count("seed", seed, least=0)
    check_count("samples", samples)
    rng = np.random.default_rng(seed)
    lo, hi = np.log(SUITE_BETA_RANGE[0]), np.log(SUITE_BETA_RANGE[1])
    report = {"instance": problem.label, "seed": seed}

    max_err = 0.0
    for _ in range(samples):
        z = _feasible_random_point(problem, rng)
        b = float(np.exp(rng.uniform(lo, hi)))
        closed = smoothed_duality_gap(PointValues(problem, z), b)[0]
        direct = sdg_direct(problem, z, b, SUITE_INNER_TOL)
        max_err = max(max_err, abs(closed - direct))
    report["sdg_direct_max_abs_err"] = max_err
    report["sdg_direct_pass"] = max_err <= max(1e-6, 10.0 * SUITE_INNER_TOL)

    worst = {}
    for _ in range(samples):
        z = _random_point(problem, rng)
        b = float(np.exp(rng.uniform(lo, hi)))
        for name, slack in gap_witness(problem, z, b).items():
            worst[name] = min(worst.get(name, INF), slack)
    report["witness_min_slack"] = worst
    report["witness_pass"] = all(v >= 0.0 for v in worst.values())

    if problem.reference is not None:
        xs, ys = problem.reference.x_star, problem.reference.y_star
        decomp_err = 0.0
        lemma10_worst = INF
        init_bound_worst = INF
        for _ in range(10):
            z = _feasible_random_point(problem, rng, scale=1.0)
            b = float(np.exp(rng.uniform(np.log(1e-1), np.log(10.0))))
            gap, parts = sdg_decomposition_gap(problem, z, (xs, ys), b, SUITE_INNER_TOL)
            decomp_err = max(decomp_err, abs(gap))
            total, _, outer = parts
            floor = -2.0 * math.sqrt(b * max(total, 0.0)) * float(np.linalg.norm(z.x - xs))
            lemma10_worst = min(lemma10_worst, outer - floor)
            # oracle-mode initial bound: f(x) - f* <= ||q|| ||x - x*|| + ||y|| ||Ax-b||
            fx = problem.objective(z.x)
            if math.isfinite(fx):
                q = math.sqrt(problem.objective.stationarity_residual(
                    z.x, problem.constraint.matrix.T @ z.y))
                rhs = (q * float(np.linalg.norm(z.x - xs))
                       + float(np.linalg.norm(z.y))
                       * float(np.linalg.norm(problem.constraint.residual(z.x))))
                init_bound_worst = min(init_bound_worst,
                                       rhs - (fx - problem.reference.f_star) + 1e-9)
        report["decomposition_max_abs_err"] = decomp_err
        report["decomposition_pass"] = decomp_err <= max(1e-6, 10.0 * SUITE_INNER_TOL)
        report["lemma10_min_slack"] = lemma10_worst + 1e-6
        report["lemma10_pass"] = report["lemma10_min_slack"] >= 0.0
        report["initial_bound_min_slack"] = init_bound_worst
        report["initial_bound_pass"] = init_bound_worst >= 0.0

    report["passed"] = all(v for k, v in report.items() if k.endswith("_pass"))
    return report
