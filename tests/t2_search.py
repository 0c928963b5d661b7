"""Seeded search for the tightest point of T2,

    OG <= (1 + c_beta) G + sqrt(2 beta) ||y|| sqrt(G),

on a least-squares instance with a reference solution.  At one fixed beta,
Nelder-Mead minimises log(rhs/OG) over z = (x, y) where OG > 0, from
seeded starts around the saddle point (x*, y*).  G is the smoothed gap of
``criteria.smoothed_duality_gap``, eta(beta) comes from ``qeb_eta``, the
proof's constant c_beta = 2 sqrt(beta/eta) from ``bounds.bound_T2``, and the
constant the paper prints, c_beta = sqrt(2 beta/eta), from ``printed_t2``.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from stopgap.bounds import bound_T2
from stopgap.criteria import PointValues, smoothed_duality_gap
from stopgap.problem import PrimalDualPoint
from stopgap.regularity import qeb_eta


def printed_t2(G, y_norm, beta, eta):
    """T2's rhs with the printed constant c_beta = sqrt(2 beta / eta)."""
    return (1.0 + np.sqrt(2.0 * beta / eta)) * G + np.sqrt(2.0 * beta) * y_norm * np.sqrt(G)


T2_RHS = {"proof": bound_T2, "printed": printed_t2}


def t2_sides(problem, z, beta, eta, rhs):
    """(OG, rhs) of T2 at the point ``z`` and the float ``beta``."""
    values = PointValues(problem, z)
    G = smoothed_duality_gap(values, beta)[0]
    return values.og, float(rhs(G, z.norms()[1], beta, eta))


@dataclass(frozen=True)
class Tightest:
    """The smallest rhs/OG a search found, where, and how many points it
    evaluated."""

    ratio: float
    z: PrimalDualPoint
    og: float
    rhs: float
    evaluations: int


def search_t2(problem, beta, rhs, starts, seed, max_evals):
    """The smallest rhs/OG of T2 (with ``rhs``, one of ``T2_RHS``) found at
    ``beta`` by ``starts`` Nelder-Mead runs of at most ``max_evals`` points
    each.

    A point is (x*, y*) moved by 10^s along a direction d, and the search
    runs over (s, d).  Start k draws s uniform in [-4, 1] and a
    standard-normal d, negated when OG = 0 there: near (x*, y*) OG is first
    order in the step, so one of d and -d has OG > 0.  s is kept in
    [-6, 3], since below 1e-6 the round-off of OG = f(x) - f* nears the
    slack of ``bounds.holds``."""
    eta = qeb_eta(problem.objective.gram, problem.constraint.matrix, beta)[0]
    ref, n = problem.reference, problem.constraint.n
    center = np.concatenate([ref.x_star, ref.y_star])
    best = Tightest(math.inf, None, math.nan, math.nan, 0)
    evals = 0

    def sides(w):
        nonlocal best, evals
        evals += 1
        d = w[1:] * (10.0 ** min(max(w[0], -6.0), 3.0) / np.linalg.norm(w[1:]))
        z = PrimalDualPoint(center[:n] + d[:n], center[n:] + d[n:])
        og, r = t2_sides(problem, z, beta, eta, rhs)
        if 0.0 < og < math.inf and r / og < best.ratio:
            best = Tightest(r / og, z, og, r, 0)
        return og, r

    def log_ratio(w):
        og, r = sides(w)
        if not 0.0 < og < math.inf or not r < math.inf:
            return 1e3
        return math.log(r / og) if r > 0.0 else -1e3

    rng = np.random.default_rng(seed)
    for _ in range(starts):
        w0 = np.concatenate([[rng.uniform(-4.0, 1.0)], rng.standard_normal(center.size)])
        if not sides(w0)[0] > 0.0:
            w0[1:] = -w0[1:]
        minimize(log_ratio, w0, method="Nelder-Mead",
                 options={"maxfev": max_evals, "xatol": 1e-10, "fatol": 1e-12})
    return replace(best, evaluations=evals)
