"""Brute-force prox oracles for the tests: a 1-D grid search with interval
refinement and projected gradient on the prox objective.  They share no code
with ``stopgap.objectives``, whose closed-form proxes they check."""

import math

import numpy as np

from stopgap.errors import ConvergenceError


def prox_oracle_1d(f_scalar, s, v, grid_points=401, rounds=12, expand_limit=60):
    """Certified 1-D prox by dense grid search with interval refinement.

    Minimises f(u) + (u - v)^2 / (2 s).  The bracket expands until the best
    grid point is interior, then zooms; the final resolution is the returned
    interval width divided by the grid size.
    """
    def h(u):
        return f_scalar(u) + (u - v) ** 2 / (2.0 * s)

    radius = abs(v) + s + 1.0
    lo, hi = v - radius, v + radius
    for _ in range(expand_limit):
        us = np.linspace(lo, hi, grid_points)
        vals = np.array([h(u) for u in us])
        i = int(np.nanargmin(vals))
        if 0 < i < grid_points - 1:
            break
        lo, hi = v - 2 * (v - lo), v + 2 * (hi - v)
    else:
        raise ConvergenceError("could not bracket the 1-D prox minimiser")
    # value-based search cannot localise beyond the curvature floor where
    # h differences fall under machine epsilon
    floor = math.sqrt(2.0 * s * np.finfo(float).eps * max(1.0, abs(vals[i])))
    for _ in range(rounds):
        if us[1] - us[0] <= floor:
            break
        lo, hi = us[max(i - 1, 0)], us[min(i + 1, grid_points - 1)]
        us = np.linspace(lo, hi, grid_points)
        vals = np.array([h(u) for u in us])
        i = int(np.nanargmin(vals))
    return float(us[i]), max(float(us[1] - us[0]), floor)


def prox_oracle_pg(f_grad, project, s, v, lipschitz, tol=1e-10, max_iters=200_000):
    """Certified prox of a smooth (optionally constrained) objective by
    projected gradient on h(u) = f(u) + ||u - v||^2/(2s).

    Stops when the fixed-point residual ||u - proj(u - step grad h(u))|| / step
    drops below tol; exhausting the budget raises ConvergenceError.
    """
    v = np.asarray(v, dtype=float)
    step = 1.0 / (lipschitz + 1.0 / s)
    u = project(v.copy())
    for _ in range(max_iters):
        grad = f_grad(u) + (u - v) / s
        u_next = project(u - step * grad)
        res = np.linalg.norm(u - u_next) / step
        u = u_next
        if res <= tol:
            return u
    raise ConvergenceError(f"projected gradient residual {res:.3e} above {tol:.3e}")
