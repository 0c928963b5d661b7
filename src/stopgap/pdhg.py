"""Primal-Dual Hybrid Gradient, both orderings, with pluggable stopping
criteria and full trajectory recording.

Version 1 proxes the primal first and extrapolates it afterwards; version 2
takes the dual ascent first so the returned primal is a prox output (exact
zeros/projections survive, which matters for the nonsmooth problems).
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import criteria
from .errors import ConfigError, StopgapError
from .problem import PrimalDualPoint

CRITERIA = ("ogfe", "kkt", "pdg", "sdg")


@dataclass(frozen=True)
class StepSizes:
    """tau (primal) and sigma (dual); convergence needs tau*sigma*||A||^2 < 1."""

    tau: float
    sigma: float

    def __post_init__(self):
        for name in ("tau", "sigma"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise ConfigError(f"step size {name} must be positive and finite, got {value}")

    def check(self, op_norm):
        if not self.tau * self.sigma * op_norm ** 2 < 1.0:
            raise ConfigError(
                f"tau*sigma*||A||^2 = {self.tau * self.sigma * op_norm ** 2} is not below 1")


def default_step_sizes(constraint):
    """tau = 0.95/||A||, sigma = 1/||A|| so that tau*sigma*||A||^2 = 0.95."""
    nrm = constraint.norm()
    return StepSizes(tau=0.95 / nrm, sigma=1.0 / nrm)


def check_count(name, value):
    """Raise a ConfigError naming ``name`` unless ``value`` is an integer, not
    a bool, of at least 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ConfigError(f"{name} must be at least 1, got {value}")


@dataclass
class SolveConfig:
    """Stopping target and bookkeeping for one solve."""

    epsilon: float = 1e-8
    max_iters: int = 100_000
    criterion: str = "sdg"          # which gate stops the run
    record_every: int = 1
    version: int = 1                # PDHG step ordering
    evaluate: tuple = ()            # extra criteria recorded along the way

    def __post_init__(self):
        if not (0.0 < self.epsilon < math.inf):
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        for name in ("max_iters", "record_every"):
            check_count(name, getattr(self, name))
        if self.criterion not in CRITERIA + ("all",):
            raise ConfigError(f"unknown stopping criterion {self.criterion!r}")
        if self.criterion == "all" and not self.evaluate:
            raise ConfigError("criterion 'all' needs a non-empty evaluate list")
        if self.version not in (1, 2):
            raise ConfigError("version must be 1 or 2")
        unknown = set(self.evaluate) - set(CRITERIA)
        if unknown:
            raise ConfigError(f"unknown criteria to evaluate: {sorted(unknown)}")


@dataclass
class Trajectory:
    """Recorded iterates plus where and why the run stopped.

    ``crossings`` maps each evaluated criterion to the first iteration at
    which its gate fired (None if it never did).
    """

    iterates: list = field(default_factory=list)  # (k, PrimalDualPoint) pairs
    stop_reason: str = "budget_exhausted"
    iterations_used: int = 0
    crossings: dict = field(default_factory=dict)


def step_v1(problem, z, steps: StepSizes):
    """Prox step, dual ascent, primal extrapolation (dual kept)."""
    problem.check_point(z)
    A = problem.constraint.matrix
    xb = problem.objective.prox(steps.tau, z.x - steps.tau * (A.T @ z.y))
    yb = z.y + steps.sigma * (A @ xb - problem.constraint.rhs)
    xp = xb - steps.tau * (A.T @ (yb - z.y))
    _ensure_finite(xp, yb)
    return PrimalDualPoint(xp, yb)


def step_v2(problem, z, steps: StepSizes):
    """Dual ascent first; the returned primal is the prox output itself."""
    problem.check_point(z)
    A = problem.constraint.matrix
    yb = z.y + steps.sigma * (A @ z.x - problem.constraint.rhs)
    xb = problem.objective.prox(steps.tau, z.x - steps.tau * (A.T @ yb))
    yp = yb + steps.sigma * (A @ (xb - z.x))
    _ensure_finite(xb, yp)
    return PrimalDualPoint(xb, yp)


def _ensure_finite(x, y):
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise StopgapError("PDHG produced a non-finite iterate")


def _gate_value(name, config, pv: criteria.PointValues):
    """Value and threshold of one stopping gate at the iterate ``pv.z``.

    KKT and PDG are a nonnegative term plus ||r||^2 and OG/FE is
    max(OG, FE); rounding is monotone, so each computed value is at least its
    computed feasibility term.  While that term alone is above the threshold
    the gate is shut, and it reads +inf without evaluating the measure.  The
    SDG certificate has no such float-safe floor.
    """
    if name == "ogfe":
        if pv.fe > config.epsilon:
            return math.inf, config.epsilon
        return max(pv.og, pv.fe), config.epsilon
    if name in ("kkt", "pdg"):
        threshold = config.epsilon ** 2
        if pv.rr > threshold:
            return math.inf, threshold
        return getattr(pv, name), threshold
    # sdg: best certificate over the per-iteration grid
    return criteria.best_sdg(pv.sdg)[1], config.epsilon


def solve(problem, config: SolveConfig, steps: StepSizes | None = None):
    """Iterate PDHG from z = 0 until the configured gate fires or the budget
    runs out.  The gating criterion and those in ``config.evaluate`` are
    evaluated at each iterate until their first crossing is recorded.  KKT,
    PDG and OG/FE are not evaluated while the feasibility error alone keeps
    their gate shut (see ``_gate_value``), which leaves every crossing
    unchanged.  Their oracle checks are skipped there too: a
    conjugate-domain projection that breaks its contract raises here only
    once the feasibility error is at most epsilon, while ``run_experiment``,
    which evaluates every measure at every recorded iterate, raises it at
    the first row.  Each iterate is evaluated once, as one
    ``criteria.PointValues``: its residual Ax - b, squared norm and norm up
    front, and A^T y, f(x) and each measure at most once, shared by the
    gates.
    """
    if steps is None:
        steps = default_step_sizes(problem.constraint)
    steps.check(problem.constraint.norm())

    gate_all = config.criterion == "all"
    gating = tuple(config.evaluate) if gate_all else (config.criterion,)
    names = list(dict.fromkeys(gating + tuple(config.evaluate)))
    if "ogfe" in names and problem.reference is None:
        raise ConfigError(f"{problem.label}: ogfe requested but no reference solution")

    z = PrimalDualPoint(np.zeros(problem.constraint.n), np.zeros(problem.constraint.m))
    stepper = step_v1 if config.version == 1 else step_v2

    traj = Trajectory(crossings={n: None for n in names})

    def evaluate(k, zk):
        pv = criteria.PointValues(problem, zk)
        for name in names:
            if traj.crossings[name] is not None:
                continue  # first crossing already recorded; skip the recompute
            val, thr = _gate_value(name, config, pv)
            if val <= thr:
                traj.crossings[name] = k
        if gate_all:
            return all(traj.crossings[n] is not None for n in gating)
        return traj.crossings[config.criterion] == k

    fired = evaluate(0, z)
    traj.iterates.append((0, z))
    if fired:
        traj.stop_reason = "converged"
        return traj

    for k in range(1, config.max_iters + 1):
        z = stepper(problem, z, steps)
        fired = evaluate(k, z)
        if fired or k == config.max_iters or k % config.record_every == 0:
            traj.iterates.append((k, z))
        traj.iterations_used = k
        if fired:
            traj.stop_reason = "converged"
            return traj
    traj.stop_reason = "budget_exhausted"
    return traj
