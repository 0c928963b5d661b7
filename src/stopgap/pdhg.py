"""Primal-Dual Hybrid Gradient, both orderings, with pluggable stopping
criteria and full trajectory recording.

Version 1 proxes the primal first and extrapolates it afterwards; version 2
takes the dual ascent first so the returned primal is a prox output (exact
zeros/projections survive, which matters for the nonsmooth problems).
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import criteria
from .errors import ConfigError, StopgapError, check_count, check_positive
from .problem import PrimalDualPoint

CRITERIA = ("ogfe", "kkt", "pdg", "sdg")


@dataclass(frozen=True)
class StepSizes:
    """tau (primal) and sigma (dual); convergence needs tau*sigma*||A||^2 < 1."""

    tau: float
    sigma: float

    def __post_init__(self):
        check_positive("step size tau", self.tau)
        check_positive("step size sigma", self.sigma)

    def check(self, op_norm):
        if not self.tau * self.sigma * op_norm ** 2 < 1.0:
            raise ConfigError(
                f"tau*sigma*||A||^2 = {self.tau * self.sigma * op_norm ** 2} is not below 1")


def default_step_sizes(constraint):
    """tau = 0.95/||A||, sigma = 1/||A|| so that tau*sigma*||A||^2 = 0.95."""
    nrm = constraint.norm()
    return StepSizes(tau=0.95 / nrm, sigma=1.0 / nrm)


@dataclass(frozen=True)
class SolveConfig:
    """Stopping target and bookkeeping for one solve."""

    epsilon: float = 1e-8
    max_iters: int = 100_000
    criterion: str = "sdg"          # which gate stops the run
    record_every: int = 1
    version: int = 1                # PDHG step ordering
    evaluate: tuple = ()            # extra criteria recorded along the way

    def __post_init__(self):
        check_positive("epsilon", self.epsilon)
        check_count("max_iters", self.max_iters)
        check_count("record_every", self.record_every)
        if self.criterion not in CRITERIA + ("all",):
            raise ConfigError(f"unknown stopping criterion {self.criterion!r}")
        if isinstance(self.evaluate, str):
            raise ConfigError(f"evaluate must be a list of criteria, got {self.evaluate!r}")
        if self.criterion == "all" and not self.evaluate:
            raise ConfigError("criterion 'all' needs a non-empty evaluate list")
        if isinstance(self.version, bool) or not isinstance(self.version, numbers.Integral) \
                or self.version not in (1, 2):
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
    crossings: dict = field(default_factory=dict)
    iterations_used = property(lambda self: self.iterates[-1][0])  # solve records the last


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


def _gate_fires(name, epsilon, pv: criteria.PointValues):
    """Whether one stopping gate fires at the iterate ``pv.z``.

    KKT and PDG are a nonnegative term plus ||r||^2 and OG/FE is
    max(OG, FE); rounding is monotone, so each computed value is at least its
    computed feasibility term.  While that term alone is above the threshold
    the gate is shut, and the measure is not evaluated.  The SDG certificate
    has no such float-safe floor.
    """
    if name == "ogfe":
        return not pv.fe > epsilon and max(pv.og, pv.fe) <= epsilon
    if name in ("kkt", "pdg"):
        return not pv.rr > epsilon ** 2 and getattr(pv, name) <= epsilon ** 2
    # sdg: best certificate over the per-iteration grid
    return criteria.best_sdg(pv.sdg)[1] <= epsilon


def solve(problem, config: SolveConfig, steps: StepSizes | None = None):
    """Iterate PDHG from z = 0 until every gating criterion (the configured
    one, or each of ``config.evaluate`` for ``"all"``) has fired, or the
    budget runs out.  The gating criteria and those in ``config.evaluate``
    are evaluated at each iterate until their first crossing is recorded.
    KKT, PDG and OG/FE are not evaluated while the feasibility error alone
    keeps their gate shut (see ``_gate_fires``), which leaves every crossing
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

    gating = tuple(config.evaluate) if config.criterion == "all" else (config.criterion,)
    names = list(dict.fromkeys(gating + tuple(config.evaluate)))
    if "ogfe" in names and problem.reference is None:
        raise ConfigError(f"{problem.label}: ogfe requested but no reference solution")

    z = PrimalDualPoint(np.zeros(problem.constraint.n), np.zeros(problem.constraint.m))
    stepper = step_v1 if config.version == 1 else step_v2
    traj = Trajectory(crossings={n: None for n in names})
    for k in range(config.max_iters + 1):
        if k > 0:
            z = stepper(problem, z, steps)
        pv = criteria.PointValues(problem, z)
        for name in names:
            if traj.crossings[name] is None and _gate_fires(name, config.epsilon, pv):
                traj.crossings[name] = k
        converged = all(traj.crossings[n] is not None for n in gating)
        if converged or k == config.max_iters or k % config.record_every == 0:
            traj.iterates.append((k, z))
        if converged:
            traj.stop_reason = "converged"
            break
    return traj
