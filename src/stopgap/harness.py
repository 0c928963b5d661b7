"""Experiment driver: configures a benchmark run, solves it, evaluates every
criterion and bound along the trajectory, and writes the disk artifacts
(trace.csv, table1.json, table2.json, verification.json, plot CSVs).

All floats are serialised with 17 significant digits so traces round-trip
losslessly; +inf serialises as the string "inf".
"""

import csv
import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from . import criteria as crit
from . import oracles
from .bounds import T2_CONSTANTS, THEOREMS, evaluate_bounds, ratio_stats
from .errors import ConfigError
from .instances import make_instance
from .pdhg import SolveConfig, check_count, default_step_sizes, solve
from .regularity import EtaCache, lipschitz_constants

# PDHG ordering per family: the splitting QP needs the prox-last version to
# keep the slack block inside the nonnegativity domain
DEFAULT_VERSION = {"pqp": 2}
DEFAULT_SEED = {"bp": 5, "pqp": 8, "iidg": 7, "ntc": 7, "do": 0}


@dataclass
class ExperimentConfig:
    instance: str = "1d"
    n: int = 20
    m: int = 10
    seed: int | None = None
    data_path: str | None = None
    epsilon: float = 1e-8
    max_iters: int = 100_000
    criterion: str = "all"          # stop gate; 'all' waits for every criterion
    criteria: tuple | None = None   # None = every criterion computable here
    bounds: tuple = THEOREMS        # theorem ids to certify along the way
    record_every: int = 1
    version: int | None = None      # None = family default
    sdg_gate: str = "surrogate"
    t2_constant: str = "proof"
    out_dir: str = "out"
    verify: bool = False
    verify_samples: int = 50

    @classmethod
    def from_dict(cls, d):
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def validate(self):
        if self.criteria is not None:
            if not self.criteria:
                raise ConfigError("criteria list must not be empty; omit it for defaults")
            if not set(self.criteria) <= {"ogfe", "kkt", "pdg", "sdg"}:
                raise ConfigError(f"unknown criteria {self.criteria}")
            if self.criterion != "all" and self.criterion not in self.criteria:
                raise ConfigError("stop criterion must be among the evaluated criteria")
        for name in ("n", "m", "max_iters", "record_every", "verify_samples"):
            check_count(name, getattr(self, name))
        if self.t2_constant not in T2_CONSTANTS:
            raise ConfigError(f"unknown t2_constant {self.t2_constant!r}; "
                              f"choose from {list(T2_CONSTANTS)}")
        if not set(self.bounds) <= set(THEOREMS):
            raise ConfigError(f"unknown bound ids {set(self.bounds) - set(THEOREMS)}")
        return self


def build_instance(config: ExperimentConfig):
    name = config.instance
    seed = config.seed
    if seed is None:
        seed = DEFAULT_SEED.get(name, 0)
    kwargs = {}
    if name in ("iidg", "ntc", "pqp", "bp"):
        kwargs = {"n": config.n, "m": config.m, "seed": seed}
    elif name == "do":
        kwargs = {"data_path": config.data_path, "seed": seed}
    return make_instance(name, **kwargs)


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return "%.17g" % v
    return str(v)


def run_experiment(config: ExperimentConfig):
    """Run one configured experiment and write its artifacts.

    Returns a dict with the output paths and the in-memory tables.
    """
    config.validate()
    problem = build_instance(config)
    steps = default_step_sizes(problem.constraint)
    version = config.version
    if version is None:
        version = DEFAULT_VERSION.get(config.instance, 1)

    if config.criteria is not None:
        names = list(config.criteria)
    else:
        names = ["kkt", "sdg", "pdg"] + (["ogfe"] if problem.reference is not None else [])
    if "ogfe" in names and problem.reference is None:
        raise ConfigError(f"{problem.label}: ogfe requested but no reference solution")

    solve_cfg = SolveConfig(
        epsilon=config.epsilon, max_iters=config.max_iters,
        criterion=config.criterion, evaluate=tuple(names),
        record_every=config.record_every, version=version,
        sdg_gate=config.sdg_gate)
    traj = solve(problem, solve_cfg, steps)

    consts = lipschitz_constants(problem, steps=None)
    eta_of = EtaCache(problem)

    os.makedirs(config.out_dir, exist_ok=True)
    trace_path = os.path.join(config.out_dir, "trace.csv")
    per_theorem = {tid: [] for tid in config.bounds}
    header = ["iteration", "og", "fe", "kkt", "pdg", "sdg", "sdg_beta", "sdg_gate"]
    for tid in config.bounds:
        header += [f"{tid}_lhs", f"{tid}_rhs", f"{tid}_ratio", f"{tid}_beta"]

    with open(trace_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k, z in traj.iterates:
            pv = crit.evaluate_point(problem, z)
            j, gate = crit.best_sdg(pv.sdg)
            reports = evaluate_bounds(problem, z, consts, eta_of=eta_of, values=pv,
                                      t2_constant=config.t2_constant)
            cells = [k, _fmt(pv.og), _fmt(pv.fe), _fmt(pv.kkt), _fmt(pv.pdg),
                     _fmt(float(pv.sdg.gap[j])), _fmt(float(pv.sdg.beta[j])), _fmt(gate)]
            for tid in config.bounds:
                rep = reports.get(tid)
                if rep is None:
                    cells += ["", "", "", ""]
                else:
                    per_theorem[tid].append(rep)
                    cells += [_fmt(rep.lhs), _fmt(rep.rhs), _fmt(rep.ratio),
                              _fmt(rep.beta_used.beta_x if rep.beta_used else None)]
            writer.writerow(cells)

    table1 = {"instance": problem.label, "epsilon": config.epsilon,
              "budget": config.max_iters, "version": version,
              "iterations": {n: traj.crossings.get(n) for n in names},
              "stop_reason": traj.stop_reason}
    with open(os.path.join(config.out_dir, "table1.json"), "w") as fh:
        json.dump(_sanitize(table1), fh, indent=2, sort_keys=True)

    table2 = {"instance": problem.label, "ratios": {}}
    for tid, reports in per_theorem.items():
        if not reports:
            continue
        stats = ratio_stats(reports)
        table2["ratios"][tid] = {
            "mean": stats.mean, "std_dev": stats.std_dev,
            "count": stats.count, "infinite_count": stats.infinite_count,
            "zero_lhs_count": stats.zero_lhs_count,
            "violations": sum(not r.holds for r in reports)}
    with open(os.path.join(config.out_dir, "table2.json"), "w") as fh:
        json.dump(_sanitize(table2), fh, indent=2, sort_keys=True)

    result = {"trace": trace_path,
              "table1": table1, "table2": table2,
              "trajectory": traj}

    if config.verify:
        report = oracles.verification_suite(problem, seed=0,
                                            sdg_samples=config.verify_samples,
                                            witness_samples=config.verify_samples)
        vpath = os.path.join(config.out_dir, "verification.json")
        with open(vpath, "w") as fh:
            json.dump(_sanitize(report), fh, indent=2, sort_keys=True)
        result["verification"] = report
    return result


def _sanitize(obj):
    """JSON-ready copy: numpy scalars to python, +/-inf to strings."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def emit_plot_data(trace_path, selector, out_path, clamp=1e-16):
    """Log-scale-ready series from a trace.

    selector 'criterion:<name>' emits iteration vs value; 'bound:<tid>'
    emits iteration, lhs, rhs.  Zeros are clamped to ``clamp`` with a flag
    column marking clamped rows.
    """
    with open(trace_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ConfigError(f"trace {trace_path} is empty")
    kind, _, name = selector.partition(":")
    if kind == "criterion":
        cols = [name]
    elif kind == "bound":
        cols = [f"{name}_lhs", f"{name}_rhs"]
    else:
        raise ConfigError(f"unknown selector {selector!r}")
    for c in cols:
        if c not in rows[0]:
            raise ConfigError(f"selector column {c!r} not in trace")

    def parse(v):
        if v in ("", None):
            return None
        return float(v)

    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration"] + cols + ["clamped"])
        for row in rows:
            vals = [parse(row[c]) for c in cols]
            if any(v is None for v in vals):
                continue
            clamped = int(any(v == 0.0 for v in vals))
            vals = [max(v, clamp) for v in vals]
            writer.writerow([row["iteration"]] + [_fmt(v) for v in vals] + [clamped])
    return out_path
