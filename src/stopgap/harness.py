"""Experiment driver: configures a benchmark run, solves it, evaluates every
criterion and bound along the trajectory, and writes the disk artifacts
(trace.csv, table1.json, table2.json, plot CSVs).

All floats are serialised with 17 significant digits so traces round-trip
losslessly; +inf serialises as the string "inf".
"""

import csv
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import criteria as crit
from .bounds import T2_CONSTANTS, THEOREMS, evaluate_bounds, ratio, ratio_stats
from .errors import ConfigError
from .instances import make_instance
from .pdhg import CRITERIA, SolveConfig, check_count, default_step_sizes, solve
from .regularity import EtaCache, lipschitz_constants

# PDHG ordering per family: the splitting QP needs the prox-last version to
# keep the slack block inside the nonnegativity domain
DEFAULT_VERSION = {"pqp": 2}
DEFAULT_SEED = {"bp": 5, "pqp": 8, "iidg": 7, "ntc": 7, "do": 0}
# the families whose size n x m is set by ExperimentConfig.n and .m
SIZED = ("iidg", "ntc", "pqp", "bp")
# floor of a plotted series, so that zeros stay on a log axis
PLOT_CLAMP = 1e-16


@dataclass
class ExperimentConfig:
    instance: str = "1d"
    n: int | None = None            # None = family default (20 x 10)
    m: int | None = None
    seed: int | None = None
    data_path: str | None = None
    epsilon: float = 1e-8
    max_iters: int = 100_000
    criterion: str = "all"          # stop gate; 'all' waits for every criterion
    criteria: tuple | None = None   # None = every criterion computable here
    record_every: int = 1
    version: int | None = None      # None = family default
    t2_constant: str = "proof"
    out_dir: str = "out"

    def validate(self):
        if self.criteria is not None:
            if not self.criteria:
                raise ConfigError("criteria list must not be empty; omit it for defaults")
            if not set(self.criteria) <= set(CRITERIA):
                raise ConfigError(f"unknown criteria {self.criteria}")
            if self.criterion != "all" and self.criterion not in self.criteria:
                raise ConfigError("stop criterion must be among the evaluated criteria")
        for name in ("n", "m"):
            if getattr(self, name) is not None:
                if self.instance not in SIZED:
                    raise ConfigError(f"{name} sets the size of {'/'.join(SIZED)} "
                                      f"instances only, not {self.instance!r}")
                check_count(name, getattr(self, name))
        if self.data_path is not None and self.instance != "do":
            raise ConfigError(f"data_path sets the data of do instances only, "
                              f"not {self.instance!r}")
        # the solver's own checks, made before the instance is built
        SolveConfig(epsilon=self.epsilon, max_iters=self.max_iters, criterion=self.criterion,
                    record_every=self.record_every, evaluate=CRITERIA,
                    version=1 if self.version is None else self.version)
        if self.seed is not None and (isinstance(self.seed, bool) or not isinstance(
                self.seed, numbers.Integral) or self.seed < 0):
            raise ConfigError(f"seed must be None or a non-negative integer, got {self.seed!r}")
        if self.t2_constant not in T2_CONSTANTS:
            raise ConfigError(f"unknown t2_constant {self.t2_constant!r}; "
                              f"choose from {list(T2_CONSTANTS)}")
        return self


def build_instance(config: ExperimentConfig):
    name = config.instance
    seed = config.seed
    if seed is None:
        seed = DEFAULT_SEED.get(name, 0)
    kwargs = {}
    if name in SIZED:
        size = {"n": config.n, "m": config.m}
        kwargs = {"seed": seed, **{k: v for k, v in size.items() if v is not None}}
    elif name == "do":
        kwargs = {"data_path": config.data_path, "seed": seed}
    return make_instance(name, **kwargs)


def _fmt(v):
    """One trace cell; None and nan, a value that does not apply, are empty."""
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isnan(v):
            return ""
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

    solve_cfg = SolveConfig(
        epsilon=config.epsilon, max_iters=config.max_iters,
        criterion=config.criterion, evaluate=tuple(names),
        record_every=config.record_every, version=version)
    traj = solve(problem, solve_cfg, steps)

    consts = lipschitz_constants(problem)
    eta_of = EtaCache(problem)

    os.makedirs(config.out_dir, exist_ok=True)
    trace_path = os.path.join(config.out_dir, "trace.csv")
    # table2's input: per theorem, the lhs and rhs of each row, nan where it
    # does not apply
    shape = (len(THEOREMS), len(traj.iterates))
    lhs, rhs = np.empty(shape), np.empty(shape)
    header = ["iteration", "og", "fe", "kkt", "pdg", "sdg", "sdg_beta", "sdg_gate"]
    for tid in THEOREMS:
        header += [f"{tid}_lhs", f"{tid}_rhs", f"{tid}_ratio", f"{tid}_beta"]

    with open(trace_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, (k, z) in enumerate(traj.iterates):
            pv = crit.PointValues(problem, z)
            j, gate = crit.best_sdg(pv.sdg)
            cells = [k, _fmt(pv.og), _fmt(pv.fe), _fmt(pv.kkt), _fmt(pv.pdg),
                     _fmt(float(pv.sdg.gap[j])), _fmt(float(pv.sdg.beta[j])), _fmt(gate)]
            lhs[:, i], rhs[:, i], beta = evaluate_bounds(pv, consts, eta_of, config.t2_constant)
            rho = np.where(np.isnan(lhs[:, i]), np.nan, ratio(lhs[:, i], rhs[:, i]))
            for cell in zip(lhs[:, i].tolist(), rhs[:, i].tolist(), rho.tolist(), beta.tolist()):
                cells += map(_fmt, cell)
            writer.writerow(cells)

    table1 = {"instance": problem.label, "epsilon": config.epsilon,
              "budget": config.max_iters, "version": version,
              "iterations": {n: traj.crossings.get(n) for n in names},
              "stop_reason": traj.stop_reason}
    with open(os.path.join(config.out_dir, "table1.json"), "w") as fh:
        json.dump(_sanitize(table1), fh, indent=2, sort_keys=True)

    table2 = {"instance": problem.label, "ratios": {}}
    certified = ~np.isnan(lhs)
    for t, tid in enumerate(THEOREMS):
        if certified[t].any():
            table2["ratios"][tid] = asdict(ratio_stats(lhs[t, certified[t]],
                                                       rhs[t, certified[t]]))
    with open(os.path.join(config.out_dir, "table2.json"), "w") as fh:
        json.dump(_sanitize(table2), fh, indent=2, sort_keys=True)

    return {"trace": trace_path, "table1": table1, "table2": table2, "trajectory": traj}


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


def emit_plot_data(trace_path, selector, out_path):
    """Log-scale-ready series from a trace.

    selector 'criterion:<name>' emits iteration vs value; 'bound:<tid>'
    emits iteration, lhs, rhs.  Zeros are clamped to ``PLOT_CLAMP`` with a
    flag column marking clamped rows.  A selector with no numeric row (a
    measure or theorem that does not apply) raises ConfigError.
    """
    try:
        with open(trace_path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = [(reader.line_num, row) for row in reader]
    except OSError as exc:
        raise ConfigError(f"{trace_path}: cannot read trace ({exc.strerror})") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{trace_path}: cannot read trace ({exc})") from exc
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
        if c not in rows[0][1]:
            raise ConfigError(f"selector column {c!r} not in trace")

    def parse(line, column, v):
        if v in ("", None):
            return None
        try:
            return float(v)
        except ValueError:
            raise ConfigError(f"{trace_path}: line {line}, column {column!r}: "
                              f"{v!r} is not a number") from None

    series = []   # parsed in full first, so a bad cell writes no file
    for line, row in rows:
        vals = [parse(line, c, row[c]) for c in cols]
        if any(v is None for v in vals):
            continue
        clamped = int(any(v == 0.0 for v in vals))
        series.append([row["iteration"]] + [_fmt(max(v, PLOT_CLAMP)) for v in vals] + [clamped])
    if not series:
        # a measure or theorem that does not apply here is empty on every row
        raise ConfigError(f"{trace_path}: no row has a number in "
                          + " and ".join(map(repr, cols)))
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration"] + cols + ["clamped"])
        writer.writerows(series)
    return out_path
