"""Experiment driver: configures a benchmark run, solves it, evaluates every
criterion and bound along the trajectory, and writes the disk artifacts
(trace.csv, table1.json, table2.json, plot CSVs).

All floats are serialised with 17 significant digits so traces round-trip
losslessly; +inf serialises as the string "inf".
"""

import csv
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import criteria as crit
from .bounds import THEOREMS, evaluate_bounds, ratio, ratio_stats
from .errors import ConfigError, check_count
from .instances import family, readers
from .pdhg import CRITERIA, SolveConfig, default_step_sizes, solve
from .regularity import lipschitz_constants

# floor of a plotted series, so that zeros and round-off stay on a log axis
PLOT_CLAMP = 1e-16


@dataclass(frozen=True)
class ExperimentConfig:
    """One run, checked when it is made.  The solve defaults are SolveConfig's
    but ``criterion``: a run waits for every gate, as Table 1 reports each
    crossing; ``solve`` stops at SDG."""

    instance: str = "1d"
    n: int | None = None            # None = the factory default (20 x 10)
    m: int | None = None
    seed: int | None = None         # None = the factory's paper seed
    data_path: str | None = None
    epsilon: float = SolveConfig.epsilon
    max_iters: int = SolveConfig.max_iters
    criterion: str = "all"          # stop gate; 'all' waits for every criterion
    criteria: tuple | None = None   # None = every criterion computable here
    record_every: int = SolveConfig.record_every
    version: int | None = None      # None = family default
    out_dir: str = "out"

    def solve_config(self, criteria):
        """The run's SolveConfig over ``criteria``, with the family's default version."""
        version = family(self.instance).version if self.version is None else self.version
        return SolveConfig(epsilon=self.epsilon, max_iters=self.max_iters,
                           criterion=self.criterion, criteria=criteria,
                           record_every=self.record_every, version=version)

    def __post_init__(self):
        fam = family(self.instance)
        if self.criteria is not None and not self.criteria:
            raise ConfigError("criteria list must not be empty; omit it for defaults")
        for name, sets in (("n", "size"), ("m", "size"), ("data_path", "data")):
            value = getattr(self, name)
            if value is not None and name not in fam.reads:
                raise ConfigError(f"{name} sets the {sets} of {'/'.join(readers(name))} "
                                  f"instances only, not {self.instance!r}")
            if value is not None and sets == "size":
                check_count(name, value)
        # the solver's own checks, made before the instance is built
        self.solve_config(self.criteria or CRITERIA)
        if self.criteria is not None:
            object.__setattr__(self, "criteria", tuple(self.criteria))
        if self.seed is not None:
            check_count("seed", self.seed, least=0)
        if not fam.reference and "ogfe" in (self.criterion, *(self.criteria or ())):
            # the solver's own refusal, before any solve; a small build names the instance
            crit.check_reference(build_instance(self), ("ogfe",))


def build_instance(config: ExperimentConfig):
    """The family's factory over the set fields it reads, with its own defaults for the rest."""
    fam = family(config.instance)
    return fam.factory(**{k: getattr(config, k) for k in fam.reads
                          if getattr(config, k) is not None})


def make_output_dir(path):
    """``path``, made a directory if missing; an OSError is a one-line ConfigError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot create output directory ({exc.strerror})") from exc
    return path


def write_json(path, obj):
    """Write ``obj`` to ``path`` as JSON, keys sorted and indented by two; return the text."""
    text = json.dumps(_sanitize(obj), indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text)
    return text


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
    problem = build_instance(config)
    steps = default_step_sizes(problem.constraint)
    names = config.criteria or tuple(n for n in CRITERIA
                                     if n != "ogfe" or problem.reference is not None)
    # a sized family may build no reference: refuse before the directory is
    # made, and before a default list without ogfe meets an ogfe gate
    crit.check_reference(problem, (config.criterion, *names))
    solve_cfg = config.solve_config(names)
    make_output_dir(config.out_dir)
    traj = solve(problem, solve_cfg, steps)
    consts = lipschitz_constants(problem)

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
            lhs[:, i], rhs[:, i], beta = evaluate_bounds(pv, consts)
            rho = np.where(np.isnan(lhs[:, i]), np.nan, ratio(lhs[:, i], rhs[:, i]))
            for cell in zip(lhs[:, i].tolist(), rhs[:, i].tolist(), rho.tolist(), beta.tolist()):
                cells += map(_fmt, cell)
            writer.writerow(cells)

    table1 = {"instance": problem.label, "epsilon": config.epsilon,
              "budget": config.max_iters, "version": solve_cfg.version,
              "iterations": traj.crossings,
              "stop_reason": traj.stop_reason}
    write_json(os.path.join(config.out_dir, "table1.json"), table1)

    table2 = {"instance": problem.label, "ratios": {}}
    certified = ~np.isnan(lhs)
    for t, tid in enumerate(THEOREMS):
        if certified[t].any():
            table2["ratios"][tid] = asdict(ratio_stats(lhs[t, certified[t]],
                                                       rhs[t, certified[t]]))
    write_json(os.path.join(config.out_dir, "table2.json"), table2)

    return {"trace": trace_path, "table1": table1, "table2": table2, "trajectory": traj}


def _sanitize(obj):
    """JSON-ready copy: numpy arrays and scalars to python, +/-inf to strings."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def emit_plot_data(trace_path, selector, out_path):
    """Log-scale-ready series from a trace.

    selector 'criterion:<name>' emits iteration vs value; 'bound:<tid>'
    emits iteration, lhs, rhs.  Values below ``PLOT_CLAMP`` are raised to
    it, and a flag column marks the rows where that happened.  A selector with no numeric row (a
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
    for c in ("iteration", *cols):
        if c not in rows[0][1]:
            raise ConfigError(f"{trace_path}: column {c!r} not in trace")

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
        clamped = int(any(v < PLOT_CLAMP for v in vals))
        series.append([row["iteration"]] + [_fmt(max(v, PLOT_CLAMP)) for v in vals] + [clamped])
    if not series:
        # a measure or theorem that does not apply here is empty on every row
        raise ConfigError(f"{trace_path}: no row has a number in "
                          + " and ".join(map(repr, cols)))
    try:
        fh = open(out_path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"{out_path}: cannot write plot series ({exc.strerror})") from exc
    with fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration"] + cols + ["clamped"])
        writer.writerows(series)
    return out_path
