"""stopgap benchmark: drives ``stopgap.harness.run_experiment`` on fixed
workloads, checks every run's outputs and prints its metrics.

    python3 perfbench/run.py --workload table2-iidg --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (plus its overhead against untraced runs made in the
same invocation).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names, units
and workloads are documented in perfbench/README.md.  Run from the root of a
source checkout; the package is imported from ``src/``.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import probes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
EXPECTED = os.path.join(HERE, "expected_table2.json")

THREADS = "1"
SCALE_BUDGET = 300
ENDS_ONLY = 10 ** 9  # record_every beyond any budget: first and last iterate only

# setup_s pools the runs' own set-ups with standalone ones, made in a batch
# before every run of a workload (SETUP_BATCH_SECONDS or SETUP_BATCH_MAX
# set-ups, at least one), so that a sub-millisecond set-up still gets many
# samples and they spread over the whole measurement
SETUP_BATCH_SECONDS = 0.5
SETUP_BATCH_MAX = 2000

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "iters_per_s": "1/s",
             "iters": "count", "certify_ms_per_row": "ms", "peak_rss_mb": "MiB",
             "fail_ratio": "ratio"}


@dataclass(frozen=True)
class Workload:
    name: str
    instance: str
    paper_seed: int
    config: dict
    stop: str
    crossings: dict | None = None   # exact Table 1 row at the paper seed
    seeded: bool = False            # instance seed = paper seed + --seed
    size: dict = field(default_factory=lambda: {"n": 20, "m": 10})


WORKLOADS = {w.name: w for w in (
    Workload("table1-bp", "bp", 5,
             {"criterion": "sdg", "criteria": ("kkt", "sdg", "pdg"), "version": 1,
              "record_every": ENDS_ONLY},
             stop="converged", crossings={"kkt": None, "sdg": 12053, "pdg": 11798}),
    Workload("table2-iidg", "iidg", 7,
             {"criterion": "all", "criteria": ("kkt", "sdg", "pdg", "ogfe")},
             stop="converged",
             crossings={"kkt": 2176, "sdg": 2171, "pdg": 2206, "ogfe": 1866}),
    Workload("scale-iidg", "iidg", 7,
             {"criterion": "sdg", "criteria": ("sdg",), "max_iters": SCALE_BUDGET,
              "record_every": ENDS_ONLY},
             stop="budget_exhausted", seeded=True, size={"n": 400, "m": 200}),
)}


def instance_seed(w, seed, override):
    if override is not None:
        return override
    return w.paper_seed + seed if w.seeded else w.paper_seed


def table2_mismatches(got, want, rtol=1e-12):
    """Differences between two table2 ``ratios`` dicts: floats to ``rtol``
    relative, everything else exactly."""
    problems = []
    if set(got) != set(want):
        problems.append(f"table2 theorems {sorted(got)} != {sorted(want)}")
    for tid, stats in want.items():
        for key, w in stats.items():
            g = got.get(tid, {}).get(key)
            if isinstance(w, float) and isinstance(g, float):
                same = math.isclose(g, w, rel_tol=rtol, abs_tol=0.0)
            else:
                same = g == w
            if not same:
                problems.append(f"table2 {tid}.{key}: {g!r} != {w!r}")
    return problems


def check_run(w, out_dir, result, paper_instance, expected_table2, first_trace):
    """Output checks of one run; returns the list of failures."""
    with open(os.path.join(out_dir, "table1.json")) as fh:
        table1 = json.load(fh)
    with open(os.path.join(out_dir, "table2.json")) as fh:
        ratios = json.load(fh)["ratios"]
    with open(result["trace"], "rb") as fh:
        trace = fh.read()
    problems = []
    if table1["stop_reason"] != w.stop:
        problems.append(f"stop reason {table1['stop_reason']} != {w.stop}")
    budget = w.config.get("max_iters")
    if w.stop == "budget_exhausted" and result["trajectory"].iterations_used != budget:
        problems.append(f"stopped at {result['trajectory'].iterations_used}, budget {budget}")
    for tid, stats in ratios.items():
        if stats["violations"]:
            problems.append(f"{tid}: {stats['violations']} violations")
    if paper_instance:
        if w.crossings is not None and table1["iterations"] != w.crossings:
            problems.append(f"crossings {table1['iterations']} != {w.crossings}")
        problems += table2_mismatches(ratios, expected_table2[w.name])
    if first_trace is not None and trace != first_trace:
        problems.append("trace.csv differs from the first run of this invocation")
    return problems, trace


def setup_samples(config):
    """Standalone set-ups, made the way ``run_experiment`` makes its own."""
    from stopgap import harness
    samples = []
    start = time.perf_counter()
    while not samples or (time.perf_counter() - start < SETUP_BATCH_SECONDS
                          and len(samples) < SETUP_BATCH_MAX):
        t0 = time.perf_counter()
        problem = harness.build_instance(config)
        harness.default_step_sizes(problem.constraint)
        harness.lipschitz_constants(problem, steps=None)
        samples.append(time.perf_counter() - t0)
    return samples


def run_workload(w, seed, seconds, trace, seed_override, expected_table2):
    """Repeat ``run_experiment`` for about ``seconds``; returns a summary."""
    from stopgap import harness
    inst_seed = instance_seed(w, seed, seed_override)
    config = dict(instance=w.instance, seed=inst_seed, **w.size, **w.config)
    out_dir = os.path.join(OUT, w.name)
    start = time.perf_counter()
    setups, plain, traced, durations, failures, iteration_s = [], [], [], [], [], []
    first_trace = None
    while True:
        is_traced = trace and len(durations) % 2 == 1
        if not trace:
            setups += setup_samples(harness.ExperimentConfig(**config))
        tracer = probes.Tracer(stamped=() if is_traced else (probes.STEP_SPAN,))
        targets = probes.layer_targets() if is_traced else probes.plain_targets()
        gc.collect()  # every run starts from the same heap, not the last run's garbage
        t0 = time.perf_counter()
        with probes.patched(tracer, targets):
            run = tracer.wrap(probes.RUN_SPAN, harness.run_experiment)
            result = run(harness.ExperimentConfig(out_dir=out_dir, **config))
        durations.append(time.perf_counter() - t0)
        problems, trace_bytes = check_run(w, out_dir, result, inst_seed == w.paper_seed,
                                          expected_table2, first_trace)
        first_trace = first_trace or trace_bytes
        failures.append(problems)
        traj = result["trajectory"]
        iters, rows = traj.iterations_used, len(traj.iterates)
        wall = tracer.total[probes.RUN_SPAN]
        if is_traced:
            sdg_at = traj.crossings.get("sdg")
            gate_iterates = (iters if sdg_at is None else sdg_at) + 1
            missed = probes.cross_check(tracer, iters, rows, gate_iterates)
            if missed:
                raise RuntimeError("traced run counts disagree (a probe missed its "
                                   "call site):\n  " + "\n  ".join(missed))
            layer = probes.layer_metrics(tracer, iters + 1, rows, len(trace_bytes))
            traced.append({"wall_s": wall, **layer})
        else:
            setup = sum(tracer.total[f"harness.{f}"] for f in
                        ("build_instance", "default_step_sizes", "lipschitz_constants"))
            solve = tracer.total["pdhg.solve"]
            setups.append(setup)
            iteration_s += tracer.intervals(probes.STEP_SPAN)
            plain.append({"wall_s": wall, "solve_s": solve, "iters": iters,
                          "certify_ms_per_row": 1e3 * (wall - setup - solve) / rows})
        del result, traj
        elapsed = time.perf_counter() - start
        if len(durations) >= 2 and elapsed + statistics.median(durations) > seconds:
            break
    return {"workload": w.name, "instance_seed": inst_seed, "plain": plain,
            "traced": traced, "setups": setups, "iteration_s": iteration_s,
            "failures": failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def summarize(s, trace):
    """(metrics, how each was taken) of one workload summary."""
    def column(rows, key):
        return [r[key] for r in rows]

    def median(values, what="runs"):
        m, iqr = probes.median_spread(values)
        return m, f"median of {len(values)} {what}, IQR {iqr:.3g}"

    metrics, how = {}, {}
    if trace:
        for key in s["traced"][0]:
            if key != "wall_s":
                metrics[key], how[key] = median(column(s["traced"], key))
        metrics["trace.overhead_ratio"] = (statistics.median(column(s["traced"], "wall_s"))
                                           / statistics.median(column(s["plain"], "wall_s")))
        how["trace.overhead_ratio"] = (f"{len(s['traced'])} traced, "
                                       f"{len(s['plain'])} untraced runs")
        return metrics, how
    for key in ("wall_s", "solve_s", "iters", "certify_ms_per_row"):
        metrics[key], how[key] = median(column(s["plain"], key))
    metrics["iters_per_s"] = 1.0 / probes.low_quantile(s["iteration_s"])
    how["iters_per_s"] = f"1 / 5th percentile of {len(s['iteration_s'])} iteration times"
    metrics["setup_s"] = probes.low_quantile(s["setups"])
    how["setup_s"] = f"5th percentile of {len(s['setups'])} set-ups"
    metrics["peak_rss_mb"], how["peak_rss_mb"] = s["peak_rss_mb"], "process high-water mark"
    failed = sum(bool(f) for f in s["failures"])
    metrics["fail_ratio"] = failed / len(s["failures"])
    how["fail_ratio"] = f"{failed} of {len(s['failures'])} runs"
    return metrics, how


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "openblas_num_threads": int(THREADS), "git_sha": git_sha()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0,
                        help="benchmark seed; scale-iidg draws instance seed 7 + SEED")
    parser.add_argument("--instance-seed", type=int, default=None,
                        help="override the instance seed (default: the paper's)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    # numpy is first imported below, so the BLAS pool starts with this size
    os.environ["OPENBLAS_NUM_THREADS"] = THREADS
    os.environ["OMP_NUM_THREADS"] = THREADS
    if not os.path.isfile(os.path.join(SRC, "stopgap", "harness.py")):
        print(f"perfbench: no stopgap sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    with open(EXPECTED) as fh:
        expected_table2 = json.load(fh)

    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        s = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace,
                         args.instance_seed, expected_table2)
        metrics, how = summarize(s, args.trace)
        failed = sum(bool(f) for f in s["failures"])
        out["attempted"] += len(s["failures"])
        out["failed"] += failed
        out["correct"] = out["correct"] and failed == 0
        print(f"== {name}  seed {args.seed}  instance seed {s['instance_seed']}  "
              f"trace {args.trace}  runs {len(s['failures'])}")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]} if args.trace else E2E_UNITS
        for key, unit in units.items():
            print(f"  {key:30s} {metrics[key]:>16.6g} {unit:6s} ({how[key]})")
        for i, problems in enumerate(s["failures"]):
            for p in problems:
                print(f"  CHECK FAILED run {i}: {p}")
        prefix = f"{name}/" if len(names) > 1 else ""
        for m in wanted:
            out["metrics"][prefix + m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"{name}-trace{args.trace}.json"), "w") as fh:
            s["iteration_s"] = len(s["iteration_s"])
            json.dump({"env": env, "seed": args.seed, "seconds": args.seconds,
                       "metrics": metrics, "how": how, "runs": s}, fh, indent=1)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
