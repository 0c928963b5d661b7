"""Command-line entry point.

Subcommands:
  run     solve one instance, write trace.csv + table1.json + table2.json
  verify  run the independent oracle suite, write verification.json
  tables  batch several instances (optionally in parallel workers)
  plot    extract a log-scale-ready series from an existing trace
"""

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .bounds import THEOREMS
from .errors import StopgapError
from .harness import ExperimentConfig, _sanitize, build_instance, emit_plot_data, run_experiment
from .instances import FAMILIES
from .oracles import (counterexample_kkt_vs_og, counterexample_kkt_vs_sdg,
                      verification_suite)
from .pdhg import CRITERIA, check_count

ALL_INSTANCES = tuple(FAMILIES)


def _add_build_flags(p):
    """Flags that set how each instance is built, and the output directory."""
    p.add_argument("--seed", type=int, default=None,
                   help="instance seed (default: per-family choice)")
    p.add_argument("--n", type=int, default=None,
                   help="columns of an iidg, ntc, pqp or bp instance (default: 20)")
    p.add_argument("--m", type=int, default=None,
                   help="rows of an iidg, ntc, pqp or bp instance (default: 10)")
    p.add_argument("--data-path", default=None,
                   help="LIBSVM file for the distributed instance "
                        "(default: $STOPGAP_DATA_DIR/bodyfat, else synthetic)")
    p.add_argument("--out", default="out")


def _add_instance_flags(p):
    """The one instance of ``run`` and ``verify``, and how it is built."""
    p.add_argument("--instance", default="1d", choices=sorted(FAMILIES))
    _add_build_flags(p)


def _add_solve_flags(p):
    """Flags that set the solve and its recording."""
    p.add_argument("--epsilon", type=float, default=1e-8)
    p.add_argument("--max-iters", type=int, default=100_000)
    p.add_argument("--criterion", default="all", choices=["all", *CRITERIA])
    p.add_argument("--version", type=int, default=None, choices=[1, 2],
                   help="PDHG ordering (default: per-family choice)")
    p.add_argument("--record-every", type=int, default=1)


def _instance_config(args, instance, **solve):
    return ExperimentConfig(instance=instance, n=args.n, m=args.m, seed=args.seed,
                            data_path=args.data_path, **solve)


def _solve_config(args, instance, out_dir):
    return _instance_config(
        args, instance, epsilon=args.epsilon, max_iters=args.max_iters,
        criterion=args.criterion, record_every=args.record_every,
        version=args.version, out_dir=out_dir)


def _run_one(cfg):
    res = run_experiment(cfg)
    return cfg.instance, res["table1"], res["table2"]


def cmd_run(args):
    res = run_experiment(_solve_config(args, args.instance, args.out))
    print(json.dumps(_sanitize(res["table1"]), indent=2, sort_keys=True))
    print(f"trace written to {res['trace']}")
    return 0


def cmd_verify(args):
    problem = build_instance(_instance_config(args, args.instance).validate())
    report = verification_suite(problem, seed=args.seed or 0,
                                sdg_samples=args.samples,
                                witness_samples=args.samples)
    report["counterexample_kkt_vs_og"] = counterexample_kkt_vs_og(
        [10.0 ** -k for k in range(1, 9)])
    report["counterexample_kkt_vs_sdg"] = counterexample_kkt_vs_sdg([0.5, 0.1, 0.01])
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "verification.json")
    with open(path, "w") as fh:
        json.dump(_sanitize(report), fh, indent=2, sort_keys=True)
    ok = (report["passed"] and report["counterexample_kkt_vs_og"]["passed"]
          and report["counterexample_kkt_vs_sdg"]["passed"])
    print(f"verification {'PASSED' if ok else 'FAILED'}: {path}")
    return 0 if ok else 1


def cmd_tables(args):
    check_count("jobs", args.jobs)
    names = [s.strip() for s in args.instances.split(",")]
    unknown = set(names) - set(ALL_INSTANCES)
    if unknown:
        print(f"unknown instances: {sorted(unknown)}", file=sys.stderr)
        return 2
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        # each instance writes to out/<name>, so a repeat would overwrite itself
        print(f"repeated instances: {repeated}", file=sys.stderr)
        return 2
    # every config is checked before the first solve writes out/<name>
    configs = [_solve_config(args, name, os.path.join(args.out, name)).validate()
               for name in names]
    # a fork-started pool forks all its workers at the first submit, so it
    # gets no more of them than there are instances
    workers = min(args.jobs, len(configs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_run_one, configs))
    else:
        results = [_run_one(cfg) for cfg in configs]
    table1 = {name: t1["iterations"] for name, t1, _ in results}
    table2 = {name: t2["ratios"] for name, _, t2 in results}
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "table1.json"), "w") as fh:
        json.dump(_sanitize(table1), fh, indent=2, sort_keys=True)
    with open(os.path.join(args.out, "table2.json"), "w") as fh:
        json.dump(_sanitize(table2), fh, indent=2, sort_keys=True)
    print(json.dumps(_sanitize(table1), indent=2, sort_keys=True))
    return 0


def cmd_plot(args):
    out = emit_plot_data(args.trace, args.selector, args.out_csv)
    print(f"series written to {out}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="stopgap",
        description="Primal-dual solver benchmark: stopping criteria and bound "
                    "certification")
    sub = parser.add_subparsers(dest="command", required=True)

    # no prefix matching: tables would take --instance as --instances
    p_run = sub.add_parser("run", allow_abbrev=False,
                           help="solve one instance and record everything")
    _add_instance_flags(p_run)
    _add_solve_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", allow_abbrev=False,
                           help="independent oracle suite for one instance")
    _add_instance_flags(p_ver)
    p_ver.add_argument("--samples", type=int, default=50)
    p_ver.set_defaults(func=cmd_verify)

    p_tab = sub.add_parser("tables", allow_abbrev=False,
                           help="batch experiments into summary tables")
    _add_build_flags(p_tab)
    _add_solve_flags(p_tab)
    p_tab.add_argument("--instances", default=",".join(ALL_INSTANCES))
    p_tab.add_argument("--jobs", type=int, default=1)
    p_tab.set_defaults(func=cmd_tables)

    p_plot = sub.add_parser("plot", help="extract a plot series from a trace")
    p_plot.add_argument("trace")
    p_plot.add_argument("selector", help="criterion:<name> or bound:<theorem id>, "
                        f"ids: {', '.join(THEOREMS)}")
    p_plot.add_argument("out_csv")
    p_plot.set_defaults(func=cmd_plot)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StopgapError as exc:
        print(f"stopgap: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
