"""Command-line entry point.

Subcommands:
  run     solve one instance, write trace.csv + table1.json + table2.json
  verify  run the independent oracle suite, write verification.json
  tables  batch several instances (optionally in parallel workers)
  plot    extract a log-scale-ready series from an existing trace
"""

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields

from .bounds import THEOREMS
from .errors import ConfigError, StopgapError, check_count
from .harness import (ExperimentConfig, build_instance, emit_plot_data, make_output_dir,
                      run_experiment, write_json)
from .instances import FAMILIES, readers
from .oracles import (counterexample_kkt_vs_og, counterexample_kkt_vs_sdg,
                      verification_suite)
from .pdhg import CRITERIA


def _add_build_flags(p):
    """Flags that set how each instance is built, and the output directory."""
    *most, last = readers("n")
    sized = f"{', '.join(most)} or {last}"
    p.add_argument("--seed", type=int, help="instance seed (default: per-family choice)")
    p.add_argument("--n", type=int, help=f"columns of an {sized} instance (default: 20)")
    p.add_argument("--m", type=int, help=f"rows of an {sized} instance (default: 10)")
    p.add_argument("--data-path",
                   help="LIBSVM file for the distributed instance (default: synthetic)")
    p.add_argument("--out", dest="out_dir", metavar="OUT")


def _add_solve_flags(p):
    """Flags that set the solve and its recording."""
    p.add_argument("--epsilon", type=float)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--criterion", choices=["all", *CRITERIA])
    p.add_argument("--version", type=int, choices=[1, 2],
                   help="PDHG ordering (default: per-family choice)")
    p.add_argument("--record-every", type=int)


def _config(args, **fixed):
    """The ExperimentConfig of the flags given, with ``fixed`` on top.  Each
    flag's dest is its field name, and a flag left out is absent from
    ``args``, so the defaults live in ExperimentConfig alone."""
    given = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
             if hasattr(args, f.name)}
    return ExperimentConfig(**{**given, **fixed})


def _run_one(cfg):
    res = run_experiment(cfg)
    return cfg.instance, res["table1"], res["table2"]


def cmd_run(args):
    config = _config(args)
    res = run_experiment(config)
    with open(os.path.join(config.out_dir, "table1.json")) as fh:
        print(fh.read())
    print(f"trace written to {res['trace']}")
    return 0


def cmd_verify(args):
    config = _config(args)
    check_count("samples", args.samples)  # before the output directory is made
    problem = build_instance(config)
    path = os.path.join(make_output_dir(config.out_dir), "verification.json")
    report = verification_suite(problem, seed=config.seed or 0, samples=args.samples)
    report["counterexample_kkt_vs_og"] = counterexample_kkt_vs_og(
        [10.0 ** -k for k in range(1, 9)])
    report["counterexample_kkt_vs_sdg"] = counterexample_kkt_vs_sdg([0.5, 0.1, 0.01])
    write_json(path, report)
    ok = (report["passed"] and report["counterexample_kkt_vs_og"]["passed"]
          and report["counterexample_kkt_vs_sdg"]["passed"])
    print(f"verification {'PASSED' if ok else 'FAILED'}: {path}")
    return 0 if ok else 1


def cmd_tables(args):
    check_count("jobs", args.jobs)
    names = [s.strip() for s in args.instances.split(",")]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        # each instance writes to out/<name>, so a repeat would overwrite itself
        raise ConfigError(f"repeated instances: {repeated}")
    out = getattr(args, "out_dir", ExperimentConfig.out_dir)
    # making a config checks it, so every one is checked before the first solve
    configs = [_config(args, instance=name, out_dir=os.path.join(out, name)) for name in names]
    make_output_dir(out)
    # a fork-started pool forks all its workers at the first submit, so it
    # gets no more of them than there are instances
    workers = min(args.jobs, len(configs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_run_one, configs))
    else:
        results = [_run_one(cfg) for cfg in configs]
    table1 = write_json(os.path.join(out, "table1.json"),
                        {name: t1["iterations"] for name, t1, _ in results})
    write_json(os.path.join(out, "table2.json"), {name: t2["ratios"] for name, _, t2 in results})
    print(table1)
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
    p_run = sub.add_parser("run", allow_abbrev=False, argument_default=argparse.SUPPRESS,
                           help="solve one instance and record everything")
    p_run.add_argument("--instance", choices=sorted(FAMILIES))
    _add_build_flags(p_run)
    _add_solve_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", allow_abbrev=False, argument_default=argparse.SUPPRESS,
                           help="independent oracle suite for one instance")
    p_ver.add_argument("--instance", choices=sorted(FAMILIES))
    _add_build_flags(p_ver)
    p_ver.add_argument("--samples", type=int, default=50)
    p_ver.set_defaults(func=cmd_verify)

    p_tab = sub.add_parser("tables", allow_abbrev=False, argument_default=argparse.SUPPRESS,
                           help="batch experiments into summary tables")
    _add_build_flags(p_tab)
    _add_solve_flags(p_tab)
    p_tab.add_argument("--instances", default=",".join(FAMILIES))
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
