"""sha256 of every artifact on the byte-identity list.

Runs ``stopgap.harness.run_experiment`` on each config of the list in
ROADMAP.md (six fixed configs plus the benchmark workloads, imported from
``perfbench/run.py``) and prints one line for each config (a hash of its
keywords) and for each of its artifacts:

    <sha256>  <config>/config
    <sha256>  <config>/<artifact>

Two checkouts produce the same bytes exactly when the two outputs are equal:

    python3 scripts/byte_identity.py > head.txt
    python3 scripts/byte_identity.py --src ../base/src > base.txt
    diff base.txt head.txt

``--src`` selects the ``stopgap`` sources to run (default: this checkout's
``src/``); the config list always comes from this checkout.  BLAS runs on one
thread, as in the benchmark.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARTIFACTS = ("trace.csv", "table1.json", "table2.json")
CONFIGS = {
    "1d": {"instance": "1d"},
    "iidg-eps1e-6": {"instance": "iidg", "epsilon": 1e-6},
    "ntc-eps1e-5": {"instance": "ntc", "epsilon": 1e-5},
    "pqp-eps1e-4": {"instance": "pqp", "epsilon": 1e-4, "max_iters": 3000},
    "bp-eps1e-4": {"instance": "bp", "epsilon": 1e-4, "max_iters": 3000},
    "do-eps1e-4": {"instance": "do", "epsilon": 1e-4, "max_iters": 2000, "record_every": 7},
}


def benchmark_configs():
    """The ``run_experiment`` keywords of each benchmark workload at
    benchmark seed 0, built as ``perfbench/run.py`` builds them."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from run import WORKLOADS, instance_seed
    finally:
        sys.path.pop(0)
    return {name: dict(instance=w.instance, seed=instance_seed(w, 0, None), **w.size, **w.config)
            for name, w in WORKLOADS.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the stopgap package to run")
    args = parser.parse_args(argv)
    # before numpy is first imported, so that the BLAS pool starts with one thread
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    from stopgap import harness
    print(f"stopgap from {os.path.dirname(harness.__file__)}", file=sys.stderr)

    configs = {**CONFIGS, **benchmark_configs()}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in configs.items():
            spec = json.dumps(config, sort_keys=True).encode()
            print(f"{hashlib.sha256(spec).hexdigest()}  {name}/config")
            out_dir = os.path.join(tmp, name)
            harness.run_experiment(harness.ExperimentConfig(out_dir=out_dir, **config))
            for artifact in ARTIFACTS:
                with open(os.path.join(out_dir, artifact), "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                print(f"{digest}  {name}/{artifact}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
