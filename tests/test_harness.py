import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stopgap import harness
from stopgap import cli
from stopgap.cli import main as cli_main
from stopgap.criteria import PointValues, ogfe
from stopgap.errors import ConfigError
from stopgap.harness import (ExperimentConfig, build_instance, emit_plot_data,
                              run_experiment)
from stopgap.instances import FAMILIES
from stopgap.oracles import verification_suite
from stopgap.pdhg import SolveConfig, solve
from stopgap.problem import PrimalDualPoint


def unreachable(*args, **kwargs):
    raise AssertionError("reached with an invalid config")


def run_1d(tmp_path, **kw):
    cfg = ExperimentConfig(instance="1d", out_dir=str(tmp_path), **kw)
    return run_experiment(cfg)


class TestRunExperiment:
    def test_one_dimensional_artifacts(self, tmp_path):
        res = run_1d(tmp_path)
        t1 = json.loads((tmp_path / "table1.json").read_text())
        assert abs(t1["iterations"]["kkt"] - 12) <= 2
        assert abs(t1["iterations"]["sdg"] - 11) <= 2
        assert abs(t1["iterations"]["pdg"] - 13) <= 2
        t2 = json.loads((tmp_path / "table2.json").read_text())
        assert "T4_SDG_KKT" in t2["ratios"]
        assert all(row["violations"] == 0 for row in t2["ratios"].values())
        with open(res["trace"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["iteration"] == "0"
        assert float(rows[0]["fe"]) == pytest.approx(7.0)
        # every bound column certifies rhs >= lhs
        for row in rows:
            for tid in ("T4_SDG_KKT", "C1_FE_SDG", "T1_OG_KKT"):
                lhs, rhs = row[f"{tid}_lhs"], row[f"{tid}_rhs"]
                if lhs in ("", "inf") or rhs == "":
                    continue
                rhs_v = math.inf if rhs == "inf" else float(rhs)
                assert float(lhs) <= rhs_v * (1 + 1e-9) + 1e-12

    def test_reruns_are_byte_identical(self, tmp_path):
        # the iidg run is at the benchmark's scale: its arrays pass glibc's
        # 128 KiB mmap threshold, as those of the n=400 workload do
        for name, kw in (("1d", {"instance": "1d"}),
                         ("iidg", {"instance": "iidg", "n": 200, "m": 100, "criterion": "sdg",
                                   "criteria": ("sdg",), "max_iters": 20,
                                   "record_every": 20})):
            for run in ("a", "b"):
                run_experiment(ExperimentConfig(out_dir=str(tmp_path / name / run), **kw))
            for artifact in ("trace.csv", "table1.json", "table2.json"):
                assert (tmp_path / name / "a" / artifact).read_bytes() == \
                       (tmp_path / name / "b" / artifact).read_bytes()

    def test_empty_criteria_list_rejected(self):
        with pytest.raises(ConfigError, match="criteria"):
            ExperimentConfig(instance="1d", criteria=())

    def test_gate_must_be_evaluated(self):
        with pytest.raises(ConfigError, match="stop criterion"):
            ExperimentConfig(instance="1d", criteria=("kkt",),
                             criterion="sdg")

    def test_empty_criteria_on_no_reference_instance(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^bp\(n=20,m=10,seed=5\): ogfe requested"):
            cfg = ExperimentConfig(instance="bp", criteria=("ogfe",),
                                   out_dir=str(tmp_path))
            run_experiment(cfg)

    @pytest.mark.parametrize("instance", FAMILIES)
    def test_no_reference_lists_the_families_built_without_one(self, instance):
        problem = build_instance(ExperimentConfig(instance=instance))
        assert (problem.reference is None) == (not FAMILIES[instance].reference)

    @pytest.mark.parametrize("instance", [name for name, fam in FAMILIES.items()
                                          if not fam.reference])
    @pytest.mark.parametrize("settings", [{"criterion": "ogfe"},
                                          {"criterion": "ogfe", "criteria": ("ogfe", "kkt")},
                                          {"criterion": "kkt", "criteria": ("kkt", "ogfe")}])
    def test_ogfe_without_a_reference_fails_before_the_solve(self, tmp_path, monkeypatch,
                                                             instance, settings):
        monkeypatch.setattr(harness, "solve", unreachable)
        with pytest.raises(ConfigError, match=rf"^{instance}\(.*\): ogfe requested"):
            ExperimentConfig(instance=instance, **settings)
        with pytest.raises(ConfigError, match="ogfe requested"):
            run_experiment(ExperimentConfig(instance=instance, out_dir=str(tmp_path / "out"),
                                            **settings))
        assert not (tmp_path / "out").exists()

    def test_ogfe_on_a_sized_instance_without_a_reference_leaves_no_directory(self, tmp_path):
        # iidg builds no reference when Ax = b is inconsistent (m > n); the
        # solve used to refuse only after the output directory was made
        cfg = ExperimentConfig(instance="iidg", n=5, m=10, criterion="ogfe",
                               out_dir=str(tmp_path / "out"))
        with pytest.raises(ConfigError, match=r"^iidg\(n=5,m=10,seed=7\): ogfe requested "
                                              "but no reference solution$"):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    def test_unknown_family_is_refused(self, monkeypatch):
        monkeypatch.setattr(harness, "build_instance", unreachable)
        with pytest.raises(ConfigError, match="^unknown instance family 'nope'; choose from"):
            ExperimentConfig(instance="nope")

    @pytest.mark.parametrize("instance", FAMILIES)
    def test_traced_run_keeps_the_benchmark_call_graph(self, tmp_path, monkeypatch, instance):
        # the benchmark's probes count calls at fixed call sites; a refactor
        # that moves one of those calls fails here before it fails a benchmark run
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import probes
        tracer = probes.Tracer()
        with probes.patched(tracer, probes.layer_targets()):
            res = tracer.wrap(probes.RUN_SPAN, run_experiment)(ExperimentConfig(
                instance=instance, epsilon=1e-4, max_iters=1500, record_every=7,
                out_dir=str(tmp_path)))
        traj = res["trajectory"]
        # the solver evaluates the SDG gate at every iterate up to its crossing
        last = traj.crossings["sdg"]
        gate_iterates = (traj.iterations_used if last is None else last) + 1
        assert probes.cross_check(tracer, traj.iterations_used, len(traj.iterates),
                                  gate_iterates) == []
        # every grid goes through the one smoothed-gap formula
        assert tracer.calls["criteria.sdg_point"] == tracer.calls["criteria.sdg_grid"]


def test_certification_keeps_little_per_recorded_row(tmp_path):
    # the run keeps each recorded iterate and two floats per theorem and row;
    # a report object kept per row and theorem until table2 is written costs
    # about 3.5 kB a row here, the columns about 1.1 kB
    run_experiment(ExperimentConfig(instance="iidg", max_iters=3, out_dir=str(tmp_path)))
    tracemalloc.start()
    try:
        res = run_experiment(ExperimentConfig(instance="iidg", max_iters=1500, record_every=1,
                                              out_dir=str(tmp_path)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = len(res["trajectory"].iterates)
    assert rows == 1501
    assert peak / rows < 2800, f"{peak / rows:.0f} bytes of peak Python memory per row"


def test_run_path_does_not_load_scipy():
    # scipy.linalg and scipy.sparse cost about 30 MiB of resident memory;
    # only the independent oracles need them, and they import them on use
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, stopgap.harness, stopgap.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.linalg', 'scipy.sparse'))))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


class TestPlotData:
    def test_criterion_series(self, tmp_path):
        res = run_1d(tmp_path)
        out = emit_plot_data(res["trace"], "criterion:kkt", str(tmp_path / "s.csv"))
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) > 5
        assert all(float(r["kkt"]) >= 1e-16 for r in rows)

    def test_bound_series_rhs_dominates(self, tmp_path):
        res = run_1d(tmp_path)
        out = emit_plot_data(res["trace"], "bound:T6_SDG_PDG", str(tmp_path / "s.csv"))
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            assert float(r["T6_SDG_PDG_rhs"]) >= float(r["T6_SDG_PDG_lhs"]) * (1 - 1e-9) \
                or r["clamped"] == "1"

    def test_zero_clamping_flag(self, tmp_path):
        res = run_1d(tmp_path)
        out = emit_plot_data(res["trace"], "criterion:og", str(tmp_path / "s.csv"))
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        clamped = [r for r in rows if r["clamped"] == "1"]
        assert all(float(r["og"]) == 1e-16 for r in clamped)

    @pytest.mark.parametrize("selector", ["criterion:kkt", "criterion:pdg", "criterion:sdg",
                                          "bound:T4_SDG_KKT", "bound:C1_FE_SDG"])
    def test_every_raised_value_is_flagged(self, tmp_path, selector):
        # a value below the floor, zero or round-off (the 1d KKT reads 3.1e-17
        # at row 14), is raised to it and flags its row; every other value is
        # the trace's own
        res = run_1d(tmp_path)
        with open(res["trace"], newline="") as fh:
            trace = {r["iteration"]: r for r in csv.DictReader(fh)}
        out = emit_plot_data(res["trace"], selector, str(tmp_path / "s.csv"))
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        cols = [c for c in rows[0] if c not in ("iteration", "clamped")]
        for r in rows:
            cells = [(float(r[c]), float(trace[r["iteration"]][c])) for c in cols]
            raised = [got == 1e-16 and was < 1e-16 for got, was in cells]
            assert all(got == was or up for (got, was), up in zip(cells, raised)), r
            assert r["clamped"] == str(int(any(raised))), r

    def test_unknown_selector(self, tmp_path):
        res = run_1d(tmp_path)
        with pytest.raises(ConfigError):
            emit_plot_data(res["trace"], "bound:NOPE", str(tmp_path / "s.csv"))
        with pytest.raises(ConfigError):
            emit_plot_data(res["trace"], "wat", str(tmp_path / "s.csv"))


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        rc = cli_main(["run", "--instance", "1d", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "trace.csv").exists()
        assert "iterations" in capsys.readouterr().out

    def test_verify_subcommand(self, tmp_path, capsys):
        rc = cli_main(["verify", "--instance", "1d", "--samples", "10",
                       "--out", str(tmp_path)])
        assert rc == 0
        rep = json.loads((tmp_path / "verification.json").read_text())
        assert rep["counterexample_kkt_vs_og"]["passed"]
        assert rep["counterexample_kkt_vs_sdg"]["passed"]

    def test_tables_subcommand(self, tmp_path):
        # every family, 1d and do included, runs with the default --n and --m
        rc = cli_main(["tables", "--max-iters", "20", "--out", str(tmp_path)])
        assert rc == 0
        t1 = json.loads((tmp_path / "table1.json").read_text())
        assert sorted(t1) == sorted(FAMILIES)

    def test_repeated_instance_is_refused(self, tmp_path, monkeypatch, capsys):
        # a repeat used to solve twice into the same out/<name> and report once
        monkeypatch.setattr("stopgap.cli.run_experiment", unreachable)
        rc = cli_main(["tables", "--instances", "1d,iidg,1d", "--max-iters", "20",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == "stopgap: error: repeated instances: ['1d']\n"
        assert not (tmp_path / "out").exists()

    def test_every_config_is_checked_before_the_first_solve(self, tmp_path, capsys):
        # iidg used to be solved into out/iidg before the bad 1d config was seen
        rc = cli_main(["tables", "--instances", "iidg,1d", "--n", "30", "--max-iters", "300",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == ("stopgap: error: n sets the size of "
                                           "iidg/ntc/pqp/bp instances only, not '1d'\n")
        assert not (tmp_path / "out" / "iidg").exists()

    def test_unknown_instance_is_refused_before_any_solve(self, tmp_path, monkeypatch, capsys):
        # the name used to be checked by the command itself, apart from the configs
        monkeypatch.setattr(harness, "solve", unreachable)
        rc = cli_main(["tables", "--instances", "iidg,nope", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "stopgap: error: unknown instance family 'nope'; choose from ")
        assert not (tmp_path / "out").exists()

    def test_ogfe_without_a_reference_is_refused_before_any_solve(self, tmp_path, capsys):
        # iidg used to be solved into out/iidg before bp refused the ogfe gate
        rc = cli_main(["tables", "--instances", "iidg,bp", "--criterion", "ogfe",
                       "--max-iters", "50", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == ("stopgap: error: bp(n=20,m=10,seed=5): ogfe "
                                           "requested but no reference solution\n")
        assert not (tmp_path / "out" / "iidg").exists()

    @pytest.mark.parametrize("command", ["run", "verify", "tables"])
    @pytest.mark.parametrize("below", [False, True])
    def test_output_path_through_a_file_is_a_one_line_error(self, tmp_path, monkeypatch,
                                                            capsys, command, below):
        # run and tables used to solve first and then end in a FileExistsError
        # or NotADirectoryError traceback, and verify ended in one too
        monkeypatch.setattr(harness, "solve", unreachable)
        monkeypatch.setattr("stopgap.cli.verification_suite", unreachable)
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "out" if below else tmp_path / "taken"
        args = ["--instances", "1d,iidg"] if command == "tables" else ["--instance", "1d"]
        rc = cli_main([command, *args, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"stopgap: error: {out}: cannot create output directory (")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_refused(self, tmp_path, monkeypatch, capsys, jobs):
        # such a value used to run serially and exit 0
        monkeypatch.setattr("stopgap.cli.run_experiment", unreachable)
        rc = cli_main(["tables", "--instances", "1d", "--jobs", str(jobs),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"stopgap: error: jobs must be at least 1, got {jobs}\n"
        assert not (tmp_path / "out").exists()

    def test_pool_is_capped_at_the_instance_count(self, tmp_path, monkeypatch):
        # a fork-started pool forks every worker it is given at the first submit
        asked = []

        class FakePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("stopgap.cli.ProcessPoolExecutor", FakePool)
        for instances, pools in (("1d,bp", [2]), ("1d", [])):
            asked.clear()
            rc = cli_main(["tables", "--instances", instances, "--max-iters", "20",
                           "--jobs", "64", "--out", str(tmp_path / instances)])
            assert rc == 0
            assert asked == pools

    def test_pool_writes_the_serial_tables(self, tmp_path):
        for jobs in ("1", "2"):
            rc = cli_main(["tables", "--instances", "1d,bp", "--max-iters", "200",
                           "--jobs", jobs, "--out", str(tmp_path / jobs)])
            assert rc == 0
        for table in ("table1.json", "table2.json"):
            assert (tmp_path / "1" / table).read_bytes() == (tmp_path / "2" / table).read_bytes()

    @pytest.mark.parametrize("what", ["missing", "directory", "binary"])
    def test_unreadable_data_path_is_a_one_line_error(self, tmp_path, capsys, what):
        # it used to end in a FileNotFoundError, IsADirectoryError or
        # UnicodeDecodeError traceback
        path = {"missing": tmp_path / "bodyfat", "directory": tmp_path,
                "binary": tmp_path / "bodyfat.bin"}[what]
        (tmp_path / "bodyfat.bin").write_bytes(b"\xff\xfe 1:2\n")
        rc = cli_main(["run", "--instance", "do", "--data-path", str(path),
                       "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"stopgap: error: {path}: cannot read LIBSVM file (")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag", [
        *(("verify", flag) for flag in ("--epsilon=5", "--max-iters=10", "--criterion=kkt",
                                        "--version=1", "--record-every=2")),
        ("tables", "--instance=1d")])
    def test_unread_flag_is_an_unrecognized_argument(self, tmp_path, capsys, command, flag):
        # verify solved nothing and tables overwrote --instance, so each was ignored
        with pytest.raises(SystemExit) as exc:
            cli_main([command, flag, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_beta_mode_is_an_unrecognized_argument(self, tmp_path, capsys):
        # the SDG gate has one rule, the surrogate certificate
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--beta-mode", "raw", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --beta-mode raw" in capsys.readouterr().err

    def test_plot_subcommand(self, tmp_path):
        cli_main(["run", "--instance", "1d", "--out", str(tmp_path)])
        rc = cli_main(["plot", str(tmp_path / "trace.csv"), "criterion:sdg",
                       str(tmp_path / "series.csv")])
        assert rc == 0
        assert (tmp_path / "series.csv").exists()

    @pytest.mark.parametrize("what", ["missing", "directory", "binary", "oversized"])
    def test_plot_of_an_unreadable_trace_is_a_one_line_error(self, tmp_path, capsys, what):
        # it used to end in a FileNotFoundError, IsADirectoryError,
        # UnicodeDecodeError or csv.Error traceback with exit status 1
        path = {"missing": tmp_path / "trace.csv", "directory": tmp_path,
                "binary": tmp_path / "trace.bin", "oversized": tmp_path / "trace.big"}[what]
        (tmp_path / "trace.bin").write_bytes(b"iteration,sdg\n\xff\xfe\n")
        # one field past the csv module's default limit of 131072 characters
        (tmp_path / "trace.big").write_text("iteration,sdg\n0," + "1" * 200_000 + "\n")
        rc = cli_main(["plot", str(path), "criterion:sdg", str(tmp_path / "series.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"stopgap: error: {path}: cannot read trace (")
        assert err.count("\n") == 1
        assert not (tmp_path / "series.csv").exists()

    def test_plot_of_a_non_numeric_cell_is_a_one_line_error(self, tmp_path, capsys):
        # it used to end in a ValueError traceback from float()
        cli_main(["run", "--instance", "1d", "--max-iters", "5", "--out", str(tmp_path)])
        capsys.readouterr()
        trace = tmp_path / "trace.csv"
        lines = trace.read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[3].split(",")
        cells[header.index("kkt")] = "abc"
        lines[3] = ",".join(cells)
        trace.write_text("\n".join(lines) + "\n")
        rc = cli_main(["plot", str(trace), "criterion:kkt", str(tmp_path / "series.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"stopgap: error: {trace}: line 4, column 'kkt': 'abc' is not a number\n"
        assert not (tmp_path / "series.csv").exists()
        with pytest.raises(ConfigError, match="line 4, column 'kkt'"):
            emit_plot_data(str(trace), "criterion:kkt", str(tmp_path / "series.csv"))

    @pytest.mark.parametrize("selector, columns", [
        ("criterion:og", "'og'"),
        ("bound:T1_OG_KKT", "'T1_OG_KKT_lhs' and 'T1_OG_KKT_rhs'")])
    def test_plot_of_a_selector_without_a_number_is_a_one_line_error(
            self, tmp_path, capsys, selector, columns):
        # OG and T1-T3 need a reference solution, which bp does not have; the
        # series used to be a header-only file and the exit status 0
        cli_main(["run", "--instance", "bp", "--max-iters", "5", "--out", str(tmp_path)])
        capsys.readouterr()
        trace = tmp_path / "trace.csv"
        rc = cli_main(["plot", str(trace), selector, str(tmp_path / "series.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"stopgap: error: {trace}: no row has a number in {columns}\n"
        assert not (tmp_path / "series.csv").exists()
        with pytest.raises(ConfigError, match="no row has a number"):
            emit_plot_data(str(trace), selector, str(tmp_path / "series.csv"))

    def test_plot_of_a_trace_without_iteration_is_a_one_line_error(self, tmp_path, capsys):
        # it used to end in a KeyError traceback with exit status 1
        trace = tmp_path / "trace.csv"
        trace.write_text("sdg,kkt\n1e-3,2e-3\n")
        rc = cli_main(["plot", str(trace), "criterion:sdg", str(tmp_path / "series.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (f"stopgap: error: {trace}: column 'iteration' "
                                           "not in trace\n")
        assert not (tmp_path / "series.csv").exists()

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_plot_to_an_unwritable_path_is_a_one_line_error(self, tmp_path, capsys, where):
        # it used to end in an IsADirectoryError or FileNotFoundError traceback
        cli_main(["run", "--instance", "1d", "--max-iters", "5", "--out", str(tmp_path)])
        capsys.readouterr()
        out = tmp_path / "series"
        if where == "directory":
            out.mkdir()
        else:
            out = out / "series.csv"
        rc = cli_main(["plot", str(tmp_path / "trace.csv"), "criterion:sdg", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"stopgap: error: {out}: cannot write plot series (")
        assert err.count("\n") == 1
        assert (tmp_path / "series").is_dir() == (where == "directory")
        assert where != "directory" or not any((tmp_path / "series").iterdir())

    def test_verification_file_holds_the_command_verdict(self, tmp_path, capsys, monkeypatch):
        # the file used to hold the suite's own verdict, "passed": true, while
        # a failed counterexample made the command print FAILED and exit 1
        real = cli.counterexample_kkt_vs_sdg
        monkeypatch.setattr(cli, "counterexample_kkt_vs_sdg",
                            lambda *a: {**real(*a), "passed": False})
        rc = cli_main(["verify", "--instance", "1d", "--samples", "2", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().out.startswith("verification FAILED")
        rep = json.loads((tmp_path / "verification.json").read_text())
        assert rep["passed"] is False
        assert rep["counterexample_kkt_vs_og"]["passed"]

    @pytest.mark.parametrize("samples", [0, -1])
    def test_verification_without_samples_is_refused(self, tmp_path, capsys, samples):
        # a suite that draws no sample checks nothing, and must not report a pass
        problem = build_instance(ExperimentConfig(instance="1d"))
        with pytest.raises(ConfigError, match="samples must be at least 1"):
            verification_suite(problem, samples=samples)
        rc = cli_main(["verify", "--instance", "1d", "--samples", str(samples),
                       "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"stopgap: error: samples must be at least 1, got {samples}\n"
        assert not (tmp_path / "verification.json").exists()

    @pytest.mark.parametrize("samples", [2.5, True])
    def test_verification_samples_must_be_a_count(self, samples):
        # 2.5 used to die in a bare TypeError, and True drew one sample
        problem = build_instance(ExperimentConfig(instance="1d"))
        with pytest.raises(ConfigError, match="^samples must be an integer, got"):
            verification_suite(problem, samples=samples)

    @pytest.mark.parametrize("instance", ["do", "1d"])
    @pytest.mark.parametrize("name", ["n", "m"])
    def test_size_of_a_fixed_size_family_is_refused(self, tmp_path, monkeypatch, capsys,
                                                    instance, name):
        # do and 1d have their own sizes, and used to ignore n and m silently
        monkeypatch.setattr(harness, "build_instance", unreachable)
        with pytest.raises(ConfigError, match=f"^{name} sets the size of iidg/ntc/pqp/bp "
                                              f"instances only, not '{instance}'"):
            run_experiment(ExperimentConfig(instance=instance, out_dir=str(tmp_path),
                                            **{name: 50}))
        for command in ("run", "verify"):
            rc = cli_main([command, "--instance", instance, f"--{name}", "50",
                           "--out", str(tmp_path)])
            assert rc == 2
            assert capsys.readouterr().err.startswith(f"stopgap: error: {name} sets the size")

    @pytest.mark.parametrize("instance", ["iidg", "1d"])
    def test_data_path_of_another_family_is_refused(self, tmp_path, monkeypatch, capsys,
                                                    instance):
        # only do reads a data file; the others used to ignore the path silently
        monkeypatch.setattr(harness, "build_instance", unreachable)
        data = str(tmp_path / "nonexistent")
        with pytest.raises(ConfigError, match=f"^data_path sets the data of do instances "
                                              f"only, not '{instance}'"):
            run_experiment(ExperimentConfig(instance=instance, data_path=data,
                                            out_dir=str(tmp_path)))
        for command in ("run", "verify"):
            rc = cli_main([command, "--instance", instance, "--data-path", data,
                           "--max-iters" if command == "run" else "--samples", "5",
                           "--out", str(tmp_path)])
            assert rc == 2
            assert capsys.readouterr().err.startswith("stopgap: error: data_path sets the data")

    def test_size_defaults_to_the_family_default(self):
        assert build_instance(ExperimentConfig(instance="iidg")).label == \
            "iidg(n=20,m=10,seed=7)"
        assert build_instance(ExperimentConfig(instance="bp", n=30)).label == \
            "bp(n=30,m=10,seed=5)"
        assert build_instance(ExperimentConfig(instance="do")).label.startswith(
            "do(synthetic,M=3,n=14,m=84,")

    @pytest.mark.parametrize("name", ["n", "m", "max_iters", "record_every"])
    @pytest.mark.parametrize("value", [1000.0, 2.5, True, "10"])
    def test_integer_settings_must_be_integers(self, tmp_path, monkeypatch, name, value):
        monkeypatch.setattr(harness, "build_instance", unreachable)
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            run_experiment(ExperimentConfig(instance="iidg", out_dir=str(tmp_path),
                                            **{name: value}))

    @pytest.mark.parametrize("name", ["n", "m", "max_iters", "record_every"])
    def test_integer_settings_must_be_positive(self, name):
        with pytest.raises(ConfigError, match=f"{name} must be at least 1, got 0"):
            ExperimentConfig(instance="iidg", **{name: 0})

    @pytest.mark.parametrize("seed", [2.5, 7.0, True, False, "7", -1, np.int64(-3)])
    def test_seed_must_be_a_non_negative_integer(self, tmp_path, monkeypatch, seed):
        # a float seed used to reach numpy's SeedSequence and die with a TypeError
        monkeypatch.setattr(harness, "build_instance", unreachable)
        with pytest.raises(ConfigError, match="^seed must be (an integer|at least 0), got"):
            run_experiment(ExperimentConfig(instance="iidg", seed=seed, out_dir=str(tmp_path)))

    @pytest.mark.parametrize("settings, message", [
        ({"criterion": "bogus"}, "unknown stopping criterion 'bogus'"),
        ({"version": 3}, "version must be 1 or 2"),
        ({"version": 0}, "version must be 1 or 2"),
        ({"epsilon": math.nan}, "epsilon must be positive and finite, got nan"),
        ({"epsilon": math.inf}, "epsilon must be positive and finite, got inf"),
        ({"epsilon": -math.inf}, "epsilon must be positive and finite, got -inf"),
        ({"epsilon": 0.0}, "epsilon must be positive and finite, got 0.0"),
        ({"epsilon": -1e-8}, "epsilon must be positive and finite, got -1e-08"),
        ({"version": True}, "version must be 1 or 2"),
        ({"version": 1.0}, "version must be 1 or 2"),
        ({"epsilon": "1e-3"}, "epsilon must be positive and finite, got '1e-3'")])
    def test_solver_settings_fail_before_the_set_up(self, tmp_path, monkeypatch, settings,
                                                    message):
        # these used to build the instance first and fail only at SolveConfig
        monkeypatch.setattr(harness, "build_instance", unreachable)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_experiment(ExperimentConfig(instance="iidg", out_dir=str(tmp_path), **settings))

    def test_a_config_is_checked_when_it_is_made(self):
        # a config used to be checked only when a caller asked, after it was made
        with pytest.raises(ConfigError, match="^n sets the size of iidg/ntc/pqp/bp instances"):
            ExperimentConfig(instance="1d", n=5)

    def test_a_string_is_not_a_criteria_list(self):
        # a string used to be split into its characters and refused as
        # "unknown criteria to evaluate: ['d', 'g', 's']"
        with pytest.raises(ConfigError, match="^criteria must be a list of criteria, got 'sdg'$"):
            SolveConfig(criteria="sdg")
        with pytest.raises(ConfigError, match="^criteria must be a list of criteria, got 'sdg'$"):
            ExperimentConfig(instance="1d", criteria="sdg", criterion="sdg")

    @pytest.mark.parametrize("seed", [None, 0, 7, np.int64(7), np.uint8(7)])
    def test_integer_seeds_are_accepted(self, seed):
        ExperimentConfig(instance="iidg", seed=seed)

    def test_package_error_is_one_line_with_status_2(self, tmp_path, capsys):
        rc = cli_main(["run", "--instance", "1d", "--epsilon", "nan", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "stopgap: error: epsilon must be positive and finite, got nan\n"
        assert "Traceback" not in err


class TestCriteriaRules:
    def test_configs_are_hashable_and_store_a_tuple(self):
        # both used to keep a list and raise "unhashable type: 'list'"
        assert SolveConfig(criteria=["sdg"]) == SolveConfig(criteria=("sdg",))
        assert hash(SolveConfig(criteria=["sdg"])) == hash(SolveConfig(criteria=("sdg",)))
        exp = ExperimentConfig(criteria=["kkt", "sdg"])
        assert exp == ExperimentConfig(criteria=("kkt", "sdg"))
        assert hash(exp) == hash(ExperimentConfig(criteria=("kkt", "sdg")))
        assert exp.criteria == ("kkt", "sdg")

    def test_a_solve_evaluates_its_gate_at_least(self):
        assert SolveConfig().criteria == ("sdg",)
        assert SolveConfig(criterion="kkt", criteria=()).criteria == ("kkt",)

    @pytest.mark.parametrize("settings, message, makers", [
        ({"criterion": "sdg", "criteria": "sdg"}, "criteria must be a list of criteria, got 'sdg'",
         (SolveConfig, ExperimentConfig)),
        ({"criteria": ("sdg", "nope")}, "unknown criteria to evaluate: ['nope']",
         (SolveConfig, ExperimentConfig)),
        # a solve used to evaluate both and stop at kkt
        ({"criterion": "kkt", "criteria": ("sdg",)},
         "stop criterion must be among the evaluated criteria", (SolveConfig, ExperimentConfig)),
        ({"criterion": "all", "criteria": ()}, "criterion 'all' needs a non-empty criteria list",
         (SolveConfig,))], ids=["string", "unknown name", "gate missing", "all and empty"])
    def test_the_configs_refuse_a_bad_criteria_setting_with_one_message(self, settings, message,
                                                                         makers):
        for make in makers:
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                make(**settings)

    def test_ogfe_without_a_reference_has_one_message(self, tmp_path):
        # ogfe used to say "problem '...' has no reference solution; the
        # optimality gap is not computable"
        sized = {"instance": "iidg", "n": 5, "m": 10}
        problem = build_instance(ExperimentConfig(**sized))
        assert problem.reference is None
        message = "^iidg\\(n=5,m=10,seed=7\\): ogfe requested but no reference solution$"
        z = PrimalDualPoint(np.zeros(5), np.zeros(10))
        with pytest.raises(ConfigError, match=message):
            ogfe(PointValues(problem, z))
        with pytest.raises(ConfigError, match=message):
            solve(problem, SolveConfig(criterion="ogfe"))
        with pytest.raises(ConfigError, match=message):
            run_experiment(ExperimentConfig(**sized, criterion="ogfe", out_dir=str(tmp_path)))
