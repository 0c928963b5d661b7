import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stopgap import harness
from stopgap.cli import main as cli_main
from stopgap.errors import ConfigError
from stopgap.harness import (ExperimentConfig, build_instance, emit_plot_data,
                              run_experiment)
from stopgap.instances import FAMILIES
from stopgap.oracles import verification_suite


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
        run_1d(tmp_path / "a")
        run_1d(tmp_path / "b")
        assert (tmp_path / "a" / "trace.csv").read_bytes() == \
               (tmp_path / "b" / "trace.csv").read_bytes()
        assert (tmp_path / "a" / "table1.json").read_bytes() == \
               (tmp_path / "b" / "table1.json").read_bytes()

    def test_unknown_config_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"instance": "1d", "typo_key": 3})

    def test_empty_criteria_list_rejected(self):
        with pytest.raises(ConfigError, match="criteria"):
            ExperimentConfig(instance="1d", criteria=()).validate()

    def test_gate_must_be_evaluated(self):
        with pytest.raises(ConfigError, match="stop criterion"):
            ExperimentConfig(instance="1d", criteria=("kkt",),
                             criterion="sdg").validate()

    def test_empty_criteria_on_no_reference_instance(self, tmp_path):
        cfg = ExperimentConfig(instance="bp", criteria=("ogfe",),
                               out_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_verification_artifact(self, tmp_path):
        cfg = ExperimentConfig(instance="1d", out_dir=str(tmp_path), verify=True,
                               verify_samples=10)
        res = run_experiment(cfg)
        rep = json.loads((tmp_path / "verification.json").read_text())
        assert rep["passed"] is True
        assert res["verification"]["sdg_direct_pass"]


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
        rc = cli_main(["tables", "--instances", "1d", "--out", str(tmp_path)])
        assert rc == 0
        t1 = json.loads((tmp_path / "table1.json").read_text())
        assert "1d" in t1

    def test_plot_subcommand(self, tmp_path):
        cli_main(["run", "--instance", "1d", "--out", str(tmp_path)])
        rc = cli_main(["plot", str(tmp_path / "trace.csv"), "criterion:sdg",
                       str(tmp_path / "series.csv")])
        assert rc == 0
        assert (tmp_path / "series.csv").exists()

    @pytest.mark.parametrize("samples", [0, -1])
    def test_verification_without_samples_is_refused(self, tmp_path, capsys, samples):
        # a suite that draws no sample checks nothing, and must not report a pass
        problem = build_instance(ExperimentConfig(instance="1d"))
        for kwargs in ({"sdg_samples": samples}, {"witness_samples": samples}):
            with pytest.raises(ConfigError, match="samples must be at least 1"):
                verification_suite(problem, **kwargs)
        with pytest.raises(ConfigError, match="verify_samples must be at least 1"):
            ExperimentConfig(instance="1d", verify=True, verify_samples=samples).validate()
        rc = cli_main(["verify", "--instance", "1d", "--samples", str(samples),
                       "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"stopgap: error: sdg_samples must be at least 1, got {samples}\n"
        assert not (tmp_path / "verification.json").exists()

    @pytest.mark.parametrize("instance", ["bp", "iidg"])
    def test_unknown_t2_constant_fails_before_the_solve(self, tmp_path, monkeypatch, instance):
        # bp never evaluates T2 and used to finish silently; iidg raised only
        # after the whole solve
        monkeypatch.setattr(harness, "solve", unreachable)
        with pytest.raises(ConfigError, match="t2_constant 'bogus'"):
            run_experiment(ExperimentConfig(instance=instance, t2_constant="bogus",
                                            out_dir=str(tmp_path / "out")))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["n", "m", "max_iters", "record_every", "verify_samples"])
    @pytest.mark.parametrize("value", [1000.0, 2.5, True, "10"])
    def test_integer_settings_must_be_integers(self, tmp_path, monkeypatch, name, value):
        monkeypatch.setattr(harness, "build_instance", unreachable)
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            run_experiment(ExperimentConfig(instance="iidg", out_dir=str(tmp_path),
                                            **{name: value}))

    @pytest.mark.parametrize("name", ["n", "m", "max_iters", "record_every"])
    def test_integer_settings_must_be_positive(self, name):
        with pytest.raises(ConfigError, match=f"{name} must be at least 1, got 0"):
            ExperimentConfig(instance="iidg", **{name: 0}).validate()

    def test_package_error_is_one_line_with_status_2(self, tmp_path, capsys):
        rc = cli_main(["run", "--instance", "1d", "--epsilon", "nan", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "stopgap: error: epsilon must be positive and finite, got nan\n"
        assert "Traceback" not in err
