"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line each (run with `pytest -s tests/test_acceptance.py` to see the
lines on success)."""

import math
import time

import numpy as np
import pytest

from stopgap.bounds import THEOREMS, evaluate_bounds, holds, ratio_stats
from stopgap.criteria import PointValues, smoothed_duality_gap
from stopgap.harness import ExperimentConfig, run_experiment
from stopgap.instances import make_1d, make_bp, make_do, make_iidg, make_ntc, make_pqp
from stopgap.oracles import (counterexample_kkt_vs_og, counterexample_kkt_vs_sdg, gap_witness,
                             sdg_direct)
from stopgap.pdhg import SolveConfig, default_step_sizes, solve
from stopgap.problem import PrimalDualPoint
from stopgap.regularity import lipschitz_constants, msr_gamma, stationarity_matrix

from regularity_oracles import distance_to_saddle_set, qeb_model, saddle_set

# one seeded desk-scale instance per family: (factory, record_every, version)
FAMILY_RUNS = {
    "1d": (make_1d, 1, 1),
    "iidg": (lambda: make_iidg(20, 10, seed=7), 3, 1),
    "ntc": (lambda: make_ntc(20, 10, seed=7), 10, 1),
    "do": (lambda: make_do(n=13, m=20, seed=0), 2, 1),
    "pqp": (lambda: make_pqp(20, 10, seed=8), 8, 2),
    "bp": (lambda: make_bp(20, 10, seed=5), 10, 1),
}


def _line(num, passed, msg):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {msg}")
    assert passed, f"criterion {num}: {msg}"


def _stats(reports):
    """``ratio_stats`` of a list of one theorem's (lhs, rhs) reports."""
    return ratio_stats([lhs for lhs, _ in reports], [rhs for _, rhs in reports])


def _feasible_z(problem, rng, scale=2.0):
    x = problem.objective.prox(1.0, scale * rng.standard_normal(problem.constraint.n))
    return PrimalDualPoint(x, scale * rng.standard_normal(problem.constraint.m))


def test_criterion_1_table1_one_dimensional():
    problem = make_1d()
    steps = default_step_sizes(problem.constraint)
    assert steps.tau == pytest.approx(0.95 / 9.0)
    assert steps.sigma == pytest.approx(1.0 / 9.0)
    t0 = time.perf_counter()
    cfg = SolveConfig(epsilon=1e-8, criterion="all", criteria=("kkt", "sdg", "pdg"))
    traj = solve(problem, cfg, steps)
    elapsed = time.perf_counter() - t0
    got = {k: traj.crossings[k] for k in ("kkt", "sdg", "pdg")}
    want = {"kkt": 12, "sdg": 11, "pdg": 13}
    ok = all(abs(got[k] - want[k]) <= 2 for k in want) and elapsed < 1.0
    _line(1, ok, f"1D iterations {got} vs target {want} (+-2), {elapsed:.2f}s")


@pytest.fixture(scope="module")
def certified_trajectories():
    """Solve all six families once and certify every bound report."""
    out = {}
    total = 0.0
    for name, (factory, every, version) in FAMILY_RUNS.items():
        t0 = time.perf_counter()
        problem = factory()
        cfg = SolveConfig(epsilon=1e-8, max_iters=100_000, criterion="sdg",
                          record_every=every, version=version)
        traj = solve(problem, cfg)
        consts = lipschitz_constants(problem)
        reports = {}
        violations = []
        for k, z in traj.iterates:
            lhs, rhs, _ = evaluate_bounds(PointValues(problem, z), consts)
            for tid, a, b in zip(THEOREMS, lhs.tolist(), rhs.tolist()):
                if math.isnan(a):
                    continue  # the theorem does not apply here
                reports.setdefault(tid, []).append((a, b))
                if not holds(a, b):
                    violations.append((name, k, tid, a, b))
        total += time.perf_counter() - t0
        out[name] = {"problem": problem, "trajectory": traj, "reports": reports,
                     "violations": violations}
    out["_elapsed"] = total
    return out


def test_criterion_2_pointwise_certification(certified_trajectories):
    runs = certified_trajectories
    all_viol = []
    n_reports = 0
    for name, (factory, every, version) in FAMILY_RUNS.items():
        all_viol += runs[name]["violations"]
        n_reports += sum(len(v) for v in runs[name]["reports"].values())
        assert runs[name]["trajectory"].stop_reason == "converged", \
            f"{name} did not reach the SDG gate within 10^5 iterations"
    elapsed = runs["_elapsed"]
    ok = not all_viol and elapsed < 300.0
    _line(2, ok, f"{n_reports} bound reports over 6 families, "
                 f"{len(all_viol)} violations, {elapsed:.0f}s")


def test_criterion_3_sdg_closed_form_equivalence():
    rng = np.random.default_rng(2024)
    worst = {}
    for name, (factory, _, _) in FAMILY_RUNS.items():
        problem = factory()
        err = 0.0
        for _ in range(100):
            z = _feasible_z(problem, rng)
            b = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
            closed = smoothed_duality_gap(PointValues(problem, z), b)[0]
            direct = sdg_direct(problem, z, b, inner_tol=1e-10)
            err = max(err, abs(closed - direct))
        worst[name] = err
    ok = all(e <= 1e-6 for e in worst.values())
    _line(3, ok, "max |closed - direct| per family: "
          + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_4_gap_witness_suite():
    rng = np.random.default_rng(77)
    worst = {}
    for name, (factory, _, _) in FAMILY_RUNS.items():
        problem = factory()
        for _ in range(1000):
            z = PrimalDualPoint(2 * rng.standard_normal(problem.constraint.n),
                                2 * rng.standard_normal(problem.constraint.m))
            b = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
            for cname, slack in gap_witness(problem, z, b).items():
                key = f"{name}:{cname}"
                worst[key] = min(worst.get(key, math.inf), slack)
    bad = {k: v for k, v in worst.items() if v < 0.0}
    _line(4, not bad, f"6000 witness samples, min slack "
          f"{min(worst.values()):.2e}" + (f", failures {bad}" if bad else ""))


def test_criterion_5_regularity_certificates():
    rng = np.random.default_rng(55)
    msgs = []
    ok = True
    for name in ("1d", "iidg", "ntc", "do"):
        problem = FAMILY_RUNS[name][0]()
        Q, c = problem.objective.design, problem.objective.target
        A, b = problem.constraint.matrix, problem.constraint.rhs
        n, m = A.shape[1], A.shape[0]
        gamma = msr_gamma(Q.T @ Q, A)
        beta = 1.0
        eta, model = qeb_model(Q, c, A, b, beta)
        z_p, kern = saddle_set(Q, c, A, b)
        M = stationarity_matrix(Q.T @ Q, A)
        rhs = np.concatenate([Q.T @ c, b])
        msr_bad = qeb_bad = 0
        for _ in range(1000):
            z = z_p + rng.standard_normal(n + m) * 10.0 ** rng.uniform(-3, 0)
            dist = distance_to_saddle_set(z, z_p, kern)
            if np.linalg.norm(M @ z - rhs) < gamma * dist - 1e-8:
                msr_bad += 1
            zz = PrimalDualPoint(z[:n], z[n:])
            gap = smoothed_duality_gap(PointValues(problem, zz), beta)[0]
            if gap < 0.5 * eta * dist * dist - 1e-8:
                qeb_bad += 1
        model_err = 0.0
        for _ in range(100):
            z = rng.standard_normal(n + m) * 2
            direct = smoothed_duality_gap(PointValues(problem, PrimalDualPoint(z[:n], z[n:])),
                                          beta)[0]
            model_err = max(model_err,
                            abs(model.value(z) - direct) / max(1.0, abs(direct)))
        ok = ok and msr_bad == 0 and qeb_bad == 0 and model_err <= 1e-7
        msgs.append(f"{name}: msr_fail={msr_bad} qeb_fail={qeb_bad} "
                    f"model_rel_err={model_err:.1e}")
    _line(5, ok, "; ".join(msgs))


def test_criterion_6_counterexamples():
    rep_a = counterexample_kkt_vs_og([10.0 ** -k for k in range(1, 9)])
    ok_a = rep_a["passed"] and all(
        r["derivative"] == 1.0 and abs(r["gap"] - r["epsilon"] / 2.0) <= 1e-12
        for r in rep_a["rows"])
    rep_b = counterexample_kkt_vs_sdg([0.5, 0.1, 0.01])
    ok_b = rep_b["passed"] and all(
        r["kkt"] == 1.0 and abs(r["sdg"] - (abs(r["x"]) - r["x"] ** 2 / 2.0)) <= 1e-12
        for r in rep_b["rows"])
    _line(6, ok_a and ok_b,
          f"derivative/gap family ok={ok_a}, |x| family ok={ok_b}")


def test_criterion_7_pdhg_stability_separation():
    # both PDHG orderings on basis pursuit with the KKT and SDG gates: the
    # version-1 KKT gate must not fire within the budget while version-2 KKT
    # and both SDG gates must; version-2 primal iterates carry exact zeros,
    # version-1 only near-zeros
    problem = make_bp(20, 10, seed=5)
    budget, epsilon = 100_000, 1e-8
    steps = default_step_sizes(problem.constraint)
    rep = {}
    for version in (1, 2):
        cfg = SolveConfig(epsilon=epsilon, max_iters=budget, criterion="all",
                          criteria=("kkt", "sdg"), version=version, record_every=budget)
        traj = solve(problem, cfg, steps)
        x = traj.iterates[-1][1].x
        rep[f"v{version}"] = {
            "kkt_stop": traj.crossings["kkt"],
            "sdg_stop": traj.crossings["sdg"],
            "exact_zeros": int(np.count_nonzero(x == 0.0)),
            "tiny_nonzeros": int(np.count_nonzero((np.abs(x) < 1e-6) & (x != 0.0))),
        }
    v1, v2 = rep["v1"], rep["v2"]
    separated = (v1["kkt_stop"] is None
                 and v2["kkt_stop"] is not None
                 and v1["sdg_stop"] is not None
                 and v2["sdg_stop"] is not None
                 and v2["exact_zeros"] > 0
                 and v1["tiny_nonzeros"] > 0)
    in_bracket = v1["sdg_stop"] is not None and 3000 <= v1["sdg_stop"] <= 30_000
    ok = separated and in_bracket
    _line(7, ok, f"v1 kkt={v1['kkt_stop']} sdg={v1['sdg_stop']} "
                 f"tiny_nonzeros={v1['tiny_nonzeros']}; "
                 f"v2 kkt={v2['kkt_stop']} sdg={v2['sdg_stop']} "
                 f"exact_zeros={v2['exact_zeros']}")


def test_criterion_8_table2_sanity(certified_trajectories):
    runs = certified_trajectories
    stats_1d = _stats(runs["1d"]["reports"]["T4_SDG_KKT"])
    mean_ok = 1.76 / 3.0 <= stats_1d.mean <= 1.76 * 3.0
    std_ok = stats_1d.std_dev <= 0.6 * 3.0
    # +inf exactly where reported: T5 needs a smooth objective
    t5_qp = _stats(runs["pqp"]["reports"]["T5_KKT_SDG"])
    t5_bp = _stats(runs["bp"]["reports"]["T5_KKT_SDG"])
    inf_ok = t5_qp.count == 0 and t5_qp.infinite_count > 0 \
        and t5_bp.count == 0 and t5_bp.infinite_count > 0
    t5_iidg = _stats(runs["iidg"]["reports"]["T5_KKT_SDG"])
    finite_ok = t5_iidg.count > 0
    # order of magnitude on the smooth random families (target ~2)
    t4_iidg = _stats(runs["iidg"]["reports"]["T4_SDG_KKT"])
    magnitude_ok = 0.2 <= t4_iidg.mean <= 20.0
    # KKT stagnation makes the BP T4 ratio blow up
    t4_bp = _stats(runs["bp"]["reports"]["T4_SDG_KKT"])
    bp_huge_ok = t4_bp.infinite_count > 0 or t4_bp.mean > 1e3
    ok = mean_ok and std_ok and inf_ok and finite_ok and magnitude_ok and bp_huge_ok
    _line(8, ok, f"1D T4 = {stats_1d.mean:.2f} +- {stats_1d.std_dev:.2f} "
                 f"(target 1.76 +- 0.6); T5 infinite on qp/bp = {inf_ok}; "
                 f"iidg T4 mean = {t4_iidg.mean:.2f}; bp T4 mean = {t4_bp.mean:.2e}")


def test_criterion_9_reproducibility(tmp_path):
    for sub in ("a", "b"):
        cfg = ExperimentConfig(instance="iidg", seed=7, max_iters=500,
                               criterion="sdg", record_every=5,
                               out_dir=str(tmp_path / sub))
        run_experiment(cfg)
    b1 = (tmp_path / "a" / "trace.csv").read_bytes()
    b2 = (tmp_path / "b" / "trace.csv").read_bytes()
    _line(9, b1 == b2, f"two runs, {len(b1)} bytes each, identical={b1 == b2}")
