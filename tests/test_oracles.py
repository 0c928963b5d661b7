import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stopgap import oracles
from stopgap.criteria import PointValues, smoothed_duality_gap
from stopgap.errors import ConfigError, StopgapError
from stopgap.instances import make_1d, make_do
from stopgap.linalg import RANK_RTOL
from stopgap.objectives import L1Norm
from stopgap.oracles import (counterexample_kkt_vs_og, counterexample_kkt_vs_sdg, gap_witness,
                             sdg_decomposition_gap, sdg_direct, verification_suite)
from stopgap.problem import AffineConstraint, PrimalDualPoint, ProblemInstance

from prox_oracles import prox_oracle_1d


def random_z(problem, rng, scale=2.0):
    return PrimalDualPoint(scale * rng.standard_normal(problem.constraint.n),
                           scale * rng.standard_normal(problem.constraint.m))


class TestSdgDirect:
    @pytest.mark.parametrize("fixture", ["one_d", "iidg", "pqp", "bp"])
    def test_matches_closed_form(self, fixture, request, rng):
        problem = request.getfixturevalue(fixture)
        for _ in range(25):
            z = random_z(problem, rng)
            if fixture == "pqp":  # pull the slack block into the domain
                x = z.x.copy()
                x[20:] = np.abs(x[20:])
                z = PrimalDualPoint(x, z.y)
            b = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
            closed = smoothed_duality_gap(PointValues(problem, z), b)[0]
            direct = sdg_direct(problem, z, b, inner_tol=1e-10)
            assert direct == pytest.approx(closed, abs=1e-6)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_beta(self, one_d, beta):
        # the direct sup checks beta as the closed form does; unchecked, a
        # negative beta gives a negative "gap" and a zero one divides by zero
        z = PrimalDualPoint(np.array([1.0]), np.array([0.5]))
        with pytest.raises(ConfigError, match="^beta must be"):
            sdg_direct(one_d, z, beta)

    def test_zero_at_saddle(self, one_d):
        z = PrimalDualPoint(one_d.reference.x_star, one_d.reference.y_star)
        assert sdg_direct(one_d, z, 1.0) == pytest.approx(0.0, abs=1e-10)

    def test_decomposition_identity(self, iidg, rng):
        zs = (iidg.reference.x_star, iidg.reference.y_star)
        for _ in range(5):
            z = random_z(iidg, rng, scale=1.0)
            b = float(np.exp(rng.uniform(-1, 1)))
            gap, _ = sdg_decomposition_gap(iidg, z, zs, b)
            assert abs(gap) <= 1e-6

    def test_outer_saddle_lower_bound(self, iidg, rng):
        # outer-saddle gap >= -2 sqrt(beta G) ||x - x*||
        zs = (iidg.reference.x_star, iidg.reference.y_star)
        for _ in range(10):
            z = random_z(iidg, rng, scale=1.0)
            b = float(np.exp(rng.uniform(-1, 1)))
            _, (total, _, outer) = sdg_decomposition_gap(iidg, z, zs, b)
            floor = -2.0 * math.sqrt(b * max(total, 0.0)) \
                * float(np.linalg.norm(z.x - zs[0]))
            assert outer >= floor - 1e-6


class TestProxOracle:
    def test_absolute_value(self):
        u, res = prox_oracle_1d(abs, 1.0, 2.5)
        assert u == pytest.approx(1.5, abs=max(res, 1e-9))

    def test_ls_matches_closed_form(self, one_d):
        def f(u):
            return 0.5 * (u / 9.0 - 2.0) ** 2

        u, res = prox_oracle_1d(f, 1.0, 0.0)
        closed = one_d.objective.prox(1.0, np.zeros(1))[0]
        assert u == pytest.approx(closed, abs=max(10 * res, 1e-8))

    def test_nonnegative_indicator(self):
        def f(u):
            return 0.0 if u >= 0 else float("inf")

        u, res = prox_oracle_1d(f, 1.0, -3.0)
        assert u == pytest.approx(0.0, abs=max(res, 1e-9))


class TestGapWitness:
    @pytest.mark.parametrize("fixture", ["one_d", "iidg", "pqp", "bp"])
    def test_all_checks_pass(self, fixture, request, rng):
        problem = request.getfixturevalue(fixture)
        for _ in range(200):
            z = random_z(problem, rng)
            b = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
            for name, slack in gap_witness(problem, z, b).items():
                assert slack >= 0.0, f"{fixture}: witness check {name} failed ({slack})"


class TestCounterexamples:
    def test_kkt_vs_og_family(self):
        eps_list = [10.0 ** (-k) for k in range(1, 9)]
        rep = counterexample_kkt_vs_og(eps_list)
        assert rep["passed"]
        for row, eps in zip(rep["rows"], eps_list):
            assert row["derivative"] == 1.0
            assert row["gap"] == pytest.approx(eps / 2.0, abs=1e-12 * eps)
            assert abs(row["fd_derivative"] - 1.0) <= 1e-5

    def test_kkt_vs_sdg_absolute_value(self):
        rep = counterexample_kkt_vs_sdg([0.5, 0.1, 0.01, 2.0])
        assert rep["passed"]
        by_x = {r["x"]: r for r in rep["rows"]}
        assert by_x[0.5]["sdg"] == pytest.approx(0.375, abs=1e-12)
        assert by_x[0.01]["sdg"] == pytest.approx(0.00995, abs=1e-12)
        assert by_x[2.0]["sdg"] == pytest.approx(0.5, abs=1e-12)
        assert all(r["kkt"] == 1.0 for r in rep["rows"])

    def test_formula_agrees_with_criteria_module(self):
        # |x| under the zero row 0 x = 0, which constrains nothing, cross-checks
        # the counterexample formula
        problem = ProblemInstance(
            objective=L1Norm(1),
            constraint=AffineConstraint([[0.0]], [0.0]), label="abs")
        rep = counterexample_kkt_vs_sdg([0.5, 0.1, 0.01])
        for row in rep["rows"]:
            z = PrimalDualPoint(np.array([row["x"]]), np.zeros(1))
            crit = smoothed_duality_gap(PointValues(problem, z), 1.0)
            assert crit[0] == pytest.approx(row["sdg"], abs=1e-12)
            direct = sdg_direct(problem, z, 1.0)
            assert direct == pytest.approx(row["sdg"], abs=1e-10)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(StopgapError):
            counterexample_kkt_vs_og([0.0])
        with pytest.raises(StopgapError):
            counterexample_kkt_vs_sdg([0.0])


def orthonormal_basis(S, warn=None):
    """Orthonormal basis of the column span of S (SVD with rank filtering);
    ``warn`` is called with a message when S is rank deficient."""
    S = np.atleast_2d(np.asarray(S, dtype=float))
    U, sv, _ = np.linalg.svd(S, full_matrices=False)
    r = int(np.sum(sv > RANK_RTOL * (sv[0] if sv.size else 1.0)))
    if warn is not None and r < S.shape[1]:
        warn("spanning set is rank deficient (%d < %d); basis recomputed" % (r, S.shape[1]))
    return U[:, :r]


def diffeomorphism_checks(offset, span, rng, samples=50, tol=1e-10, warn=None):
    """Orthonormal chart of the affine set offset + span and its two
    identities: the chart preserves norms of differences and its inverse's
    Jacobian maps coordinate differences back to point differences."""
    offset = np.asarray(offset, dtype=float)
    basis = orthonormal_basis(span, warn=warn)
    k = basis.shape[1]
    ortho_err = float(np.abs(basis.T @ basis - np.eye(k)).max()) if k else 0.0
    max_norm_err = 0.0
    max_jac_err = 0.0
    for _ in range(samples):
        x1 = offset + basis @ rng.standard_normal(k)
        x2 = offset + basis @ rng.standard_normal(k)
        phi1 = basis.T @ (x1 - offset)
        phi2 = basis.T @ (x2 - offset)
        max_norm_err = max(max_norm_err,
                           abs(np.linalg.norm(phi1 - phi2) - np.linalg.norm(x1 - x2)))
        # the Jacobian of the inverse chart is the basis matrix itself
        max_jac_err = max(max_jac_err,
                          float(np.linalg.norm(basis @ (phi1 - phi2) - (x1 - x2))))
    return {"dimension": k, "orthonormality_error": ortho_err,
            "norm_preservation_error": max_norm_err, "jacobian_error": max_jac_err,
            "passed": max(ortho_err, max_norm_err, max_jac_err) <= tol}


class TestDiffeomorphism:
    def test_identity_domain(self, rng):
        rep = diffeomorphism_checks(np.zeros(4), np.eye(4), rng)
        assert rep["passed"] and rep["dimension"] == 4

    def test_one_dimensional_range_line(self, one_d, rng):
        span = one_d.objective.design.T  # Ran(Q^T) is a line
        rep = diffeomorphism_checks(np.zeros(1), span, rng)
        assert rep["passed"] and rep["dimension"] == 1

    def test_random_subspace(self, rng):
        span = rng.standard_normal((20, 10))
        rep = diffeomorphism_checks(rng.standard_normal(20), span, rng)
        assert rep["passed"] and rep["dimension"] == 10
        assert rep["norm_preservation_error"] <= 1e-10
        assert rep["jacobian_error"] <= 1e-10

    def test_rank_deficient_span_warns_and_recovers(self, rng):
        base = rng.standard_normal((6, 2))
        span = np.hstack([base, base @ np.array([[1.0], [2.0]])])  # dependent col
        messages = []
        rep = diffeomorphism_checks(np.zeros(6), span, rng, warn=messages.append)
        assert rep["passed"] and rep["dimension"] == 2
        assert messages


class TestVerificationSuite:
    def test_do_instance_full_report(self):
        problem = make_do(n=5, m=12, seed=1)
        rep = verification_suite(problem, seed=0, samples=30)
        assert rep["sdg_direct_pass"]
        assert rep["witness_pass"]
        assert rep["decomposition_pass"]
        assert rep["lemma10_pass"]
        assert rep["initial_bound_pass"]
        assert rep["passed"]

    def test_bp_instance(self, bp):
        rep = verification_suite(bp, seed=0, samples=30)
        assert rep["passed"]

    def test_report_holds_both_counterexamples_in_its_verdict(self, monkeypatch):
        # the command used to add the counterexamples and recompute the verdict,
        # so the suite's own "passed" left them out
        rep = verification_suite(make_1d(), samples=2)
        og, sdg = rep["counterexample_kkt_vs_og"], rep["counterexample_kkt_vs_sdg"]
        assert [r["epsilon"] for r in og["rows"]] == [10.0 ** -k for k in range(1, 9)]
        assert [r["x"] for r in sdg["rows"]] == [0.5, 0.1, 0.01]
        assert og["passed"] and sdg["passed"] and rep["passed"]
        real = oracles.counterexample_kkt_vs_sdg
        monkeypatch.setattr(oracles, "counterexample_kkt_vs_sdg",
                            lambda *a: {**real(*a), "passed": False})
        assert verification_suite(make_1d(), samples=2)["passed"] is False

    def test_saddle_point_block_draws_every_sample(self, monkeypatch):
        # it used to draw a fixed 10 points, whatever the sample count
        calls = []
        real = oracles.sdg_decomposition_gap
        monkeypatch.setattr(oracles, "sdg_decomposition_gap",
                            lambda *a: calls.append(a) or real(*a))
        verification_suite(make_1d(), samples=3)
        assert len(calls) == 3

    def test_suite_does_not_load_scipy(self):
        # the least-squares inner solve used to import scipy for a CG solve
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        code = ("import sys; from stopgap.instances import make_1d; "
                "from stopgap.oracles import verification_suite; "
                "assert verification_suite(make_1d(), samples=2)['passed']; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stdout.strip() == "[]"
