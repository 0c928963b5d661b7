import math

import numpy as np
import pytest

from stopgap.bounds import (BoundReport, bound_C1, bound_P4, bound_T1, bound_T2,
                            bound_T3, bound_T4, bound_T5, bound_T6, bound_T7,
                            evaluate_bounds, ratio_stats)
from stopgap.criteria import SmoothingParams, evaluate_point
from stopgap.errors import ConfigError
from stopgap.pdhg import SolveConfig, solve
from stopgap.problem import PrimalDualPoint
from stopgap.regularity import EtaCache, lipschitz_constants

INF = float("inf")
B11 = SmoothingParams(1.0, 1.0)


class TestFormulas:
    def test_saddle_zeros_hold(self):
        assert bound_T1(0.0, 0.0, 0.0, 1e-8).holds
        assert bound_T2(0.0, 0.0, 0.0, B11, 1e-8).holds
        assert bound_T3(0.0, 0.0, 0.0, 0.0, B11, 1e-8).holds
        assert bound_T4(0.0, 0.0, B11).holds
        assert bound_T5(0.0, 0.0, B11, 1.0).holds
        assert bound_T6(0.0, 0.0, 0.0, 0.0, B11).holds
        assert bound_T7(0.0, 0.0, 0.0, 0.0, B11, 1.0, 0.0).holds
        assert bound_P4(0.0, 0.0, 0.0, 0.0, B11, 0.0).holds
        assert bound_C1(0.0, 0.0, B11).holds

    def test_t1_default_gamma_inflates_rhs(self):
        small = bound_T1(0.5, 1.0, 0.0, 1.0)
        huge = bound_T1(0.5, 1.0, 0.0, 1e-8)
        assert huge.rhs == pytest.approx(2e8, rel=1e-6)
        assert huge.rhs > small.rhs and huge.holds

    def test_t2_constants(self):
        proof = bound_T2(0.0, 1.0, 0.0, B11, 4.0, constant="proof")
        stmt = bound_T2(0.0, 1.0, 0.0, B11, 4.0, constant="statement")
        assert proof.rhs == pytest.approx(1.0 + 2.0 * math.sqrt(1.0 / 4.0))
        assert stmt.rhs == pytest.approx(1.0 + math.sqrt(2.0 / 4.0))

    def test_t2_beta_limit(self):
        # beta_x -> 0: rhs -> G + sqrt(2 beta_y)||y|| sqrt(G)
        beta = SmoothingParams(1e-16, 1.0)
        rep = bound_T2(0.0, 4.0, 2.0, beta, 1.0)
        assert rep.rhs == pytest.approx(4.0 + math.sqrt(2.0) * 2.0 * 2.0, rel=1e-6)

    def test_t3_t6_zero_pdg(self):
        assert bound_T3(0.0, 0.0, 3.0, 4.0, B11, 1e-8).rhs == 0.0
        assert bound_T6(0.0, 0.0, 3.0, 4.0, B11).rhs == 0.0

    def test_t4_unit_beta_constant(self):
        rep = bound_T4(0.0, 5.0, B11)
        assert rep.rhs == pytest.approx(5.0)  # max(1, 1/2) = 1

    def test_t5_nonsmooth_is_infinite(self):
        rep = bound_T5(3.0, 1.0, B11, None)
        assert rep.rhs == INF and rep.holds

    def test_t5_constant_at_zero_lipschitz(self):
        rep = bound_T5(0.0, 1.0, B11, 0.0)
        assert rep.rhs == pytest.approx(2.0)  # max(2, 2)

    def test_p4_tighter_than_t7_when_comparable(self, rng):
        # with L_g = 0 and L_f1* = L_f*, P4's linear term has smaller factors
        for _ in range(50):
            G = float(rng.uniform(0, 3))
            xn, yn = rng.uniform(0, 2, 2)
            L = float(rng.uniform(0, 1))
            t7 = bound_T7(0.0, G, xn, yn, B11, 0.0, L)
            p4 = bound_P4(0.0, G, xn, yn, B11, L)
            assert p4.rhs <= t7.rhs + 1e-12

    def test_c1_rhs_scales_with_sqrt_beta_y(self):
        r1 = bound_C1(0.0, 2.0, SmoothingParams(1.0, 1.0)).rhs
        r4 = bound_C1(0.0, 2.0, SmoothingParams(1.0, 4.0)).rhs
        assert r4 == pytest.approx(2.0 * r1)

    def test_scale_covariance(self, rng):
        # multiplying lhs and rhs inputs by c multiplies the report linearly
        for _ in range(20):
            K = float(rng.uniform(0.1, 5))
            beta = B11
            c = 3.7
            r1 = bound_T4(1.0, K, beta)
            r2 = bound_T4(c * 1.0, c * K, beta)
            assert r2.lhs == pytest.approx(c * r1.lhs)
            assert r2.rhs == pytest.approx(c * r1.rhs)

    def test_holds_with_infinite_sides(self):
        assert BoundReport("T4_SDG_KKT", INF, INF).holds
        assert BoundReport("T4_SDG_KKT", 1.0, INF).holds
        assert not BoundReport("T4_SDG_KKT", 1.0, 0.5).holds


class TestRatioStats:
    def mk(self, lhs, rhs):
        return BoundReport("T4_SDG_KKT", lhs, rhs)

    def test_constant_ratios(self):
        stats = ratio_stats([self.mk(1.0, 3.0)] * 5)
        assert stats.mean == pytest.approx(3.0)
        assert stats.std_dev == 0.0
        assert stats.count == 5 and stats.infinite_count == 0

    def test_infinite_entries_counted_separately(self):
        stats = ratio_stats([self.mk(1.0, 2.0), self.mk(1.0, INF), self.mk(0.0, 1.0)])
        assert stats.mean == pytest.approx(2.0)
        assert stats.count == 1
        assert stats.infinite_count == 2  # one inf rhs + one zero lhs with rhs > 0
        assert stats.zero_lhs_count == 1

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            ratio_stats([])

    def test_mixed_ids_rejected(self):
        with pytest.raises(ConfigError):
            ratio_stats([self.mk(1, 2), BoundReport("C1_FE_SDG", 1, 2)])


class TestTrajectoryCertification:
    def run_and_check(self, problem, max_iters=400, every=1):
        consts = lipschitz_constants(problem)
        eta_of = EtaCache(problem)
        cfg = SolveConfig(epsilon=1e-8, max_iters=max_iters, criterion="sdg",
                          record_every=every)
        traj = solve(problem, cfg)
        t4, t5 = [], []
        for k, z in traj.iterates:
            reports = evaluate_bounds(problem, z, consts, eta_of=eta_of)
            for tid, rep in reports.items():
                assert rep.holds, f"{problem.label} iter {k}: {tid} violated " \
                                  f"({rep.lhs} > {rep.rhs})"
            if "T4_SDG_KKT" in reports:
                t4.append(reports["T4_SDG_KKT"])
            if "T5_KKT_SDG" in reports:
                t5.append(reports["T5_KKT_SDG"])
        return traj, t4, t5

    def test_one_dimensional_pointwise(self, one_d):
        traj, t4, t5 = self.run_and_check(one_d)
        stats = ratio_stats(t4)
        # deterministic instance reproduces the known ratio statistics
        assert stats.mean == pytest.approx(1.76, abs=0.6)
        assert 1.76 / 3 <= stats.mean <= 1.76 * 3

    def test_t4_t5_composition_on_smooth(self, one_d):
        # G <= bl*K and K <= bL*G compose: with matched beta the product >= 1
        _, t4, t5 = self.run_and_check(one_d)
        for r4, r5 in zip(t4, t5):
            if r4.lhs > 0 and math.isfinite(r4.ratio) and math.isfinite(r5.ratio):
                assert r4.ratio * r5.ratio >= 1.0 - 1e-9

    def test_iidg_pointwise(self, iidg):
        self.run_and_check(iidg, max_iters=250)


@pytest.mark.parametrize("family", ["iidg", "pqp", "bp"])
def test_precomputed_point_values_give_the_same_reports(family, request, rng):
    problem = request.getfixturevalue(family)
    consts = lipschitz_constants(problem)
    eta_of = EtaCache(problem)
    for _ in range(3):
        # |x| keeps the pqp slack block inside its nonnegativity domain
        z = PrimalDualPoint(np.abs(rng.standard_normal(problem.constraint.n)),
                            rng.standard_normal(problem.constraint.m))
        fresh = evaluate_bounds(problem, z, consts, eta_of=eta_of)
        shared = evaluate_bounds(problem, z, consts, eta_of=eta_of,
                                 values=evaluate_point(problem, z))
        assert fresh.keys() == shared.keys()
        for tid, rep in fresh.items():
            assert (rep.lhs, rep.rhs, rep.beta_used) == \
                   (shared[tid].lhs, shared[tid].rhs, shared[tid].beta_used), tid


def test_t7_requires_separable_assumptions():
    with pytest.raises(ConfigError):
        bound_T7(0.0, 1.0, 0.0, 0.0, B11, None, None)


def test_p4_requires_lipschitz_conjugate():
    with pytest.raises(ConfigError):
        bound_P4(0.0, 1.0, 0.0, 0.0, B11, None)
