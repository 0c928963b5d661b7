import math

import numpy as np
import pytest

from stopgap import regularity
from stopgap.criteria import PointValues, smoothed_duality_gap
from stopgap.errors import ConfigError
from stopgap.instances import FAMILIES
from stopgap.linalg import pinv_solve
from stopgap.problem import PrimalDualPoint
from stopgap.regularity import (EtaCache, lipschitz_constants, msr_gamma, qeb_eta,
                                stationarity_matrix)

from regularity_oracles import distance_to_saddle_set, qeb_model, saddle_set


class TestMsrGamma:
    def test_one_dimensional_closed_form(self, one_d):
        # eigenvalues of [[1/81, 9], [9, 0]] are (t +/- sqrt(t^2 + 324))/2
        g = msr_gamma(one_d.objective.gram, one_d.constraint.matrix)
        t = 1.0 / 81.0
        lam_minus = (t - math.sqrt(t * t + 4 * 81.0)) / 2.0
        assert g == pytest.approx(abs(lam_minus))
        assert g == pytest.approx(8.99383, abs=1e-5)

    def test_identity_blocks_golden_ratio(self):
        # [[I, I], [I, 0]] has eigenvalues (1 +/- sqrt(5))/2
        n = 4
        g = msr_gamma(np.eye(n), np.eye(n))
        assert g == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0)

    def test_scaling_consistency(self, rng):
        Q = rng.standard_normal((4, 6))
        A = rng.standard_normal((3, 6))
        for cc in (0.5, 2.0, 7.0):
            direct = msr_gamma(Q.T @ Q, cc * A)
            M = stationarity_matrix(Q.T @ Q, cc * A)
            w = np.linalg.eigvalsh(M)
            kept = np.abs(w)[np.abs(w) > 1e-10 * np.abs(w).max()]
            assert direct == pytest.approx(kept.min())


class TestQebEta:
    def test_model_matches_sdg_with_step_scaling(self, iidg, rng):
        # the model evaluates the gap at beta itself (unit steps), at a beta
        # below and one above 1
        Q, c = iidg.objective.design, iidg.objective.target
        A, b = iidg.constraint.matrix, iidg.constraint.rhs
        for beta in (0.8, 1.7):
            eta, model = qeb_model(Q, c, A, b, beta)
            assert eta > 0
            for _ in range(100):
                z = PrimalDualPoint(rng.standard_normal(20) * 2, rng.standard_normal(10) * 2)
                direct = smoothed_duality_gap(PointValues(iidg, z), beta)[0]
                got = model.value(np.concatenate([z.x, z.y]))
                assert got == pytest.approx(direct, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_beta(self, one_d, beta):
        with pytest.raises(ConfigError, match="^beta must be"):
            qeb_eta(one_d.objective.gram, one_d.constraint.matrix, beta)

    def test_model_minimum_is_zero(self, iidg):
        Q, c = iidg.objective.design, iidg.objective.target
        A, b = iidg.constraint.matrix, iidg.constraint.rhs
        _, model = qeb_model(Q, c, A, b, 1.0)
        # any minimiser of the quadratic: the pseudo-inverse stationary point
        val = model.value(pinv_solve(2.0 * model.H, -model.v))
        assert -1e-9 <= val <= 1e-9

    def test_one_dimensional_h_is_2x2(self, one_d):
        eta, H = qeb_eta(one_d.objective.gram, one_d.constraint.matrix, 1.0)
        assert H.shape == (2, 2)
        assert eta > 0


class TestLipschitzConstants:
    def test_one_dimensional(self, one_d):
        consts = lipschitz_constants(one_d)
        assert one_d.objective.smooth_lipschitz == pytest.approx(1.0 / 81.0)
        assert one_d.objective.conj_part_lipschitz == 0.0
        assert consts.gamma == msr_gamma(one_d.objective.gram, one_d.constraint.matrix)

    @pytest.mark.parametrize("family", ["1d", "iidg", "ntc", "do"])
    def test_ls_set_up_leaves_eta_to_the_per_beta_lookup(self, monkeypatch, family):
        # the bounds read eta(beta) at each row's own beta from the
        # constants' EtaCache, so set-up solves for no eta of its own
        calls = []
        real = regularity.qeb_eta

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(regularity, "qeb_eta", counted)
        consts = lipschitz_constants(FAMILIES[family].factory())
        assert len(calls) == 0
        assert isinstance(consts, EtaCache) and not consts._cache
        assert consts.gamma > 0

    def test_scaled_orthogonal_rows(self):
        # Q with orthogonal rows scaled by 2: L = 4 and L_g = 1/4
        from stopgap.objectives import LeastSquaresObjective
        Q = 2.0 * np.eye(3)
        obj = LeastSquaresObjective(Q, np.ones(3))
        assert obj.smooth_lipschitz == pytest.approx(4.0)
        assert obj.conj_grad_lipschitz == pytest.approx(0.25)

    def test_bp_defaults(self, bp):
        # gamma and eta are computed for least squares only
        assert lipschitz_constants(bp) is None
        assert bp.objective.smooth_lipschitz is None
        assert bp.objective.conj_lipschitz == 0.0

    def test_qp_defaults(self, pqp):
        assert lipschitz_constants(pqp) is None
        assert pqp.objective.smooth_lipschitz is None
        assert pqp.objective.conj_part_lipschitz == 0.0
        assert pqp.objective.conj_grad_lipschitz is not None


@pytest.mark.parametrize("family", ["1d", "iidg", "ntc", "do"])
def test_stationarity_matrix_has_the_bytes_of_np_block(family):
    problem = FAMILIES[family].factory()
    Q, A = problem.objective.design, problem.constraint.matrix
    m = A.shape[0]
    want = np.block([[Q.T @ Q, A.T], [A, np.zeros((m, m))]])
    got = stationarity_matrix(problem.objective.gram, A)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestCertificates:
    def test_msr_certificate_near_saddle(self, iidg, rng):
        Q, c = iidg.objective.design, iidg.objective.target
        A, b = iidg.constraint.matrix, iidg.constraint.rhs
        gamma = msr_gamma(Q.T @ Q, A)
        z_p, kern = saddle_set(Q, c, A, b)
        M = stationarity_matrix(Q.T @ Q, A)
        rhs = np.concatenate([Q.T @ c, b])
        for _ in range(1000):
            z = z_p + rng.standard_normal(30) * 10.0 ** rng.uniform(-3, 0)
            grad_norm = np.linalg.norm(M @ z - rhs)
            dist = distance_to_saddle_set(z, z_p, kern)
            assert grad_norm >= gamma * dist - 1e-8

    def test_qeb_certificate_near_saddle(self, iidg, rng):
        Q, c = iidg.objective.design, iidg.objective.target
        A, b = iidg.constraint.matrix, iidg.constraint.rhs
        beta = 1.0
        eta, _ = qeb_eta(Q.T @ Q, A, beta)
        z_p, kern = saddle_set(Q, c, A, b)
        for _ in range(1000):
            z = z_p + rng.standard_normal(30) * 10.0 ** rng.uniform(-3, 0)
            zz = PrimalDualPoint(z[:20], z[20:])
            gap = smoothed_duality_gap(PointValues(iidg, zz), beta)[0]
            dist = distance_to_saddle_set(z, z_p, kern)
            assert gap >= 0.5 * eta * dist * dist - 1e-8


class TestEtaCache:
    def test_caches_and_matches_direct(self, iidg):
        cache = EtaCache(iidg)
        v1 = cache(0.3)
        v2 = cache(0.3)
        assert v1 == v2
        direct = qeb_eta(iidg.objective.gram, iidg.constraint.matrix, 0.3)[0]
        assert v1 == pytest.approx(direct)
