import math
import warnings

import numpy as np
import pytest

from stopgap.bounds import ratio_key
from stopgap.criteria import (GRID_VALUES, PointValues, SdgGrid, best_sdg, beta_grid,
                              kkt_error, ogfe, projected_duality_gap, sdg_over_grid,
                              select_beta, smoothed_duality_gap)
from stopgap.errors import ConfigError, StopgapError
from stopgap.harness import DEFAULT_VERSION, ExperimentConfig, build_instance
from stopgap.instances import FAMILIES, make_1d, make_do, make_iidg
from stopgap.objectives import L1Norm, ObjectiveOracle
from stopgap.pdhg import SolveConfig, solve
from stopgap.problem import AffineConstraint, PrimalDualPoint, ProblemInstance

INF = float("inf")


def saddle_point(problem):
    return PrimalDualPoint(problem.reference.x_star, problem.reference.y_star)


class TestOgfe:
    def test_optimum_of_one_dimensional(self, one_d):
        z = PrimalDualPoint(np.array([7.0 / 9.0]), np.array([0.3]))
        og, fe = ogfe(PointValues(one_d, z))
        assert og == pytest.approx(0.0, abs=1e-15)
        assert fe == pytest.approx(0.0, abs=1e-12)

    def test_zero_point_feasibility(self, one_d):
        og, fe = ogfe(PointValues(one_d, PrimalDualPoint(np.zeros(1), np.zeros(1))))
        assert fe == pytest.approx(7.0)

    def test_missing_reference_rejected(self, bp):
        with pytest.raises(ConfigError):
            ogfe(PointValues(bp, PrimalDualPoint(np.zeros(20), np.zeros(10))))

    def test_og_nonnegative_on_do(self, rng):
        problem = make_do(n=6, m=12, M=3, seed=3)
        for _ in range(20):
            z = PrimalDualPoint(rng.standard_normal(18), rng.standard_normal(12))
            og, _ = ogfe(PointValues(problem, z))
            assert og >= 0.0


class TestKktError:
    def test_basis_pursuit_at_origin(self, bp):
        z = PrimalDualPoint(np.zeros(20), np.zeros(10))
        k = kkt_error(PointValues(bp, z))
        assert k == pytest.approx(float(bp.constraint.rhs @ bp.constraint.rhs))

    def test_zero_at_saddle(self, one_d):
        assert kkt_error(PointValues(one_d, saddle_point(one_d))) <= 1e-12

    def test_finite_difference_cross_check(self, iidg, rng):
        # stationarity term against central differences of the Lagrangian in x
        z = PrimalDualPoint(rng.standard_normal(20), rng.standard_normal(10))
        A, b = iidg.constraint.matrix, iidg.constraint.rhs

        def lagrangian(x):
            return iidg.objective(x) + float((A @ x - b) @ z.y)

        h = 1e-6
        grad = np.zeros(20)
        for i in range(20):
            e = np.zeros(20)
            e[i] = h
            grad[i] = (lagrangian(z.x + e) - lagrangian(z.x - e)) / (2 * h)
        fe2 = float(np.linalg.norm(A @ z.x - b) ** 2)
        assert kkt_error(PointValues(iidg, z)) == pytest.approx(grad @ grad + fe2, rel=1e-5)


class TestProjectedDualityGap:
    def test_zero_at_saddle(self, one_d):
        assert projected_duality_gap(PointValues(one_d, saddle_point(one_d))) <= 1e-10

    def test_bp_interior_dual_keeps_middle_term_zero(self, bp, rng):
        # scale y so -A^T y is already inside the unit ball
        y = rng.standard_normal(10)
        y *= 0.5 / np.abs(bp.constraint.matrix.T @ y).max()
        z = PrimalDualPoint(np.zeros(20), y)
        d = projected_duality_gap(PointValues(bp, z))
        aty = bp.constraint.matrix.T @ y
        assert bp.objective.project_conj_domain(-aty) == pytest.approx(-aty)
        fe2 = float(np.linalg.norm(bp.constraint.residual(z.x)) ** 2)
        gap = bp.objective(z.x) + 0.0 + float(bp.constraint.rhs @ y)
        assert d == pytest.approx(gap * gap + fe2)

    def test_one_dimensional_origin_arithmetic(self, one_d):
        # a = 0, f(0) = 2, f*(0) = -min f = 0 (c in range), <b, y> = 0
        d = projected_duality_gap(PointValues(one_d, PrimalDualPoint(np.zeros(1), np.zeros(1))))
        f0 = 2.0
        fstar0 = one_d.objective.conj(np.zeros(1))
        assert d == pytest.approx((f0 + fstar0) ** 2 + 0.0 + 49.0)


class TestSmoothedDualityGap:
    def test_zero_at_saddle(self, one_d):
        v = smoothed_duality_gap(PointValues(one_d, saddle_point(one_d)), 1.0)
        assert v[0] <= 1e-10

    def test_unconstrained_absolute_value_formula(self):
        # |x| at beta = 1; the zero row 0 x = 0 constrains nothing
        problem = ProblemInstance(
            objective=L1Norm(1),
            constraint=AffineConstraint([[0.0]], [0.0]), label="abs")
        for x, expected in [(0.5, 0.375), (2.0, 0.5), (0.01, 0.01 - 0.5e-4)]:
            z = PrimalDualPoint(np.array([x]), np.zeros(1))
            got = smoothed_duality_gap(PointValues(problem, z), 1.0)[0]
            assert got == pytest.approx(expected, abs=1e-12)

    def test_floor_and_feasibility_bounds(self, iidg, rng):
        # gap dominates both the prox displacement and the feasibility error
        A = iidg.constraint.matrix
        for _ in range(1000):
            z = PrimalDualPoint(rng.standard_normal(20) * 2, rng.standard_normal(10) * 2)
            b = float(np.exp(rng.uniform(np.log(1e-4), np.log(1e3))))
            cv = smoothed_duality_gap(PointValues(iidg, z), b)
            p = cv[1]
            fe = float(np.linalg.norm(iidg.constraint.residual(z.x)))
            floor = 0.5 * b * float((z.x - p) @ (z.x - p)) + fe * fe / (2 * b)
            assert floor <= cv[0] + 1e-9 * max(1.0, cv[0])
            assert fe <= math.sqrt(2 * b * cv[0]) + 1e-9

    def test_fermat_witness_subgradient(self, iidg, rng):
        # beta (x - p) - A^T y is a subgradient at p: Fenchel-Young is tight
        obj = iidg.objective
        for _ in range(50):
            z = PrimalDualPoint(rng.standard_normal(20), rng.standard_normal(10))
            b = float(np.exp(rng.uniform(-2, 2)))
            cv = smoothed_duality_gap(PointValues(iidg, z), b)
            p = cv[1]
            q = b * (z.x - p) - iidg.constraint.matrix.T @ z.y
            assert obj(p) + obj.conj(q) == pytest.approx(float(q @ p), abs=1e-7)

    def test_all_criteria_zero_at_saddle_positive_nearby(self, one_d, rng):
        zs = saddle_point(one_d)
        assert kkt_error(PointValues(one_d, zs)) <= 1e-12
        assert projected_duality_gap(PointValues(one_d, zs)) <= 1e-10
        assert smoothed_duality_gap(PointValues(one_d, zs), 1)[0] <= 1e-10
        for _ in range(20):
            dx, dy = rng.standard_normal(2)
            scale = 1e-3 / max(abs(dx), abs(dy))
            z = PrimalDualPoint(zs.x + scale * dx, zs.y + scale * dy)
            assert kkt_error(PointValues(one_d, z)) > 0
            assert projected_duality_gap(PointValues(one_d, z)) > 0
            assert smoothed_duality_gap(PointValues(one_d, z), 1)[0] > 0


@pytest.mark.parametrize("value", [-1.0, math.nan])
def test_a_negative_or_nan_measure_raises(monkeypatch, value):
    # a measure is nonnegative or +inf; anything else is an oracle fault
    problem = make_1d()
    monkeypatch.setattr(problem.objective, "stationarity_residual", lambda x, g: value)
    z = saddle_point(problem)
    for evaluate in (kkt_error, lambda pv: pv.kkt):
        with pytest.raises(StopgapError, match="^criterion KKT evaluated to "):
            evaluate(PointValues(problem, z))


class ConstantGapObjective(ObjectiveOracle):
    """f with |f(x)| = 1e3, an identity prox and a fixed value difference, so
    that at a feasible point with y = 0 the smoothed gap is that difference."""

    dim = 1

    def __init__(self, diff):
        self.diff = diff

    def __call__(self, x):
        return -1e3

    def prox(self, s, v):
        return np.array(v, dtype=float)

    def value_diff(self, x, p):
        return self.diff if p.ndim == 1 else np.full(len(p), self.diff)


@pytest.mark.parametrize("diff, raises", [(-1e-8, False), (-1e-5, True)])
def test_negativity_tolerance_scales_with_the_objective(diff, raises):
    # the tolerance is -1e-9 * max(1, |f(x)|, ||Ax - b||^2) = -1e-6 here: f(x)
    # is evaluated only past -1e-9, but it must still widen the tolerance
    problem = ProblemInstance(ConstantGapObjective(diff), AffineConstraint([[1.0]], [1.0]))
    z = PrimalDualPoint(np.array([1.0]), np.array([0.0]))
    for beta in (1.0, beta_grid()):
        if raises:
            with pytest.raises(StopgapError, match="negative"):
                smoothed_duality_gap(PointValues(problem, z), beta)
        else:
            assert np.all(smoothed_duality_gap(PointValues(problem, z), beta)[0] == 0.0)


@pytest.mark.parametrize("beta", [
    0.0, -2.0, math.nan, INF, np.array([0.5, 0.0]), np.array([0.5, math.nan]), np.ones((2, 1))])
def test_smoothed_gap_rejects_bad_smoothing(one_d, beta):
    with pytest.raises(ConfigError, match="^beta must be"):
        smoothed_duality_gap(PointValues(one_d, saddle_point(one_d)), beta)


class TestBetaGrid:
    def test_contents(self):
        g = beta_grid(0.123)
        assert len(g) == 41
        assert min(g) == pytest.approx(1e-8)
        assert max(g) == pytest.approx(100.0)
        assert 0.123 in g
        assert list(g) == sorted(g)

    def test_zero_feasibility_dropped(self):
        assert len(beta_grid(0.0)) == 40

    def test_infinite_feasibility_dropped(self):
        assert beta_grid(INF).tolist() == list(GRID_VALUES)

    def test_fixed_values_are_log_spaced(self):
        logs = np.log10(np.asarray(GRID_VALUES))
        assert np.allclose(np.diff(logs), logs[1] - logs[0])
        assert GRID_VALUES[5] == pytest.approx(1.91e-7, rel=5e-3)


class TestSelectBeta:
    def test_single_candidate(self):
        assert select_beta([2.0]) == 0

    def test_monotone_rhs_returns_smallest(self):
        g = beta_grid(0.0)
        assert g[select_beta(g)] == pytest.approx(1e-8)   # key = rhs = beta

    def test_ratio_mode(self):
        beta = np.array([0.1, 1.0, 10.0])
        keys = ratio_key(np.array([2.0, 1.0, 0.5]), np.array([4.0, 3.0, 10.0]))
        assert beta[select_beta(keys)] == pytest.approx(0.1)

    def test_fallback_when_all_infinite(self):
        assert select_beta([INF, INF]) == 0

    def test_fallback_zero_lhs_in_ratio_mode(self):
        assert select_beta(ratio_key(np.array([0.0]), np.array([5.0]))) == 0

    def test_one_index_per_row(self):
        keys = np.array([[3.0, 1.0, 1.0], [INF, np.nan, INF], [INF, 2.0, -INF]])
        assert select_beta(keys).tolist() == [1, 0, 1]


@pytest.mark.parametrize("family", ["bp", "iidg", "pqp"])
def test_overflowing_residual_makes_every_gap_infinite(request, family):
    # ||Ax - b||^2 overflows to +inf, and with it the floor ||r||^2 / (2 beta)
    problem = request.getfixturevalue(family)
    z = PrimalDualPoint(np.full(problem.constraint.n, 1e200), np.zeros(problem.constraint.m))
    values = PointValues(problem, z)
    grid = values.sdg
    assert values.rr == INF
    assert grid.beta.tolist() == list(GRID_VALUES)
    assert (grid.gap == INF).all()
    assert best_sdg(grid) == (0, INF)
    assert smoothed_duality_gap(values, 1.0)[0] == INF


def test_overflowing_residual_reads_inf_without_a_warning():
    # +inf is the intended value of every measure here, not a numpy fault
    problem = make_iidg(seed=5)
    z = PrimalDualPoint(np.full(problem.constraint.n, 1e200), np.zeros(problem.constraint.m))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = PointValues(problem, z)
        read = [values.fe, values.kkt, values.pdg, values.og, *values.sdg.gap.tolist()]
    assert read == [INF] * (4 + len(GRID_VALUES))


class TestBestSdg:
    @staticmethod
    def grid(*pairs):
        beta, gap = zip(*pairs)
        return SdgGrid(beta=np.array(beta), gap=np.array(gap), prox=np.zeros((len(pairs), 1)))

    def test_tie_goes_to_smaller_beta(self):
        # G = 1 dominates sqrt(2 beta G) at both betas, so both certify 1
        assert best_sdg(self.grid((0.1, 1.0), (0.2, 1.0))) == (0, 1.0)

    def test_ranks_by_certificate_not_by_gap(self):
        # the smaller gap at beta = 100 certifies only sqrt(2 * 100 * 0.01)
        grid = self.grid((1e-8, 0.5), (100.0, 0.01))
        assert best_sdg(grid) == (0, 0.5)   # surrogate of the second is sqrt(2)

    def test_all_infinite_returns_first_entry(self):
        grid = self.grid((1e-8, INF), (1.0, INF))
        assert best_sdg(grid) == (0, INF)


def test_sdg_grid_matches_pointwise():
    # the batched grid must reproduce the single-point gap and prox bit for bit
    # along a short solve of every family
    for name in FAMILIES:
        problem = build_instance(ExperimentConfig(instance=name))
        traj = solve(problem, SolveConfig(criterion="kkt", max_iters=40, record_every=5,
                                          version=DEFAULT_VERSION.get(name, 1)))
        for k, z in traj.iterates:
            fe = float(np.linalg.norm(problem.constraint.residual(z.x)))
            grid = beta_grid(fe)
            got = sdg_over_grid(PointValues(problem, z), grid)
            assert got.beta.tolist() == grid.tolist()
            assert got.prox.flags.c_contiguous
            for j, b in enumerate(grid.tolist()):
                want = smoothed_duality_gap(PointValues(problem, z), b)
                where = f"{name} iteration {k} beta {b}"
                assert np.float64(want[0]).tobytes() == got.gap[j].tobytes(), where
                assert want[1].tobytes() == got.prox[j].tobytes(), where


def test_point_values_share_products_with_the_same_bits():
    # a PointValues forms Ax - b, A^T y and f(x) once, and the measure that
    # reads them first forms them; every measure must read as it does on a
    # fresh PointValues, and FE must have the bits of np.linalg.norm(Ax - b)
    for name in FAMILIES:
        problem = build_instance(ExperimentConfig(instance=name))
        traj = solve(problem, SolveConfig(criterion="kkt", max_iters=40, record_every=10,
                                          version=DEFAULT_VERSION.get(name, 1)))
        for k, z in traj.iterates:
            pv = PointValues(problem, z)
            where = f"{name} iteration {k}"
            # the trace's order: the grid first, then OG, KKT and PDG
            grid = pv.sdg
            fe = np.linalg.norm(problem.constraint.residual(z.x))
            assert np.float64(pv.fe).tobytes() == fe.tobytes(), where
            if problem.reference is not None:
                og, _ = ogfe(PointValues(problem, z))
                assert np.float64(pv.og).tobytes() == np.float64(og).tobytes(), where
            else:
                assert pv.og is None, where
            assert np.float64(pv.kkt).tobytes() == \
                   np.float64(kkt_error(PointValues(problem, z))).tobytes(), where
            assert np.float64(pv.pdg).tobytes() == \
                   np.float64(projected_duality_gap(PointValues(problem, z))).tobytes(), where
            fresh = sdg_over_grid(PointValues(problem, z), grid.beta)
            assert grid.gap.tobytes() == fresh.gap.tobytes(), where
            assert grid.prox.tobytes() == fresh.prox.tobytes(), where
