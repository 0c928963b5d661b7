import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stopgap.errors import ConfigError, DegenerateProblemError, DimensionMismatchError
from stopgap.linalg import operator_norm
from stopgap.objectives import L1Norm, LeastSquaresObjective, NonnegativeQuadratic

from prox_oracles import prox_oracle_1d, prox_oracle_pg

INF = float("inf")


def ls_1d():
    return LeastSquaresObjective(np.array([[1.0 / 9.0]]), np.array([2.0]))


class TestLeastSquaresEval:
    def test_one_dimensional_values(self):
        f = ls_1d()
        assert f(np.array([0.0])) == pytest.approx(2.0)
        # value at the constrained minimiser x* = 7/9
        x = np.array([7.0 / 9.0])
        assert f(x) == pytest.approx(0.5 * (7.0 / 81.0 - 2.0) ** 2)
        assert f(x) == pytest.approx(1.8309, abs=1e-4)

    def test_zero_design_gives_half_target_norm(self, rng):
        c = rng.standard_normal(4)
        f = LeastSquaresObjective(np.zeros((4, 3)), c)
        assert f(rng.standard_normal(3)) == pytest.approx(0.5 * c @ c)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ls_1d()(np.zeros(2))

    def test_stationarity_residual_refuses_a_broadcast_subgradient(self):
        # a (1,) g used to broadcast against the (3,) gradient
        f = LeastSquaresObjective(np.ones((2, 3)), np.ones(2))
        with pytest.raises(DimensionMismatchError, match="^g: expected shape"):
            f.stationarity_residual(np.zeros(3), np.zeros(1))


class TestLeastSquaresProx:
    def test_prox_of_zero_function_is_identity(self, rng):
        f = LeastSquaresObjective(np.zeros((2, 3)), np.zeros(2))
        v = rng.standard_normal(3)
        assert f.prox(0.7, v) == pytest.approx(v)

    def test_scalar_example(self):
        # (1/81 + 1)^{-1} (2/9 + 0)
        p = ls_1d().prox(1.0, np.array([0.0]))
        assert p[0] == pytest.approx((2.0 / 9.0) / (1.0 / 81.0 + 1.0))
        assert p[0] == pytest.approx(0.21951, abs=1e-5)

    def test_solve_residual_is_tiny(self, rng):
        Q = rng.standard_normal((5, 8))
        f = LeastSquaresObjective(Q, rng.standard_normal(5))
        s, v = 3.7, rng.standard_normal(8)
        p = f.prox(s, v)
        lhs = f.data.gram @ p + p / s
        rhs = f.data.qtc + v / s
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1 + np.linalg.norm(rhs))

    def test_matches_projected_gradient_oracle(self, rng):
        Q = rng.standard_normal((4, 6))
        f = LeastSquaresObjective(Q, rng.standard_normal(4))
        for s in (0.1, 1.0, 10.0):
            v = rng.standard_normal(6)
            ref = prox_oracle_pg(lambda u: f.data.gram @ u - f.data.qtc, lambda u: u, s, v,
                                 lipschitz=f.smooth_lipschitz)
            assert f.prox(s, v) == pytest.approx(ref, abs=1e-8)

    def test_prox_optimality_inequality(self, rng):
        # prox point beats every competitor with the strong-convexity margin
        Q = rng.standard_normal((4, 6))
        f = LeastSquaresObjective(Q, rng.standard_normal(4))
        s, v = 0.8, rng.standard_normal(6)
        p = f.prox(s, v)
        base = f(p) + (p - v) @ (p - v) / (2 * s)
        for _ in range(100):
            u = rng.standard_normal(6) * 3
            margin = (p - u) @ (p - u) / (2 * s)
            assert base <= f(u) + (u - v) @ (u - v) / (2 * s) - margin + 1e-9


class TestLeastSquaresConjugate:
    def test_zero_is_always_in_range(self, rng):
        Q = rng.standard_normal((3, 5))
        c = Q @ rng.standard_normal(5)  # c in Ran(Q)
        f = LeastSquaresObjective(Q, c)
        assert f.conj(np.zeros(5)) == pytest.approx(0.0, abs=1e-12)

    def test_kernel_direction_is_infinite(self, rng):
        Q = rng.standard_normal((2, 5))  # rank deficient: ker(Q) nontrivial
        f = LeastSquaresObjective(Q, rng.standard_normal(2))
        _, _, Vt = np.linalg.svd(Q)
        mu = Vt[-1]  # in ker(Q), orthogonal to Ran(Q^T)
        assert f.conj(mu) == INF

    def test_fenchel_young_equality_at_gradient(self, rng):
        Q = rng.standard_normal((4, 6))
        f = LeastSquaresObjective(Q, rng.standard_normal(4))
        for _ in range(20):
            x = rng.standard_normal(6)
            g = f.data.gram @ x - f.data.qtc  # g in subdifferential at x
            assert f(x) + f.conj(g) == pytest.approx(float(g @ x), abs=1e-8)


class TestRangeProjection:
    def test_fixed_point_on_range(self, rng):
        Q = rng.standard_normal((3, 7))
        f = LeastSquaresObjective(Q, rng.standard_normal(3))
        mu = Q.T @ rng.standard_normal(3)
        assert f.project_conj_domain(mu) == pytest.approx(mu, abs=1e-10)

    def test_full_rank_square_is_identity(self, rng):
        Q = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        f = LeastSquaresObjective(Q, rng.standard_normal(4))
        mu = rng.standard_normal(4)
        assert f.project_conj_domain(mu) == pytest.approx(mu, abs=1e-10)

    def test_orthogonality_and_idempotence(self, rng):
        Q = rng.standard_normal((3, 7))
        f = LeastSquaresObjective(Q, rng.standard_normal(3))
        for _ in range(20):
            mu = rng.standard_normal(7)
            pm = f.project_conj_domain(mu)
            assert abs((mu - pm) @ pm) <= 1e-10 * max(1.0, mu @ mu)
            assert f.project_conj_domain(pm) == pytest.approx(pm, abs=1e-12)

    def test_projection_inequality(self, rng):
        Q = rng.standard_normal((3, 7))
        f = LeastSquaresObjective(Q, rng.standard_normal(3))
        mu = rng.standard_normal(7)
        pm = f.project_conj_domain(mu)
        for _ in range(100):
            u = Q.T @ rng.standard_normal(3)  # in the domain
            assert (u - pm) @ (pm - mu) >= -1e-10 * max(1.0, np.linalg.norm(u))


class TestL1:
    def test_prox_examples(self):
        f = L1Norm(1)
        assert f.prox(1.0, np.array([2.5]))[0] == pytest.approx(1.5)
        assert f.prox(1.0, np.array([-0.5]))[0] == 0.0

    def test_prox_matches_grid_oracle(self, rng):
        f = L1Norm(1)
        for _ in range(10):
            s = float(np.exp(rng.uniform(-2, 2)))
            v = float(rng.standard_normal() * 3)
            ref, res = prox_oracle_1d(abs, s, v)
            assert abs(f.prox(s, np.array([v]))[0] - ref) <= max(10 * res, 1e-9)

    def test_ball_projection(self, rng):
        f = L1Norm(2)
        assert f.project_conj_domain(np.array([0.3, -0.7])) == pytest.approx([0.3, -0.7])
        assert f.project_conj_domain(np.array([2.0, -3.0])) == pytest.approx([1.0, -1.0])
        mu = rng.standard_normal(2) * 4
        pm = f.project_conj_domain(mu)
        assert f.project_conj_domain(pm) == pytest.approx(pm)

    def test_stationarity_examples(self):
        f = L1Norm(1)
        assert f.stationarity_residual(np.array([0.0]), np.array([0.0])) == 0.0
        assert f.stationarity_residual(np.array([1.0]), np.array([-1.0])) == 0.0

    def test_stationarity_matches_box_sampling(self, rng):
        f = L1Norm(6)
        us = np.linspace(-1.0, 1.0, 4001)
        for _ in range(10):
            x = rng.standard_normal(6) * np.array([1, 0, 1, 0, 1, 0])
            g = rng.standard_normal(6) * 2
            brute = 0.0
            for i in range(6):
                if x[i] != 0.0:
                    brute += (np.sign(x[i]) + g[i]) ** 2
                else:
                    brute += ((us + g[i]) ** 2).min()
            got = f.stationarity_residual(x, g)
            assert got == pytest.approx(brute, abs=1e-6)

    def test_moreau_identity(self, rng):
        f = L1Norm(5)
        for s in (0.05, 1.0, 20.0):
            v = rng.standard_normal(5) * 3
            lhs = f.prox(s, v) + s * f.prox_conj(1.0 / s, v / s)
            assert lhs == pytest.approx(v, abs=1e-9)


def direct_l1_value_diff(x, p):
    """f(x) - f(p) for f = ||.||_1 as one exactly rounded sum of the +|x_i|
    and -|p_i| terms."""
    return math.fsum(np.abs(x).tolist() + (-np.abs(p)).tolist())


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40), k=st.sampled_from((0, 1, 41)),
       spread=st.integers(0, 300), zero_x=st.booleans(), zero_p=st.booleans(),
       permuted=st.booleans(), zero_cols=st.booleans())
def test_l1_value_diff_is_the_direct_exactly_rounded_sum(seed, n, k, spread, zero_x, zero_p,
                                                         permuted, zero_cols):
    # the split of sum|x_i| into exact partials must give the direct sum's
    # bits: exponents up to 1e+-300, about half the entries +0.0 or -0.0,
    # rows that are signed permutations of x, so whole sums cancel exactly,
    # and whole columns of +0.0 and -0.0, which value_diff leaves out
    rng = np.random.default_rng(seed)

    def entries(shape):
        v = rng.uniform(-10.0, 10.0, shape) * 10.0 ** rng.integers(-spread, spread + 1, shape)
        signed_zero = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
        return np.where(rng.random(shape) < 0.5, signed_zero, v)

    x = entries(n) * 0.0 if zero_x else entries(n)
    if zero_p:
        P = entries((k, n)) * 0.0
    elif permuted:
        P = np.array([rng.permutation(x) * rng.choice([-1.0, 1.0], n) for _ in range(k)])
        P = P.reshape(k, n)
        P[::2, 0] = entries(len(P[::2]))  # every other row differs in one entry
    else:
        P = entries((k, n))
    if zero_cols:
        cols = rng.random(n) < 0.5
        P[:, cols] = np.where(rng.random((k, int(cols.sum()))) < 0.5, -0.0, 0.0)
    f = L1Norm(n)
    want = np.array([direct_l1_value_diff(x, p) for p in P])
    got = f.value_diff(x, P)
    assert got.shape == (k,)
    assert got.tobytes() == want.tobytes()
    p = P[-1] if k else entries(n)
    got_one = f.value_diff(x, p)
    assert isinstance(got_one, float)
    assert np.float64(got_one).tobytes() == np.float64(direct_l1_value_diff(x, p)).tobytes()


class TestNonnegativeQuadratic:
    def make(self, rng):
        return NonnegativeQuadratic(rng.standard_normal((4, 5)), rng.standard_normal(4))

    def test_eval_infinite_outside_domain(self, rng):
        F = self.make(rng)
        X = np.concatenate([rng.standard_normal(5), np.array([1.0, 2, 3, 4, -0.1])])
        assert F(X) == INF

    def test_prox_blocks(self, rng):
        F = self.make(rng)
        V = np.concatenate([rng.standard_normal(5), np.array([-1.0, 2, -3, 0, 5])])
        p = F.prox(0.5, V)
        assert p[5:] == pytest.approx([0.0, 2, 0, 0, 5])
        ls = LeastSquaresObjective(F.data.design, F.data.target)
        assert p[:5] == pytest.approx(ls.prox(0.5, V[:5]))

    def test_conj_projection_second_block(self, rng):
        F = self.make(rng)
        mu = np.concatenate([np.zeros(5), np.array([0.5, -2.0, 0, 1, -1])])
        pm = F.project_conj_domain(mu)
        assert pm[5:] == pytest.approx([0.0, -2.0, 0, 0, -1])

    def test_stationarity_cases(self, rng):
        F = self.make(rng)
        x = rng.standard_normal(5)
        smooth = F.data.gram @ x - F.data.qtc
        # xt = 0 with negative dual residual contributes its square
        X = np.concatenate([x, np.zeros(5)])
        J = np.concatenate([-smooth, np.array([-2.0, 3.0, 0, 0, 0])])
        assert F.stationarity_residual(X, J) == pytest.approx(4.0)
        # any negative slack coordinate switches the whole residual to +inf
        X_bad = np.concatenate([x, np.array([-0.1, 0, 0, 0, 0])])
        assert F.stationarity_residual(X_bad, J) == INF
        # strictly positive slack uses the plain square
        X_pos = np.concatenate([x, np.ones(5)])
        J2 = np.concatenate([-smooth, np.array([0.5, 0, 0, 0, 0])])
        assert F.stationarity_residual(X_pos, J2) == pytest.approx(0.25)

    def test_separable_composition(self, rng):
        # the pair oracle must equal the blockwise results everywhere
        F = self.make(rng)
        ls = LeastSquaresObjective(F.data.design, F.data.target)
        V = rng.standard_normal(10)
        s = 0.9
        assert F.prox(s, V) == pytest.approx(
            np.concatenate([ls.prox(s, V[:5]), np.maximum(V[5:], 0.0)]))
        mu = np.concatenate([F.data.design.T @ rng.standard_normal(4),
                             -np.abs(rng.standard_normal(5))])
        assert F.conj(mu) == pytest.approx(ls.conj(mu[:5]))
        assert F.project_conj_domain(V) == pytest.approx(
            np.concatenate([ls.project_conj_domain(V[:5]), np.minimum(V[5:], 0.0)]))

    def test_moreau_identity(self, rng):
        F = self.make(rng)
        for s in (0.2, 1.0, 5.0):
            v = rng.standard_normal(10) * 2
            lhs = F.prox(s, v) + s * F.prox_conj(1.0 / s, v / s)
            assert lhs == pytest.approx(v, abs=1e-9)

    def test_least_squares_block_has_the_bits_of_the_ls_objective(self, rng):
        # both read the one LeastSquaresData formulas on the same (Q, c)
        F = self.make(rng)
        ls = LeastSquaresObjective(F.data.design, F.data.target)
        x, g = rng.standard_normal(5), rng.standard_normal(5)
        X = np.concatenate([x, np.abs(rng.standard_normal(5))])
        assert np.float64(F(X)).tobytes() == np.float64(ls(x)).tobytes()
        J = np.concatenate([g, np.zeros(5)])
        assert (np.float64(F.stationarity_residual(X, J)).tobytes()
                == np.float64(ls.stationarity_residual(x, g)).tobytes())
        mu = np.concatenate([F.data.design.T @ rng.standard_normal(4),
                             -np.abs(rng.standard_normal(5))])
        assert np.float64(F.conj(mu)).tobytes() == np.float64(ls.conj(mu[:5])).tobytes()
        kernel = np.linalg.svd(F.data.design)[2][-1]  # Q is 4 x 5: ker(Q) is a line
        assert F.conj(np.concatenate([kernel, np.zeros(5)])) == ls.conj(kernel) == INF
        V = rng.standard_normal((3, 10))
        for s, v in [(0.7, V[0]), (np.array([0.2, 1.0, 5.0]), V)]:
            P = F.prox(s, v)
            assert P[..., :5].tobytes() == ls.prox(s, v[..., :5]).tobytes()
            assert (np.asarray(F.value_diff(X, P)).tobytes()
                    == np.asarray(ls.value_diff(x, P[..., :5])).tobytes())


@pytest.mark.parametrize("objective", [ls_1d(), L1Norm(1),
                                       NonnegativeQuadratic(np.eye(1), np.ones(1))])
@pytest.mark.parametrize("s", [0.5, np.ones(3)])
def test_prox_rows_need_one_step_each(objective, s):
    with pytest.raises(DimensionMismatchError, match="prox steps"):
        objective.prox(s, np.ones((2, objective.dim)))


@pytest.mark.parametrize("objective", [ls_1d(), NonnegativeQuadratic(np.eye(1), np.ones(1))])
@pytest.mark.parametrize("s, rows", [(0.0, None), (-1.0, None), (np.array([1.0, -2.0]), 2)])
def test_nonpositive_prox_step_is_a_config_error(objective, s, rows):
    v = np.ones(objective.dim) if rows is None else np.ones((rows, objective.dim))
    with pytest.raises(ConfigError, match="prox step s must be positive") as err:
        objective.prox(s, v)
    assert isinstance(err.value, ValueError)


class TestLSMoreau:
    def test_moreau_identity(self, rng):
        Q = rng.standard_normal((3, 6))
        f = LeastSquaresObjective(Q, rng.standard_normal(3))
        for s in (0.1, 1.0, 10.0):
            v = rng.standard_normal(6) * 2
            lhs = f.prox(s, v) + s * f.prox_conj(1.0 / s, v / s)
            assert lhs == pytest.approx(v, abs=1e-9)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)

    def test_matches_svd(self, rng):
        A = rng.standard_normal((10, 20))
        assert operator_norm(A) == pytest.approx(np.linalg.svd(A, compute_uv=False)[0],
                                                 abs=1e-7)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateProblemError):
            operator_norm(np.zeros((3, 3)))
