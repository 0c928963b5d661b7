import os
import re

import numpy as np
import pytest

from stopgap.errors import ConfigError, DegenerateProblemError
from stopgap.harness import ExperimentConfig, build_instance
from stopgap.instances import (FAMILIES, family, make_do, make_iidg, make_ntc, read_libsvm,
                               toeplitz_covariance)
from stopgap.objectives import LeastSquaresObjective
from stopgap.problem import AffineConstraint

from prox_oracles import prox_oracle_pg


class TestOneDimensional:
    def test_data_and_reference(self, one_d):
        assert one_d.objective.design[0, 0] == pytest.approx(1.0 / 9.0)
        assert one_d.constraint.matrix[0, 0] == 9.0
        assert one_d.reference.x_star[0] == pytest.approx(7.0 / 9.0)
        assert np.linalg.norm(one_d.constraint.residual(one_d.reference.x_star)) == 0.0
        assert one_d.reference.f_star == pytest.approx(0.5 * (7.0 / 81.0 - 2.0) ** 2)


class TestIidg:
    def test_shapes_and_seeding(self):
        p1 = make_iidg(20, 10, seed=5)
        p2 = make_iidg(20, 10, seed=5)
        assert p1.objective.design.shape == (10, 20)
        assert (p1.objective.design == p2.objective.design).all()
        assert (p1.constraint.matrix == p2.constraint.matrix).all()
        p3 = make_iidg(20, 10, seed=6)
        assert not (p1.constraint.matrix == p3.constraint.matrix).all()

    def test_reference_satisfies_constraints(self):
        p = make_iidg(20, 10, seed=5)
        assert p.reference is not None
        res = np.linalg.norm(p.constraint.residual(p.reference.x_star))
        assert res <= 1e-8 * (1 + np.linalg.norm(p.constraint.rhs))
        # f(x*) is the recorded optimal value
        assert p.objective(p.reference.x_star) == pytest.approx(p.reference.f_star)

    def test_reference_is_locally_optimal(self, rng):
        p = make_iidg(12, 6, seed=1)
        xs = p.reference.x_star
        ker = np.linalg.svd(p.constraint.matrix)[2][6:]
        for _ in range(30):
            d = ker.T @ rng.standard_normal(6) * 1e-3
            assert p.objective(xs + d) >= p.reference.f_star - 1e-12


class TestNtc:
    def test_design_and_constraint_share_one_covariance(self):
        # Q = Sigma X_q and A = Sigma X_a, with X_q and X_a the seed's first
        # and third Gaussian draws and Sigma_ij = 0.5^|i - j|
        p = make_ntc(20, 10, seed=9)
        rng = np.random.default_rng(9)
        X_q = rng.standard_normal((10, 20))
        rng.standard_normal(10)
        X_a = rng.standard_normal((10, 20))
        S = 0.5 ** np.abs(np.subtract.outer(np.arange(10), np.arange(10)))
        assert np.array_equal(p.objective.design, S @ X_q)
        assert np.array_equal(p.constraint.matrix, S @ X_a)

    def test_default_covariance_positive_definite(self):
        S = toeplitz_covariance(0.5 ** np.arange(10))
        w = np.linalg.eigvalsh(S)
        assert w.min() > 0
        assert S == pytest.approx(S.T)

    def test_covariance_matches_scipy_toeplitz(self, rng):
        from scipy.linalg import toeplitz
        for first_row in (0.5 ** np.arange(10), rng.standard_normal(7), np.array([2.0]),
                          np.array([1.0, -0.25, 0.0, 3.5])):
            assert np.array_equal(toeplitz_covariance(first_row), toeplitz(first_row))

    def test_bad_covariance_spec_rejected(self):
        with pytest.raises(ConfigError):
            toeplitz_covariance(np.eye(3))  # not a first row

    def test_seed_reproducibility(self):
        a = make_ntc(20, 10, seed=3).constraint.matrix
        b = make_ntc(20, 10, seed=3).constraint.matrix
        assert (a == b).all()


class TestLibsvm:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "toy.libsvm"
        path.write_text("1.5 1:2.0 3:4.0\n-0.5 2:1.0\n2.25 1:1 2:2 3:3\n")
        X, y = read_libsvm(path)
        assert X.shape == (3, 3)
        assert y == pytest.approx([1.5, -0.5, 2.25])
        assert X[0] == pytest.approx([2.0, 0.0, 4.0])
        assert X[1] == pytest.approx([0.0, 1.0, 0.0])

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_text("1.0 1:2.0\n2.0 oops\n")
        with pytest.raises(ConfigError, match="2"):
            read_libsvm(path)

    def test_non_finite_value_reports_line(self, tmp_path):
        # without the check, make_do fails inside LAPACK on the nan
        path = tmp_path / "nan.libsvm"
        path.write_text("1.0 1:2.0\n2.0 1:nan 2:1.0\ninf 2:3.0\n")
        with pytest.raises(ConfigError, match=":2: non-finite"):
            read_libsvm(path)
        path.write_text("1.0 1:2.0\ninf 2:3.0\n")
        with pytest.raises(ConfigError, match=":2: non-finite"):
            read_libsvm(path)


class TestDistributed:
    def test_synthetic_shapes_and_reference(self):
        p = make_do(n=6, m=15, seed=2)
        assert p.objective.design.shape == (45, 18)
        assert p.constraint.matrix.shape == (12, 18)
        # consensus blocks: A X = (x1 - x2, x2 - x3)
        X = np.arange(18.0)
        r = p.constraint.matrix @ X
        assert r[:6] == pytest.approx(X[:6] - X[6:12])
        assert r[6:] == pytest.approx(X[6:12] - X[12:])
        xs = p.reference.x_star
        assert np.linalg.norm(p.constraint.residual(xs)) <= 1e-9
        # aggregated normal equations hold at the reference
        Qs = [p.objective.design[i * 15:(i + 1) * 15, i * 6:(i + 1) * 6]
              for i in range(3)]
        cs = [p.objective.target[i * 15:(i + 1) * 15] for i in range(3)]
        gram = sum(Q.T @ Q for Q in Qs)
        rhs = sum(Q.T @ c for Q, c in zip(Qs, cs))
        assert np.linalg.norm(gram @ xs[:6] - rhs) <= 1e-9 * (1 + np.linalg.norm(rhs))

    def test_libsvm_split_with_row_drop(self, tmp_path):
        lines = [f"{i}.0 1:{i} 2:{2 * i}" for i in range(7)]  # 7 rows, M=3 -> drop 1
        path = tmp_path / "data.libsvm"
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="trailing"):
            p = make_do(data_path=str(path))
        assert p.objective.design.shape == (6, 6)  # 3 blocks of 2x2
        # A is (M - 1) n x M n, so with M = 3 the blocks are 2 x 2
        assert p.constraint.matrix.shape == (4, 6)

    def test_libsvm_with_fewer_rows_than_blocks_is_refused(self, tmp_path):
        # it used to build empty blocks, solve, and fail only at the tables
        path = tmp_path / "one.libsvm"
        path.write_text("1.0 1:2 2:3\n2.0 1:1\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: too few data rows "
                                              r"\(2\) for 3 blocks$"):
            make_do(data_path=str(path))

    def test_a_data_path_that_is_not_a_path_is_refused(self):
        # open() takes an integer as a file descriptor: make_do(data_path=0)
        # used to read standard input and then close it
        stdin = os.fstat(0)
        with pytest.raises(ConfigError, match="^data_path must be a str or os.PathLike, got 0$"):
            make_do(data_path=0)
        assert os.fstat(0) == stdin


class TestQpSplitting:
    def test_prox_second_block(self, pqp):
        V = np.concatenate([np.zeros(20), np.zeros(20)])
        V[20:22] = [-1.0, 2.0]
        p = pqp.objective.prox(1.0, V)
        assert p[20] == 0.0 and p[21] == pytest.approx(2.0)

    def test_conjugate_projection_second_block(self, pqp):
        mu = np.zeros(40)
        mu[20:22] = [0.5, -2.0]
        pm = pqp.objective.project_conj_domain(mu)
        assert pm[20] == 0.0 and pm[21] == pytest.approx(-2.0)

    def test_constraint_assembly(self, pqp, rng):
        At = pqp.constraint.matrix
        A, b = At[:10, :20], pqp.constraint.rhs[:10]
        assert At.shape == (10 + 20, 40)
        X = rng.standard_normal(40)
        r = At @ X
        assert r[:10] == pytest.approx(A @ X[:20])
        assert r[10:] == pytest.approx(X[:20] - X[20:])
        assert pqp.constraint.rhs == pytest.approx(np.concatenate([b, np.zeros(20)]))

    def test_nonneg_prox_matches_projected_gradient_oracle(self, pqp, rng):
        # the slack block's prox is the nonnegative projection
        v = rng.standard_normal(5)
        ref = prox_oracle_pg(lambda u: np.zeros_like(u),
                             lambda u: np.maximum(u, 0.0), 1.0, v, lipschitz=0.0)
        assert np.maximum(v, 0.0) == pytest.approx(ref, abs=1e-9)
        assert prox_oracle_pg(lambda u: np.zeros_like(u),
                              lambda u: np.maximum(u, 0.0), 1.0,
                              np.array([-3.0]), lipschitz=0.0)[0] == 0.0


class TestBasisPursuit:
    def test_basics(self, bp):
        assert bp.objective(np.zeros(20)) == 0.0
        fe0 = np.linalg.norm(bp.constraint.residual(np.zeros(20)))
        assert fe0 == pytest.approx(np.linalg.norm(bp.constraint.rhs))
        assert bp.objective.conj_lipschitz == 0.0
        assert bp.constraint.matrix.shape == (10, 20)
        assert bp.reference is None


@pytest.mark.parametrize("config", [
    {"instance": "1d"}, {"instance": "iidg"}, {"instance": "ntc"}, {"instance": "do"},
    {"instance": "iidg", "n": 400, "m": 200}], ids=["1d", "iidg", "ntc", "do", "iidg-400"])
def test_every_built_in_reference_is_a_saddle_point(config):
    # A x* = b and grad f(x*) + A^T y* = 0, up to round-off
    p = build_instance(ExperimentConfig(**config))
    xs, ys = p.reference.x_star, p.reference.y_star
    A, b = p.constraint.matrix, p.constraint.rhs
    Q, c = p.objective.design, p.objective.target
    assert np.linalg.norm(A @ xs - b) <= 1e-10 * (1.0 + np.linalg.norm(b))
    assert np.linalg.norm(Q.T @ (Q @ xs - c) + A.T @ ys) <= \
        1e-10 * (1.0 + np.linalg.norm(Q.T @ c))


def test_factory_dispatch():
    assert family("1d").factory().label == "1d"
    with pytest.raises(ConfigError):
        family("nope")


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_a_factory_without_arguments_builds_the_run_instance(name):
    # the factory's signature is the one owner of the paper seed and sizes
    mine = FAMILIES[name].factory()
    run = build_instance(ExperimentConfig(instance=name))
    assert mine.label == run.label
    assert np.array_equal(mine.constraint.matrix, run.constraint.matrix)
    assert np.array_equal(mine.constraint.rhs, run.constraint.rhs)


@pytest.mark.parametrize("name", ["iidg", "ntc", "do", "pqp", "bp"])
def test_every_sized_factory_refuses_a_negative_dimension(name):
    for size in ({"n": -1}, {"m": -1}):
        with pytest.raises(ConfigError, match="^[nm] must be at least 1, got -1$"):
            FAMILIES[name].factory(**size)


@pytest.mark.parametrize("name", ["iidg", "ntc", "do", "pqp", "bp"])
@pytest.mark.parametrize("setting", [{"n": 2.5}, {"n": True}, {"m": 3.0}, {"seed": -1},
                                     {"seed": 2.5}])
def test_every_sized_factory_refuses_a_size_or_seed_that_is_not_a_count(name, setting):
    # a float size used to die in a bare TypeError, a negative seed in numpy's ValueError
    (field,) = setting
    with pytest.raises(ConfigError, match=f"^{field} must be (an integer|at least [01]), got"):
        FAMILIES[name].factory(**setting)


class TestNonFiniteInput:
    """Bad data fails where it is constructed, naming the array."""

    def test_infinite_constraint_matrix(self):
        A = np.eye(3)
        A[1, 2] = np.inf
        with pytest.raises(DegenerateProblemError, match="constraint matrix A"):
            AffineConstraint(A, np.zeros(3))

    def test_nan_constraint_rhs(self):
        with pytest.raises(DegenerateProblemError, match="constraint rhs b"):
            AffineConstraint(np.eye(2), np.array([1.0, np.nan]))

    def test_nan_design(self):
        Q = np.ones((2, 3))
        Q[0, 0] = np.nan
        with pytest.raises(DegenerateProblemError, match="design Q"):
            LeastSquaresObjective(Q, np.zeros(2))
