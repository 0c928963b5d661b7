import math

import numpy as np
import pytest

from stopgap import criteria
from stopgap.criteria import PointValues, beta_grid, kkt_error
from stopgap.errors import ConfigError, DegenerateProblemError, DimensionMismatchError, StopgapError
from stopgap.harness import ExperimentConfig, build_instance, run_experiment
from stopgap.instances import FAMILIES
from stopgap.objectives import L1Norm, LeastSquaresObjective
from stopgap.pdhg import (SolveConfig, StepSizes, default_step_sizes, solve,
                          step_v1, step_v2)
from stopgap.problem import AffineConstraint, PrimalDualPoint, ProblemInstance


def zero_objective(n):
    # f = 0 realised as a least-squares with zero design
    return LeastSquaresObjective(np.zeros((1, n)), np.zeros(1))


def free_problem(n, A=None, b=None):
    A = np.eye(n) if A is None else A
    b = np.zeros(n) if b is None else b
    return ProblemInstance(objective=zero_objective(n),
                           constraint=AffineConstraint(A, b),
                           label="free")


class TestStepSizes:
    def test_one_dimensional_rule(self, one_d):
        st = default_step_sizes(one_d.constraint)
        assert st.tau == pytest.approx(0.95 / 9.0)
        assert st.sigma == pytest.approx(1.0 / 9.0)

    def test_identity_operator(self):
        st = default_step_sizes(AffineConstraint(np.eye(4), np.zeros(4)))
        assert (st.tau, st.sigma) == (pytest.approx(0.95), pytest.approx(1.0))

    def test_product_invariant(self, rng):
        A = rng.standard_normal((6, 9))
        con = AffineConstraint(A, np.zeros(6))
        st = default_step_sizes(con)
        assert st.tau * st.sigma * con.norm() ** 2 == pytest.approx(0.95)

    def test_zero_operator_rejected(self):
        with pytest.raises(DegenerateProblemError):
            default_step_sizes(AffineConstraint(np.zeros((2, 2)), np.zeros(2)))

    @pytest.mark.parametrize("steps", [None, StepSizes(0.5, 0.5)])
    def test_zero_row_constraint_is_refused(self, steps):
        # the zero row 0 x = 0 serves criterion evaluation only: ||A|| = 0
        # leaves no step size to check against
        problem = free_problem(3, A=np.zeros((1, 3)), b=np.zeros(1))
        with pytest.raises(DegenerateProblemError, match="zero matrix"):
            solve(problem, SolveConfig(max_iters=10, criterion="kkt"), steps)

    def test_unstable_steps_rejected(self, one_d):
        cfg = SolveConfig(max_iters=10, criterion="kkt")
        with pytest.raises(ConfigError):
            solve(one_d, cfg, StepSizes(1.0, 1.0))

    @pytest.mark.parametrize("field", ["tau", "sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_or_nonpositive_step_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            StepSizes(**{"tau": 0.5, "sigma": 0.5, field: value})

    def test_non_finite_operator_norm_fails_the_check(self):
        with pytest.raises(ConfigError):
            StepSizes(0.5, 0.5).check(math.nan)


class TestSteps:
    def test_saddle_is_fixed_point(self, one_d):
        zs = PrimalDualPoint(one_d.reference.x_star, one_d.reference.y_star)
        st = default_step_sizes(one_d.constraint)
        for stepper in (step_v1, step_v2):
            zn = stepper(one_d, zs, st)
            assert np.linalg.norm(zn.x - zs.x) + np.linalg.norm(zn.y - zs.y) <= 1e-10

    def test_zero_objective_linear_map_v1(self, rng):
        # f = 0, A = I, b = 0: xb = x - tau y; yb = y + sigma xb; xp = xb - tau(yb - y)
        n = 5
        problem = free_problem(n)
        st = StepSizes(0.4, 0.6)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        z = step_v1(problem, PrimalDualPoint(x, y), st)
        xb = x - st.tau * y
        yb = y + st.sigma * xb
        assert z.x == pytest.approx(xb - st.tau * (yb - y))
        assert z.y == pytest.approx(yb)

    def test_zero_objective_linear_map_v2(self, rng):
        n = 4
        problem = free_problem(n)
        st = StepSizes(0.3, 0.5)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        z = step_v2(problem, PrimalDualPoint(x, y), st)
        yb = y + st.sigma * x
        xb = x - st.tau * yb
        assert z.y == pytest.approx(yb + st.sigma * (xb - x))
        assert z.x == pytest.approx(xb)

    def test_first_iterate_hand_computed(self, one_d):
        # from (0, 0): xb = prox_tau(0), yb = sigma(9 xb - 7), xp = xb - 9 tau yb
        st = default_step_sizes(one_d.constraint)
        z = step_v1(one_d, PrimalDualPoint(np.zeros(1), np.zeros(1)), st)
        xb = (2.0 / 9.0 + 0.0) / (1.0 / 81.0 + 1.0 / st.tau)  # (QtQ + I/s)^-1 (Qtc)
        yb = st.sigma * (9.0 * xb - 7.0)
        xp = xb - st.tau * 9.0 * yb
        assert z.x[0] == pytest.approx(xp, rel=1e-12)
        assert z.y[0] == pytest.approx(yb, rel=1e-12)

    def test_v2_produces_exact_zeros_on_bp(self, bp):
        st = default_step_sizes(bp.constraint)
        z = PrimalDualPoint(np.zeros(20), np.zeros(10))
        for _ in range(200):
            z = step_v2(bp, z, st)
        assert np.count_nonzero(z.x == 0.0) > 0


class TestSolve:
    def test_table_one_dimensional_counts(self, one_d):
        cfg = SolveConfig(epsilon=1e-8, criterion="all",
                          criteria=("kkt", "sdg", "pdg"))
        traj = solve(one_d, cfg)
        assert traj.stop_reason == "converged"
        assert abs(traj.crossings["kkt"] - 12) <= 2
        assert abs(traj.crossings["sdg"] - 11) <= 2
        assert abs(traj.crossings["pdg"] - 13) <= 2

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1e-8])
    def test_bad_epsilon_rejected(self, value):
        with pytest.raises(ConfigError, match="epsilon"):
            SolveConfig(epsilon=value)

    def test_nan_epsilon_fails_before_the_run(self, tmp_path):
        # a nan epsilon would keep every gate shut and run silently to the budget
        with pytest.raises(ConfigError, match="epsilon"):
            run_experiment(ExperimentConfig(epsilon=math.nan, out_dir=str(tmp_path / "out")))
        assert not (tmp_path / "out").exists()

    def test_max_iters_zero_forbidden(self):
        with pytest.raises(ConfigError):
            SolveConfig(max_iters=0)

    @pytest.mark.parametrize("name", ["max_iters", "record_every"])
    @pytest.mark.parametrize("value", [1000.0, 2.5, True, "10", None])
    def test_counts_must_be_integers(self, name, value):
        # a float budget died later in a raw TypeError, a float stride
        # recorded the wrong iterates and True ran one iteration
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            SolveConfig(**{name: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = SolveConfig(max_iters=np.int64(5), record_every=np.int32(2))
        assert (cfg.max_iters, cfg.record_every) == (5, 2)

    def test_max_iters_one_runs_one_step(self, one_d):
        cfg = SolveConfig(epsilon=1e-20, max_iters=1, criterion="kkt")
        traj = solve(one_d, cfg)
        assert traj.iterations_used == 1
        assert traj.stop_reason == "budget_exhausted"
        assert traj.iterates[-1][0] == 1

    def test_budget_is_normal_stop(self, bp):
        cfg = SolveConfig(epsilon=1e-16, max_iters=50, criterion="kkt")
        traj = solve(bp, cfg)
        assert traj.stop_reason == "budget_exhausted"
        assert traj.crossings["kkt"] is None

    def test_deterministic_trajectories(self, iidg):
        cfg = SolveConfig(epsilon=1e-8, max_iters=300, criterion="kkt")
        t1 = solve(iidg, cfg)
        t2 = solve(iidg, cfg)
        assert len(t1.iterates) == len(t2.iterates)
        for (k1, z1), (k2, z2) in zip(t1.iterates, t2.iterates):
            assert k1 == k2
            assert (z1.x == z2.x).all() and (z1.y == z2.y).all()

    def test_fixed_point_property(self, one_d, iidg):
        # a point with essentially zero KKT error barely moves
        st1 = default_step_sizes(one_d.constraint)
        for problem, st in ((one_d, st1), (iidg, default_step_sizes(iidg.constraint))):
            zs = PrimalDualPoint(problem.reference.x_star, problem.reference.y_star)
            if kkt_error(PointValues(problem, zs)) > 1e-20:
                continue
            for stepper in (step_v1, step_v2):
                zn = stepper(problem, zs, st)
                moved = np.linalg.norm(zn.x - zs.x) + np.linalg.norm(zn.y - zs.y)
                assert moved < 1e-9

    def test_constraint_without_rows_is_refused(self):
        # the solver needs a row; an unconstrained problem is written 0 x = 0
        with pytest.raises(DimensionMismatchError, match="at least one row"):
            AffineConstraint(np.zeros((0, 2)), np.zeros(0))

    def test_arrays_of_more_than_one_axis_are_refused_by_name(self, bp):
        with pytest.raises(DimensionMismatchError, match=r"^x must be a vector, got shape \(4, 5"):
            PrimalDualPoint(np.ones((4, 5)), np.zeros(10))
        with pytest.raises(DimensionMismatchError, match=r"^y must be a vector, got shape \(2, 5"):
            PrimalDualPoint(np.ones(20), np.zeros((2, 5)))
        with pytest.raises(DimensionMismatchError, match=r"^constraint rhs b must be a vector"):
            AffineConstraint(np.ones((2, 3)), np.zeros((2, 1)))
        # a scalar is still a vector of one, and a vector passes as it is
        assert PrimalDualPoint(1.0, 2.0).y.shape == (1,)
        assert AffineConstraint([[9.0]], 7.0).rhs.shape == (1,)
        x = np.ones(20)
        assert bp.check_point(PrimalDualPoint(x, np.zeros(10))).x is x

    def test_record_every_keeps_final_iterate(self, iidg):
        cfg = SolveConfig(epsilon=1e-8, max_iters=10_000, criterion="kkt",
                          record_every=97)
        traj = solve(iidg, cfg)
        ks = [k for k, _ in traj.iterates]
        assert ks == sorted(ks)
        assert ks[-1] == traj.iterations_used
        assert traj.stop_reason == "converged"


@pytest.mark.parametrize("criterion, evaluate", [("sdg", ()), ("all", ("kkt", "sdg", "pdg"))])
def test_a_gate_that_fires_at_iterate_zero_stops_the_run_there(criterion, evaluate):
    # with b = 0, z = 0 is a saddle point of min ||x||_1 subject to Ax = b
    A = np.random.default_rng(3).standard_normal((10, 20))
    problem = ProblemInstance(objective=L1Norm(20), constraint=AffineConstraint(A, np.zeros(10)),
                              label="bp-zero-rhs")
    traj = solve(problem, SolveConfig(criterion=criterion, criteria=evaluate))
    assert traj.stop_reason == "converged"
    assert traj.iterations_used == 0
    assert [k for k, _ in traj.iterates] == [0]
    z0 = traj.iterates[0][1]
    assert not z0.x.any() and not z0.y.any()
    assert traj.crossings == {name: 0 for name in evaluate or (criterion,)}


def reference_solve(problem, config):
    """Crossings and final iterate of a loop that evaluates every criterion in
    ``config.criteria`` at every iterate, with no feasibility pre-check."""
    eps = config.epsilon
    stepper = step_v1 if config.version == 1 else step_v2
    steps = default_step_sizes(problem.constraint)
    crossings = {name: None for name in config.criteria}
    z = PrimalDualPoint(np.zeros(problem.constraint.n), np.zeros(problem.constraint.m))
    for k in range(config.max_iters + 1):
        if k:
            z = stepper(problem, z, steps)
        pv = PointValues(problem, z)
        values = {"kkt": (criteria.kkt_error(pv), eps ** 2),
                  "pdg": (criteria.projected_duality_gap(pv), eps ** 2)}
        fe = float(np.linalg.norm(problem.constraint.residual(z.x)))
        grid = criteria.sdg_over_grid(pv, beta_grid(fe))
        values["sdg"] = (criteria.best_sdg(grid)[1], eps)
        if problem.reference is not None:
            og, fe_value = criteria.ogfe(pv)
            values["ogfe"] = (max(og, fe_value), eps)
        for name in crossings:
            value, threshold = values[name]
            if crossings[name] is None and value <= threshold:
                crossings[name] = k
        if all(c is not None for c in crossings.values()):
            break
    return crossings, k, z


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_crossings_match_a_loop_that_evaluates_everything(name):
    problem = build_instance(ExperimentConfig(instance=name))
    evaluate = ("kkt", "pdg", "sdg") + (("ogfe",) if problem.reference is not None else ())
    cfg = SolveConfig(epsilon=1e-4, max_iters=1500, criterion="all", criteria=evaluate,
                      version=FAMILIES[name].version)
    crossings, last, z_ref = reference_solve(problem, cfg)
    traj = solve(problem, cfg)
    assert traj.crossings == crossings
    assert traj.iterations_used == last
    z = traj.iterates[-1][1]
    assert z.x.tobytes() == z_ref.x.tobytes()
    assert z.y.tobytes() == z_ref.y.tobytes()


@pytest.mark.parametrize("name, epsilon", [("1d", 1e-8), ("iidg", 1e-8), ("ntc", 1e-5),
                                           ("do", 1e-4), ("bp", 1e-8), ("pqp", 1e-6)])
def test_sdg_stop_is_an_epsilon_solution(name, epsilon):
    # the SDG gate certifies max(G, sqrt(2 beta G)) <= eps, which bounds OG and
    # FE by eps; on do FE lands 0.1 % under eps and on pqp 0.25 %, so no slack
    # is allowed
    problem = build_instance(ExperimentConfig(instance=name))
    traj = solve(problem, SolveConfig(epsilon=epsilon, criterion="sdg",
                                      version=FAMILIES[name].version))
    assert traj.stop_reason == "converged"
    z = traj.iterates[-1][1]
    assert float(np.linalg.norm(problem.constraint.residual(z.x))) <= epsilon
    # OG needs a reference solution, which bp and pqp do not have
    if problem.reference is not None:
        assert criteria.ogfe(PointValues(problem, z))[0] <= epsilon


def test_kkt_is_evaluated_only_where_the_feasibility_error_allows(bp, monkeypatch):
    # basis pursuit: the KKT gate never fires, and the feasibility error stays
    # above epsilon at most iterates
    calls = []
    kkt = criteria.kkt_error
    monkeypatch.setattr(criteria, "kkt_error", lambda *a, **kw: calls.append(1) or kkt(*a, **kw))
    eps = 1e-4
    traj = solve(bp, SolveConfig(epsilon=eps, max_iters=3000, criterion="sdg",
                                 criteria=("kkt", "sdg", "pdg")))
    assert traj.crossings["kkt"] is None
    assert len(traj.iterates) == traj.iterations_used + 1
    fe2 = [float(r @ r) for r in (bp.constraint.residual(z.x) for _, z in traj.iterates)]
    feasible = sum(v <= eps ** 2 for v in fe2)
    assert 0 < feasible < len(fe2) // 2
    assert len(calls) == feasible


def test_each_gate_iterate_forms_its_residual_once(iidg, monkeypatch):
    # past the feasibility floor the four gates share the iterate's Ax - b
    # instead of forming it up to four times
    calls = []
    residual = AffineConstraint.residual
    monkeypatch.setattr(AffineConstraint, "residual",
                        lambda self, x: calls.append(1) or residual(self, x))
    traj = solve(iidg, SolveConfig(epsilon=1e-8, criterion="all",
                                   criteria=("ogfe", "kkt", "pdg", "sdg")))
    assert traj.stop_reason == "converged"
    assert len(calls) == traj.iterations_used + 1


def test_broken_conjugate_projection_is_still_caught_by_the_harness(bp, monkeypatch, tmp_path):
    # solve skips PDG while the feasibility error is above epsilon, and with
    # it the projection's contract check; the trace rows evaluate PDG at every
    # recorded iterate, so run_experiment still raises at its first row
    monkeypatch.setattr(L1Norm, "project_conj_domain", lambda self, mu: np.full_like(mu, 2.0))
    traj = solve(bp, SolveConfig(epsilon=1e-4, max_iters=20, criterion="sdg",
                                 criteria=("pdg", "sdg")))
    assert traj.crossings["pdg"] is None
    with pytest.raises(StopgapError, match="projection contract violated"):
        run_experiment(ExperimentConfig(instance="bp", max_iters=20, out_dir=str(tmp_path / "out")))
