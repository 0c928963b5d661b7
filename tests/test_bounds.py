import csv
import math
from collections import namedtuple

import numpy as np
import pytest

from stopgap import bounds, regularity
from stopgap.bounds import (THEOREMS, bound_C1, bound_P4, bound_T1, bound_T2, bound_T3,
                            bound_T4, bound_T5, bound_T6, bound_T7, evaluate_bounds, ratio,
                            ratio_stats)
from stopgap.criteria import GRID_VALUES, PointValues, SdgGrid
from stopgap.errors import ConfigError
from stopgap.harness import ExperimentConfig, build_instance, run_experiment
from stopgap.instances import FAMILIES
from stopgap.objectives import L1Norm, LeastSquaresObjective
from stopgap.pdhg import SolveConfig, solve
from stopgap.problem import AffineConstraint, PrimalDualPoint, ProblemInstance, ReferenceSolution
from stopgap.regularity import lipschitz_constants

from t2_search import printed_t2

INF = float("inf")


# one theorem's entry of the columns ``evaluate_bounds`` returns; T1 has no beta
Report = namedtuple("Report", "lhs rhs beta_used")


def holds(tid, lhs, rhs):
    assert tid in THEOREMS
    return bool(bounds.holds(lhs, float(rhs)))


def reports_of(values, consts):
    """``evaluate_bounds`` at ``values`` as a Report per theorem that applies."""
    lhs, rhs, beta = evaluate_bounds(values, consts)
    return {tid: Report(a, b, None if math.isnan(c) else c)
            for tid, a, b, c in zip(THEOREMS, lhs.tolist(), rhs.tolist(), beta.tolist())
            if not math.isnan(a)}


def stats_of(reports):
    """``ratio_stats`` of a list of one theorem's reports."""
    return ratio_stats([r.lhs for r in reports], [r.rhs for r in reports])


class TestFormulas:
    def test_saddle_zeros_hold(self):
        assert holds("T1_OG_KKT", 0.0, bound_T1(0.0, 0.0, 1e-8))
        assert holds("T2_OG_SDG", 0.0, bound_T2(0.0, 0.0, 1.0, 1e-8))
        assert holds("T3_OG_PDG", 0.0, bound_T3(0.0, 0.0, 0.0, 1.0, 1e-8))
        assert holds("T4_SDG_KKT", 0.0, bound_T4(0.0, 1.0))
        assert holds("T5_KKT_SDG", 0.0, bound_T5(0.0, 1.0, 1.0))
        assert holds("T6_SDG_PDG", 0.0, bound_T6(0.0, 0.0, 0.0, 1.0))
        assert holds("T7_PDG_SDG_manifold", 0.0, bound_T7(0.0, 0.0, 0.0, 1.0, 1.0, 0.0))
        assert holds("P4_PDG_SDG_lipschitz", 0.0, bound_P4(0.0, 0.0, 0.0, 1.0, 0.0))
        assert holds("C1_FE_SDG", 0.0, bound_C1(0.0, 1.0))

    def test_t1_small_gamma_inflates_rhs(self):
        small = bound_T1(1.0, 0.0, 1.0)
        huge = bound_T1(1.0, 0.0, 1e-8)
        assert huge == pytest.approx(2e8, rel=1e-6)
        assert huge > small and holds("T1_OG_KKT", 0.5, huge)

    def test_t2_constants(self):
        proof = bound_T2(1.0, 0.0, 1.0, 4.0)
        stmt = printed_t2(1.0, 0.0, 1.0, 4.0)
        assert proof == pytest.approx(1.0 + 2.0 * math.sqrt(1.0 / 4.0))
        assert stmt == pytest.approx(1.0 + math.sqrt(2.0 / 4.0))

    def test_t2_beta_limit(self):
        # beta -> 0: c_beta -> 0 and sqrt(2 beta) -> 0, so rhs -> G
        rhs = bound_T2(4.0, 2.0, 1e-16, 1.0)
        assert rhs == pytest.approx(4.0, rel=1e-6)

    def test_t3_t6_zero_pdg(self):
        assert bound_T3(0.0, 3.0, 4.0, 1.0, 1e-8) == 0.0
        assert bound_T6(0.0, 3.0, 4.0, 1.0) == 0.0

    def test_t4_unit_beta_constant(self):
        assert bound_T4(5.0, 1.0) == pytest.approx(5.0)  # max(1, 1/2) = 1

    def test_one_beta_keeps_the_bits_of_the_equal_pair(self, rng):
        # with beta_x = beta_y = beta the paper's min and max over the pair
        # return beta itself, and rounding is monotone, so the computed
        # 1/(2 beta) never exceeds the computed 1/beta
        beta = np.concatenate([10.0 ** rng.uniform(-320.0, 307.0, 20_000), [5e-324, 1e308]])
        K, D, G = 0.7, 0.3, 0.2
        with np.errstate(over="ignore"):  # the extreme beta overflow on both sides
            assert bound_T4(K, beta).tobytes() == (
                np.maximum(1.0 / beta, 1.0 / (2.0 * beta)) * K).tobytes()
            assert bound_T6(D, 1.5, 2.5, beta).tobytes() == (
                (1.0 + 1.5 + 2.5) * np.sqrt(D) + D / (2.0 * np.minimum(beta, beta))).tobytes()
            lin = G + (np.sqrt(2.0 * beta) * (1.5 + 0.4) + np.sqrt(2.0 * beta) * 2.5) * np.sqrt(G)
            assert bound_P4(G, 1.5, 2.5, beta, 0.4).tobytes() == (
                lin * lin + 2.0 * np.maximum(beta, beta) * G).tobytes()

    def test_t5_nonsmooth_is_infinite(self):
        rhs = bound_T5(1.0, 1.0, None)
        assert rhs == INF and holds("T5_KKT_SDG", 3.0, rhs)

    def test_t5_constant_at_zero_lipschitz(self):
        assert bound_T5(1.0, 1.0, 0.0) == pytest.approx(2.0)  # max(2, 2)

    def test_t5_squares_with_python_pow(self, rng):
        # numpy's exact square and libm's pow disagree in the last bit for
        # about one beta in a thousand; the trace keeps pow's bits
        beta = 10.0 ** rng.uniform(-8.0, 2.0, 20_000)
        L, G = 3.7, 0.3
        want = [max(2.0 * (L + b) ** 2 / b, 2.0 * b) * G for b in beta.tolist()]
        assert bound_T5(G, beta, L).tolist() == want

    def test_p4_tighter_than_t7_when_comparable(self, rng):
        # with L_g = 0 and L_f1* = L_f*, P4's linear term has smaller factors
        for _ in range(50):
            G = float(rng.uniform(0, 3))
            xn, yn = rng.uniform(0, 2, 2)
            L = float(rng.uniform(0, 1))
            t7 = bound_T7(G, xn, yn, 1.0, 0.0, L)
            p4 = bound_P4(G, xn, yn, 1.0, L)
            assert p4 <= t7 + 1e-12

    def test_c1_rhs_scales_with_sqrt_beta_y(self):
        r1 = bound_C1(2.0, 1.0)
        r4 = bound_C1(2.0, 4.0)
        assert r4 == pytest.approx(2.0 * r1)

    def test_scale_covariance(self, rng):
        # multiplying lhs and rhs inputs by c multiplies the report linearly
        for _ in range(20):
            K = float(rng.uniform(0.1, 5))
            c = 3.7
            r1 = Report(1.0, float(bound_T4(K, 1.0)), 1.0)
            r2 = Report(c * 1.0, float(bound_T4(c * K, 1.0)), 1.0)
            assert r2.lhs == pytest.approx(c * r1.lhs)
            assert r2.rhs == pytest.approx(c * r1.rhs)

    def test_holds_with_infinite_sides(self):
        assert holds("T4_SDG_KKT", INF, INF)
        assert holds("T4_SDG_KKT", 1.0, INF)
        assert not holds("T4_SDG_KKT", 1.0, 0.5)


class TestRatioStats:
    def test_constant_ratios(self):
        stats = ratio_stats([1.0] * 5, [3.0] * 5)
        assert stats.mean == pytest.approx(3.0)
        assert stats.std_dev == 0.0
        assert stats.count == 5 and stats.infinite_count == 0

    def test_infinite_entries_counted_separately(self):
        stats = ratio_stats([1.0, 1.0, 0.0], [2.0, INF, 1.0])
        assert stats.mean == pytest.approx(2.0)
        assert stats.count == 1
        assert stats.infinite_count == 2  # one inf rhs + one zero lhs with rhs > 0
        assert stats.zero_lhs_count == 1

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            ratio_stats([], [])


class TestTrajectoryCertification:
    def run_and_check(self, problem, max_iters=400, every=1):
        consts = lipschitz_constants(problem)
        cfg = SolveConfig(epsilon=1e-8, max_iters=max_iters, criterion="sdg",
                          record_every=every)
        traj = solve(problem, cfg)
        t4, t5 = [], []
        for k, z in traj.iterates:
            reports = reports_of(PointValues(problem, z), consts)
            for tid, rep in reports.items():
                assert holds(tid, rep.lhs, rep.rhs), f"{problem.label} iter {k}: {tid} " \
                                                     f"violated ({rep.lhs} > {rep.rhs})"
            if "T4_SDG_KKT" in reports:
                t4.append(reports["T4_SDG_KKT"])
            if "T5_KKT_SDG" in reports:
                t5.append(reports["T5_KKT_SDG"])
        return traj, t4, t5

    def test_one_dimensional_pointwise(self, one_d):
        traj, t4, t5 = self.run_and_check(one_d)
        stats = stats_of(t4)
        # deterministic instance reproduces the known ratio statistics
        assert stats.mean == pytest.approx(1.76, abs=0.6)
        assert 1.76 / 3 <= stats.mean <= 1.76 * 3

    def test_t4_t5_composition_on_smooth(self, one_d):
        # G <= bl*K and K <= bL*G compose: with matched beta the product >= 1
        _, t4, t5 = self.run_and_check(one_d)
        for r4, r5 in zip(t4, t5):
            q4, q5 = float(ratio(r4.lhs, r4.rhs)), float(ratio(r5.lhs, r5.rhs))
            if r4.lhs > 0 and math.isfinite(q4) and math.isfinite(q5):
                assert q4 * q5 >= 1.0 - 1e-9

    def test_iidg_pointwise(self, iidg):
        self.run_and_check(iidg, max_iters=250)


@pytest.mark.parametrize("family", ["iidg", "pqp", "bp"])
def test_precomputed_point_values_give_the_same_reports(family, request, rng):
    problem = request.getfixturevalue(family)
    consts = lipschitz_constants(problem)
    for _ in range(3):
        # |x| keeps the pqp slack block inside its nonnegativity domain
        z = PrimalDualPoint(np.abs(rng.standard_normal(problem.constraint.n)),
                            rng.standard_normal(problem.constraint.m))
        # fresh: evaluate_bounds forms every measure; read: the caller formed
        # them first, as the trace does
        fresh = evaluate_bounds(PointValues(problem, z), consts)
        read = PointValues(problem, z)
        read.sdg, read.og, read.kkt, read.pdg
        shared = evaluate_bounds(read, consts)
        assert np.array(fresh).tobytes() == np.array(shared).tobytes()


def test_eta_cache_keeps_only_the_grid_beta(iidg, monkeypatch):
    # each row's own feasibility error is a beta no later row reads: it is
    # solved for once and not stored, while the 40 grid beta are kept
    solved = []
    real = regularity.qeb_eta

    def counted(*args, **kwargs):
        solved.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(regularity, "qeb_eta", counted)
    consts = lipschitz_constants(iidg)
    traj = solve(iidg, SolveConfig(max_iters=30))
    looked_up = set()
    for _, z in traj.iterates:
        values = PointValues(iidg, z)
        looked_up.update(values.sdg.beta.tolist())
        evaluate_bounds(values, consts)
    assert len(traj.iterates) == 31
    assert set(consts._cache) <= set(GRID_VALUES)
    assert sorted(solved) == sorted(looked_up)


def test_t7_requires_separable_assumptions():
    with pytest.raises(ConfigError):
        bound_T7(1.0, 0.0, 0.0, 1.0, None, None)


def test_p4_requires_lipschitz_conjugate():
    with pytest.raises(ConfigError):
        bound_P4(1.0, 0.0, 0.0, 1.0, None)


def reference_bounds(problem, z, consts, values):
    """Reports of the per-beta loop that the array expressions replaced: every
    bound is built at each grid beta, a walk over (beta, lhs, rhs) candidates
    picks one (ties to the smaller beta, the smallest grid beta when nothing
    qualifies), and the L6 floor takes a ``min`` of its own."""
    x_norm, y_norm = z.norms()
    og, fe, K, D = values.og, values.fe, values.kkt, values.pdg
    betas, gaps = values.sdg.beta.tolist(), values.sdg.gap.tolist()

    def select(candidates, mode):
        best_key, best = INF, None
        for beta, lhs, rhs in candidates:
            if not math.isfinite(rhs):
                continue
            if mode == "ratio":
                if not (math.isfinite(lhs) and lhs > 0.0):
                    continue
                key = rhs / lhs
            else:
                key = rhs
            if key < best_key or (key == best_key and best is not None and beta < best):
                best_key, best = key, beta
        return betas[0] if best is None else best

    def pick(tid, mode, lhs_of, rhs_of):
        built = [(b, float(lhs_of(G)), float(rhs_of(b, G))) for b, G in zip(betas, gaps)]
        beta = select(built, mode)
        b, lhs, rhs = next(c for c in built if c[0] == beta)
        return Report(lhs, rhs, b)

    reports = {}
    if og is not None and consts is not None:
        reports["T1_OG_KKT"] = Report(og, bound_T1(K, y_norm, consts.gamma), None)
        reports["T2_OG_SDG"] = pick("T2_OG_SDG", "one-sided", lambda G: og, lambda b, G: bound_T2(
            G, y_norm, b, consts(b)))
        reports["T3_OG_PDG"] = pick("T3_OG_PDG", "one-sided", lambda G: og, lambda b, G: bound_T3(
            D, x_norm, y_norm, b, consts(b)))
    reports["T4_SDG_KKT"] = pick("T4_SDG_KKT", "ratio", lambda G: G,
                                 lambda b, G: bound_T4(K, b))
    obj = problem.objective
    reports["T5_KKT_SDG"] = pick("T5_KKT_SDG", "one-sided", lambda G: K,
                                 lambda b, G: bound_T5(G, b, obj.smooth_lipschitz))
    reports["T6_SDG_PDG"] = pick("T6_SDG_PDG", "ratio", lambda G: G,
                                 lambda b, G: bound_T6(D, x_norm, y_norm, b))
    if obj.conj_grad_lipschitz is not None and obj.conj_part_lipschitz is not None:
        reports["T7_PDG_SDG_manifold"] = pick(
            "T7_PDG_SDG_manifold", "one-sided", lambda G: D,
            lambda b, G: bound_T7(G, x_norm, y_norm, b, obj.conj_grad_lipschitz,
                                  obj.conj_part_lipschitz))
    if obj.conj_lipschitz is not None:
        reports["P4_PDG_SDG_lipschitz"] = pick(
            "P4_PDG_SDG_lipschitz", "one-sided", lambda G: D,
            lambda b, G: bound_P4(G, x_norm, y_norm, b, obj.conj_lipschitz))
    reports["C1_FE_SDG"] = pick("C1_FE_SDG", "one-sided", lambda G: fe,
                                lambda b, G: bound_C1(G, b))
    floor = []
    for b, G, p in zip(betas, gaps, values.sdg.prox):
        if math.isfinite(G):
            d = np.asarray(z.x, float) - np.asarray(p, float)
            lhs = 0.5 * b * float(d @ d) + fe * fe / (2.0 * b)
            floor.append(Report(lhs, G, b))
    if floor:
        reports["L6_SDG_floor"] = min(
            floor, key=lambda rep: rep.rhs / rep.lhs if rep.lhs > 0 else INF)
    return reports


def report_bits(rep):
    beta = rep.beta_used
    return tuple(np.float64(v).tobytes() for v in
                 (rep.lhs, rep.rhs) + ((beta,) if beta is not None else ()))


def assert_matches_reference(problem, z, consts, values, where):
    got = reports_of(values, consts)
    want = reference_bounds(problem, z, consts, values)
    assert got.keys() == want.keys(), where
    for tid, rep in want.items():
        assert report_bits(got[tid]) == report_bits(rep), f"{where}: {tid}"
    return got


def test_selection_matches_the_per_beta_loop(rng):
    for name in sorted(FAMILIES):
        problem = build_instance(ExperimentConfig(instance=name))
        consts = lipschitz_constants(problem)
        traj = solve(problem, SolveConfig(criterion="kkt", max_iters=40, record_every=5,
                                          version=FAMILIES[name].version))
        # |x| keeps the pqp slack block inside its nonnegativity domain
        random_points = [PrimalDualPoint(np.abs(rng.standard_normal(problem.constraint.n)),
                                         rng.standard_normal(problem.constraint.m))
                         for _ in range(3)]
        for k, z in traj.iterates + list(enumerate(random_points, start=-3)):
            assert_matches_reference(problem, z, consts, PointValues(problem, z),
                                     f"{name} point {k}")


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_t4_holds_with_half_the_papers_constant(name):
    # for s in df(x), f(p) >= f(x) + <s, p - x> bounds the x-part of G_beta by
    # ||s + A^T y||^2/(2 beta), and the y-part is ||Ax - b||^2/(2 beta), so
    # G_beta <= K/(2 beta) at every beta; the T4 columns keep the paper's K/beta
    config = ExperimentConfig(instance=name, max_iters=2000, record_every=7)
    problem = build_instance(config)
    traj = solve(problem, config.solve_config(("kkt", "sdg", "pdg")))
    for k, z in traj.iterates:
        values = PointValues(problem, z)
        beta, G = values.sdg.beta, values.sdg.gap
        assert bounds.holds(G, values.kkt / (2.0 * beta)).all(), f"{name} iteration {k}"


class TestSelectionEdgeCases:
    """Hand-built grids on the 1d instance, each checked against the loop."""

    BETA = np.array([0.25, 0.5, 1.0, 2.0, 4.0])   # powers of two: exact ratios

    def run(self, one_d, gap, kkt=1.0, pdg=1.0, fe=0.5, prox=None, og=0.1):
        z = PrimalDualPoint(np.array([0.5]), np.array([1.0]))
        if prox is None:
            prox = np.full((self.BETA.size, 1), 0.25)
        # the hand-built measures take the place of those PointValues forms
        values = PointValues(one_d, z)
        values.og, values.fe, values.kkt, values.pdg = og, fe, kkt, pdg
        values.sdg = SdgGrid(beta=self.BETA, gap=np.asarray(gap, float), prox=prox)
        consts = lipschitz_constants(one_d)
        return assert_matches_reference(one_d, z, consts, values, "edge case")

    def test_all_infinite_rhs_falls_back_to_the_smallest_beta(self, one_d):
        reports = self.run(one_d, np.ones(5), kkt=INF, pdg=INF)
        for tid in ("T3_OG_PDG", "T4_SDG_KKT", "T6_SDG_PDG"):
            assert reports[tid].rhs == INF and reports[tid].beta_used == 0.25

    def test_zero_lhs_at_every_beta_falls_back_in_ratio_mode(self, one_d):
        reports = self.run(one_d, np.zeros(5), fe=0.0, prox=np.full((5, 1), 0.5))
        for tid in ("T4_SDG_KKT", "T6_SDG_PDG", "L6_SDG_floor"):
            assert reports[tid].lhs == 0.0 and reports[tid].beta_used == 0.25

    def test_exact_ties_go_to_the_smaller_beta(self, one_d):
        # G = 1/beta makes T4's key K/(beta G) exactly K from the second beta on
        reports = self.run(one_d, [1.0, 2.0, 1.0, 0.5, 0.25])
        assert reports["T4_SDG_KKT"].beta_used == 0.5

    def test_infinite_objective_drops_the_floor(self, one_d):
        reports = self.run(one_d, np.full(5, INF), pdg=INF, og=INF)
        assert "L6_SDG_floor" not in reports
        assert reports["C1_FE_SDG"].rhs == INF and reports["C1_FE_SDG"].beta_used == 0.25


def test_columns_are_empty_exactly_where_a_theorem_does_not_apply(rng, tmp_path):
    # lhs, rhs and beta are nan together where a theorem does not apply: T1-T3
    # without a reference (bp, pqp) or without the least-squares constants
    # gamma and eta, T7 and P4 without their assumptions on the objective,
    # and the L6 floor where f(x) = +inf; T1 never has a beta
    problems = [build_instance(ExperimentConfig(instance=name)) for name in sorted(FAMILIES)]
    # min |x| subject to 2x = 1: x* = 1/2, and 1 + 2 y* = 0
    problems.append(ProblemInstance(
        objective=L1Norm(1), constraint=AffineConstraint([[2.0]], [1.0]),
        reference=ReferenceSolution(x_star=np.array([0.5]), f_star=0.5, y_star=np.array([-0.5])),
        label="l1 with a reference"))
    for problem in problems:
        name, obj = problem.label, problem.objective
        consts = lipschitz_constants(problem)
        # |x| keeps the pqp slack block inside its nonnegativity domain
        z = PrimalDualPoint(np.abs(rng.standard_normal(problem.constraint.n)),
                            rng.standard_normal(problem.constraint.m))
        lhs, rhs, beta = evaluate_bounds(PointValues(problem, z), consts)
        empty = {tid for tid, v in zip(THEOREMS, lhs.tolist()) if math.isnan(v)}
        want = set()
        if problem.reference is None or not isinstance(obj, LeastSquaresObjective):
            want |= {"T1_OG_KKT", "T2_OG_SDG", "T3_OG_PDG"}
        if obj.conj_grad_lipschitz is None or obj.conj_part_lipschitz is None:
            want.add("T7_PDG_SDG_manifold")
        if obj.conj_lipschitz is None:
            want.add("P4_PDG_SDG_lipschitz")
        assert empty == want, name
        assert (np.isnan(rhs) == np.isnan(lhs)).all(), name
        no_beta = np.isnan(lhs) | (np.array(THEOREMS) == "T1_OG_KKT")
        assert (np.isnan(beta) == no_beta).all(), name
    # a negative slack entry puts the pqp point outside dom f
    pqp = build_instance(ExperimentConfig(instance="pqp"))
    x = np.abs(rng.standard_normal(pqp.constraint.n))
    x[-1] = -1.0
    values = PointValues(pqp, PrimalDualPoint(x, rng.standard_normal(pqp.constraint.m)))
    assert values.fx == INF
    lhs, rhs, beta = evaluate_bounds(values, lipschitz_constants(pqp))
    at = THEOREMS.index("L6_SDG_floor")
    assert math.isnan(lhs[at]) and math.isnan(rhs[at]) and math.isnan(beta[at])
    assert not np.isnan(lhs[THEOREMS.index("C1_FE_SDG")])
    # the trace writes T1's beta cell empty on every row, and its sides
    run_experiment(ExperimentConfig(instance="1d", max_iters=30, out_dir=str(tmp_path)))
    with open(tmp_path / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(row["T1_OG_KKT_beta"] == "" for row in rows)
    assert all(row["T1_OG_KKT_lhs"] and row["T1_OG_KKT_rhs"] and row["T2_OG_SDG_beta"]
               for row in rows)
