"""T2 near its tightest point: a seeded search over z (``t2_search``) on one
small instance per least-squares family with a reference solution, with the
proof's constant and the printed one.  The full search and its result are in
the README."""

import math

import numpy as np
import pytest

from stopgap.bounds import holds
from stopgap.instances import make_1d, make_do, make_iidg, make_ntc

from t2_search import T2_RHS, search_t2

INSTANCES = {
    "1d": make_1d,
    "iidg": lambda: make_iidg(4, 3, seed=7),
    "ntc": lambda: make_ntc(4, 3, seed=7),
    "do": lambda: make_do(n=2, m=2, seed=0),
}


@pytest.mark.parametrize("family", INSTANCES)
def test_search_finds_no_point_that_breaks_t2(family):
    problem = INSTANCES[family]()
    smallest = math.inf
    for beta in (1e-4, 30.0):
        for constant, rhs in T2_RHS.items():
            best = search_t2(problem, beta, rhs, starts=2, seed=0, max_evals=200)
            assert holds(best.og, best.rhs), (constant, beta, best)
            smallest = min(smallest, best.ratio)
    # the search comes near equality, where a wrong constant would show
    assert smallest < 1.05


def test_search_breaks_t2_without_its_constant():
    # with c_beta = 0 the rhs G + sqrt(2 beta) ||y|| sqrt(G) falls below OG
    # at a large beta, so the search catches a constant that is too small
    def no_constant(G, y_norm, beta, eta):
        return G + np.sqrt(2.0 * beta) * y_norm * np.sqrt(G)

    best = search_t2(INSTANCES["iidg"](), 30.0, no_constant, starts=1, seed=0, max_evals=200)
    assert not holds(best.og, best.rhs)
