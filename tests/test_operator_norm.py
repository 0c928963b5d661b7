"""The power iteration behind the PDHG step sizes.

``operator_norm`` runs on ``A`` scaled by a power of two, so every iterate
keeps the bits of the plain iteration below wherever the scaled entries stay
normal; τ, σ and every output of a run depend on those bits.  The scale also
keeps the iteration away from overflow and underflow at extreme scales of A.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stopgap.errors import ConvergenceError, DegenerateProblemError
from stopgap.instances import make_instance
from stopgap.linalg import operator_norm

FAMILIES = {"1d": {}, "iidg": {"seed": 7}, "ntc": {"seed": 7}, "pqp": {"seed": 8},
            "bp": {"seed": 5}, "do": {}}


def plain_power_iteration(A, rtol=1e-9, max_iters=10_000):
    """The unscaled power iteration on AᵀA, written with ``@``."""
    A = np.asarray(A, dtype=float)
    if A.size == 0 or not np.any(A):
        raise DegenerateProblemError("operator norm of a zero matrix")
    v = A[np.argmax(np.abs(A).sum(axis=1))].copy()
    if not np.any(v):
        v = np.ones(A.shape[1])
    v /= math.sqrt(float(v @ v))
    sq = 0.0
    for _ in range(max_iters):
        w = A.T @ (A @ v)
        sq_new = float(v @ w)
        nw = math.sqrt(float(w @ w))
        if nw == 0.0:
            v = np.ones(A.shape[1]) / math.sqrt(A.shape[1])
            continue
        v = w / nw
        if abs(sq_new - sq) <= rtol * max(sq_new, 1e-300):
            return math.sqrt(sq_new)
        sq = sq_new
    raise ConvergenceError("power iteration did not converge in %d iterations" % max_iters)


def outcome(norm, A):
    """The norm's value, or the type of the error it raised."""
    try:
        return norm(A)
    except (ConvergenceError, DegenerateProblemError) as exc:
        return type(exc)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_same_bits_on_every_family(family):
    A = make_instance(family, **FAMILIES[family]).constraint.matrix
    assert operator_norm(A) == plain_power_iteration(A)


def test_same_bits_at_n400():
    A = make_instance("iidg", n=400, m=200, seed=7).constraint.matrix
    assert operator_norm(A) == plain_power_iteration(A)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 30), n=st.integers(1, 30),
       log_scale=st.integers(-30, 30), zeroed=st.sampled_from((0.0, 0.3, 0.8, 1.0)),
       repeated=st.integers(0, 29))
def test_same_bits_on_random_matrices(seed, m, n, log_scale, zeroed, repeated):
    rng = np.random.default_rng(seed)
    A = 10.0 ** log_scale * rng.standard_normal((m, n))
    A[rng.random((m, n)) < zeroed] = 0.0
    # the last rows repeat earlier ones
    keep = max(1, m - repeated)
    A[keep:] = A[rng.integers(0, keep, m - keep)]
    want = outcome(plain_power_iteration, A)
    assert outcome(operator_norm, A) == want


@pytest.mark.parametrize("scale", [1e150, 1e-150, 1e300, 1e-300])
def test_right_norm_at_extreme_scales(scale):
    A = scale * make_instance("bp", seed=5).constraint.matrix
    assert operator_norm(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-8)
