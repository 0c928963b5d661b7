"""Property test of the column statistics behind table2.

``ratio_stats`` reads one theorem's lhs and rhs columns with array
expressions.  The oracle here is the per-report loop those expressions
replaced, kept verbatim in scalar Python.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stopgap.bounds import BoundReport, holds, ratio, ratio_stats
from stopgap.errors import StopgapError

INF = float("inf")

# the drawn extremes overflow numpy's mean and std alike in both versions
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")


def reference_ratio(lhs, rhs):
    if lhs == 0.0:
        return INF if rhs > 0.0 else 1.0
    if not math.isfinite(rhs):
        return INF
    if not math.isfinite(lhs):
        return 0.0
    return rhs / lhs


def reference_holds(lhs, rhs):
    return lhs <= rhs * (1.0 + 1e-9) + 1e-12


def reference_stats(lhs, rhs):
    """(mean, std_dev, count, infinite_count, zero_lhs_count, violations)
    of one theorem's reports, by the loop over report objects."""
    finite = []
    infinite = 0
    zero_lhs = 0
    for a, b in zip(lhs, rhs):
        if a == 0.0:
            zero_lhs += 1
            if b > 0.0:
                infinite += 1
            continue
        rho = reference_ratio(a, b)
        if math.isfinite(rho):
            finite.append(rho)
        else:
            infinite += 1
    if not finite and not infinite:
        raise StopgapError("no usable ratios after filtering")
    if finite:
        arr = np.asarray(finite)
        mean, std = float(arr.mean()), float(arr.std())
    else:
        mean = std = INF
    violations = sum(not reference_holds(a, b) for a, b in zip(lhs, rhs))
    return mean, std, len(finite), infinite, zero_lhs, violations


def bits(v):
    return struct.pack("<d", v)


# zeros, infinities, ties and ordinary magnitudes, with lhs = rhs pairs drawn
# on purpose; a bound's sides are never nan
sides = st.one_of(st.sampled_from([0.0, -0.0, INF, 1.0, 2.0, 1e-300, 1e300]),
                  st.floats(min_value=0.0, allow_nan=False),
                  st.floats(allow_nan=False, allow_infinity=True))
pairs = st.one_of(st.tuples(sides, sides), sides.map(lambda v: (v, v)))
columns = st.lists(pairs, min_size=1, max_size=40)


@settings(max_examples=400, deadline=None)
@given(columns)
@example([(1.0, INF), (3.0, INF)])            # every ratio infinite
@example([(INF, INF), (2.0, INF)])
@example([(0.0, 0.0), (0.0, -1.0)])           # no usable ratio
@example([(2.0, 2.0), (0.0, 0.0), (5.0, 5.0)])
@example([(1e-300, 1e300), (1e-300, 1e300)])  # finite sides, overflowing ratio
def test_column_statistics_match_the_report_loop(pairs):
    lhs = [a for a, _ in pairs]
    rhs = [b for _, b in pairs]
    try:
        want = reference_stats(lhs, rhs)
    except StopgapError:
        with pytest.raises(StopgapError, match="no usable ratios"):
            ratio_stats("T4_SDG_KKT", lhs, rhs)
        return
    got = ratio_stats("T4_SDG_KKT", np.array(lhs), np.array(rhs))
    assert got.theorem_id == "T4_SDG_KKT"
    assert (bits(got.mean), bits(got.std_dev)) == (bits(want[0]), bits(want[1]))
    assert (got.count, got.infinite_count, got.zero_lhs_count, got.violations) == want[2:]


@settings(max_examples=200, deadline=None)
@given(columns)
def test_array_rules_match_the_scalar_rules(pairs):
    lhs = np.array([a for a, _ in pairs])
    rhs = np.array([b for _, b in pairs])
    assert holds(lhs, rhs).tolist() == [reference_holds(a, b) for a, b in pairs]
    assert [bits(v) for v in ratio(lhs, rhs).tolist()] == \
           [bits(reference_ratio(a, b)) for a, b in pairs]
    for a, b in pairs:
        rep = BoundReport("C1_FE_SDG", a, b)
        assert rep.holds is reference_holds(a, b)
        assert bits(rep.ratio) == bits(reference_ratio(a, b))


def test_all_infinite_column_has_infinite_moments():
    stats = ratio_stats("T5_KKT_SDG", [1.0, 2.0, 0.0], [INF, INF, INF])
    assert (stats.mean, stats.std_dev, stats.count) == (INF, INF, 0)
    assert (stats.infinite_count, stats.zero_lhs_count, stats.violations) == (3, 1, 0)


def test_no_usable_ratio_is_an_error():
    with pytest.raises(StopgapError, match="no usable ratios"):
        ratio_stats("T4_SDG_KKT", [0.0, 0.0], [0.0, 0.0])
