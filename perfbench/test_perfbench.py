"""Tests of the benchmark's own helpers (no solver runs)."""

import statistics
import types

import pytest

import probes
import run


def test_median_spread_matches_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert probes.median_spread(values) == (3.5, q3 - q1)


def test_median_spread_single_value_and_empty():
    assert probes.median_spread([2.5]) == (2.5, 0.0)
    with pytest.raises(ValueError):
        probes.median_spread([])


def test_low_quantile_stays_within_the_sample():
    values = [float(v) for v in range(1, 102)]
    assert probes.low_quantile(values) == 6.0
    assert probes.low_quantile([7.0, 3.0]) == pytest.approx(3.2)
    assert probes.low_quantile([4.0]) == 4.0
    with pytest.raises(ValueError):
        probes.low_quantile([])


def test_stamped_span_keeps_start_times():
    ticks = iter([0.0, 0.5, 2.0, 2.5, 5.0, 5.5])
    tr = probes.Tracer(clock=lambda: next(ticks), stamped=("step",))
    step = tr.wrap("step", lambda: None)
    for _ in range(3):
        step()
    assert tr.intervals("step") == [2.0, 3.0]


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tr = probes.Tracer(clock=lambda: next(ticks))
    inner = tr.wrap("inner", lambda: None)

    def outer_body():
        inner()
        inner()

    tr.wrap("outer", outer_body)()
    assert tr.calls == {"outer": 1, "inner": 2}
    assert tr.total["outer"] == 10.0
    assert tr.total["inner"] == 2.5
    assert tr.self_s("outer") == 7.5
    assert tr.self_s("inner") == 2.5
    assert tr.edges == {(None, "outer"): 1, ("outer", "inner"): 2}
    assert probes.self_time(1.0, 1.0 + 1e-12) == 0.0


def test_span_closes_when_the_call_raises():
    tr = probes.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.wrap("boom", boom)()
    tr.wrap("after", lambda: None)()
    assert tr.calls["boom"] == 1
    assert tr.edges[(None, "after")] == 1


def test_eta_hit_ratio_with_zero_calls():
    assert probes.hit_ratio(0, 0) == 0.0
    assert probes.hit_ratio(40, 2) == 0.95
    assert probes.per_call(3.0, 0) == 0.0


def test_patched_restores_originals():
    owner = types.SimpleNamespace(f=lambda x: x + 1)
    original = owner.f
    tr = probes.Tracer()
    with pytest.raises(RuntimeError):
        with probes.patched(tr, [(owner, "f", "f")]):
            assert owner.f(1) == 2
            raise RuntimeError
    assert owner.f is original
    assert tr.calls["f"] == 1
