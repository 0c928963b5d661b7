"""Layer probes for the stopgap benchmark.

Spans are recorded from outside the package: each probe replaces a public
function or method at the name its caller looks up, for the duration of one
``patched`` block, and restores it afterwards.  Spans are aggregated in memory
per name (calls, total time, time covered by child spans) and per
(parent, child) edge, which is enough for self times and for the count
cross-checks that catch a probe that missed its call site.
"""

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


def median_spread(values):
    """(median, q3 - q1) of a sample, quartiles as ``statistics.quantiles``
    gives them; a single value has zero spread."""
    values = list(values)
    if not values:
        raise ValueError("median_spread needs at least one value")
    if len(values) == 1:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def low_quantile(values):
    """The 5th percentile of a sample, within its range.

    Another tenant of the host can only add time to a measurement, so a low
    quantile of many short samples of the same work tracks the program's
    own cost where a median tracks the host's load."""
    values = list(values)
    if not values:
        raise ValueError("low_quantile needs at least one value")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[0]


def self_time(total, children):
    """Time of a span not covered by its direct child spans."""
    return max(total - children, 0.0)


def per_call(total, calls):
    return total / calls if calls else 0.0


def hit_ratio(lookups, misses):
    """Share of cache lookups answered without recomputing; 0 without lookups."""
    return (lookups - misses) / lookups if lookups else 0.0


class Tracer:
    """Aggregated spans with parent attribution (single-threaded).

    Spans named in ``stamped`` also keep every start time, so that the time
    between consecutive calls (one solver iteration) can be sampled.
    """

    def __init__(self, clock=time.perf_counter, stamped=()):
        self.clock = clock
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.edges = defaultdict(int)     # (parent span or None, span) -> calls
        self.starts = {name: [] for name in stamped}
        self._stack = []                  # [name, child seconds] of open spans

    def wrap(self, name, fn):
        clock, stack = self.clock, self._stack
        calls, total, child, edges = self.calls, self.total, self.child, self.edges
        starts = self.starts.get(name)

        def span(*args, **kwargs):
            edges[(stack[-1][0] if stack else None, name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            if starts is not None:
                starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                total[name] += dt
                child[name] += frame[1]
                if stack:
                    stack[-1][1] += dt

        span.__wrapped__ = fn
        return span

    def self_s(self, name):
        return self_time(self.total[name], self.child[name])

    def intervals(self, name):
        """Times between consecutive starts of a stamped span."""
        at = self.starts[name]
        return [b - a for a, b in zip(at, at[1:])]


@contextmanager
def patched(tracer, targets):
    """Replace each ``(owner, attribute, span name)`` with a span wrapper."""
    saved = []
    try:
        for owner, attr, name in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


STEP_SPAN = "pdhg.step"


def plain_targets():
    """Set-up, solve and PDHG steps, at the names ``run_experiment`` and
    ``solve`` look up.  A span costs about a microsecond against a millisecond
    or more per iteration, so the untraced run carries these too."""
    from stopgap import harness, pdhg
    return [(harness, "build_instance", "harness.build_instance"),
            (harness, "default_step_sizes", "harness.default_step_sizes"),
            (harness, "lipschitz_constants", "harness.lipschitz_constants"),
            (harness, "solve", "pdhg.solve"),
            (pdhg, "step_v1", STEP_SPAN),
            (pdhg, "step_v2", STEP_SPAN)]


def layer_targets():
    """Every layer boundary the traced run records."""
    from stopgap import bounds, criteria, harness, objectives, problem, regularity
    targets = plain_targets() + [
        (harness, "evaluate_bounds", "bounds.evaluate"),
        (bounds, "select_beta", "bounds.select_beta"),
        (problem, "operator_norm", "linalg.operator_norm"),
        (criteria, "sdg_over_grid", "criteria.sdg_grid"),
        (criteria, "smoothed_duality_gap", "criteria.sdg_point"),
        (criteria, "kkt_error", "criteria.kkt"),
        (criteria, "projected_duality_gap", "criteria.pdg"),
        (criteria, "ogfe", "criteria.ogfe"),
        (regularity, "qeb_eta", "regularity.qeb_eta"),
        (regularity.EtaCache, "__call__", "regularity.eta"),
    ]
    for cls in (objectives.LeastSquaresObjective, objectives.L1Norm,
                objectives.NonnegativeQuadratic):
        targets += [(cls, "prox", "objectives.prox"),
                    (cls, "value_diff", "objectives.value_diff")]
    return targets


RUN_SPAN = "harness.run"


def layer_metrics(tr, iterates, rows, trace_bytes):
    """Per-layer figures of one traced ``run_experiment`` call.

    ``iterates`` is the number of distinct iterates the solver produced
    (iterations + 1); ``rows`` and ``trace_bytes`` describe the trace file.
    """
    us, ms = 1e6, 1e3
    eta_misses = tr.edges[("regularity.eta", "regularity.qeb_eta")]
    return {
        "harness.rows": rows,
        "harness.trace_bytes": trace_bytes,
        "criteria.sdg_grid_calls": tr.calls["criteria.sdg_grid"],
        "criteria.sdg_grid_us": us * per_call(tr.total["criteria.sdg_grid"],
                                              tr.calls["criteria.sdg_grid"]),
        "criteria.sdg_point_calls": tr.calls["criteria.sdg_point"],
        "criteria.kkt_calls": tr.calls["criteria.kkt"],
        "criteria.kkt_us": us * per_call(tr.total["criteria.kkt"], tr.calls["criteria.kkt"]),
        "criteria.pdg_calls": tr.calls["criteria.pdg"],
        "criteria.pdg_us": us * per_call(tr.total["criteria.pdg"], tr.calls["criteria.pdg"]),
        "criteria.grids_per_iterate": tr.calls["criteria.sdg_grid"] / iterates,
        "objectives.prox_calls": tr.calls["objectives.prox"],
        "objectives.prox_us": us * per_call(tr.total["objectives.prox"],
                                            tr.calls["objectives.prox"]),
        "objectives.value_diff_calls": tr.calls["objectives.value_diff"],
        "objectives.value_diff_us": us * per_call(tr.total["objectives.value_diff"],
                                                  tr.calls["objectives.value_diff"]),
        "pdhg.steps": tr.calls[STEP_SPAN],
        "pdhg.step_us": us * per_call(tr.total[STEP_SPAN], tr.calls[STEP_SPAN]),
        "pdhg.solve_self_s": tr.self_s("pdhg.solve"),
        "bounds.evaluate_calls": tr.calls["bounds.evaluate"],
        "bounds.evaluate_ms": ms * per_call(tr.total["bounds.evaluate"],
                                            tr.calls["bounds.evaluate"]),
        "bounds.self_ms": ms * per_call(tr.self_s("bounds.evaluate"),
                                        tr.calls["bounds.evaluate"]),
        "bounds.select_beta_calls": tr.calls["bounds.select_beta"],
        "regularity.constants_s": tr.total["harness.lipschitz_constants"],
        "regularity.eta_calls": tr.calls["regularity.eta"],
        "regularity.qeb_eta_calls": tr.calls["regularity.qeb_eta"],
        "regularity.qeb_eta_s": tr.total["regularity.qeb_eta"],
        "regularity.eta_hit_ratio": hit_ratio(tr.calls["regularity.eta"], eta_misses),
        "harness.self_s": tr.self_s(RUN_SPAN),
        "instances.build_s": tr.total["harness.build_instance"],
        "linalg.operator_norm_s": tr.total["linalg.operator_norm"],
    }


def cross_check(tr, iters, rows, sdg_iterates):
    """Counts that must agree if every probe sits at its call site.

    ``sdg_iterates`` is the number of iterates at which the solver evaluated
    the SDG gate.  Returns a list of messages, empty when all agree.
    """
    expect = [
        ("pdhg.steps == iterations", tr.calls[STEP_SPAN], iters),
        ("one run span", tr.calls[RUN_SPAN], 1),
        ("one build_instance", tr.calls["harness.build_instance"], 1),
        ("one operator_norm (cached afterwards)", tr.calls["linalg.operator_norm"], 1),
        ("sdg grids == gate iterates + rows", tr.calls["criteria.sdg_grid"],
         sdg_iterates + rows),
        ("sdg grids from the solver", tr.edges[("pdhg.solve", "criteria.sdg_grid")],
         sdg_iterates),
        ("sdg grids from the harness", tr.edges[(RUN_SPAN, "criteria.sdg_grid")], rows),
        ("evaluate_bounds once per row", tr.calls["bounds.evaluate"], rows),
        ("prox == steps + sdg points", tr.calls["objectives.prox"],
         tr.calls[STEP_SPAN] + tr.calls["criteria.sdg_point"]),
        ("value_diff == sdg points", tr.calls["objectives.value_diff"],
         tr.calls["criteria.sdg_point"]),
        ("sdg points only under grids", tr.edges[("criteria.sdg_grid", "criteria.sdg_point")],
         tr.calls["criteria.sdg_point"]),
        ("qeb_eta from set-up or eta lookups", tr.calls["regularity.qeb_eta"],
         tr.edges[("harness.lipschitz_constants", "regularity.qeb_eta")]
         + tr.edges[("regularity.eta", "regularity.qeb_eta")]),
    ]
    problems = [f"{what}: {got} != {want}" for what, got, want in expect if got != want]
    if tr.calls["bounds.select_beta"] == 0 or tr.calls["bounds.select_beta"] % rows:
        problems.append(f"select_beta calls {tr.calls['bounds.select_beta']} "
                        f"are not a positive multiple of {rows} rows")
    return problems
