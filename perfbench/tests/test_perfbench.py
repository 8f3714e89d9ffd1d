"""Tests of the benchmark's own arithmetic, tracing and verdict bookkeeping.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import math

import numpy as np
import pytest

import reference
import tracing
import workloads
from gqem import identities, jets, models, quadrature


# -- normalization -----------------------------------------------------------


def test_normalize_scales_by_reference_mean():
    # R = (0.1 + 0.3) / 2 = 0.2, so a host running at R0/R = 0.75 speed reads 2.0 * 0.75
    assert math.isclose(reference.normalize(2.0, 0.1, 0.3, r0_s=0.15), 1.5)
    assert math.isclose(reference.normalize(1.0, 0.3, 0.3, r0_s=0.3), 1.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_kernel_runs_for_every_workload(workload):
    assert reference.ReferenceKernel(workload).run() > 0.0
    assert reference.R0_S[workload] > 0.0


# -- self time ---------------------------------------------------------------


def test_self_times_on_synthetic_span_tree():
    spans = [
        ["a", 0.0, 10.0, None],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 7.0, 0],
    ]
    aggregates = {1: 0.5, 3: 0.25}  # Jet.__mul__ time under each b
    out = tracing.self_times(spans, aggregates)
    assert out["a"] == pytest.approx(10.0 - 3.0 - 2.0)
    assert out["b"] == pytest.approx((3.0 - 1.0 - 0.5) + (2.0 - 0.25))
    assert out["c"] == pytest.approx(1.0)
    assert out[tracing.MUL] == pytest.approx(0.75)
    assert sum(out.values()) == pytest.approx(10.0)


def test_tracer_records_parents_with_a_fake_clock():
    ticks = iter(range(100))
    t = tracing.Tracer(clock=lambda: float(next(ticks)))
    with t.span("outer"):
        with t.span("inner"):
            pass
        with t.scope("case"):
            t.count("things", 2)
    t.count("things")
    assert [s[0] for s in t.spans] == ["outer", "inner", "scope:case"]
    assert [s[3] for s in t.spans] == [None, 0, 0]
    assert t.stack == [] and t.scopes == [""]
    assert tracing.self_times(t.spans, {}) == {"outer": 3.0, "inner": 1.0, "scope:case": 1.0}
    assert t.totals() == {"things": 3} and dict(t.counts["case"]) == {"things": 2}


# -- verdict table -----------------------------------------------------------


def test_count_mismatches():
    expected = {"a": True, "b": False}
    assert workloads.count_mismatches(expected, {"a": (True,), "b": (False,)}) == (2, 0)
    assert workloads.count_mismatches(expected, {"a": (False,), "b": (False,)}) == (2, 1)
    assert workloads.count_mismatches(expected, {"a": (True,)}) == (2, 1)  # missing
    assert workloads.count_mismatches(expected, {"a": (True,), "b": (False,),
                                                 "c": (True,)}) == (3, 1)  # unexpected
    assert workloads.count_mismatches(expected, None) == (2, 2)  # raised


def test_a_case_that_raises_counts_wholly_wrong():
    def boom():
        raise ArithmeticError("numerical failure")

    ok = workloads.Case("ok", {"x": True}, lambda: {"x": (True, 0.5, 10)})
    bad = workloads.Case("bad", {"x": True, "y": False}, boom)
    res = workloads.run_pass([ok, bad])
    assert (res.attempted, res.wrong, res.evals, res.worst_ratio) == (3, 2, 10, 0.5)


def test_expected_table_for_cubic_controls():
    n2 = workloads.pointwise_expected(2, control=True)
    n3 = workloads.pointwise_expected(3, control=True)
    assert len(n2) == 17 and sum(not v for v in n2.values()) == 8
    assert len(n3) == 18 and sum(not v for v in n3.values()) == 9
    assert not n3["einstein_hessian"] and "einstein_hessian" not in n2
    assert all(workloads.pointwise_expected(3).values())


@pytest.mark.parametrize("seed", [7, 123])
def test_negative_controls_fail_what_the_table_says(seed):
    rng = np.random.default_rng(seed)
    cases = []
    for n in (2, 3):
        c = workloads.cubic_control(rng, n)
        pts = workloads.draw_points(rng, c.chart, 20)
        cases.append(workloads.Case(c.label, workloads.pointwise_expected(n, control=True),
                                    lambda c=c, pts=pts: workloads._suite_verdicts(c, pts)))
    res = workloads.run_pass(cases)
    assert res.attempted == 35 and res.wrong == 0


def test_sphere_control_fails_the_f_balances_only():
    s = workloads.sphere_control(np.random.default_rng(7))
    case = workloads._integral_case("S2 control", s, workloads.S2_GRID, control=True)
    got = case.run()
    assert {k for k, v in got.items() if not v[0]} == set(workloads.F_BALANCES)


# -- counts per pass ---------------------------------------------------------


def _traced(fn):
    with tracing.install(tracing.Tracer()) as tracer:
        fn()
    return tracer.totals()


def test_install_restores_every_patch():
    mul, catalog, suite = jets.Jet.__mul__, identities.CATALOG, quadrature.INTEGRAL_SUITE
    sample = models.sample_points
    _traced(lambda: None)
    assert jets.Jet.__mul__ is mul and jets.Jet.__rmul__ is mul
    assert identities.CATALOG is catalog and quadrature.INTEGRAL_SUITE is suite
    assert models.sample_points is sample


def test_pointwise_counts_do_not_depend_on_the_seed():
    s = models.example_structure(models.ModelSpec("sphere", 3, tau=1.5, m=2.0))
    for seed in (7, 123):
        pts = workloads.draw_points(np.random.default_rng(seed), s.chart, 100)
        counts = _traced(lambda: identities.run_pointwise_suite(s, pts, workloads.TOLS))
        assert counts[tracing.PRODUCTS] == 8696
        assert counts[tracing.ZERO_PRODUCTS] == 4545
        assert counts[tracing.FRAMES] == 25


def test_integral_pass_counts_repeat_with_a_fresh_grid_each_pass():
    s3 = models.example_structure(
        models.ModelSpec("sphere", 3, tau=1.5, m=2.0, chart_kind="polar"))
    case = workloads._integral_case("S3", s3, workloads.S3_GRID, control=False)
    first, second = _traced(case.run), _traced(case.run)
    assert first == second
    assert first[tracing.PRODUCTS] == 1842
    assert first[tracing.ZERO_PRODUCTS] == 1398
    assert first[tracing.FRAMES] == 6
