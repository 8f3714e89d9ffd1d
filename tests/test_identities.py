"""Lemma-level identity verifiers: positive cases, edge cases, negative controls."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from gqem import identities as idt
from gqem import qem
from gqem import quadrature as quad
from gqem.geometry import Chart, ChartFrame, Field, ScalarField, grad_field
from gqem.models import (
    ModelSpec,
    example_structure,
    gaussian_soliton,
    make_chart,
    sample_points,
    trivial_structure,
)
from gqem.qem import StructureFrame, is_gqem, make_structure, residual
from fd_oracle import curvature_laplacian_fd_terms
from test_charts import warped_chart
from test_jet_internals import ROW_BATCH

TOLS = {2: 1e-8, 3: 1e-7, 4: 1e-6}


@pytest.fixture(scope="module")
def sphere22():
    return example_structure(ModelSpec("sphere", 2, tau=1.0, m=2.0))


@pytest.fixture(scope="module")
def euclid2():
    return make_chart(ModelSpec("euclidean", 2, tau=1.0, m=1.0))


def test_gradient_norm_laplacian_on_models(sphere22):
    for spec in (ModelSpec("sphere", 3, tau=1.0, m=2.0),
                 ModelSpec("hyperbolic", 2, tau=0.5, m=1.0)):
        s = example_structure(spec)
        pts = sample_points(s.chart, 50, seed=0)
        fr = StructureFrame(s, pts)
        assert np.max(residual(*idt.gradient_norm_laplacian_residual(fr))) < 1e-7
    fr = StructureFrame(sphere22, sample_points(sphere22.chart, 50, seed=0))
    assert np.max(residual(*idt.gradient_norm_laplacian_residual(fr))) < 1e-7


def test_gradient_norm_laplacian_constant_potential():
    s = trivial_structure("sphere", 2, m=2.0)
    fr = StructureFrame(s, np.array([0.3, 0.4]))
    assert residual(*idt.gradient_norm_laplacian_residual(fr)) < 1e-13


def test_gradient_norm_laplacian_negative_control(euclid2):
    # f = x^3 with trace-solved lambda satisfies only the trace, not the full
    # tensor equation, so the identity must fail; hand value at (1,0), m=1:
    # LHS = 54, RHS = 36 + 108 = 144
    f3 = ScalarField.from_coords(2, lambda x, y: x * x * x, "x^3")
    bad = make_structure(euclid2, f3, m=1.0)
    res = residual(*idt.gradient_norm_laplacian_residual(StructureFrame(bad, np.array([1.0, 0.0]))))
    assert res == pytest.approx(90.0, abs=1e-9)


def test_curvature_gradient_on_models():
    for spec in (ModelSpec("sphere", 2, tau=0.8, m=1.0),
                 ModelSpec("euclidean", 3, tau=1.0, m=5.0),
                 ModelSpec("hyperbolic", 4, tau=0.5, m=2.0)):
        s = example_structure(spec)
        pts = sample_points(s.chart, 40, seed=1)
        assert np.max(residual(*idt.curvature_gradient_residual(StructureFrame(s, pts)))) < 1e-7


def test_curvature_gradient_trivial_cases():
    s = trivial_structure("sphere", 2, m=2.0)
    fr = StructureFrame(s, np.array([0.2, -0.3]))
    assert residual(*idt.curvature_gradient_residual(fr)) < 1e-12
    fr = StructureFrame(gaussian_soliton(2), np.array([0.5, 0.1]))
    assert residual(*idt.curvature_gradient_residual(fr)) < 1e-13


def test_hamilton_gradient_on_models(sphere22):
    pts = sample_points(sphere22.chart, 40, seed=2)
    assert np.max(residual(*idt.hamilton_gradient_residual(StructureFrame(sphere22, pts)))) < 1e-7
    s = example_structure(ModelSpec("euclidean", 2, tau=2.0, m=2.0))
    pts = sample_points(s.chart, 40, seed=2)
    assert np.max(residual(*idt.hamilton_gradient_residual(StructureFrame(s, pts)))) < 1e-7


def test_hamilton_gradient_gaussian_soliton():
    # m = inf with constant lambda: grad(R + |grad f|^2) = 2 lambda grad f
    gs = gaussian_soliton(3)
    pts = sample_points(gs.chart, 20, seed=3)
    assert np.max(residual(*idt.hamilton_gradient_residual(StructureFrame(gs, pts)))) < 1e-12


def test_trace_gradient_identity(sphere22):
    pts = sample_points(sphere22.chart, 40, seed=4)
    assert np.max(residual(*idt.trace_gradient_residual(StructureFrame(sphere22, pts)))) < 1e-7


def test_einstein_hessian_profile_all_families():
    for family, tau, m in (("sphere", 1.0, 2.0), ("euclidean", 1.0, 2.0),
                           ("hyperbolic", 0.5, 2.0)):
        s = example_structure(ModelSpec(family, 3, tau=tau, m=m))
        prof = idt.einstein_hessian_profile(StructureFrame(s, sample_points(s.chart, 30, seed=5)))
        assert prof.c_spread < 1e-9, family
        assert prof.hessian_residual < 1e-8
        assert prof.lap_residual < 1e-8
        assert prof.gradlam_residual < 1e-8


def test_einstein_hessian_constants_hand_values():
    # c = m tau on the unit sphere, c = 2m on euclidean space, c = -m tau hyperbolic
    def c_estimate(family, tau):
        s = example_structure(ModelSpec(family, 3, tau=tau, m=2.0))
        fr = StructureFrame(s, sample_points(s.chart, 5, seed=6))
        return idt.einstein_hessian_profile(fr).c_estimate

    assert c_estimate("sphere", 1.0) == pytest.approx(2.0, abs=1e-10)
    assert c_estimate("euclidean", 1.0) == pytest.approx(4.0, abs=1e-12)
    assert c_estimate("hyperbolic", 0.5) == pytest.approx(-1.0, abs=1e-10)


def test_einstein_hessian_gates():
    s2 = example_structure(ModelSpec("sphere", 2, tau=1.0, m=2.0))
    with pytest.raises(ValueError, match="dim >= 3"):
        idt.einstein_hessian_profile(StructureFrame(s2, np.zeros((1, 2))))
    gs = gaussian_soliton(3)
    with pytest.raises(ValueError, match="finite m"):
        idt.einstein_hessian_profile(StructureFrame(gs, np.zeros((1, 3))))


def test_curvature_laplacian_on_models(sphere22):
    pts = sample_points(sphere22.chart, 25, seed=7)
    assert np.max(residual(*idt.curvature_laplacian_residual(StructureFrame(sphere22, pts)))) < 1e-6
    s = example_structure(ModelSpec("euclidean", 2, tau=1.0, m=2.0))
    pts = sample_points(s.chart, 25, seed=7)
    assert np.max(residual(*idt.curvature_laplacian_residual(StructureFrame(s, pts)))) < 1e-6


def test_curvature_laplacian_constant_potential():
    s = trivial_structure("sphere", 2, m=2.0)
    fr = StructureFrame(s, np.array([0.6, 0.1]))
    assert residual(*idt.curvature_laplacian_residual(fr)) < 1e-11


def test_curvature_laplacian_jet_vs_finite_difference(sphere22):
    # same identity with lap R from second differences of the curvature field
    for p in sample_points(sphere22.chart, 5, seed=8):
        r_jet = float(residual(*idt.curvature_laplacian_residual(StructureFrame(sphere22, p))))
        r_fd = float(residual(*curvature_laplacian_fd_terms(StructureFrame(sphere22, p), 1e-3)))
        assert abs(r_jet - r_fd) < 1e-4


def test_conformality_residual_cases(euclid2):
    s = example_structure(ModelSpec("euclidean", 2, tau=1.0, m=2.0))
    pts = sample_points(s.chart, 20, seed=9)
    # grad u has hess u = 2 g: conformal
    u_conformality = idt.CATALOG_BY_ID["u_conformality"].runner
    assert np.max(residual(*u_conformality(StructureFrame(s, pts)))) < 1e-12
    # grad(x^3) is not conformal away from x = 0
    phi = ScalarField.from_coords(2, lambda x, y: x * x * x, "x^3")
    res = residual(*idt.conformality_residual(ChartFrame(euclid2, np.array([1.0, 0.0])),
                                              grad_field(euclid2, phi)))
    assert res > 1.0


def test_sign_scan_detects_both_signs(sphere22):
    pts = sample_points(sphere22.chart, 200, seed=10)
    scan = idt.sign_scan_r_minus_n_lambda(StructureFrame(sphere22, pts))
    assert scan.minimum < 0.0 < scan.maximum
    assert scan.sign_changes


def test_sign_scan_trivial_structure():
    s = trivial_structure("sphere", 2, m=2.0)
    scan = idt.sign_scan_r_minus_n_lambda(StructureFrame(s, sample_points(s.chart, 50, seed=11)))
    assert abs(scan.minimum) < 1e-10 and abs(scan.maximum) < 1e-10
    assert not scan.sign_changes


def test_sign_scan_noncompact_no_assertion():
    # evaluation allowed on a noncompact model, conclusion simply reported
    s = example_structure(ModelSpec("euclidean", 2, tau=1.0, m=2.0))
    scan = idt.sign_scan_r_minus_n_lambda(StructureFrame(s, sample_points(s.chart, 50, seed=12)))
    assert scan.maximum > 0.0  # R - n lambda = 2mn/u > 0 on euclidean examples
    assert not scan.sign_changes


def test_full_suite_on_every_family():
    for family, tau in (("sphere", 1.5), ("euclidean", 0.5), ("hyperbolic", 2.0)):
        s = example_structure(ModelSpec(family, 3, tau=tau, m=5.0))
        pts = sample_points(s.chart, 15, seed=14)
        entries = idt.run_pointwise_suite(s, pts, TOLS)
        assert len(entries) == len([i for i in idt.CATALOG if idt.applicable(i, s)])
        for e in entries:
            assert e.passed, (family, e.identity_id, e.max_residual)


def test_suite_applicability_gates():
    gs = gaussian_soliton(2)
    ids = {e.identity_id for e in idt.run_pointwise_suite(gs, np.zeros((1, 2)), TOLS)}
    assert "u_transform" not in ids
    assert "curvature_laplacian" not in ids
    assert "defining_equation" in ids

    s2 = example_structure(ModelSpec("sphere", 2, tau=1.0, m=2.0))
    ids2 = {e.identity_id for e in
            idt.run_pointwise_suite(s2, sample_points(s2.chart, 3, seed=15), TOLS)}
    assert "einstein_hessian" not in ids2  # needs dim >= 3

    s3 = example_structure(ModelSpec("sphere", 3, tau=1.0, m=2.0))
    ids3 = {e.identity_id for e in
            idt.run_pointwise_suite(s3, sample_points(s3.chart, 3, seed=15), TOLS)}
    assert "einstein_hessian" in ids3


def test_negative_controls_fail_the_suite(euclid2):
    f3 = ScalarField.from_coords(2, lambda x, y: x * x * x, "x^3")
    bad = make_structure(euclid2, f3, m=2.0)
    entries = idt.run_pointwise_suite(bad, np.array([[1.0, 0.0], [0.7, 0.2]]), TOLS)
    by_id = {e.identity_id: e for e in entries}
    assert not by_id["defining_equation"].passed
    assert not by_id["gradient_norm_laplacian"].passed
    # the structure-free curvature identities still hold on the flat chart
    assert by_id["contracted_bianchi"].passed
    assert by_id["bochner"].passed
    assert by_id["div_hessian"].passed
    assert by_id["u_transform"].passed  # algebraic in f, holds for any potential


def test_curvature_gradient_contracted_rearrangement(sphere22):
    # contracting the half-grad-R identity with grad f and moving terms gives
    # Ric(gf,gf) + (n-1)<grad lam, gf>
    #   = (1/2)<grad R, gf> + (1/m)Ric(gf,gf) - (1/m)(R-(n-1)lam)|gf|^2
    s = sphere22
    pts = sample_points(s.chart, 30, seed=16)
    fr = StructureFrame(s, pts)
    n = fr.n
    gf = fr.grad_values(s.f)
    ric = fr.ricci_values()
    ric_ff = np.einsum("...ij,...i,...j->...", ric, gf, gf)
    dlam = fr.partials_of_jet(fr.lam_jet(1))
    dR = fr.partials_of_jet(fr.scalar_curvature_jet(1))
    pair = lambda w: np.einsum("...i,...i->...", gf, w)
    gn2 = fr.grad_norm2(s.f, 0).value
    rr = fr.scalar_curvature_value()
    lam = fr.lam_jet(0).value
    lhs = ric_ff + (n - 1) * pair(dlam)
    rhs = 0.5 * pair(dR) + s.inv_m * ric_ff - s.inv_m * (rr - (n - 1) * lam) * gn2
    assert np.max(np.abs(lhs - rhs)) < 1e-7


def test_catalog_is_complete_and_anchored():
    ids = [info.identity_id for info in idt.CATALOG]
    assert len(ids) == len(set(ids))
    for info in idt.CATALOG:
        assert info.formula.strip()
        assert set(info.orders) == {"g", "f", "lambda", "u"}
        assert info.order_class in (2, 3, 4)
    heavy = idt.CATALOG_BY_ID["curvature_laplacian"]
    assert heavy.orders == {"g": 4, "f": 3, "lambda": 2, "u": None}


def requested_orders(s, runner, pts, monkeypatch):
    """Highest jet order `runner` requests of the metric (`Chart.metric_jets`)
    and of the structure's f, lambda and u (`Field.jet`); None for one never read.

    A request made while one of those three fields is evaluated belongs to
    that field (a model's f and lambda are formulas in u), so only requests
    outside them count; requests through derived fields such as grad f count.
    """
    got = dict.fromkeys(("g", "f", "lambda", "u"))
    keys = {id(s.f): "f", id(s.lam): "lambda", id(s.u): "u"}
    depth = [0]
    metric_jets, jet = Chart.metric_jets, Field.jet

    def note(key, order):
        if not depth[0]:
            got[key] = max(order, got[key] or 0)

    def metric_wrapper(chart, coords):
        note("g", coords[0].order)
        return metric_jets(chart, coords)

    def jet_wrapper(field, coords):
        key = keys.get(id(field))
        if key is None:
            return jet(field, coords)
        note(key, coords[0].order)
        depth[0] += 1
        try:
            return jet(field, coords)
        finally:
            depth[0] -= 1

    with monkeypatch.context() as patch:
        patch.setattr(Chart, "metric_jets", metric_wrapper)
        patch.setattr(Field, "jet", jet_wrapper)
        runner(StructureFrame(s, pts))
    return got


@pytest.mark.parametrize("spec", [
    ModelSpec("sphere", 3, tau=1.5, m=2.0),
    ModelSpec("sphere", 2, tau=1.5, m=2.0, chart_kind="polar"),
    ModelSpec("euclidean", 3, tau=1.0, m=0.5),
    ModelSpec("hyperbolic", 4, tau=0.5, m=2.0),
], ids=lambda spec: f"{spec.family}-{spec.dim}-{spec.chart_kind}")
def test_declared_orders_equal_the_orders_each_row_requests(spec, monkeypatch):
    s = example_structure(spec)
    pts = sample_points(s.chart, 2, seed=1)
    for info in idt.CATALOG:
        if idt.applicable(info, s):
            assert requested_orders(s, info.runner, pts, monkeypatch) == info.orders, info.identity_id


def test_magnitude_rows_reduce_the_signed_residuals():
    # cubic control: f = sum a_i x_i^3 on flat R^3 with trace-solved lambda, so
    # every signed residual below is nonzero and its reduction is visible
    from gqem import qem

    chart = make_chart(ModelSpec("euclidean", 3, tau=1.0, m=2.0))
    coef = (0.4, -0.5, 0.3)
    f = ScalarField.from_coords(
        3, lambda x, y, z: x * x * x * coef[0] + y * y * y * coef[1] + z * z * z * coef[2], "cubic"
    )
    s = make_structure(chart, f, m=2.0)
    largest = lambda tv: float(np.max(np.abs(tv.components)))
    at = lambda p: StructureFrame(s, p)
    oracles = {
        "defining_equation": lambda p: largest(qem.defining_residual(s, p)),
        "traceless_defining": lambda p: largest(qem.traceless_residual(s, p)),
        "u_transform": lambda p: largest(qem.u_transform_residual(s, p)),
        "radial_identity": lambda p: abs(qem.radial_identity_residual(s, p)),
        "u_laplacian": lambda p: float(residual(*qem.u_laplacian_values(at(p)))),
        "trace_divergence": lambda p: float(residual(*qem.trace_divergence_values(at(p)))),
    }
    pts = sample_points(chart, 4, seed=21)
    suite = lambda sample: {e.identity_id: e for e in
                            idt.run_pointwise_suite(s, sample, TOLS, ids=list(oracles))}
    whole = suite(pts)
    for p in pts:
        single = suite(p[None, :])
        for ident, oracle in oracles.items():
            want = oracle(p)
            assert single[ident].max_residual == want, ident
            assert single[ident].mean_residual == want, ident
    for ident, oracle in oracles.items():
        wants = [oracle(p) for p in pts]
        assert whole[ident].n_points == 4
        assert whole[ident].max_residual == pytest.approx(max(wants), rel=1e-12, abs=1e-15)
        assert whole[ident].mean_residual == pytest.approx(np.mean(wants), rel=1e-12, abs=1e-15)
    # the residuals the test relies on are really there
    assert oracles["defining_equation"](pts[0]) > 1e-3
    assert oracles["radial_identity"](pts[0]) > 1e-3


def _cubic_control_n3():
    chart = make_chart(ModelSpec("euclidean", 3, tau=1.0, m=2.0))
    coef = (0.4, -0.5, 0.3)
    f = ScalarField.from_coords(
        3, lambda x, y, z: x * x * x * coef[0] + y * y * y * coef[1] + z * z * z * coef[2], "cubic"
    )
    return make_structure(chart, f, m=2.0)


def test_chunked_suite_equals_one_batch(monkeypatch):
    # the cubic control's c varies over the sample, so the profile row shows
    # whether every chunk uses the first point's c and the whole sample's spread
    seen, profiles = {}, []

    def spy(info):
        def runner(fr, *args):
            seen.setdefault(info.identity_id, []).append(len(fr.p))
            out = info.runner(fr, *args)
            if info.kind == "profile":
                profiles.append((args, out))
            return out
        return runner

    for s in (_cubic_control_n3(), example_structure(ModelSpec("sphere", 3, tau=1.5, m=2.0))):
        pts = sample_points(s.chart, 20, seed=22)
        whole = idt.run_pointwise_suite(s, pts, TOLS)
        if s.chart.family == "euclidean":  # the control fails the profile row
            assert {e.identity_id: e for e in whole}["einstein_hessian"].max_residual > 1e-3
        monkeypatch.setattr(qem, "_CHUNK", 7)
        monkeypatch.setattr(idt, "CATALOG", tuple(
            dataclasses.replace(info, runner=spy(info)) for info in idt.CATALOG))
        seen.clear()
        profiles.clear()
        chunked = idt.run_pointwise_suite(s, pts, TOLS)
        first_c = profiles[0][1].c_estimate
        assert [args for args, _ in profiles] == [(), (first_c,), (first_c,)]
        monkeypatch.undo()
        bits = lambda entries: [
            (e.identity_id, e.n_points, e.max_residual.hex(), e.mean_residual.hex(), e.passed)
            for e in entries]
        assert bits(chunked) == bits(whole)
        assert "einstein_hessian" in seen
        assert all(sizes == [7, 7, 6] for sizes in seen.values()), seen


def test_is_gqem_equals_the_defining_row_past_one_chunk():
    # 600 points are three chunks, whose per-point residuals both reductions join
    s = example_structure(ModelSpec("sphere", 3, tau=1.5, m=2.0))
    pts = sample_points(s.chart, 600, seed=4)
    (row,) = idt.run_pointwise_suite(s, pts, TOLS, ids=["defining_equation"])
    chk = is_gqem(s, pts, 1e-8)
    assert chk.n_points == row.n_points == 600
    assert chk.sup_residual.hex() == row.max_residual.hex()
    assert chk.mean_residual.hex() == row.mean_residual.hex()


@pytest.mark.parametrize("family", ["euclidean", "sphere", "hyperbolic"])
def test_a_chunk_of_the_large_batch_size_keeps_every_row(family, monkeypatch):
    # at 600 points a frame holds row-form jets, and a runner may return a
    # residual that only broadcasts to the batch (contracted_bianchi on the
    # flat chart returns shape (1,)); every row keeps the default chunks' bits
    s = example_structure(ModelSpec(family, 3, tau=1.5, m=2.0))
    pts = sample_points(s.chart, 600, seed=4)
    bits = lambda entries: [
        (e.identity_id, e.n_points, e.max_residual.hex(), e.mean_residual.hex(), e.passed)
        for e in entries]
    chunked = bits(idt.run_pointwise_suite(s, pts, TOLS))
    monkeypatch.setattr(qem, "_CHUNK", 600)
    assert len(qem.chunks(pts)) == 1 and 600 >= ROW_BATCH
    assert bits(idt.run_pointwise_suite(s, pts, TOLS)) == chunked
    assert len(chunked) == len(idt.CATALOG) == 18


def test_joined_profile_equals_the_whole_sample():
    s = _cubic_control_n3()
    pts = sample_points(s.chart, 20, seed=23)
    whole = idt.einstein_hessian_profile(StructureFrame(s, pts))
    joined = idt.einstein_hessian_profile(StructureFrame(s, pts[:7]))
    for part in (pts[7:14], pts[14:]):
        part_profile = idt.einstein_hessian_profile(StructureFrame(s, part), joined.c_estimate)
        joined = joined.join(part_profile)
    assert dataclasses.astuple(joined) == dataclasses.astuple(whole)
    assert whole.c_spread > 1e-3 and whole.hessian_residual > 1e-3
    nan = dataclasses.replace(whole, hessian_residual=math.nan)
    assert math.isnan(whole.join(nan).hessian_residual)
    assert math.isnan(nan.join(whole).hessian_residual)


def test_residual_paths_call_no_lapack_inverse(monkeypatch):
    # every residual reads g^-1 from the frame's jet inverse, never np.linalg.inv
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    s3 = example_structure(ModelSpec("sphere", 3, tau=1.5, m=2.0))
    pts = sample_points(s3.chart, 5, seed=4)
    entries = idt.run_pointwise_suite(s3, pts, TOLS)
    assert len(entries) == len(idt.CATALOG)
    assert all(e.passed for e in entries)
    assert is_gqem(s3, pts, 1e-8).passed
    node_passes = []
    node_pass = quad._node_quantities
    monkeypatch.setattr(quad, "_node_quantities", lambda *a: node_passes.append(1) or node_pass(*a))
    s2 = example_structure(ModelSpec("sphere", 2, tau=1.5, m=2.0, chart_kind="polar"))
    rows = quad.run_integral_suite(quad.make_sphere_grid(s2.chart, (8, 16)), s2, 1e-6)
    assert len(rows) == 6 and all(np.isfinite(r["relative_gap"]) for r in rows)
    assert len(node_passes) == 1


def test_selection_of_which_no_row_applies_is_rejected_by_name():
    s = gaussian_soliton(2)  # m = inf, n = 2
    with pytest.raises(ValueError, match="skipped: einstein_hessian, u_transform$"):
        idt.run_pointwise_suite(s, np.zeros((1, 2)), TOLS, ids=["einstein_hessian", "u_transform"])


@pytest.mark.parametrize("ids", [None, ["defining_equation"], ["einstein_hessian"]])
def test_empty_sample_is_rejected_by_name(ids):
    s3 = example_structure(ModelSpec("sphere", 3, tau=1.5, m=2.0))
    with pytest.raises(ValueError, match="^empty sample$"):
        idt.run_pointwise_suite(s3, np.empty((0, 3)), TOLS, ids=ids)


def test_rows_that_need_a_model_family_are_skipped_on_a_chart_with_none():
    s = make_structure(warped_chart(3), ScalarField.from_coords(3, lambda *x: x[0] * x[1], "f"), m=2.0)
    assert s.chart.family is None and s.m_finite
    for row in ("u_conformality", "einstein_hessian"):
        assert idt.CATALOG_BY_ID[row].needs_einstein_base
        assert not idt.applicable(idt.CATALOG_BY_ID[row], s)
    family = make_structure(make_chart(ModelSpec("euclidean", 3, tau=1.0, m=2.0)), s.f, m=2.0)
    assert idt.applicable(idt.CATALOG_BY_ID["u_conformality"], family)


def no_frames(monkeypatch):
    """Fails the test if `run_pointwise_suite` builds a frame."""
    def refuse(*args, **kwargs):
        raise AssertionError("a frame was built")

    monkeypatch.setattr(idt, "StructureFrame", refuse)


def test_an_unknown_id_is_a_value_error_before_any_frame(sphere22, monkeypatch):
    no_frames(monkeypatch)
    pts = sample_points(sphere22.chart, 3, seed=15)
    with pytest.raises(ValueError, match="unknown identity id.*'nope'"):
        idt.run_pointwise_suite(sphere22, pts, TOLS, ids=["defining_equation", "nope"])


def test_a_missing_tolerance_class_is_a_value_error_before_any_frame(sphere22, monkeypatch):
    no_frames(monkeypatch)
    pts = sample_points(sphere22.chart, 3, seed=15)
    ids = [info.identity_id for info in idt.CATALOG if info.order_class == 3][:1]
    assert ids
    with pytest.raises(ValueError, match=r"no tolerance for order class\(es\) \[3\]"):
        idt.run_pointwise_suite(sphere22, pts, {2: 1e-8, 4: 1e-6}, ids=ids)


GOLDEN_STRUCTURES = {
    "sphere3": lambda: example_structure(ModelSpec("sphere", 3, tau=1.5, m=2.0)),
    "hyperbolic4": lambda: example_structure(ModelSpec("hyperbolic", 4, tau=0.5, m=2.0)),
    "cubic3": _cubic_control_n3,
}
GOLDEN_RESIDUALS = {
    ("sphere3", 1): {"defining_equation": "c0dd107c521b0b8f",
        "traceless_defining": "9c6e07570ed26eeb", "radial_identity": "58745e91e74c5ea8",
        "trace_gradient": "1bed018becbbb173", "u_transform": "62809105adb03035",
        "u_laplacian": "a2077e69a55c3809", "trace_divergence": "611ae5cc88cc102b",
        "gradient_norm_laplacian": "c0205f840a0fcd71", "curvature_gradient": "eca3757060052aef",
        "hamilton_gradient": "3349990a00d1bd31", "curvature_laplacian": "193d1016d2e64dc0",
        "u_conformality": "7147a3c7d17634bb", "contracted_bianchi": "747908399b8a9d0c",
        "div_hessian": "e8ed67c761ed1467", "div_outer_grad": "f5abdb9388840eb1",
        "bochner": "d9f6cfdacce617be", "lie_divergence": "49b2ecd9eda00a42"},
    ("sphere3", 100): {"defining_equation": "5c6ac0663a501a33",
        "traceless_defining": "5c973978814d73c0", "radial_identity": "70d1e6c1e6e242af",
        "trace_gradient": "127fa1dbb07dbdc5", "u_transform": "1b157553b0a2c844",
        "u_laplacian": "2dd3e990b67ce750", "trace_divergence": "2d33b0ec44112a04",
        "gradient_norm_laplacian": "b80d9994f4e9fc6b", "curvature_gradient": "a560a301e649dbca",
        "hamilton_gradient": "1997ddf58a90b2eb", "curvature_laplacian": "df4246821bb78a66",
        "u_conformality": "24df03f1201f9f30", "contracted_bianchi": "4f1177fea50e6436",
        "div_hessian": "bce749dd265951ca", "div_outer_grad": "c2600676f0f71a00",
        "bochner": "2cc23b240736c532", "lie_divergence": "1f6ce9b3feec10e3"},
    ("hyperbolic4", 1): {"defining_equation": "3b4794948c65a4bc",
        "traceless_defining": "64d06af51720dce4", "radial_identity": "2be77d78bc58f1a3",
        "trace_gradient": "4102f856b71f883b", "u_transform": "5ff628b7f53b763b",
        "u_laplacian": "92041327190fdcf7", "trace_divergence": "92041327190fdcf7",
        "gradient_norm_laplacian": "a35110d86fd9e0dd", "curvature_gradient": "1b0af72df75ef20f",
        "hamilton_gradient": "6b90b7e293e24291", "curvature_laplacian": "6714327557f6b790",
        "u_conformality": "b97b348a53bd9718", "contracted_bianchi": "3f1e8fcfb015e560",
        "div_hessian": "87bb2bb08eabbe26", "div_outer_grad": "b73eccd0fe00d56d",
        "bochner": "e8821c48b596029a", "lie_divergence": "59159d6e3a15892c"},
    ("hyperbolic4", 100): {"defining_equation": "77b136e1cc14f9a0",
        "traceless_defining": "6072f69624886814", "radial_identity": "28768ce2aff55a88",
        "trace_gradient": "6be25434b924fe7c", "u_transform": "b3f4cfe8bd1dd7c8",
        "u_laplacian": "e77552daa3c78a64", "trace_divergence": "8b8ae21f14607cc5",
        "gradient_norm_laplacian": "328efc7da56f453b", "curvature_gradient": "7a380f190db0ac62",
        "hamilton_gradient": "e220867b5cb2d549", "curvature_laplacian": "1bc42b087661639d",
        "u_conformality": "f2b89e21f8f4f1f4", "contracted_bianchi": "dcd3fff0ee0c8b3a",
        "div_hessian": "dc822a24b20fe72b", "div_outer_grad": "ae2de41dd30f213f",
        "bochner": "5bed9758935c0636", "lie_divergence": "ed19832a004fc2ec"},
    ("cubic3", 1): {"defining_equation": "0521ab194f1cec18",
        "traceless_defining": "4a242b2acdfc1e3d", "radial_identity": "90c0395e0fb030d8",
        "trace_gradient": "59159d6e3a15892c", "u_transform": "cd6b6b3f89720349",
        "u_laplacian": "9ebe86bf8c4147a0", "trace_divergence": "c3ed6470b21cc781",
        "gradient_norm_laplacian": "53d5c5a3fed504bb", "curvature_gradient": "b76c286664b07761",
        "hamilton_gradient": "e73eb3329a2e7ecd", "curvature_laplacian": "26b403519a13d4c9",
        "u_conformality": "6df63b3964114e31", "contracted_bianchi": "9ebe86bf8c4147a0",
        "div_hessian": "9ebe86bf8c4147a0", "div_outer_grad": "6bd3ab67d45a09e4",
        "bochner": "59159d6e3a15892c", "lie_divergence": "59159d6e3a15892c"},
    ("cubic3", 100): {"defining_equation": "0cdfe46069d02aa8",
        "traceless_defining": "b1995b2665a19b56", "radial_identity": "58f1452d5531c90e",
        "trace_gradient": "af17ebbcb5c007c9", "u_transform": "e4f53e0423c8059f",
        "u_laplacian": "2d20c68f44e507c1", "trace_divergence": "660ccfa1e310380f",
        "gradient_norm_laplacian": "c6a56d352af618d1", "curvature_gradient": "a0425a408b805fa3",
        "hamilton_gradient": "81c5bcd1f833ae8b", "curvature_laplacian": "a19c384a125dee36",
        "u_conformality": "d4f83d03edc69009", "contracted_bianchi": "25a9565d0048ee6e",
        "div_hessian": "25a9565d0048ee6e", "div_outer_grad": "e422cc3818356928",
        "bochner": "be6c6d27f99010e1", "lie_divergence": "595f2caf985fc373"},
}


@pytest.mark.parametrize("batch", [1, 100])
@pytest.mark.parametrize("case", list(GOLDEN_STRUCTURES))
def test_pointwise_residuals_keep_their_bits(case, batch):
    # sha256 of `float.hex` of every row's residual, component by component and
    # broadcast to the batch; recorded before the rows returned signed terms, so
    # a moved term or a changed summation order shows here, labelled by its row
    s = GOLDEN_STRUCTURES[case]()
    pts = sample_points(s.chart, 100, seed=41)[:batch]
    got = {}
    for info in idt.CATALOG:
        if info.kind == "pointwise" and idt.applicable(info, s):
            res = residual(*info.runner(StructureFrame(s, pts)))
            res = np.broadcast_to(res, (batch,) + np.shape(res)[1:])
            got[info.identity_id] = hashlib.sha256(
                " ".join(map(float.hex, res.ravel().tolist())).encode()).hexdigest()[:16]
    assert got == GOLDEN_RESIDUALS[case, batch]


GOLDEN_PROFILES = {
    ("sphere3", 1): "13cdc1dbc70ac2f8", ("sphere3", 100): "8490043b63745059",
    ("hyperbolic4", 1): "e98fc18e2842df24", ("hyperbolic4", 100): "0c0bdf3d6b24372f",
}


@pytest.mark.parametrize("batch", [1, 100])
@pytest.mark.parametrize("case", ["sphere3", "hyperbolic4"])
def test_einstein_profile_keeps_its_bits(case, batch):
    # sha256 of `float.hex` of the profile's six fields, recorded before the
    # profile read its three gaps through `qem.residual`
    s = GOLDEN_STRUCTURES[case]()
    pts = sample_points(s.chart, 100, seed=41)[:batch]
    profile = idt.einstein_hessian_profile(StructureFrame(s, pts))
    fields = " ".join(map(float.hex, dataclasses.astuple(profile)))
    assert hashlib.sha256(fields.encode()).hexdigest()[:16] == GOLDEN_PROFILES[case, batch]
