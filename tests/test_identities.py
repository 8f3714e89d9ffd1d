"""Lemma-level identity verifiers: positive cases, edge cases, negative controls."""

import math

import numpy as np
import pytest

from gqem import identities as idt
from gqem import jets
from gqem.geometry import ScalarField, grad_field
from gqem.models import (
    ModelSpec,
    example_structure,
    gaussian_soliton,
    make_chart,
    sample_points,
    trivial_structure,
)
from gqem.qem import make_structure

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
        assert np.max(idt.gradient_norm_laplacian_residual(s, pts)) < 1e-7
    pts = sample_points(sphere22.chart, 50, seed=0)
    assert np.max(idt.gradient_norm_laplacian_residual(sphere22, pts)) < 1e-7


def test_gradient_norm_laplacian_constant_potential():
    s = trivial_structure("sphere", 2, m=2.0)
    assert idt.gradient_norm_laplacian_residual(s, np.array([0.3, 0.4])) < 1e-13


def test_gradient_norm_laplacian_negative_control(euclid2):
    # f = x^3 with trace-solved lambda satisfies only the trace, not the full
    # tensor equation, so the identity must fail; hand value at (1,0), m=1:
    # LHS = 54, RHS = 36 + 108 = 144
    f3 = ScalarField.from_coords(2, lambda x, y: x * x * x, "x^3")
    bad = make_structure(euclid2, f3, m=1.0)
    res = idt.gradient_norm_laplacian_residual(bad, np.array([1.0, 0.0]))
    assert res == pytest.approx(90.0, abs=1e-9)


def test_curvature_gradient_on_models():
    for spec in (ModelSpec("sphere", 2, tau=0.8, m=1.0),
                 ModelSpec("euclidean", 3, tau=1.0, m=5.0),
                 ModelSpec("hyperbolic", 4, tau=0.5, m=2.0)):
        s = example_structure(spec)
        pts = sample_points(s.chart, 40, seed=1)
        assert np.max(idt.curvature_gradient_residual(s, pts)) < 1e-7


def test_curvature_gradient_trivial_cases():
    s = trivial_structure("sphere", 2, m=2.0)
    assert idt.curvature_gradient_residual(s, np.array([0.2, -0.3])) < 1e-12
    gs = gaussian_soliton(2)
    assert idt.curvature_gradient_residual(gs, np.array([0.5, 0.1])) < 1e-13


def test_hamilton_gradient_on_models(sphere22):
    pts = sample_points(sphere22.chart, 40, seed=2)
    assert np.max(idt.hamilton_gradient_residual(sphere22, pts)) < 1e-7
    s = example_structure(ModelSpec("euclidean", 2, tau=2.0, m=2.0))
    pts = sample_points(s.chart, 40, seed=2)
    assert np.max(idt.hamilton_gradient_residual(s, pts)) < 1e-7


def test_hamilton_gradient_gaussian_soliton():
    # m = inf with constant lambda: grad(R + |grad f|^2) = 2 lambda grad f
    gs = gaussian_soliton(3)
    pts = sample_points(gs.chart, 20, seed=3)
    assert np.max(idt.hamilton_gradient_residual(gs, pts)) < 1e-12


def test_trace_gradient_identity(sphere22):
    pts = sample_points(sphere22.chart, 40, seed=4)
    assert np.max(idt.trace_gradient_residual(sphere22, pts)) < 1e-7


def test_einstein_hessian_profile_all_families():
    for family, tau, m in (("sphere", 1.0, 2.0), ("euclidean", 1.0, 2.0),
                           ("hyperbolic", 0.5, 2.0)):
        s = example_structure(ModelSpec(family, 3, tau=tau, m=m))
        prof = idt.einstein_hessian_profile(s, sample_points(s.chart, 30, seed=5))
        assert prof.c_spread < 1e-9, family
        assert prof.hessian_residual < 1e-8
        assert prof.lap_residual < 1e-8
        assert prof.gradlam_residual < 1e-8


def test_einstein_hessian_constants_hand_values():
    # c = m tau on the unit sphere, c = 2m on euclidean space, c = -m tau hyperbolic
    s = example_structure(ModelSpec("sphere", 3, tau=1.0, m=2.0))
    assert idt.einstein_hessian_profile(s, sample_points(s.chart, 5, seed=6)).c_estimate \
        == pytest.approx(2.0, abs=1e-10)
    s = example_structure(ModelSpec("euclidean", 3, tau=1.0, m=2.0))
    assert idt.einstein_hessian_profile(s, sample_points(s.chart, 5, seed=6)).c_estimate \
        == pytest.approx(4.0, abs=1e-12)
    s = example_structure(ModelSpec("hyperbolic", 3, tau=0.5, m=2.0))
    assert idt.einstein_hessian_profile(s, sample_points(s.chart, 5, seed=6)).c_estimate \
        == pytest.approx(-1.0, abs=1e-10)


def test_einstein_hessian_gates():
    s2 = example_structure(ModelSpec("sphere", 2, tau=1.0, m=2.0))
    with pytest.raises(ValueError, match="dim >= 3"):
        idt.einstein_hessian_profile(s2, np.zeros((1, 2)))
    gs = gaussian_soliton(3)
    with pytest.raises(ValueError, match="finite m"):
        idt.einstein_hessian_profile(gs, np.zeros((1, 3)))


def test_curvature_laplacian_on_models(sphere22):
    pts = sample_points(sphere22.chart, 25, seed=7)
    assert np.max(idt.curvature_laplacian_residual(sphere22, pts)) < 1e-6
    s = example_structure(ModelSpec("euclidean", 2, tau=1.0, m=2.0))
    pts = sample_points(s.chart, 25, seed=7)
    assert np.max(idt.curvature_laplacian_residual(s, pts)) < 1e-6


def test_curvature_laplacian_constant_potential():
    s = trivial_structure("sphere", 2, m=2.0)
    assert idt.curvature_laplacian_residual(s, np.array([0.6, 0.1])) < 1e-11


def test_curvature_laplacian_jet_vs_finite_difference(sphere22):
    # same identity with lap R from second differences of the curvature field
    for p in sample_points(sphere22.chart, 5, seed=8):
        r_jet = float(idt.curvature_laplacian_residual(sphere22, p))
        r_fd = float(idt.curvature_laplacian_residual(sphere22, p, fd_step=1e-3))
        assert abs(r_jet - r_fd) < 1e-4


def test_conformality_residual_cases(euclid2):
    s = example_structure(ModelSpec("euclidean", 2, tau=1.0, m=2.0))
    pts = sample_points(s.chart, 20, seed=9)
    # grad u has hess u = 2 g: conformal
    assert np.max(idt.u_conformality_residual(s, pts)) < 1e-12
    # grad(x^3) is not conformal away from x = 0
    phi = ScalarField.from_coords(2, lambda x, y: x * x * x, "x^3")
    res = idt.conformality_residual(euclid2, grad_field(euclid2, phi), np.array([1.0, 0.0]))
    assert res > 1.0


def test_sign_scan_detects_both_signs(sphere22):
    pts = sample_points(sphere22.chart, 200, seed=10)
    scan = idt.sign_scan_r_minus_n_lambda(sphere22, pts)
    assert scan.minimum < 0.0 < scan.maximum
    assert scan.sign_changes


def test_sign_scan_trivial_structure():
    s = trivial_structure("sphere", 2, m=2.0)
    scan = idt.sign_scan_r_minus_n_lambda(s, sample_points(s.chart, 50, seed=11))
    assert abs(scan.minimum) < 1e-10 and abs(scan.maximum) < 1e-10
    assert not scan.sign_changes


def test_sign_scan_noncompact_no_assertion():
    # evaluation allowed on a noncompact model, conclusion simply reported
    s = example_structure(ModelSpec("euclidean", 2, tau=1.0, m=2.0))
    scan = idt.sign_scan_r_minus_n_lambda(s, sample_points(s.chart, 50, seed=12))
    assert scan.maximum > 0.0  # R - n lambda = 2mn/u > 0 on euclidean examples
    assert not scan.sign_changes


def test_critical_point_count(sphere22):
    pts = sample_points(sphere22.chart, 50, seed=13)
    assert idt.count_sample_critical_points(sphere22, pts) == 0


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
    from gqem.qem import StructureFrame

    s = sphere22
    pts = sample_points(s.chart, 30, seed=16)
    fr = StructureFrame(s, pts)
    n = fr.n
    gf = np.stack([j.value for j in fr.grad_f(0)], axis=-1)
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
        assert set(info.orders) == {"g", "f", "lambda"}
        assert info.order_class in (2, 3, 4)
    heavy = idt.CATALOG_BY_ID["curvature_laplacian"]
    assert heavy.orders == {"g": 4, "f": 3, "lambda": 2}


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
    oracles = {
        "defining_equation": lambda p: largest(qem.defining_residual(s, p)),
        "traceless_defining": lambda p: largest(qem.traceless_residual(s, p)),
        "u_transform": lambda p: largest(qem.u_transform_residual(s, p)),
        "radial_identity": lambda p: abs(qem.radial_identity_residual(s, p)),
        "u_laplacian": lambda p: abs(float(qem.u_laplacian_values(s, p))),
        "trace_divergence": lambda p: abs(float(qem.trace_divergence_values(s, p))),
    }
    pts = sample_points(chart, 4, seed=21)
    for ident, oracle in oracles.items():
        runner = idt.CATALOG_BY_ID[ident].runner
        batch = runner(s, pts)
        assert batch.shape == (4,)
        for k, p in enumerate(pts):
            want = oracle(p)
            assert float(runner(s, p)) == want, ident
            assert batch[k] == pytest.approx(want, rel=1e-12, abs=1e-15), ident
    # the residuals the test relies on are really there
    assert oracles["defining_equation"](pts[0]) > 1e-3
    assert oracles["radial_identity"](pts[0]) > 1e-3
