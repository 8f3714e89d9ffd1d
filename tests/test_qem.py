"""Bakry-Emery tensor, trace solver, and defining-equation residual checks."""

import math

import numpy as np
import pytest

from gqem import geometry as geo
from gqem import identities as idt
from gqem import jets, qem
from gqem.geometry import ScalarField
from gqem.models import (
    ModelSpec,
    example_structure,
    gaussian_soliton,
    make_chart,
    sample_points,
    trivial_structure,
)
from gqem.qem import (
    StructureFrame,
    bakry_emery_ricci,
    defining_residual,
    is_gqem,
    make_structure,
    radial_identity_residual,
    rank_one_proportionality,
    residual,
    traceless_residual,
    u_transform_residual,
    u_transform_values,
)


@pytest.fixture(scope="module")
def euclid2():
    return make_chart(ModelSpec("euclidean", 2, tau=1.0, m=1.0))


def test_constant_potential_euclidean(euclid2):
    s = make_structure(euclid2, ScalarField.constant(2, 0.0), m=2.0)
    be = bakry_emery_ricci(s, np.array([0.3, 0.7]))
    assert np.max(np.abs(be.components)) == 0.0


def test_constant_potential_sphere():
    s = trivial_structure("sphere", 2, m=2.0)
    p = np.array([0.5, -0.4])
    be = bakry_emery_ricci(s, p)
    g = geo.ChartFrame(s.chart, p).metric_values()
    assert np.allclose(be.components, g, atol=1e-12)  # Ric = (n-1) g with n = 2


def test_bakry_emery_proportional_to_metric():
    s = example_structure(ModelSpec("euclidean", 3, tau=1.0, m=2.0))
    for p in sample_points(s.chart, 10, seed=0):
        be = bakry_emery_ricci(s, p)
        lam = -2.0 * s.m / s.u(p)
        g = geo.ChartFrame(s.chart, p).metric_values()
        assert np.max(np.abs(be.components - lam * g)) < 1e-10


def test_solve_lambda_euclidean_hand_value(euclid2):
    s = example_structure(ModelSpec("euclidean", 2, tau=1.0, m=3.0))
    p = np.array([1.0, 0.0])
    # lap f = -3 and |grad f|^2 = 9 at this point
    frame = qem.StructureFrame(s, p)
    assert frame.laplacian(s.f, 0).value == pytest.approx(-3.0, abs=1e-12)
    assert frame.grad_norm2(s.f, 0).value == pytest.approx(9.0, abs=1e-12)
    assert qem.trace_lambda_field(s.chart, s.f, 3.0)(p) == pytest.approx(-3.0, abs=1e-12)


def test_solve_lambda_constant_potential():
    s = trivial_structure("hyperbolic", 3, m=2.0)
    p = np.array([0.2, -0.1, 0.3])
    r = geo.scalar_curvature(s.chart, p)
    assert qem.trace_lambda_field(s.chart, s.f, 2.0)(p) == pytest.approx(r / 3.0, abs=1e-11)


def test_is_gqem_passes_on_models_fails_on_controls(euclid2):
    s = example_structure(ModelSpec("sphere", 2, tau=1.0, m=2.0))
    assert is_gqem(s, sample_points(s.chart, 100, seed=1), 1e-8).passed

    # the linear potential with finite m and trace-solved lambda is not a structure
    f_lin = ScalarField.from_coords(2, lambda x, y: x, "x1")
    bad = make_structure(euclid2, f_lin, m=1.0)
    chk = is_gqem(bad, np.array([[1.0, 0.0], [0.2, 0.4]]), 1e-8)
    assert not chk.passed
    # residual is exactly (1/m)(1 - 1/n) = 1/2 componentwise
    assert chk.sup_residual == pytest.approx(0.5, abs=1e-13)
    t = traceless_residual(bad, np.array([1.0, 0.0]))
    assert np.max(np.abs(t.components)) == pytest.approx(0.5, abs=1e-13)


def test_gaussian_soliton_passes():
    gs = gaussian_soliton(2)
    chk = is_gqem(gs, sample_points(gs.chart, 50, seed=2), 1e-8)
    assert chk.passed and chk.sup_residual < 1e-12


def test_is_gqem_empty_sample_rejected():
    s = trivial_structure("euclidean", 2)
    with pytest.raises(ValueError, match="^empty sample$"):
        is_gqem(s, np.zeros((0, 2)), 1e-8)


def test_u_transform_identity_for_random_potential(euclid2):
    # pointwise algebraic identity in the derivatives of f, any smooth f
    f = ScalarField.from_coords(2, lambda x, y: x * x * y + 0.3 * y * y - x, "poly")
    s = make_structure(euclid2, f, m=2.5)
    pts = sample_points(euclid2, 40, seed=3)
    assert np.max(residual(*u_transform_values(StructureFrame(s, pts)))) < 1e-9


def test_u_transform_on_example_and_conformality():
    s = example_structure(ModelSpec("sphere", 3, tau=1.0, m=2.0))
    pts = sample_points(s.chart, 30, seed=4)
    assert np.max(residual(*u_transform_values(StructureFrame(s, pts)))) < 1e-9
    # grad u conformal on the Einstein base: hess u - (lap u / n) g = 0
    u_conformality = idt.CATALOG_BY_ID["u_conformality"].runner
    assert np.max(residual(*u_conformality(StructureFrame(s, pts)))) < 1e-9


def test_u_transform_requires_finite_m():
    gs = gaussian_soliton(2)
    with pytest.raises(jets.OrderCapabilityError, match="finite m"):
        u_transform_residual(gs, np.zeros(2))


def test_u_transform_constant_potential(euclid2):
    s = make_structure(euclid2, ScalarField.constant(2, 1.3), m=2.0)
    t = u_transform_residual(s, np.array([0.1, 0.2]))
    assert np.max(np.abs(t.components)) < 1e-14


def test_radial_identity(euclid2):
    s = example_structure(ModelSpec("hyperbolic", 2, tau=0.5, m=2.0))
    pts = sample_points(s.chart, 40, seed=5)
    assert np.max(residual(*qem.radial_identity_values(StructureFrame(s, pts)))) < 1e-8

    s0 = make_structure(euclid2, ScalarField.constant(2, 0.7), m=2.0)
    assert radial_identity_residual(s0, np.array([0.3, 0.1])) == 0.0

    f3 = ScalarField.from_coords(2, lambda x, y: x * x * x, "x^3")
    bad = make_structure(euclid2, f3, m=1.0)
    assert abs(radial_identity_residual(bad, np.array([1.0, 0.0]))) > 1.0


def test_defining_residual_tensor_value():
    s = example_structure(ModelSpec("sphere", 2, tau=1.5, m=1.0))
    p = np.array([0.4, -0.2])
    res = defining_residual(s, p)
    assert (res.con, res.cov) == (0, 2)
    assert np.max(np.abs(res.components)) < 1e-12


def test_u_laplacian_and_trace_divergence_identities():
    s = example_structure(ModelSpec("sphere", 2, tau=1.0, m=2.0))
    pts = sample_points(s.chart, 50, seed=6)
    assert np.max(residual(*qem.u_laplacian_values(StructureFrame(s, pts)))) < 1e-8
    assert np.max(residual(*qem.trace_divergence_values(StructureFrame(s, pts)))) < 1e-8
    gs = gaussian_soliton(2)
    with pytest.raises(jets.OrderCapabilityError):
        qem.u_laplacian_values(StructureFrame(gs, np.zeros((1, 2))))


def test_infinite_m_guards_keep_their_exception_types():
    fr = StructureFrame(gaussian_soliton(2), np.zeros((1, 2)))
    with pytest.raises(jets.OrderCapabilityError, match="requires finite m"):
        qem.trace_divergence_values(fr)
    with pytest.raises(ValueError, match="stated for finite m"):
        idt.curvature_laplacian_residual(fr)


def test_rank_one_proportionality_decisions():
    g = np.eye(2)
    zero = rank_one_proportionality(np.zeros(2), g)
    assert zero.decision == "zero" and zero.rho == 0.0
    e1 = rank_one_proportionality(np.array([1.0, 0.0]), g)
    assert e1.decision == "impossible"
    v34 = rank_one_proportionality(np.array([3.0, 4.0]), g)
    assert v34.decision == "impossible"
    assert v34.eigen_gap == pytest.approx(25.0)
    with pytest.raises(ValueError, match="dim >= 2"):
        rank_one_proportionality(np.array([1.0]), np.eye(1))


def test_conformal_gradient_with_finite_m_forces_zero():
    # on an Einstein chart a conformal gradient with finite m satisfies
    # (1/m) df (x) df = |grad f|^2 g, which the rank-one detector rejects
    # unless grad f = 0
    s = example_structure(ModelSpec("sphere", 3, tau=1.0, m=2.0))
    p = sample_points(s.chart, 1, seed=7)[0]
    frame = qem.StructureFrame(s, p)
    gf = frame.grad_values(s.f)
    g = frame.metric_values()
    decision = rank_one_proportionality(gf, g)
    assert decision.decision == "impossible"  # grad f != 0: no conformal trap
    # and the zero vector is the only admissible solution
    assert rank_one_proportionality(np.zeros(3), g).decision == "zero"


def test_make_structure_rejects_bad_m(euclid2):
    with pytest.raises(ValueError, match="m must be positive"):
        make_structure(euclid2, ScalarField.constant(2, 0.0), m=0.0)


def test_require_u_refuses_infinite_m():
    s = gaussian_soliton(2)
    assert not s.m_finite and s.u is None
    with pytest.raises(jets.OrderCapabilityError, match="m = inf"):
        s.require_u()
