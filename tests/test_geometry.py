"""Curvature operators and differential-operator identities on model charts."""

import hashlib

import numpy as np
import pytest

from gqem import geometry as geo
from gqem import identities as idt
from gqem import jets
from gqem.geometry import ScalarField, VectorField, tensor2_norm2_g
from gqem.models import ModelSpec, example_structure, height_field, make_chart, sample_points
from gqem.qem import StructureFrame, residual
from fd_oracle import fd_laplacian_scalar_curvature
from test_charts import warped_chart


@pytest.fixture(scope="module")
def sphere_polar():
    return make_chart(ModelSpec("sphere", 2, tau=1.0, m=1.0, chart_kind="polar"))


@pytest.fixture(scope="module")
def sphere_stereo():
    return make_chart(ModelSpec("sphere", 2, tau=1.0, m=1.0, chart_kind="stereographic"))


@pytest.fixture(scope="module")
def euclid2():
    return make_chart(ModelSpec("euclidean", 2, tau=1.0, m=1.0))


@pytest.fixture(scope="module")
def ball2():
    return make_chart(ModelSpec("hyperbolic", 2, tau=1.0, m=1.0))


def test_christoffel_euclidean_vanishes(euclid2):
    gam = geo.christoffel(euclid2, np.array([0.7, -1.3]))
    assert np.max(np.abs(gam.components)) == 0.0
    assert gam.con == 1 and gam.cov == 2


def test_christoffel_sphere_polar(sphere_polar):
    # Gamma^theta_{phi phi} = -sin(theta) cos(theta) = -sqrt(3)/4 at pi/3
    p = np.array([np.pi / 3, 1.1])
    gam = geo.christoffel(sphere_polar, p)
    assert gam.components[0, 1, 1] == pytest.approx(-np.sqrt(3) / 4, abs=1e-12)
    # symmetry in the lower pair
    assert np.allclose(gam.components, np.swapaxes(gam.components, 1, 2), atol=1e-14)


def test_christoffel_stereographic_origin(sphere_stereo):
    # the conformal factor is critical at the origin, so all symbols vanish
    gam = geo.christoffel(sphere_stereo, np.zeros(2))
    assert np.max(np.abs(gam.components)) < 1e-14


def test_unit_sphere_scalar_curvature(sphere_polar, sphere_stereo):
    for chart in (sphere_polar, sphere_stereo):
        for p in sample_points(chart, 5, seed=0):
            assert geo.scalar_curvature(chart, p) == pytest.approx(2.0, abs=1e-11)


def test_euclidean_ricci_flat(euclid2):
    ric = geo.ricci(euclid2, np.array([2.0, 3.0]))
    assert np.max(np.abs(ric.components)) == 0.0


def test_poincare_ball_einstein(ball2):
    # curvature -1: Ric = -(n-1) g
    p = np.zeros(2)
    ric = geo.ricci(ball2, p)
    g = geo.ChartFrame(ball2, p).metric_values()
    assert np.allclose(ric.components, -g, atol=1e-12)
    assert geo.scalar_curvature(ball2, np.array([0.4, 0.1])) == pytest.approx(-2.0, abs=1e-11)


def test_height_hessian_sphere(sphere_polar):
    # hess h_v = -h_v g on the unit sphere
    spec = ModelSpec("sphere", 2, tau=1.0, m=1.0, chart_kind="polar")
    h = height_field(spec, sphere_polar)
    for p in sample_points(sphere_polar, 5, seed=1):
        H = geo.ChartFrame(sphere_polar, p).hessian_values(h)
        g = geo.ChartFrame(sphere_polar, p).metric_values()
        assert np.max(np.abs(H + h(p) * g)) < 1e-11


def test_height_hessian_sphere_radius_scaling():
    spec = ModelSpec("sphere", 3, tau=1.2, m=1.0, radius=2.0, chart_kind="stereographic")
    chart = make_chart(spec)
    h = height_field(spec, chart)
    for p in sample_points(chart, 8, seed=2):
        H = geo.ChartFrame(chart, p).hessian_values(h)
        g = geo.ChartFrame(chart, p).metric_values()
        assert np.max(np.abs(H + h(p) / 4.0 * g)) < 1e-9


def test_height_hessian_hyperbolic(ball2):
    spec = ModelSpec("hyperbolic", 2, tau=1.0, m=1.0)
    h = height_field(spec, ball2)
    for p in sample_points(ball2, 5, seed=3):
        H = geo.ChartFrame(ball2, p).hessian_values(h)
        g = geo.ChartFrame(ball2, p).metric_values()
        assert np.max(np.abs(H - h(p) * g)) < 1e-10


def test_euclidean_norm_square_hessian(euclid2):
    phi = ScalarField.from_coords(2, lambda x, y: x * x + y * y, "|x|^2")
    H = geo.ChartFrame(euclid2, np.array([1.3, -0.4])).hessian_values(phi)
    assert np.allclose(H, 2.0 * np.eye(2), atol=1e-13)


def test_gradient_and_laplacian_polar(sphere_polar):
    spec = ModelSpec("sphere", 2, tau=1.0, m=1.0, chart_kind="polar")
    h = height_field(spec, sphere_polar)
    p = np.array([0.9, 2.0])
    frame = geo.ChartFrame(sphere_polar, p)
    # eigenfunction: lap h = -n h
    assert frame.laplacian(h, 0).value == pytest.approx(-2.0 * h(p), abs=1e-11)
    grad = frame.grad_values(h)
    # h = cos(theta): grad = g^{theta theta} (-sin theta) = -sin(theta) d_theta
    assert grad[0] == pytest.approx(-np.sin(p[0]), abs=1e-12)
    assert grad[1] == pytest.approx(0.0, abs=1e-12)


def test_constant_vector_field_euclidean(euclid2):
    X = VectorField.from_coords(
        2, lambda x, y: (jets.Jet.constant(np.ones(x.batch_shape), 2, x.order),
                         jets.Jet.constant(2 * np.ones(x.batch_shape), 2, x.order)),
        "const",
    )
    p = np.array([0.2, 0.5])
    frame = geo.ChartFrame(euclid2, p)
    cov = frame.covariant_vector(X, 0)
    assert np.max(np.abs([[c.value for c in row] for row in cov])) == 0.0
    lie = frame.lie_metric(X, 0)
    assert np.max(np.abs([[c.value for c in row] for row in lie])) == 0.0
    assert frame.div_vector(X, 0).value == 0.0


def test_lie_metric_of_gradient_is_twice_hessian(sphere_stereo):
    phi = ScalarField.from_coords(2, lambda x, y: jets.sin(x) * y, "test")
    X = geo.grad_field(sphere_stereo, phi)
    for p in sample_points(sphere_stereo, 4, seed=4):
        frame = geo.ChartFrame(sphere_stereo, p)
        lie = np.array([[c.value for c in row] for row in frame.lie_metric(X, 0)])
        H = frame.hessian_values(phi)
        assert np.max(np.abs(lie - 2.0 * H)) < 1e-10


def test_divergence_of_height_gradient(sphere_polar):
    spec = ModelSpec("sphere", 2, tau=1.0, m=1.0, chart_kind="polar")
    h = height_field(spec, sphere_polar)
    X = geo.grad_field(sphere_polar, h)
    for p in sample_points(sphere_polar, 4, seed=5):
        div = geo.ChartFrame(sphere_polar, p).div_vector(X, 0).value
        assert div == pytest.approx(-2.0 * h(p), abs=1e-11)


def test_directional_derivative_euclidean(euclid2):
    # nabla_X Y with X = (1, 0), Y = (x y, y^2): plain directional derivative
    X = VectorField.from_coords(
        2, lambda x, y: (jets.Jet.constant(np.ones(x.batch_shape), 2, x.order),
                         jets.Jet.constant(np.zeros(x.batch_shape), 2, x.order)),
        "e1",
    )
    Y = VectorField.from_coords(2, lambda x, y: (x * y, y * y), "Y")
    p = np.array([2.0, 3.0])
    frame = geo.ChartFrame(euclid2, p)
    cov = frame.covariant_vector(Y, 0)
    xv = [x.value for x in frame.field_jet(X, 0)]
    out = [sum(cov[i, j].value * xv[j] for j in range(2)) for i in range(2)]
    assert np.allclose(out, [3.0, 0.0], atol=1e-13)


def _spy(field):
    """Record the order of every call to the field's `jet`."""
    calls = []
    jet = field.jet

    def spy(coords):
        calls.append(coords[0].order)
        return jet(coords)

    field.jet = spy
    return calls


def test_field_jet_builds_each_field_once(sphere_stereo, monkeypatch):
    phi = ScalarField.from_coords(2, lambda x, y: jets.sin(x) * y + x * x, "phi")
    psi = ScalarField.from_coords(2, lambda x, y: jets.exp(x) - y, "phi")  # same label
    X = VectorField.from_coords(2, lambda x, y: (x * y, jets.cos(y)), "X")
    frame = geo.ChartFrame(sphere_stereo, sample_points(sphere_stereo, 3, seed=19))
    phi_calls, psi_calls, x_calls = _spy(phi), _spy(psi), _spy(X)

    f2, x2 = frame.field_jet(phi, 2), frame.field_jet(X, 2)
    f1, x1 = frame.field_jet(phi, 1), frame.field_jet(X, 1)
    assert phi_calls == [2] and x_calls == [2]
    assert f1.order == 1 and np.array_equal(f1.coeffs, f2.truncated(1).coeffs)
    assert len(x1) == 2
    for a, b in zip(x1, x2):
        assert a.order == 1 and np.array_equal(a.coeffs, b.truncated(1).coeffs)

    # another field, even one with the same label, gets its own entry
    p1 = frame.field_jet(psi, 1)
    assert psi_calls == [1] and phi_calls == [2]
    assert np.array_equal(p1.coeffs, psi.jet(jets.seed_point(frame.p, 1)).coeffs)
    assert not np.array_equal(p1.coeffs, f1.coeffs)

    # every memoized method truncates a cached higher order without rebuilding
    metric_calls = []
    metric_jets = geo.Chart.metric_jets
    monkeypatch.setattr(geo.Chart, "metric_jets", lambda chart, coords: (
        metric_calls.append(coords[0].order) or metric_jets(chart, coords)))
    gam2 = frame.gamma(2)
    gam1 = frame.gamma(1)
    assert metric_calls == [3]
    for a, b in zip(gam1.flat, gam2.flat):
        assert a.order == 1 and np.array_equal(a.coeffs, b.truncated(1).coeffs)

    # fields with the same label get separate entries in a field method too
    del psi_calls[:]
    h_phi, h_psi = frame.hessian(phi, 1), frame.hessian(psi, 1)
    frame.hessian(phi, 0), frame.hessian(psi, 1)
    assert phi_calls == [2, 3] and psi_calls == [3] and metric_calls == [3]
    assert not np.array_equal(h_phi[0, 0].coeffs, h_psi[0, 0].coeffs)
    fresh = geo.ChartFrame(sphere_stereo, frame.p)
    for h, fld in ((h_phi, phi), (h_psi, psi)):
        for a, b in zip(h.flat, fresh.hessian(fld, 1).flat):
            assert np.array_equal(a.coeffs, b.coeffs)


@pytest.fixture(scope="module")
def polar_s3():
    return example_structure(ModelSpec("sphere", 3, tau=1.5, m=2.0, chart_kind="polar"))


def test_a_frame_evaluates_each_sine_and_cosine_once_per_coordinate(polar_s3, monkeypatch):
    s = polar_s3
    frame = StructureFrame(s, sample_points(s.chart, 600, seed=23))
    calls = {"sin": 0, "cos": 0}

    def counting(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    monkeypatch.setattr(np, "sin", counting("sin", np.sin))
    monkeypatch.setattr(np, "cos", counting("cos", np.cos))
    # the quadrature node pass's requests, on f and on u
    for phi in (s.f, s.u):
        frame.hessian_values(phi)
        frame.laplacian(phi, 0)
        frame.grad_norm2(phi, 0)
        frame.grad_values(phi)
    frame.scalar_curvature_jet(1)
    frame.lam_jet(1)
    assert 0 < calls["sin"] <= 3 and 0 < calls["cos"] <= 3
    # a new frame at the same points evaluates them again: nothing outlives a frame
    before = dict(calls)
    StructureFrame(s, frame.p).hessian_values(s.f)
    assert calls["sin"] > before["sin"] and calls["cos"] > before["cos"]


@pytest.mark.parametrize("count", [None, 1, 100, 600])
def test_a_field_through_a_frame_equals_its_jet_at_fresh_seeds(polar_s3, count):
    s = polar_s3
    pts = sample_points(s.chart, count or 1, seed=29)
    if count is None:
        pts = pts[0]  # one point of shape (n,)
    frame = StructureFrame(s, pts)
    h = height_field(ModelSpec("sphere", 3, tau=1.5, m=2.0, chart_kind="polar"), s.chart, 1)
    for order in range(4):  # ascending, so each order is evaluated, not truncated
        for fld in (s.f, s.u, s.lam, h):
            got = frame.field_jet(fld, order)
            want = fld.jet(jets.seed_point(pts, order))
            assert got.order == order and got.batch_shape == want.batch_shape
            assert got.coeffs.tobytes() == want.coeffs.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_jet_metric_inverse_matches_lapack_on_a_non_diagonal_chart(n):
    # g = A + sum_k B_k x_k with A SPD: every entry of g and of g^-1 is non-zero,
    # unlike the diagonal model charts, where both inverses are exactly 1/g_ii
    rng = np.random.default_rng(100 + n)
    m = rng.normal(size=(n, n))
    a = m @ m.T + n * np.eye(n)
    b = rng.normal(size=(n, n, n)) * 0.3
    b = b + np.swapaxes(b, 1, 2)

    def metric_fn(x):
        return np.array([[sum((x[k] * b[k, i, j] for k in range(n)), a[i, j])
                          for j in range(n)] for i in range(n)], dtype=object)

    chart = geo.Chart(n, metric_fn, lambda p: np.ones(p.shape[:-1], dtype=bool), "affine")
    frame = geo.ChartFrame(chart, rng.uniform(-0.5, 0.5, size=(40, n)))
    g = frame.metric_values()
    assert np.all(np.linalg.eigvalsh(g) > 0.0)
    lapack = np.linalg.inv(g)
    ulp = np.spacing(np.max(np.abs(lapack), axis=(-1, -2)))
    gap = np.max(np.abs(frame.metric_inv_values() - lapack), axis=(-1, -2))
    assert np.all(gap <= 4 * ulp), np.max(gap / ulp)


def test_tensor_norms(sphere_stereo):
    p = np.array([0.3, -0.8])
    frame = geo.ChartFrame(sphere_stereo, p)
    g = frame.metric_values()
    ginv = frame.metric_inv_values()
    assert tensor2_norm2_g(ginv, g) == pytest.approx(2.0, abs=1e-12)

    phi = ScalarField.from_coords(2, lambda x, y: jets.sin(x + y) + x * x, "phi")
    gf = frame.grad_values(phi)
    df = np.einsum("ij,j->i", g, gf)  # covariant gradient
    rank_one = np.outer(df, df)
    gn2 = float(frame.grad_norm2(phi, 0).value)
    assert tensor2_norm2_g(ginv, rank_one) == pytest.approx(gn2**2, rel=1e-12)

    # orthogonal decomposition: |hess - (lap/n) g|^2 = |hess|^2 - (lap)^2 / n
    H = frame.hessian_values(phi)
    lap = float(frame.laplacian(phi, 0).value)
    lhs = tensor2_norm2_g(ginv, H - lap / 2.0 * g)
    rhs = tensor2_norm2_g(ginv, H) - lap**2 / 2.0
    assert lhs == pytest.approx(rhs, abs=1e-11)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_contractions_of_broadcast_operands_have_the_bits_of_materialised_ones(n):
    # quadrature forms |T|²_g, Ric(∇φ, ∇φ) and ⟨∇φ, ∇ψ⟩ on values stored along the angles
    # they vary on; each node's result must not depend on the shapes its operands are stored in
    rng = np.random.default_rng(n)
    full = (8, 32, 64)

    def stored(shape, *tensor):
        return rng.normal(size=shape + tensor)

    a = stored((8, 32, 1), n, n)
    ginv = a @ np.swapaxes(a, -1, -2) + 0.5 * np.eye(n)  # SPD, not diagonal
    cases = [
        (tensor2_norm2_g, (ginv, stored((8, 1, 1), n, n))),
        (tensor2_norm2_g, (ginv, stored(full, n, n))),
        (lambda r, x, y: np.einsum("...ij,...i,...j->...", r, x, y),
         (stored((8, 32, 1), n, n), stored(full, n), stored((8, 1, 1), n))),
        (lambda x, y: np.einsum("...i,...i->...", x, y), (stored(full, n), stored((8, 1, 1), n))),
    ]
    for contract, operands in cases:
        got = contract(*operands)
        assert got.shape == np.broadcast_shapes(*(x.shape[:3] for x in operands))
        want = contract(*(np.ascontiguousarray(np.broadcast_to(x, full + x.shape[3:]))
                          for x in operands))
        assert want.shape == full
        assert np.array_equal(np.broadcast_to(got, full).view(np.int64), want.view(np.int64))


def test_riemann_symmetries(sphere_stereo, ball2):
    for chart in (sphere_stereo, ball2):
        for p in sample_points(chart, 3, seed=6):
            rm = np.vectorize(lambda j: j.value)(geo.ChartFrame(chart, p).riemann(0))
            # antisymmetry in the last index pair
            assert np.max(np.abs(rm + np.swapaxes(rm, 2, 3))) < 1e-10
            # first Bianchi identity
            cyc = rm + np.transpose(rm, (0, 2, 3, 1)) + np.transpose(rm, (0, 3, 1, 2))
            assert np.max(np.abs(cyc)) < 1e-10


def test_contracted_bianchi_on_models():
    for family, kind in (("sphere", "stereographic"), ("sphere", "polar"),
                         ("hyperbolic", "poincare_ball")):
        chart = make_chart(ModelSpec(family, 2, tau=1.0, m=1.0, chart_kind=kind))
        pts = sample_points(chart, 50, seed=7)
        res = residual(*idt.contracted_bianchi_residual(geo.ChartFrame(chart, pts)))
        assert np.max(res) < 1e-7


def test_div_hessian_identity(sphere_stereo):
    phi = ScalarField.from_coords(2, lambda x, y: jets.exp(x * 0.4) * jets.sin(y), "phi")
    pts = sample_points(sphere_stereo, 25, seed=8)
    fr = geo.ChartFrame(sphere_stereo, pts)
    assert np.max(residual(*idt.div_hessian_residual(fr, phi))) < 1e-7


def test_div_outer_grad_identity(ball2):
    phi = ScalarField.from_coords(2, lambda x, y: x * x * y + jets.cos(y), "phi")
    pts = sample_points(ball2, 25, seed=9)
    assert np.max(residual(*idt.div_outer_grad_residual(geo.ChartFrame(ball2, pts), phi))) < 1e-8


def test_bochner_identity(sphere_polar):
    spec = ModelSpec("sphere", 2, tau=1.0, m=1.0, chart_kind="polar")
    h = height_field(spec, sphere_polar)
    phi = h * h + 0.3 * h
    pts = sample_points(sphere_polar, 25, seed=10)
    assert np.max(residual(*idt.bochner_residual(geo.ChartFrame(sphere_polar, pts), phi))) < 1e-7


def test_lie_divergence_rotational_field(sphere_polar):
    # the azimuthal Killing field on the sphere is not a gradient
    X = VectorField.from_coords(
        2,
        lambda th, ph: (jets.Jet.constant(np.zeros(th.batch_shape), 2, th.order),
                        jets.Jet.constant(np.ones(th.batch_shape), 2, th.order)),
        "rot",
    )
    pts = sample_points(sphere_polar, 25, seed=11)
    fr = geo.ChartFrame(sphere_polar, pts)
    assert np.max(residual(*idt.lie_divergence_residual(fr, X))) < 1e-7
    # sanity: it really is non-gradient (lowered nabla X has an antisymmetric part)
    p = pts[0]
    cov = np.array([[c.value for c in row]
                    for row in geo.ChartFrame(sphere_polar, p).covariant_vector(X, 0)])
    g = geo.ChartFrame(sphere_polar, p).metric_values()
    lowered = np.einsum("ik,kj->ij", g, cov)
    assert np.max(np.abs(lowered - lowered.T)) > 1e-3


def test_lie_divergence_sheared_field(sphere_stereo):
    X = VectorField.from_coords(2, lambda x, y: (-y + 0.2 * x * x, x), "shear")
    pts = sample_points(sphere_stereo, 20, seed=12)
    fr = geo.ChartFrame(sphere_stereo, pts)
    assert np.max(residual(*idt.lie_divergence_residual(fr, X))) < 1e-7


def test_div_tensor2_of_ricci(sphere_stereo):
    # div Ric = (1/2) grad R as 1-forms (contracted Bianchi through div_tensor2)
    p = np.array([0.5, -0.7])
    frame = geo.ChartFrame(sphere_stereo, p)
    div_ric = np.array([c.value for c in frame.div_tensor2(frame.ricci(1))])
    assert div_ric.shape == (2,)
    dR = frame.partials_of_jet(frame.scalar_curvature_jet(1))
    assert np.allclose(2.0 * div_ric, dR, atol=1e-10)


def test_order_capability_error(sphere_stereo):
    phi = ScalarField.from_coords(2, lambda x, y: x * y, "phi")
    with pytest.raises(jets.OrderCapabilityError, match="order"):
        phi.jet(jets.seed_point(np.zeros(2), 5))
    frame = geo.ChartFrame(sphere_stereo, np.zeros(2))
    with pytest.raises(jets.OrderCapabilityError, match="'phi'"):
        frame.field_jet(phi, 5)
    with pytest.raises(jets.OrderCapabilityError):
        frame.riemann(3)  # needs metric jets of order 5


def test_reflected_operator_labels(euclid2):
    x = ScalarField.from_coords(2, lambda x, y: x, "x")
    assert (x - 1.0).label == "(x-1.0)" and (1.0 - x).label == "(1.0-x)"
    assert (x / 2.0).label == "(x/2.0)" and (2.0 / x).label == "(2.0/x)"
    with pytest.raises(jets.OrderCapabilityError, match=r"'\(2\.0/x\)'"):
        geo.ChartFrame(euclid2, np.ones(2)).field_jet(2.0 / x, 5)


def test_one_field_class_negates_every_jet_coefficient():
    assert ScalarField is VectorField is geo.Tensor2Field is geo.Field
    phi = ScalarField.from_coords(2, lambda x, y: jets.sin(x) * y + x * x, "phi")
    p = np.array([[0.3, -0.7], [1.1, 0.4]])
    neg = -phi
    assert neg.label == "(-phi)"
    coords = jets.seed_point(p, 3)
    assert np.array_equal(neg.jet(coords).coeffs, (-phi.jet(coords)).coeffs)


# g = e^{2 phi} delta on R^2 with phi = A x^2 + B y: R = -2 e^{-2 phi} lap_0 phi = -4A e^{-2 phi},
# so R, grad R and lap R are non-constant closed forms.
A, B = 0.3, 0.5


@pytest.fixture(scope="module")
def conformal2():
    def metric_fn(coords):
        x, y = coords
        e2phi = jets.exp((A * x * x + B * y) * 2.0)
        zero = jets.Jet.constant(np.zeros(x.batch_shape), 2, x.order)
        return np.array([[e2phi, zero], [zero, e2phi]], dtype=object)

    return geo.Chart(2, metric_fn, lambda p: np.full(p.shape[:-1], True),
                     "conformal plane", sample_lo=np.full(2, -1.0), sample_hi=np.full(2, 1.0))


def test_nonconstant_curvature_gradient(conformal2):
    pts = sample_points(conformal2, 20, seed=14)
    x, y = pts[:, 0], pts[:, 1]
    em2phi = np.exp(-2.0 * (A * x * x + B * y))
    frame = geo.ChartFrame(conformal2, pts)
    rjet = frame.scalar_curvature_jet(1)
    assert np.allclose(rjet.value, -4.0 * A * em2phi, rtol=1e-12, atol=0.0)
    dR = frame.partials_of_jet(rjet)
    expected = np.stack([16.0 * A * A * x * em2phi, 8.0 * A * B * em2phi], axis=-1)
    assert np.allclose(dR, expected, rtol=1e-10, atol=0.0)
    assert np.min(np.abs(expected[:, 1])) > 0.2


def test_nonconstant_curvature_laplacian(conformal2):
    pts = sample_points(conformal2, 20, seed=15)
    x, y = pts[:, 0], pts[:, 1]
    em4phi = np.exp(-4.0 * (A * x * x + B * y))
    frame = geo.ChartFrame(conformal2, pts)
    lap_R = frame.laplacian_of_jet(frame.scalar_curvature_jet(2))
    expected = -4.0 * A * em4phi * (16.0 * A * A * x * x + 4.0 * B * B - 4.0 * A)
    assert np.allclose(lap_R, expected, rtol=1e-9, atol=0.0)


def test_curvature_laplacian_jet_vs_finite_difference_where_it_is_order_one(conformal2,
                                                                             monkeypatch):
    # the round-sphere cross-check sees a constant R; here |ΔR| >= 0.1 at every point
    pts = sample_points(conformal2, 40, seed=17)
    frame = geo.ChartFrame(conformal2, pts)
    pts = pts[np.abs(frame.laplacian_of_jet(frame.scalar_curvature_jet(2))) >= 0.1]
    assert len(pts) >= 20

    def relative_gap():
        frame = geo.ChartFrame(conformal2, pts)
        lap_fd = fd_laplacian_scalar_curvature(frame, 1e-3)
        return np.max(np.abs(frame.laplacian_of_jet(frame.scalar_curvature_jet(2)) - lap_fd)
                      / np.abs(lap_fd))

    assert relative_gap() < 1e-4  # 3.8e-6 measured: the O(step²) error of the differences
    monkeypatch.setattr(geo.ChartFrame, "laplacian_of_jet",
                        lambda self, sjet: np.zeros(len(self.p)))
    assert relative_gap() > 1e-4  # a jet path that returned ΔR = 0 fails the bound


def test_contracted_bianchi_where_grad_r_is_order_one(conformal2):
    pts = sample_points(conformal2, 20, seed=16)
    frame = geo.ChartFrame(conformal2, pts)
    grad_R = frame.grad_values_of_jet(frame.scalar_curvature_jet(1))
    grad_R_norm = np.sqrt(geo.dot_g(frame.metric_values(), grad_R, grad_R))
    assert np.min(grad_R_norm) > 0.1 and np.max(grad_R_norm) > 1.0
    assert np.max(residual(*idt.contracted_bianchi_residual(frame))) < 1e-10


def test_degenerate_metric_error():
    def metric_fn(coords):
        x, y = coords
        out = np.empty((2, 2), dtype=object)
        zero = jets.Jet.constant(np.zeros(x.batch_shape), 2, x.order)
        out[0, 0] = x  # vanishes at x = 0
        out[0, 1] = zero
        out[1, 0] = zero
        out[1, 1] = jets.Jet.constant(np.ones(x.batch_shape), 2, x.order)
        return out

    chart = geo.Chart(2, metric_fn, lambda p: np.full(p.shape[:-1], True), "bad")
    with pytest.raises(geo.DegenerateMetricError):
        geo.christoffel(chart, np.zeros(2))


def test_metric_spd_check(sphere_polar):
    pts = sample_points(sphere_polar, 30, seed=13)
    smallest = geo.check_metric_spd(sphere_polar, pts)
    assert smallest > 0.0


def _constant_metric_chart(entries):
    """A 2-D chart whose metric is the constant matrix `entries` at every point."""

    def metric_fn(coords):
        x = coords[0]
        return np.array([[jets.Jet.constant(np.full(x.batch_shape, e), 2, x.order) for e in row]
                         for row in entries], dtype=object)

    return geo.Chart(2, metric_fn, lambda p: np.full(p.shape[:-1], True), "constant")


@pytest.mark.parametrize("entries, message", [
    ([[1.0, 0.5], [0.0, 1.0]], "not symmetric"),
    ([[1.0, 0.0], [0.0, -1.0]], "not positive definite"),
])
def test_metric_spd_check_rejects_asymmetric_and_indefinite_metrics(entries, message):
    chart = _constant_metric_chart(entries)
    with pytest.raises(geo.DegenerateMetricError, match=message):
        geo.check_metric_spd(chart, np.zeros((4, 2)))


def test_frame_rejects_a_point_of_another_dimension(sphere_stereo):
    with pytest.raises(ValueError, match="point of dimension 3 on chart of dim 2"):
        geo.ChartFrame(sphere_stereo, np.zeros((5, 3)))


class Term:
    """An element of an object array that records the expression it was built by."""

    def __init__(self, text):
        self.text = text

    def __mul__(self, other):
        return Term(f"({self.text}*{other.text})")

    def __add__(self, other):
        return Term(f"({self.text}+{other.text})")


def terms(name, shape):
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        out[idx] = Term(name + "".join(map(str, idx)))
    return out


def test_object_array_sums_multiply_left_to_right_and_add_from_the_first_term():
    # the frame's contractions (`@` in grad, np.dot in the scalar curvature,
    # .sum() in the Laplacian, .trace() in div_vector) give the bits of a loop
    # that starts from the first product and adds the rest in order; a numpy
    # whose object loops start from 0 or pair the terms differently would
    # change residual bits, and this test says so
    a, b, v = terms("a", (3, 3)), terms("b", (3, 3)), terms("v", 3)
    assert [t.text for t in a @ v] == [
        f"(((a{i}0*v0)+(a{i}1*v1))+(a{i}2*v2))" for i in range(3)]
    assert np.dot(v, v).text == "(((v0*v0)+(v1*v1))+(v2*v2))"
    assert np.dot(a.ravel(), b.ravel()).text == (
        "(((((((((a00*b00)+(a01*b01))+(a02*b02))+(a10*b10))+(a11*b11))"
        "+(a12*b12))+(a20*b20))+(a21*b21))+(a22*b22))")
    assert (a * b).sum().text == np.dot(a.ravel(), b.ravel()).text
    assert a.trace().text == "((a00+a11)+a22)"


# -- golden bits of the frame layers ------------------------------------------------


def _golden_points(case):
    if case == "warped3":
        return warped_chart(3), np.random.default_rng(34).uniform(-0.6, 0.6, size=(100, 3))
    chart = make_chart(ModelSpec("sphere", 4, tau=1.5, m=2.0, chart_kind="stereographic"))
    return chart, sample_points(chart, 100, seed=34)


def _bits_digest(layer) -> str:
    """The first 16 hex digits of a sha256 over `float.hex` of every coefficient, entry by entry."""
    h = hashlib.sha256()
    for j in layer.flat if isinstance(layer, np.ndarray) else (layer,):
        h.update(" ".join(map(float.hex, j.coeffs.ravel().tolist())).encode() + b";")
    return h.hexdigest()[:16]


GOLDEN_LAYERS = ("metric_inv", "gamma", "riemann", "ricci", "scalar_curvature_jet")
GOLDEN_BITS = {
    ("warped3", 1): {"metric_inv": "bfd66c8db8251791", "gamma": "6c506dfe94e71243",
                     "riemann": "01fa2ad130c62221", "ricci": "eca9766675fb365c",
                     "scalar_curvature_jet": "0d08613ed421c747"},
    ("warped3", 100): {"metric_inv": "c367ad103d124eb9", "gamma": "6ef62ff77e5cc87a",
                       "riemann": "c01564630fb8630a", "ricci": "997ee53d4bd32a0a",
                       "scalar_curvature_jet": "8ae23668e75255ad"},
    ("stereo4", 1): {"metric_inv": "2d8d42fae3d3daf9", "gamma": "74e44beed6b27d0b",
                     "riemann": "5c21cc54b56ab58c", "ricci": "a040150512fbc7e6",
                     "scalar_curvature_jet": "5c191be786225601"},
    ("stereo4", 100): {"metric_inv": "4d0cbe33bd78989e", "gamma": "192059997ffa2834",
                       "riemann": "782287e78e6bc274", "ricci": "6d460ff920ac6daa",
                       "scalar_curvature_jet": "9fc1ebb35b9e44d4"},
}


@pytest.mark.parametrize("batch", [1, 100])
@pytest.mark.parametrize("case", ["warped3", "stereo4"])
def test_frame_layers_keep_their_bits(case, batch):
    # g^-1, Γ, Riemann, Ricci and R at order 2, requested in that order on one
    # frame, so Riemann reads Γ truncated from the order-3 one it builds. The
    # digests were recorded before the frame loops were rewritten over nested
    # lists; any change of a product's operands or of a sum's order shows here
    chart, pts = _golden_points(case)
    fr = geo.ChartFrame(chart, pts[:batch])
    got = {name: _bits_digest(getattr(fr, name)(2)) for name in GOLDEN_LAYERS}
    assert got == GOLDEN_BITS[case, batch]


def test_a_memoized_layer_keeps_one_truncation_per_lower_order(sphere_stereo):
    fr = geo.ChartFrame(sphere_stereo, sample_points(sphere_stereo, 5, seed=3))
    top = fr.gamma(2)
    low = fr.gamma(1)
    assert fr.gamma(1) is low and fr.gamma(0) is fr.gamma(0)
    assert all(j.order == 1 for j in low.flat)
    assert _bits_digest(low) == _bits_digest(geo._trunc_tree(top, 1))
    # a higher order recomputes the layer and drops the truncations of the old one
    higher = fr.gamma(3)
    assert higher is not top and all(j.order == 3 for j in higher.flat)
    assert fr._cache["gamma",][2] == {}
    again = fr.gamma(1)
    assert again is not low and fr.gamma(1) is again
    assert _bits_digest(again) == _bits_digest(geo._trunc_tree(higher, 1)) == _bits_digest(low)


def test_tensor_value_refuses_a_rank_that_disagrees_with_its_valence():
    geo.TensorValue(np.zeros((2, 2)), con=1, cov=1)
    for con, cov in ((1, 0), (1, 2), (0, 3)):
        with pytest.raises(ValueError, match="valence says"):
            geo.TensorValue(np.zeros((2, 2)), con=con, cov=cov)


def test_point_operators_refuse_a_batch(sphere_polar):
    batch = sample_points(sphere_polar, 3, seed=2)
    for op in (geo.christoffel, geo.ricci, geo.scalar_curvature):
        op(sphere_polar, batch[0])
        with pytest.raises(ValueError, match="single point"):
            op(sphere_polar, batch)


def test_truncating_a_tree_returns_a_non_jet_leaf_unchanged():
    x = jets.seed_point(np.array([0.3, 0.4]), 3)[0]
    leaf = object()
    got = geo._trunc_tree([x, (leaf, 2.5)], 1)
    assert got[0].order == 1 and got[1][0] is leaf and got[1][1] == 2.5
    assert geo._trunc_tree(leaf, 1) is leaf
