"""Model charts, height fields, and the closed-form example structures."""

import dataclasses
import math

import numpy as np
import pytest

from gqem import geometry as geo
from gqem import jets, models, qem
from gqem.models import (
    ModelSpec,
    default_sweep,
    example_structure,
    gaussian_soliton,
    height_field,
    make_chart,
    polar_to_stereographic,
    sample_points,
    trivial_structure,
)
from gqem.qem import StructureFrame, is_gqem, trace_lambda_field


def test_chart_metrics_at_reference_points():
    stereo = make_chart(ModelSpec("sphere", 2, tau=1.0, m=1.0))
    assert np.allclose(geo.ChartFrame(stereo, np.zeros(2)).metric_values(), 4.0 * np.eye(2))
    eucl = make_chart(ModelSpec("euclidean", 3, tau=1.0, m=1.0))
    assert np.allclose(geo.ChartFrame(eucl, np.array([1.0, -2.0, 0.5])).metric_values(), np.eye(3))
    ball = make_chart(ModelSpec("hyperbolic", 2, tau=0.0, m=1.0))
    assert np.allclose(geo.ChartFrame(ball, np.zeros(2)).metric_values(), 4.0 * np.eye(2))
    polar = make_chart(ModelSpec("sphere", 3, tau=1.0, m=1.0, radius=2.0, chart_kind="polar"))
    th = np.array([0.8, 1.2, 2.5])
    g = geo.ChartFrame(polar, th).metric_values()
    want = 4.0 * np.diag([1.0, np.sin(th[0]) ** 2, np.sin(th[0]) ** 2 * np.sin(th[1]) ** 2])
    assert np.allclose(g, want, atol=1e-13)


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="tau > r/n"):
        ModelSpec("sphere", 2, tau=0.4, m=1.0)
    with pytest.raises(ValueError, match="tau > 0"):
        ModelSpec("euclidean", 2, tau=-1.0, m=1.0)
    with pytest.raises(ValueError, match="tau > -1"):
        ModelSpec("hyperbolic", 2, tau=-1.5, m=1.0)
    with pytest.raises(ValueError, match="chart kind"):
        ModelSpec("euclidean", 2, tau=1.0, m=1.0, chart_kind="polar")
    with pytest.raises(ValueError, match="m must be positive"):
        ModelSpec("sphere", 2, tau=1.0, m=-2.0)
    with pytest.raises(ValueError, match="dimension"):
        ModelSpec("sphere", 1, tau=1.0, m=1.0)
    with pytest.raises(ValueError, match="curvature -1"):
        ModelSpec("hyperbolic", 2, tau=1.0, m=1.0, radius=2.0)
    with pytest.raises(ValueError, match="v_axis"):
        ModelSpec("hyperbolic", 2, tau=1.0, m=1.0, v_axis=1)


def test_embeddings_land_on_the_model():
    # sphere: |sigma|^2 = r^2; hyperboloid: <sigma, sigma>_0 = -1
    for kind in ("stereographic", "polar"):
        spec = ModelSpec("sphere", 3, tau=1.5, m=1.0, radius=1.5, chart_kind=kind)
        chart = make_chart(spec)
        pts = sample_points(chart, 10, seed=0)
        amb = np.stack(
            [j.value for j in chart.embedding_fn(jets.seed_point(pts, 0))], axis=-1
        )
        assert np.allclose(np.sum(amb**2, axis=-1), 1.5**2, atol=1e-12)
    ball = make_chart(ModelSpec("hyperbolic", 3, tau=0.0, m=1.0))
    pts = sample_points(ball, 10, seed=1)
    amb = np.stack([j.value for j in ball.embedding_fn(jets.seed_point(pts, 0))], axis=-1)
    minkowski = -amb[..., 0] ** 2 + np.sum(amb[..., 1:] ** 2, axis=-1)
    assert np.allclose(minkowski, -1.0, atol=1e-12)


def test_embedding_pullback_matches_metric():
    # sum over ambient components of sign * d sigma_a (x) d sigma_a equals g
    for family, kind in (("sphere", "stereographic"), ("sphere", "polar"),
                         ("hyperbolic", "poincare_ball")):
        spec = ModelSpec(family, 2, tau=1.0, m=1.0, chart_kind=kind)
        chart = make_chart(spec)
        for p in sample_points(chart, 4, seed=2):
            amb = chart.embedding_fn(jets.seed_point(p, 1))
            pulled = np.zeros((2, 2))
            for sign, a in zip(chart.ambient_signature, amb):
                d = np.array([a.derive(i).value for i in range(2)])
                pulled += sign * np.outer(d, d)
            assert np.allclose(pulled, geo.ChartFrame(chart, p).metric_values(), atol=1e-11)


def test_height_field_polar_is_cosine():
    spec = ModelSpec("sphere", 2, tau=1.0, m=1.0, radius=1.5, chart_kind="polar")
    chart = make_chart(spec)
    h = height_field(spec, chart)
    assert h(np.array([0.0 + 1e-9, 1.0])) == pytest.approx(1.5, abs=1e-8)
    p = np.array([0.7, 2.0])
    assert h(p) == pytest.approx(1.5 * np.cos(0.7), abs=1e-13)


def test_height_field_hyperbolic_center():
    spec = ModelSpec("hyperbolic", 3, tau=1.0, m=1.0)
    chart = make_chart(spec)
    h = height_field(spec, chart)
    assert h(np.zeros(3)) == pytest.approx(1.0, abs=1e-14)
    # h = cosh(distance) >= 1 everywhere
    pts = sample_points(chart, 30, seed=3)
    assert np.all(h(pts) >= 1.0)


def test_height_field_euclidean_rejected():
    spec = ModelSpec("euclidean", 2, tau=1.0, m=1.0)
    chart = make_chart(spec)
    with pytest.raises(ValueError, match="height fields"):
        height_field(spec, chart)


@pytest.mark.parametrize("family, axis, message", [
    ("sphere", 3, "v_axis must be in 0..2"),
    ("sphere", -1, "v_axis must be in 0..2"),
    ("hyperbolic", 1, "only support v_axis = 0"),
])
def test_height_field_axis_is_checked_like_the_spec(family, axis, message):
    spec = ModelSpec(family, 2, tau=1.0, m=1.0)
    with pytest.raises(ValueError, match=message):
        height_field(spec, make_chart(spec), v_axis=axis)


def test_example_lambda_values():
    # hand-substituted closed forms at reference points
    s = example_structure(ModelSpec("sphere", 2, tau=1.0, m=2.0))
    pole = np.array([1.0, 0.0])  # h = 2x/(1+|x|^2) = 1
    assert s.u(pole) == pytest.approx(0.5, abs=1e-13)
    assert s.lam(pole) == pytest.approx(-1.0, abs=1e-12)

    s = example_structure(ModelSpec("euclidean", 2, tau=1.0, m=3.0))
    p = np.array([1.0, 0.0])
    assert s.u(p) == pytest.approx(2.0)
    assert s.lam(p) == pytest.approx(-3.0)

    s = example_structure(ModelSpec("hyperbolic", 2, tau=1.0, m=2.0))
    center = np.zeros(2)
    assert s.u(center) == pytest.approx(2.0)
    assert s.lam(center) == pytest.approx(-2.0)


def test_defining_equation_on_sweep_sample():
    # one spec per family at full tolerance; the full sweep runs in acceptance
    for family in ("sphere", "euclidean", "hyperbolic"):
        spec = default_sweep(family)[4]
        s = example_structure(spec)
        pts = sample_points(s.chart, 100, seed=17)
        chk = is_gqem(s, pts, 1e-8)
        assert chk.passed, (family, chk.sup_residual)
        assert chk.sup_gnorm < 1e-8


def test_closed_form_lambda_matches_trace_formula():
    for family in ("sphere", "euclidean", "hyperbolic"):
        spec = ModelSpec(family, 3, tau=1.0, m=2.0)
        s = example_structure(spec)
        for p in sample_points(s.chart, 20, seed=18):
            assert s.lam(p) == pytest.approx(trace_lambda_field(s.chart, s.f, s.m)(p), abs=1e-9)


def test_sphere_radius_not_one_uses_trace_solver():
    spec = ModelSpec("sphere", 2, tau=1.5, m=2.0, radius=2.0)
    s = example_structure(spec)
    assert s.provenance == "trace_solved"
    pts = sample_points(s.chart, 50, seed=19)
    assert is_gqem(s, pts, 1e-8).passed


def test_two_chart_scalar_invariants_agree():
    spec_polar = ModelSpec("sphere", 3, tau=1.5, m=2.0, chart_kind="polar")
    spec_stereo = ModelSpec("sphere", 3, tau=1.5, m=2.0, chart_kind="stereographic")
    sp = example_structure(spec_polar)
    ss = example_structure(spec_stereo)
    theta = sample_points(sp.chart, 12, seed=20)
    x = polar_to_stereographic(spec_polar, theta)
    fp = StructureFrame(sp, theta)
    fs = StructureFrame(ss, x)
    pairs = [
        (fp.scalar_curvature_value(), fs.scalar_curvature_value()),
        (fp.grad_norm2(sp.f, 0).value, fs.grad_norm2(ss.f, 0).value),
        (fp.laplacian(sp.f, 0).value, fs.laplacian(ss.f, 0).value),
        (fp.lam_jet(0).value, fs.lam_jet(0).value),
    ]
    for a, b in pairs:
        assert np.max(np.abs(a - b)) < 1e-8


def test_u_positivity_enforced():
    # tau barely above the bound passes; crossing it raises at spec construction
    example_structure(ModelSpec("sphere", 2, tau=0.51, m=1.0))
    with pytest.raises(ValueError):
        ModelSpec("sphere", 2, tau=0.5, m=1.0)


def test_infinite_m_model_routes():
    with pytest.raises(ValueError, match="gaussian_soliton"):
        example_structure(ModelSpec("sphere", 2, tau=1.0, m=math.inf))
    gs = gaussian_soliton(3)
    assert not gs.m_finite and gs.inv_m == 0.0
    p = np.array([0.3, -0.2, 1.0])
    assert gs.lam(p) == pytest.approx(1.0, abs=1e-13)
    ts = trivial_structure("sphere", 2, m=2.0)
    # f constant: lambda = R/n = 1 on the unit 2-sphere
    assert ts.lam(np.array([0.4, 0.3])) == pytest.approx(1.0, abs=1e-12)


def test_default_sweep_shape():
    for family in ("sphere", "euclidean", "hyperbolic"):
        sweep = default_sweep(family)
        assert len(sweep) == 27
        assert {spec.dim for spec in sweep} == {2, 3, 4}


def test_sampling_is_deterministic_and_in_domain():
    chart = make_chart(ModelSpec("hyperbolic", 2, tau=0.0, m=1.0))
    a = sample_points(chart, 40, seed=5)
    b = sample_points(chart, 40, seed=5)
    assert np.array_equal(a, b)
    assert np.all(chart.in_domain(a))


def test_sampling_gives_up_when_the_box_misses_the_domain():
    chart = make_chart(ModelSpec("hyperbolic", 2, tau=0.0, m=1.0))
    draws = []

    def reject_all(p):
        draws.append(len(p))
        return np.zeros(p.shape[:-1], dtype=bool)

    empty = dataclasses.replace(chart, domain_fn=reject_all, label="empty domain")
    with pytest.raises(ValueError, match="'empty domain'"):
        sample_points(empty, 10, seed=1)
    assert draws == [20] * models._MAX_DRAW_ROUNDS


def test_model_spec_refuses_an_unknown_family_and_a_non_positive_radius():
    with pytest.raises(ValueError, match="unknown family"):
        ModelSpec("torus", 2, tau=1.5, m=2.0)
    for radius in (0.0, -1.0):
        with pytest.raises(ValueError, match="radius must be positive"):
            ModelSpec("sphere", 2, tau=1.5, m=2.0, radius=radius)


def test_validation_refuses_a_non_positive_u(monkeypatch):
    spec = ModelSpec("sphere", 2, tau=1.5, m=2.0)
    s = example_structure(spec, validate=False)
    models._validate_structure(s, spec)
    monkeypatch.setattr(s.u, "_jet_fn", lambda coords: -1.0 * coords[0] * coords[0])
    with pytest.raises(ValueError, match="must stay positive"):
        models._validate_structure(s, spec)


def test_sampling_refuses_a_chart_with_no_sampling_box():
    chart = geo.Chart(2, lambda coords: None, lambda p: np.full(p.shape[:-1], True), "no box")
    with pytest.raises(ValueError, match="no sampling box"):
        sample_points(chart, 5, seed=1)


def test_polar_to_stereographic_refuses_the_projection_pole():
    spec = ModelSpec("sphere", 2, tau=1.5, m=2.0, chart_kind="polar")
    pole = np.array([[np.pi / 2, np.pi / 2]])  # ambient (0, 0, r): the last axis's pole
    with pytest.raises(ValueError, match="projection pole"):
        polar_to_stereographic(spec, pole)
    assert np.isfinite(polar_to_stereographic(spec, pole + 0.1)).all()


@pytest.mark.parametrize("family,kind", [("euclidean", ""), ("sphere", "stereographic"),
                                         ("sphere", "polar"), ("hyperbolic", "")])
def test_charts_and_constant_fields_take_coordinates_of_a_larger_jet_dimension(family, kind):
    # a warped-product lift evaluates a chart on the first n of n + 2 coordinate jets; every
    # coefficient with no derivative along the two extra coordinates keeps the n-dimensional bits
    chart = make_chart(ModelSpec(family, 3, tau=1.0, m=1.0, chart_kind=kind))
    pts = sample_points(chart, 5, seed=3)
    lifted = np.concatenate([pts, np.full((5, 2), 0.25)], axis=-1)
    for order in (0, 2):
        base = jets.seed_point(pts, order)
        wide = jets.seed_point(lifted, order)[:3]
        keep = [k for k, a in enumerate(jets.jet_table(5, order).alphas) if a[3:] == (0, 0)]
        pairs = list(zip(chart.metric_jets(base).ravel(), chart.metric_jets(wide).ravel()))
        pairs.append((geo.Field.constant(3, 2.5).jet(base), geo.Field.constant(3, 2.5).jet(wide)))
        for b, w in pairs:
            assert w.dim == 5 and w.coeffs[..., keep].tobytes() == b.coeffs.tobytes()
