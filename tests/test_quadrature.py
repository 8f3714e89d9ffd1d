"""Sphere quadrature: measure calibration, Stokes checks, integral identities."""

import math

import numpy as np
import pytest

from gqem import jets
from gqem import quadrature as quad
from gqem.geometry import ScalarField
from gqem.models import ModelSpec, example_structure, height_field, make_chart
from gqem.qem import make_structure


@pytest.fixture(scope="module")
def s2_structure():
    return example_structure(ModelSpec("sphere", 2, tau=1.0, m=2.0, chart_kind="polar"))


@pytest.fixture(scope="module")
def s2_grid(s2_structure):
    return quad.make_sphere_grid(s2_structure.chart, (64, 128))


def _rows(grid, s):
    return {r["id"]: r for r in quad.run_integral_suite(grid, s, 1e-6)}


def test_grid_rejects_non_polar_charts():
    stereo = make_chart(ModelSpec("sphere", 2, tau=1.0, m=1.0))
    with pytest.raises(ValueError, match="polar"):
        quad.make_sphere_grid(stereo, (16, 32))
    eucl = make_chart(ModelSpec("euclidean", 2, tau=1.0, m=1.0))
    with pytest.raises(ValueError, match="polar"):
        quad.make_sphere_grid(eucl, (16, 32))


def test_grid_resolution_validation(s2_structure):
    with pytest.raises(ValueError, match="entries"):
        quad.make_sphere_grid(s2_structure.chart, (16,))


def test_nodes_avoid_singular_set(s2_grid):
    theta = s2_grid.nodes[:, 0]
    assert np.all((theta > 0.0) & (theta < np.pi))


def test_total_measure(s2_grid):
    area = quad.integrate(s2_grid, ScalarField.constant(2, 1.0))
    assert abs(area - 4 * math.pi) / (4 * math.pi) < 1e-12


def test_total_measure_radius_and_dim():
    chart = make_chart(ModelSpec("sphere", 3, tau=1.5, m=1.0, radius=2.0, chart_kind="polar"))
    grid = quad.make_sphere_grid(chart, (24, 24, 48))
    vol = quad.integrate(grid, ScalarField.constant(3, 1.0))
    want = quad.sphere_area(3, 2.0)  # 2 pi^2 r^3
    assert abs(vol - want) / want < 1e-10
    assert want == pytest.approx(2 * math.pi**2 * 8.0)


def test_height_moments(s2_structure, s2_grid):
    spec = ModelSpec("sphere", 2, tau=1.0, m=2.0, chart_kind="polar")
    h = height_field(spec, s2_structure.chart)
    assert abs(quad.integrate(s2_grid, h)) < 1e-12
    h2 = h * h
    assert abs(quad.integrate(s2_grid, h2) - 4 * math.pi / 3) / (4 * math.pi / 3) < 1e-10


def test_stokes_sanity(s2_structure, s2_grid):
    spec = ModelSpec("sphere", 2, tau=1.0, m=2.0, chart_kind="polar")
    h = height_field(spec, s2_structure.chart)
    assert abs(quad.stokes_sanity(s2_grid, h)) < 1e-10
    h3 = h * h * h
    assert abs(quad.stokes_sanity(s2_grid, h3)) < 1e-9
    exp_h = ScalarField(2, lambda coords: jets.exp(h.jet(coords)), "exp(h)")
    assert abs(quad.stokes_sanity(s2_grid, exp_h)) < 1e-8


def test_integration_by_parts(s2_structure, s2_grid):
    # int <grad a, grad b> + int a lap b = 0 for polynomials in the height function
    spec = ModelSpec("sphere", 2, tau=1.0, m=2.0, chart_kind="polar")
    h = height_field(spec, s2_structure.chart)
    rng = np.random.default_rng(31)
    chart = s2_structure.chart
    for _ in range(3):
        c = rng.uniform(-1, 1, size=4)
        a = c[0] * h + c[1] * h * h
        b = c[2] * h + c[3] * h * h * h

        def cross(p, order=0):
            from gqem.geometry import ChartFrame

            fr = ChartFrame(chart, p)
            ga = fr.grad(a, 0)
            db = [fr.field_jet(b, 1).derive(i).value for i in range(2)]
            return sum(ga[i].value * db[i] for i in range(2))

        lhs = float(np.sum(s2_grid.weights * cross(s2_grid.nodes)))

        def a_lap_b(p):
            from gqem.geometry import ChartFrame

            fr = ChartFrame(chart, p)
            return fr.field_jet(a, 0).value * fr.laplacian(b, 0).value

        rhs = float(np.sum(s2_grid.weights * a_lap_b(s2_grid.nodes)))
        assert abs(lhs + rhs) < 1e-9


def test_integral_identities_on_s2(s2_structure, s2_grid):
    rows = quad.run_integral_suite(s2_grid, s2_structure, 1e-6)
    assert {r["id"] for r in rows} == {
        "traceless_hessian_balance",
        "ricci_energy_balance",
        "traceless_hessian_flux",
        "hessian_energy_identity",
        "bochner_integral_balance",
        "stokes_sanity",
    }
    for r in rows:
        assert r["pass"], (r["id"], r["relative_gap"])
        assert r["relative_gap"] < 1e-8


def test_integral_identities_reject_noncompact():
    s = example_structure(ModelSpec("euclidean", 2, tau=1.0, m=2.0))
    chart = make_chart(ModelSpec("sphere", 2, tau=1.0, m=1.0, chart_kind="polar"))
    grid = quad.make_sphere_grid(chart, (8, 16))
    with pytest.raises(ValueError, match="compact"):
        quad.run_integral_suite(grid, s, 1e-6)


def test_suite_rejects_a_structure_on_a_second_chart_of_the_same_spec(s2_structure):
    # equal specs build distinct charts; the node pass needs the grid's own one
    twin = example_structure(ModelSpec("sphere", 2, tau=1.0, m=2.0, chart_kind="polar"))
    grid = quad.make_sphere_grid(twin.chart, (8, 16))
    with pytest.raises(ValueError, match="grid and structure must share one chart"):
        quad.run_integral_suite(grid, s2_structure, 1e-6)


def test_n2_flux_drops_curvature_term(s2_structure, s2_grid):
    # with n = 2 the (n-2) coefficient vanishes; the traceless energy reduces
    # to the pure potential-flux term, which is then strictly positive
    row = _rows(s2_grid, s2_structure)["traceless_hessian_flux"]
    n, m = 2, s2_structure.m
    I_gn2lap = quad._integrals(s2_grid, s2_structure)["gn2f_lapf"]
    assert row["rhs"] == pytest.approx(-(n + 2) / (2 * n * m) * I_gn2lap, rel=1e-12)
    assert row["lhs"] > 0.0
    assert I_gn2lap < 0.0


def test_bochner_integrals_hand_values(s2_structure, s2_grid):
    # u = 1 - cos(theta)/2: int Ric(grad u, grad u) = 2 pi / 3 = (1/2) int (lap u)^2
    I = quad._integrals(s2_grid, s2_structure)
    assert I["ric_uu"] == pytest.approx(2 * math.pi / 3, rel=1e-12)
    assert (2 - 1) / 2 * I["lapu2"] == pytest.approx(2 * math.pi / 3, rel=1e-12)
    assert I["traceless2_u"] < 1e-13
    assert abs(I["gn2u_lapu"]) < 1e-9  # conformal grad u: int |grad u|^2 lap u = 0
    row = _rows(s2_grid, s2_structure)["bochner_integral_balance"]
    assert row["lhs"] == I["traceless2_u"]
    assert abs(row["lhs"] - row["rhs"]) < 1e-12
    assert abs(row["rhs"]) < 1e-8  # the conformal equality case


def test_triviality_margin_positive(s2_structure, s2_grid):
    assert _rows(s2_grid, s2_structure)["traceless_hessian_balance"]["rhs"] > 1.0


def test_resolution_doubling_convergence():
    # sharpen the potential so the coarse-grid error is visible, then double
    s = example_structure(ModelSpec("sphere", 2, tau=0.6, m=1.0, chart_kind="polar"))
    gaps = []
    for res in ((4, 8), (8, 16)):
        grid = quad.make_sphere_grid(s.chart, res)
        gaps.append(_rows(grid, s)["traceless_hessian_balance"]["relative_gap"])
    assert gaps[1] < 1e-12 or gaps[0] / gaps[1] >= 4.0


def test_integrand_failure_names_the_node(s2_grid, s2_structure):
    def bad_field(p):
        values = np.asarray(p)[..., 0] * 0.0
        raise jets.JetDomainError("log of non-positive value")

    with pytest.raises((ValueError, jets.JetDomainError)):
        quad.integrate(s2_grid, bad_field)


def test_integrand_failure_at_one_node_is_a_domain_error_naming_it(s2_grid):
    k = 300
    bad_node = s2_grid.nodes[k]

    def fails_at_one_node(p):
        p = np.asarray(p)
        if np.all(p == bad_node, axis=-1).any():
            raise jets.JetDomainError("log of non-positive value")
        return p[..., 0] * 0.0

    with pytest.raises(jets.JetDomainError, match=f"node {k} "):
        quad.integrate(s2_grid, fails_at_one_node)


def test_integrate_evaluates_in_chunks_with_the_one_batch_sum():
    s = example_structure(ModelSpec("sphere", 3, tau=1.5, m=2.0, radius=2.0, chart_kind="polar"))
    grid = quad.make_sphere_grid(s.chart, (24, 24, 48))
    assert grid.nodes.shape[0] == 27648 > quad._CHUNK
    one_batch = float(np.sum(grid.weights * s.lam(grid.nodes)))
    sizes = []

    def counted(p):
        sizes.append(len(p))
        return s.lam(p)

    assert quad.integrate(grid, counted).hex() == one_batch.hex()
    assert sum(sizes) == 27648 and all(512 <= k <= quad._CHUNK for k in sizes)


def test_integrate_rejects_a_wrong_shaped_integrand(s2_grid):
    with pytest.raises(ValueError, match="shape"):
        quad.integrate(s2_grid, lambda p: np.zeros((len(p), 2)))


def test_suite_makes_one_node_pass_per_call(monkeypatch, s2_structure):
    calls = []
    node_pass = quad._node_quantities
    monkeypatch.setattr(quad, "_node_quantities", lambda *a: calls.append(1) or node_pass(*a))
    grid = quad.make_sphere_grid(s2_structure.chart, (8, 16))
    for _ in range(2):
        assert len(quad.run_integral_suite(grid, s2_structure, 1e-6)) == 6
    assert len(calls) == 2


def test_integrate_is_deterministic(s2_structure, s2_grid):
    spec = ModelSpec("sphere", 2, tau=1.0, m=2.0, chart_kind="polar")
    h = height_field(spec, s2_structure.chart)
    v1 = quad.integrate(s2_grid, h * h)
    v2 = quad.integrate(s2_grid, h * h)
    assert v1 == v2


def test_suite_rows_normalize_every_gap_but_stokes():
    # a potential that is not a structure, on a coarse grid, so every gap and
    # the Stokes integral are visibly nonzero
    spec = ModelSpec("sphere", 2, tau=1.5, m=2.0, chart_kind="polar")
    chart = make_chart(spec)
    h0, h1 = height_field(spec, chart, 0), height_field(spec, chart, 1)
    s = make_structure(chart, h0 * h0 * h0 + h1 * 0.3, m=2.0)
    rows = quad.run_integral_suite(quad.make_sphere_grid(chart, (3, 5)), s, 1e-6)
    assert [r["id"] for r in rows][-1] == "stokes_sanity" and len(rows) == 6
    for r in rows[:-1]:
        assert r["relative_gap"] == abs(r["lhs"] - r["rhs"]) / (1.0 + abs(r["lhs"])), r["id"]
    stokes = rows[-1]
    assert stokes["rhs"] == 0.0 and stokes["relative_gap"] == abs(stokes["lhs"])
    assert abs(stokes["lhs"]) > 1e-6  # so |lhs| and |lhs|/(1 + |lhs|) differ
    assert max(r["relative_gap"] for r in rows[:-1]) > 1e-3


def test_grid_resolution_entries_below_two_are_refused(s2_structure):
    for bad in ((1, 32), (16, 1), (0, 0)):
        with pytest.raises(ValueError, match="must be >= 2"):
            quad.make_sphere_grid(s2_structure.chart, bad)


def test_node_failure_search_reraises_the_chunk_error_when_every_node_passes():
    exc = jets.JetDomainError("log of non-positive value in the chunk")
    with pytest.raises(jets.JetDomainError) as info:
        quad._locate_node_failure(np.zeros((3, 2)), 5, lambda node: 1.0, exc)
    assert info.value is exc
