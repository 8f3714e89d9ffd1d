"""Connection invariants and chart-level identities on a non-diagonal metric.

Every model metric is diagonal, and there a Christoffel symbol built from the
diagonal of g⁻¹ alone is exact. The warped metric below is not diagonal, so
the Levi-Civita invariants and the chart-level catalog rows see such a defect.
"""

import numpy as np
import pytest

from gqem import geometry as geo
from gqem import identities as idt
from gqem import jets
from gqem.geometry import Chart, ChartFrame, ScalarField, grad_field
from gqem.qem import residual

A = 0.3  # warp strength
ORDER = 1  # jet order at which the invariants are compared, every coefficient
INVARIANT_TOL = 1e-12
ROW_TOL = 1e-12


def warped_chart(n: int) -> Chart:
    """g = (1 + a r²)² δ − (2a + a² r²) x⊗x: eigenvalue 1 radially, (1 + a r²)² across."""

    def metric_fn(coords):
        r2 = coords[0] * coords[0]
        for c in coords[1:]:
            r2 = r2 + c * c
        w = 1.0 + A * r2
        w2 = w * w
        s = 2.0 * A + (A * A) * r2
        g = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(i, n):
                term = s * coords[i] * coords[j]
                g[i, j] = g[j, i] = w2 - term if i == j else -term
        return g

    return Chart(n, metric_fn, lambda p: np.full(p.shape[:-1], True), f"warped R^{n}")


def generic_phi(n: int) -> ScalarField:
    """φ = e^{0.3 x0} x1 + x0² x_{n-1}."""
    return ScalarField.from_coords(
        n, lambda *x: jets.exp(x[0] * 0.3) * x[1] + x[0] * x[0] * x[n - 1], "phi")


def points(n: int) -> np.ndarray:
    return np.random.default_rng(190 + n).uniform(-0.6, 0.6, size=(50, n))


def jet_gap(a, b=None) -> float:
    """Largest |coefficient| of a - b (or of a) over equal-shape object arrays of jets."""
    diffs = a.flat if b is None else (x - y for x, y in zip(a.flat, b.flat))
    return max(float(np.max(np.abs(d.coeffs))) for d in diffs)


def lowered_riemann(fr: ChartFrame, order: int) -> np.ndarray:
    """R_ijkl = g_im R^m_jkl as jets."""
    n = fr.n
    g, rm = fr.metric(order), fr.riemann(order)
    out = np.empty((n,) * 4, dtype=object)
    for i, j, k, l in np.ndindex(*out.shape):
        acc = g[i, 0] * rm[0, j, k, l]
        for m in range(1, n):
            acc = acc + g[i, m] * rm[m, j, k, l]
        out[i, j, k, l] = acc
    return out


def invariant_gaps(fr: ChartFrame, order: int = ORDER) -> dict:
    """The largest jet coefficient by which each Levi-Civita invariant fails."""
    n = fr.n
    g1, g0, gam = fr.metric(order + 1), fr.metric(order), fr.gamma(order)
    # metric compatibility: d_k g_ij = Γ^l_ki g_lj + Γ^l_kj g_il
    dg = np.empty((n, n, n), dtype=object)
    conn = np.empty((n, n, n), dtype=object)
    for k, i, j in np.ndindex(n, n, n):
        dg[k, i, j] = g1[i, j].derive(k)
        acc = gam[0, k, i] * g0[0, j] + gam[0, k, j] * g0[i, 0]
        for l in range(1, n):
            acc = acc + gam[l, k, i] * g0[l, j] + gam[l, k, j] * g0[i, l]
        conn[k, i, j] = acc
    low = lowered_riemann(fr, order)
    rm = fr.riemann(order)
    cyclic = rm + np.transpose(rm, (0, 2, 3, 1)) + np.transpose(rm, (0, 3, 1, 2))
    zero = jets.Jet.constant(np.zeros(len(fr.p)), n, order)
    one = jets.Jet.constant(np.ones(len(fr.p)), n, order)
    eye = np.array([[one if i == j else zero for j in range(n)] for i in range(n)], dtype=object)
    return {
        "metric_compatibility": jet_gap(dg, conn),
        "pair_symmetry": jet_gap(low, np.transpose(low, (2, 3, 0, 1))),
        "first_bianchi": jet_gap(cyclic),
        "inverse": jet_gap(fr.metric(order) @ fr.metric_inv(order), eye),
    }


def chart_runners(chart: Chart) -> dict:
    """The runner of each chart-level catalog row, for the generic φ and X = grad φ."""
    phi = generic_phi(chart.dim)
    return {
        "contracted_bianchi": lambda fr: idt.contracted_bianchi_residual(fr),
        "div_hessian": lambda fr: idt.div_hessian_residual(fr, phi),
        "div_outer_grad": lambda fr: idt.div_outer_grad_residual(fr, phi),
        "bochner": lambda fr: idt.bochner_residual(fr, phi),
        "lie_divergence": lambda fr: idt.lie_divergence_residual(fr, grad_field(chart, phi)),
    }


def chart_rows(chart: Chart, pts: np.ndarray) -> dict:
    """The worst residual of each chart-level catalog row, for the generic φ and X = grad φ."""
    return {name: float(np.max(residual(*run(ChartFrame(chart, pts)))))
            for name, run in chart_runners(chart).items()}


def diagonal_gamma(self, order):
    """A defect: Γ^k_ij from the diagonal of g⁻¹ only, exact on a diagonal metric."""
    n = self.n
    g, gi = self.metric(order + 1), self.metric_inv(order)
    out = np.empty((n, n, n), dtype=object)
    for k, i, j in np.ndindex(n, n, n):
        bracket = g[j, k].derive(i) + g[i, k].derive(j) - g[i, j].derive(k)
        out[k, i, j] = gi[k, k] * bracket * 0.5
    return out


diagonal_gamma.__name__ = "gamma"  # the memo key of the method it replaces


@pytest.mark.parametrize("n", [3, 4])
def test_warped_metric_is_not_diagonal(n):
    g = ChartFrame(warped_chart(n), points(n)).metric_values()
    off = g - np.einsum("...ii->...i", g)[..., None] * np.eye(n)
    assert np.min(np.max(np.abs(off), axis=(-1, -2))) > 1e-3
    assert np.min(np.linalg.eigvalsh(g)) > 0.99


@pytest.mark.parametrize("n", [3, 4])
def test_levi_civita_invariants_hold_as_jets(n):
    gaps = invariant_gaps(ChartFrame(warped_chart(n), points(n)))
    assert all(gap <= INVARIANT_TOL for gap in gaps.values()), gaps


@pytest.mark.parametrize("n", [3, 4])
def test_chart_level_rows_hold_on_the_warped_metric(n):
    rows = chart_rows(warped_chart(n), points(n))
    assert all(res <= ROW_TOL for res in rows.values()), rows


@pytest.mark.parametrize("n", [3, 4])
def test_diagonal_gamma_defect_is_caught(n, monkeypatch):
    monkeypatch.setattr(geo.ChartFrame, "gamma", geo._memoized(diagonal_gamma))
    chart, pts = warped_chart(n), points(n)
    gaps = invariant_gaps(ChartFrame(chart, pts))
    assert gaps["metric_compatibility"] > 0.1 and gaps["pair_symmetry"] > 0.1, gaps
    rows = chart_rows(chart, pts)
    assert max(rows[k] for k in ("contracted_bianchi", "div_hessian", "bochner")) > 1.0, rows
