"""Generalized m-quasi-Einstein structures and their defining-equation residuals.

A structure bundles a chart, a potential f, the weight m (any positive real,
infinity allowed with 1/m = 0 exactly) and a lambda field. When lambda is not
supplied it is trace-solved pointwise from

    lambda = (R + lap f - (1/m)|grad f|^2) / n,

which enforces the trace of the defining equation by construction but not the
full tensor equation; that is what the verifiers test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import jets
from .geometry import (
    Chart,
    ChartFrame,
    ScalarField,
    TensorValue,
    _scalar_point,
    _sum_jets,
    dot_g,
    frame_at,
    tensor2_norm2_g,
)


@dataclass(frozen=True, eq=False)
class QemStructure:
    chart: Chart
    f: ScalarField
    m: float
    lam: ScalarField
    provenance: str = "closed_form"
    u: Optional[ScalarField] = None
    label: str = ""

    @property
    def inv_m(self) -> float:
        return 0.0 if math.isinf(self.m) else 1.0 / self.m

    @property
    def m_finite(self) -> bool:
        return not math.isinf(self.m)

    def require_u(self) -> ScalarField:
        if self.u is None:
            raise jets.OrderCapabilityError(
                "u = exp(-f/m) is undefined for m = inf"
            )
        return self.u


def trace_lambda_field(chart: Chart, f: ScalarField, m: float) -> ScalarField:
    """lambda trace-solved pointwise; jet-evaluable like any other field."""
    inv_m = 0.0 if math.isinf(m) else 1.0 / m
    n = chart.dim

    def jet_fn(coords):
        frame, order = frame_at(chart, coords), coords[0].order
        r = frame.scalar_curvature_jet(order)
        lap = frame.laplacian(f, order)
        gn2 = frame.grad_norm2(f, order)
        return (r + lap - inv_m * gn2) * (1.0 / n)

    return ScalarField(n, jet_fn, "lambda(trace)")


def make_structure(
    chart: Chart,
    f: ScalarField,
    m: float,
    lam: Optional[ScalarField] = None,
    u: Optional[ScalarField] = None,
    label: str = "",
) -> QemStructure:
    """A structure with `lam` given in closed form, or trace-solved when it is None."""
    if not m > 0:
        raise ValueError(f"m must be positive (inf allowed), got {m}")
    provenance = "closed_form" if lam is not None else "trace_solved"
    if lam is None:
        lam = trace_lambda_field(chart, f, m)
    if u is None and not math.isinf(m):
        inv_m = 1.0 / m
        u = ScalarField(
            chart.dim, lambda coords: jets.exp(f.jet(coords) * (-inv_m)), "u"
        )
    return QemStructure(chart, f, m, lam, provenance, u, label)


# Sample points per frame in `run_pointwise_suite` and `is_gqem`. It bounds their
# memory (about 0.4 MB per point at n = 6) and does not decide a residual's
# bits: every jet product sums in one order at any batch size. The default 100
# points are one chunk.
_CHUNK = 256


def chunks(points) -> list:
    """The sample as rows of shape (n,), in consecutive batches of at most `_CHUNK`."""
    points = np.asarray(points, dtype=np.float64)
    if points.size == 0:
        raise ValueError("empty sample")
    points = points.reshape(-1, points.shape[-1])
    return [points[lo : lo + _CHUNK] for lo in range(0, len(points), _CHUNK)]


class StructureFrame(ChartFrame):
    """Chart frame extended with the structure's potential, lambda and u fields."""

    def __init__(self, s: QemStructure, p):
        super().__init__(s.chart, p)
        self.s = s

    def f_jet(self, order):
        return self.field_jet(self.s.f, order)

    def lam_jet(self, order):
        return self.field_jet(self.s.lam, order)

    def u_jet(self, order):
        return self.field_jet(self.s.require_u(), order)

    def hess_f_values(self):
        return self.hessian_values(self.s.f)

    def bakry_emery_terms(self) -> tuple:
        """Ric, hess f and -(1/m) df (x) df: the terms of the Bakry-Emery Ricci tensor."""
        ric = self.ricci_values()
        hess = self.hess_f_values()
        df = self.partials_of_jet(self.f_jet(1))
        return ric, hess, -self.s.inv_m * df[..., :, None] * df[..., None, :]

    def bakry_emery_values(self) -> np.ndarray:
        return _sum_jets(self.bakry_emery_terms())

    def defining_values(self) -> tuple:
        return self.bakry_emery_terms(), (self.lam_jet(0).value[..., None, None] * self.metric_values(),)

    def traceless_values(self) -> tuple:
        """The trace-free form of the defining equation."""
        n = self.n
        g = self.metric_values()
        hess = self.hess_f_values()
        lap = self.laplacian(self.s.f, 0).value
        df = self.partials_of_jet(self.f_jet(1))
        gn2 = self.grad_norm2(self.s.f, 0).value
        ric = self.ricci_values()
        rr = self.scalar_curvature_value()
        free_dfdf = df[..., :, None] * df[..., None, :] - (gn2 / n)[..., None, None] * g
        lhs = (hess, -(lap / n)[..., None, None] * g, -self.s.inv_m * free_dfdf, ric)
        return lhs, ((rr / n)[..., None, None] * g,)


def residual(lhs, rhs, metric=None, checks=()):
    """sum(lhs) - sum(rhs), each side summed left to right, as |.| (componentwise
    for a tensor) or as the norm of the `metric` the row read: g for a vector, g^-1
    for a covector or a (0,2) tensor (a gap of the metric's rank). The norm is
    then folded by max with the magnitudes of the row's signed `checks`."""
    gap = _sum_jets(lhs) - _sum_jets(rhs)
    if metric is None:
        return np.abs(gap)
    norm2 = tensor2_norm2_g(metric, gap) if np.ndim(gap) == np.ndim(metric) else dot_g(metric, gap, gap)
    res = np.sqrt(np.maximum(norm2, 0.0))
    for check in checks:
        res = np.maximum(res, np.abs(check))
    return res


# ---------------------------------------------------------------------------
# pointwise operations
# ---------------------------------------------------------------------------


def bakry_emery_ricci(s: QemStructure, p) -> TensorValue:
    """Ric + hess f - (1/m) df (x) df as a symmetric (0,2) value."""
    p = _scalar_point(s.chart, p)
    return TensorValue(StructureFrame(s, p).bakry_emery_values(), 0, 2)


def defining_residual(s: QemStructure, p) -> TensorValue:
    """|Ric_f - lambda g| at p, componentwise; identically zero for an exact structure."""
    p = _scalar_point(s.chart, p)
    return TensorValue(residual(*StructureFrame(s, p).defining_values()), 0, 2)


def traceless_residual(s: QemStructure, p) -> TensorValue:
    p = _scalar_point(s.chart, p)
    return TensorValue(residual(*StructureFrame(s, p).traceless_values()), 0, 2)


@dataclass
class GqemCheck:
    """Residual statistics of the defining equation over a sample."""

    n_points: int
    sup_residual: float
    mean_residual: float
    sup_gnorm: float
    tolerance: float
    passed: bool


def is_gqem(s: QemStructure, points, tol: float) -> GqemCheck:
    """Componentwise and g-invariant residual statistics over a sample set, in chunks."""
    sup_comp, gnorm = [], []
    for chunk in chunks(points):
        frame = StructureFrame(s, chunk)
        terms = frame.defining_values()
        sup_comp.append(np.max(residual(*terms), axis=(-1, -2)))
        gnorm.append(residual(*terms, frame.metric_inv_values()))
    sup_comp, gnorm = np.concatenate(sup_comp), np.concatenate(gnorm)
    return GqemCheck(
        n_points=len(sup_comp),
        sup_residual=float(np.max(sup_comp)),
        mean_residual=float(np.mean(sup_comp)),
        sup_gnorm=float(np.max(gnorm)),
        tolerance=tol,
        passed=bool(np.max(sup_comp) < tol),
    )


def u_transform_residual(s: QemStructure, p) -> TensorValue:
    """|hess f - (1/m) df (x) df + (m/u) hess u|, componentwise; vanishes for any smooth f."""
    p = _scalar_point(s.chart, p)
    return TensorValue(residual(*u_transform_values(StructureFrame(s, p))), 0, 2)


def u_transform_values(frame: StructureFrame) -> tuple:
    s = frame.s
    if not s.m_finite:
        raise jets.OrderCapabilityError("the u-transform requires finite m")
    hess_f = frame.hess_f_values()
    hess_u = frame.hessian_values(s.require_u())
    df = frame.partials_of_jet(frame.f_jet(1))
    u_val = frame.u_jet(0).value
    lhs = (hess_f, -s.inv_m * df[..., :, None] * df[..., None, :])
    return lhs, (-(s.m / u_val)[..., None, None] * hess_u,)


def radial_identity_values(frame: StructureFrame) -> tuple:
    """Defining equation contracted twice with grad f."""
    s = frame.s
    g = frame.metric_values()
    gf = frame.grad_values(s.f)
    ric = frame.ricci_values()
    gn2 = dot_g(g, gf, gf)
    hess = frame.hess_f_values()
    # <nabla_{grad f} grad f, grad f> = hess f(grad f, grad f)
    hff = np.einsum("...ij,...i,...j->...", hess, gf, gf)
    ric_ff = np.einsum("...ij,...i,...j->...", ric, gf, gf)
    lam = frame.lam_jet(0).value
    return (ric_ff, hff, -s.inv_m * gn2 * gn2), (lam * gn2,)


def radial_identity_residual(s: QemStructure, p) -> float:
    p = _scalar_point(s.chart, p)
    return float(residual(*radial_identity_values(StructureFrame(s, p))))


def u_laplacian_values(frame: StructureFrame) -> tuple:
    """lap u - (u/m)(R - n lambda)."""
    s = frame.s
    if not s.m_finite:
        raise jets.OrderCapabilityError("the u-laplacian identity requires finite m")
    lap_u = frame.laplacian(s.require_u(), 0).value
    u_val = frame.u_jet(0).value
    rr = frame.scalar_curvature_value()
    lam = frame.lam_jet(0).value
    return (lap_u,), ((u_val / s.m) * (rr - s.chart.dim * lam),)


def trace_divergence_values(frame: StructureFrame) -> tuple:
    """m div grad f - |grad f|^2 - m(n lambda - R)."""
    s = frame.s
    if not s.m_finite:
        raise jets.OrderCapabilityError("the trace-divergence identity requires finite m")
    lap_f = frame.laplacian(s.f, 0).value
    gn2 = frame.grad_norm2(s.f, 0).value
    rr = frame.scalar_curvature_value()
    lam = frame.lam_jet(0).value
    return (s.m * lap_f, -gn2), (s.m * (s.chart.dim * lam - rr),)


@dataclass
class RankOneDecision:
    decision: str  # "zero" | "impossible"
    rho: Optional[float]
    eigen_gap: float


def rank_one_proportionality(v, g, tol: float = 1e-12) -> RankOneDecision:
    """Decide solvability of v (x) v = rho g for a metric g (dim >= 2).

    The flat pairing of v with itself is degenerate, so the only solution is
    v = 0 with rho = 0; any nonzero v is reported impossible together with the
    eigenvalue spread of g^{-1} (v^flat (x) v^flat).
    """
    v = np.asarray(v, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    n = g.shape[0]
    if n < 2:
        raise ValueError("rank-one proportionality needs dim >= 2")
    norm2 = float(v @ g @ v)
    if norm2 < tol * tol:
        return RankOneDecision("zero", 0.0, 0.0)
    return RankOneDecision("impossible", None, norm2)
