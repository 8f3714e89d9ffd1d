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
    dot_g,
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

    def jet_fn(p, order):
        frame = ChartFrame(chart, p)
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
            chart.dim, lambda p, order: jets.exp(f.jet(p, order) * (-inv_m)), "u"
        )
    return QemStructure(chart, f, m, lam, provenance, u, label)


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

    def bakry_emery_values(self) -> np.ndarray:
        ric = self.ricci_values()
        hess = self.hess_f_values()
        df = self.partials_of_jet(self.f_jet(1))
        return ric + hess - self.s.inv_m * df[..., :, None] * df[..., None, :]

    def defining_values(self) -> np.ndarray:
        return self.bakry_emery_values() - self.lam_jet(0).value[..., None, None] * self.metric_values()

    def traceless_values(self) -> np.ndarray:
        """Residual of the trace-free form of the defining equation."""
        n = self.n
        g = self.metric_values()
        hess = self.hess_f_values()
        lap = self.laplacian(self.s.f, 0).value
        df = self.partials_of_jet(self.f_jet(1))
        gn2 = self.grad_norm2(self.s.f, 0).value
        ric = self.ricci_values()
        rr = self.scalar_curvature_value()
        t = hess - (lap / n)[..., None, None] * g
        t = t - self.s.inv_m * (
            df[..., :, None] * df[..., None, :] - (gn2 / n)[..., None, None] * g
        )
        t = t + ric - (rr / n)[..., None, None] * g
        return t


# ---------------------------------------------------------------------------
# pointwise operations
# ---------------------------------------------------------------------------


def bakry_emery_ricci(s: QemStructure, p) -> TensorValue:
    """Ric + hess f - (1/m) df (x) df as a symmetric (0,2) value."""
    p = _scalar_point(s.chart, p)
    return TensorValue(StructureFrame(s, p).bakry_emery_values(), 0, 2, p)


def defining_residual(s: QemStructure, p) -> TensorValue:
    """Ric_f - lambda g at p; identically zero for an exact structure."""
    p = _scalar_point(s.chart, p)
    return TensorValue(StructureFrame(s, p).defining_values(), 0, 2, p)


def traceless_residual(s: QemStructure, p) -> TensorValue:
    p = _scalar_point(s.chart, p)
    return TensorValue(StructureFrame(s, p).traceless_values(), 0, 2, p)


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
    """Componentwise and g-invariant residual statistics over a sample set."""
    points = np.asarray(points, dtype=np.float64)
    if points.size == 0:
        raise ValueError("empty sample")
    frame = StructureFrame(s, points)
    res = frame.defining_values()
    sup_comp = np.max(np.abs(res), axis=(-1, -2))
    g = frame.metric_values()
    gnorm = np.sqrt(np.maximum(tensor2_norm2_g(g, frame.metric_inv_values(), res), 0.0))
    return GqemCheck(
        n_points=int(np.prod(points.shape[:-1])),
        sup_residual=float(np.max(sup_comp)),
        mean_residual=float(np.mean(sup_comp)),
        sup_gnorm=float(np.max(gnorm)),
        tolerance=tol,
        passed=bool(np.max(sup_comp) < tol),
    )


def u_transform_residual(s: QemStructure, p) -> TensorValue:
    """hess f - (1/m) df (x) df + (m/u) hess u; vanishes for any smooth f."""
    p = _scalar_point(s.chart, p)
    return TensorValue(u_transform_values(StructureFrame(s, p)), 0, 2, p)


def u_transform_values(frame: StructureFrame) -> np.ndarray:
    s = frame.s
    if not s.m_finite:
        raise jets.OrderCapabilityError("the u-transform requires finite m")
    hess_f = frame.hess_f_values()
    hess_u = frame.hessian_values(s.require_u())
    df = frame.partials_of_jet(frame.f_jet(1))
    u_val = frame.u_jet(0).value
    return (
        hess_f
        - s.inv_m * df[..., :, None] * df[..., None, :]
        + (s.m / u_val)[..., None, None] * hess_u
    )


def radial_identity_values(frame: StructureFrame) -> np.ndarray:
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
    return ric_ff + hff - s.inv_m * gn2 * gn2 - lam * gn2


def radial_identity_residual(s: QemStructure, p) -> float:
    p = _scalar_point(s.chart, p)
    return float(radial_identity_values(StructureFrame(s, p)))


def u_laplacian_values(frame: StructureFrame) -> np.ndarray:
    """lap u - (u/m)(R - n lambda)."""
    s = frame.s
    if not s.m_finite:
        raise jets.OrderCapabilityError("the u-laplacian identity requires finite m")
    lap_u = frame.laplacian(s.require_u(), 0).value
    u_val = frame.u_jet(0).value
    rr = frame.scalar_curvature_value()
    lam = frame.lam_jet(0).value
    return lap_u - (u_val / s.m) * (rr - s.chart.dim * lam)


def trace_divergence_values(frame: StructureFrame) -> np.ndarray:
    """m div grad f - |grad f|^2 - m(n lambda - R)."""
    s = frame.s
    if not s.m_finite:
        raise jets.OrderCapabilityError("the trace-divergence identity requires finite m")
    lap_f = frame.laplacian(s.f, 0).value
    gn2 = frame.grad_norm2(s.f, 0).value
    rr = frame.scalar_curvature_value()
    lam = frame.lam_jet(0).value
    return s.m * lap_f - gn2 - s.m * (s.chart.dim * lam - rr)


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
