"""Pointwise verifiers for the structural identities of quasi-Einstein metrics.

Every verifier checks an identity that holds exactly on an exact structure;
running them on deliberately broken structures (negative controls) confirms
they can fail. The catalog at the bottom lists each verifier with the formula
it checks and the jet orders it consumes.

Each verifier takes the frame it reads: a `StructureFrame` for identities of
a structure, any `ChartFrame` for the chart-level ones, built at a single
point of shape (n,) or a batch of shape (..., n). It returns the identity's
two sides as tuples of signed terms, `(lhs, rhs)`, followed by the metric it
read when its residual is a norm. `qem.residual` forms and reduces every
residual; `run_pointwise_suite` takes its largest component per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import (
    ChartFrame,
    ScalarField,
    VectorField,
    _quadratic_form,
    _sum_jets,
    _values,
    grad_field,
    norm_g,
    tensor2_norm2_g,
)
from .qem import (
    QemStructure,
    StructureFrame,
    chunks,
    radial_identity_values,
    residual,
    trace_divergence_values,
    u_laplacian_values,
    u_transform_values,
)


# ---------------------------------------------------------------------------
# derivative-of-trace identity
# ---------------------------------------------------------------------------


def trace_gradient_residual(fr: StructureFrame):
    """<grad f, grad R> + <grad f, grad lap f> - (1/m)<grad f, grad|grad f|^2> - n<grad lam, grad f>."""
    s = fr.s
    gf = fr.grad_values(s.f)
    dR = fr.partials_of_jet(fr.scalar_curvature_jet(1))
    dlap = fr.partials_of_jet(fr.laplacian(s.f, 1))
    dgn2 = fr.partials_of_jet(fr.grad_norm2(s.f, 1))
    dlam = fr.partials_of_jet(fr.lam_jet(1))
    pair = lambda w: np.einsum("...i,...i->...", gf, w)
    return (pair(dR), pair(dlap), -s.inv_m * pair(dgn2)), (fr.n * pair(dlam),)


# ---------------------------------------------------------------------------
# the three structural gradient/Laplacian identities
# ---------------------------------------------------------------------------


def gradient_norm_laplacian_residual(fr: StructureFrame):
    """(1/2) lap|grad f|^2 = |hess f|^2 - Ric(grad f, grad f) + (2/m)|grad f|^2 lap f - (n-2)<grad lam, grad f>."""
    s = fr.s
    fr.metric_values()  # an order-0 metric build that the pinned product counts include
    lhs = 0.5 * fr.laplacian_of_jet(fr.grad_norm2(s.f, 2))
    hess = fr.hess_f_values()
    hess2 = tensor2_norm2_g(fr.metric_inv_values(), hess)
    gf = fr.grad_values(s.f)
    ric_ff = np.einsum("...ij,...i,...j->...", fr.ricci_values(), gf, gf)
    gn2 = fr.grad_norm2(s.f, 0).value
    lapf = fr.laplacian(s.f, 0).value
    dlam = fr.partials_of_jet(fr.lam_jet(1))
    lam_f = np.einsum("...i,...i->...", gf, dlam)
    return (lhs,), (hess2, -ric_ff, 2.0 * s.inv_m * gn2 * lapf, -(fr.n - 2) * lam_f)


# seeded fixed vectors that the curvature-gradient residual is also contracted with
_Z_CHECKS = 5
_Z_SEED = 0


def curvature_gradient_residual(fr: StructureFrame):
    """(1/2) grad R = ((m-1)/m) Ric(grad f) + (1/m)(R - (n-1)lam) grad f + (n-1) grad lam.

    Returns the terms of the vector identity and g, then `_Z_CHECKS` seeded
    contractions of its covariant form with fixed vectors, which `residual`
    folds into the g-norm.
    """
    s = fr.s
    n = fr.n
    g = fr.metric_values()
    dR = fr.partials_of_jet(fr.scalar_curvature_jet(1))
    gf = fr.grad_values(s.f)
    ric = fr.ricci_values()
    ginv = fr.metric_inv_values()
    ric_gf = np.einsum("...ik,...kl,...l->...i", ginv, ric, gf)
    dlam = fr.partials_of_jet(fr.lam_jet(1))
    rr = fr.scalar_curvature_value()
    lam = fr.lam_jet(0).value
    coef = (rr - (n - 1) * lam) * s.inv_m
    rhs = ((1.0 - s.inv_m) * ric_gf, coef[..., None] * gf,
           (n - 1) * np.einsum("...ij,...j->...i", ginv, dlam))
    lhs = 0.5 * np.einsum("...ij,...j->...i", ginv, dR)
    # the covariant form pairs directly with vectors
    w = 0.5 * dR - np.einsum("...ij,...j->...i", g, _sum_jets(rhs))
    z = np.random.default_rng(_Z_SEED).normal(size=(_Z_CHECKS, n))
    return (lhs,), rhs, g, [np.einsum("...i,i->...", w, zk) for zk in z]


def hamilton_gradient_residual(fr: StructureFrame):
    """grad(R + |grad f|^2 - 2(n-1)lam) = 2 lam grad f + (2/m){conv + (|grad f|^2 - lap f) grad f}."""
    s = fr.s
    n = fr.n
    g = fr.metric_values()
    combined = (
        fr.scalar_curvature_jet(1)
        + fr.grad_norm2(s.f, 1)
        - 2.0 * (n - 1) * fr.lam_jet(1)
    )
    lhs = fr.grad_values_of_jet(combined)
    gf = fr.grad_values(s.f)
    hess = fr.hess_f_values()
    conv = np.einsum("...ik,...kj,...j->...i", fr.metric_inv_values(), hess, gf)
    lam = fr.lam_jet(0).value
    gn2 = fr.grad_norm2(s.f, 0).value
    lapf = fr.laplacian(s.f, 0).value
    rhs = (2.0 * lam[..., None] * gf, 2.0 * s.inv_m * (conv + (gn2 - lapf)[..., None] * gf))
    return (lhs,), rhs, g


# ---------------------------------------------------------------------------
# fourth-order identity for the Laplacian of the scalar curvature
# ---------------------------------------------------------------------------


def _convective_divergence(fr: StructureFrame, phi: ScalarField):
    """div(nabla_{grad phi} grad phi) values, via order-1 jets of the field."""
    n = fr.n
    xj = fr.grad(phi, 2)
    x1 = [x.truncated(1) for x in xj]
    gam1 = fr.gamma(1)
    w = []
    for i in range(n):
        acc = x1[0] * xj[i].derive(0)
        for j in range(1, n):
            acc = acc + x1[j] * xj[i].derive(j)
        for j in range(n):
            for k in range(n):
                acc = acc + gam1[i, j, k] * x1[j] * x1[k]
        w.append(acc)
    gam0 = fr.gamma(0)
    out = 0.0
    for i in range(n):
        out = out + w[i].derive(i).value
        for k in range(n):
            out = out + gam0[i, i, k].value * w[k].value
    return out


def curvature_laplacian_residual(fr: StructureFrame, fd_step: Optional[float] = None):
    """(1/2) lap R against its expansion in potential derivatives (needs metric jets of order 4).

    With `fd_step` set, the left side uses second central differences of the
    scalar curvature field instead of jets (cross-validation of the
    fourth-order path).
    """
    s = fr.s
    if not s.m_finite:
        raise ValueError("the curvature-Laplacian identity is stated for finite m")
    n = fr.n
    g = fr.metric_values()
    if fd_step is None:
        lhs = 0.5 * fr.laplacian_of_jet(fr.scalar_curvature_jet(2))
    else:
        lhs = 0.5 * _fd_laplacian_scalar_curvature(fr, fd_step)
    hess = fr.hess_f_values()
    lapf = fr.laplacian(s.f, 0).value
    traceless = hess - (lapf / n)[..., None, None] * g
    traceless2 = tensor2_norm2_g(fr.metric_inv_values(), traceless)
    gf = fr.grad_values(s.f)
    pair = lambda w: np.einsum("...i,...i->...", gf, w)
    dlam = fr.partials_of_jet(fr.lam_jet(1))
    dR = fr.partials_of_jet(fr.scalar_curvature_jet(1))
    dlap = fr.partials_of_jet(fr.laplacian(s.f, 1))
    lam = fr.lam_jet(0).value
    rhs = (
        -traceless2,
        -(1.0 / n + s.inv_m) * lapf**2,
        -0.5 * n * pair(dlam),
        pair(dR),
        (0.5 - s.inv_m) * pair(dlap),
        s.inv_m * _convective_divergence(fr, s.f),
        (n - 1) * fr.laplacian_of_jet(fr.lam_jet(2)),
        lam * lapf,
    )
    return (lhs,), rhs


def _fd_laplacian_scalar_curvature(fr: StructureFrame, step: float):
    """lap R with coordinate second differences of R (step h), curvature terms from jets."""
    p = fr.p
    e = step * np.eye(fr.n)

    def r_at(q):
        return ChartFrame(fr.chart, q).scalar_curvature_value()

    def d2(i, j):
        if i == j:
            return (r_at(p + e[i]) - 2 * r0 + r_at(p - e[i])) / step**2
        return (
            r_at(p + e[i] + e[j])
            - r_at(p + e[i] - e[j])
            - r_at(p - e[i] + e[j])
            + r_at(p - e[i] - e[j])
        ) / (4 * step**2)

    r0 = r_at(p)
    d1 = [(r_at(p + e[i]) - r_at(p - e[i])) / (2 * step) for i in range(fr.n)]
    return fr.laplacian_from_partials(d1, d2)


# ---------------------------------------------------------------------------
# conformality and vector-field identities
# ---------------------------------------------------------------------------


def conformality_residual(fr: ChartFrame, X: VectorField):
    """(1/2) L_X g = (div X / n) g, with g^-1 for its g-norm."""
    n = fr.n
    g = fr.metric_values()
    lie = _values(fr.lie_metric(X, 0))
    div = fr.div_vector(X, 0).value
    return (0.5 * lie,), ((div / n)[..., None, None] * g,), fr.metric_inv_values()


def lie_divergence_residual(fr: ChartFrame, X: VectorField):
    """div(L_X g)(X) = (1/2) lap|X|^2 - |nabla X|^2 + Ric(X, X) + <X, grad div X>."""
    g = fr.metric_values()
    xv = _values(fr.field_jet(X, 0))
    # a frame of its own, not `fr`: perfbench/tests pins the products it adds
    div_lie = _values(fr.div_tensor2(ChartFrame(fr.chart, fr.p).lie_metric(X, 1)))
    lhs = np.einsum("...i,...i->...", div_lie, xv)
    lap_norm2 = fr.laplacian_of_jet(_quadratic_form(fr.metric(2), fr.field_jet(X, 2)))
    covv = _values(fr.covariant_vector(X, 0))
    # |nabla X|^2 with the (1,1) valence: g_{ik} g^{jl} covv[i,j] covv[k,l]
    ginv = fr.metric_inv_values()
    nabla_x2 = np.einsum("...ik,...jl,...ij,...kl->...", g, ginv, covv, covv)
    ric_xx = np.einsum("...ij,...i,...j->...", fr.ricci_values(), xv, xv)
    ddiv = fr.partials_of_jet(fr.div_vector(X, 1))
    d_x_div = np.einsum("...i,...i->...", xv, ddiv)
    return (lhs,), (0.5 * lap_norm2, -nabla_x2, ric_xx, d_x_div)


# ---------------------------------------------------------------------------
# chart-level curvature identities (potential-independent or Bochner-type)
# ---------------------------------------------------------------------------


def contracted_bianchi_residual(fr: ChartFrame):
    """grad R = 2 div Ric (covariant form), with g^-1 for its g-norm."""
    dR = fr.partials_of_jet(fr.scalar_curvature_jet(1))
    # a frame of its own, not `fr`: perfbench/tests pins the products it adds
    div_ric = _values(fr.div_tensor2(ChartFrame(fr.chart, fr.p).ricci(1)))
    return (dR,), (2.0 * div_ric,), fr.metric_inv_values()


def div_hessian_residual(fr: ChartFrame, phi: ScalarField):
    """div hess phi = Ric(grad phi) + grad lap phi (covariant form), with g^-1 for its g-norm."""
    # a frame of its own, not `fr`: perfbench/tests pins the products it adds
    div_h = _values(fr.div_tensor2(ChartFrame(fr.chart, fr.p).hessian(phi, 1)))
    gphi = fr.grad_values(phi)
    ric_flat = np.einsum("...ij,...j->...i", fr.ricci_values(), gphi)
    dlap = fr.partials_of_jet(fr.laplacian(phi, 1))
    return (div_h, -ric_flat), (dlap,), fr.metric_inv_values()


def div_outer_grad_residual(fr: ChartFrame, phi: ScalarField):
    """div(dphi (x) dphi) = lap phi dphi + hess phi(grad phi, .), with g^-1 for its g-norm."""
    # phi.jet, not fr.field_jet: perfbench/tests pins products a memo hit drops
    fj = phi.jet(fr.coords(2))
    df = [fj.derive(i) for i in range(fr.n)]
    outer = np.empty((fr.n, fr.n), dtype=object)
    for i in range(fr.n):
        for j in range(i, fr.n):
            outer[i, j] = outer[j, i] = df[i] * df[j]
    div_t = _values(fr.div_tensor2(outer))
    lap = fr.laplacian(phi, 0).value
    dphi = fr.partials_of_jet(fr.field_jet(phi, 1))
    gphi = fr.grad_values(phi)
    conv_flat = np.einsum("...jk,...k->...j", fr.hessian_values(phi), gphi)
    return (div_t, -lap[..., None] * dphi), (conv_flat,), fr.metric_inv_values()


def bochner_residual(fr: ChartFrame, phi: ScalarField):
    """(1/2) lap|grad phi|^2 = |hess phi|^2 + <grad phi, grad lap phi> + Ric(grad phi, grad phi)."""
    fr.metric_values()  # an order-0 metric build that the pinned product counts include
    lhs = 0.5 * fr.laplacian_of_jet(fr.grad_norm2(phi, 2))
    hess = fr.hessian_values(phi)
    hess2 = tensor2_norm2_g(fr.metric_inv_values(), hess)
    gphi = fr.grad_values(phi)
    dlap = fr.partials_of_jet(fr.laplacian(phi, 1))
    ric_ff = np.einsum("...ij,...i,...j->...", fr.ricci_values(), gphi, gphi)
    return (lhs,), (hess2, np.einsum("...i,...i->...", gphi, dlap), ric_ff)


# ---------------------------------------------------------------------------
# Einstein-base profile and scan-style checks
# ---------------------------------------------------------------------------


@dataclass
class EinsteinHessianProfile:
    """Sample-level check of the conformal-Hessian structure on an Einstein base."""

    c_estimate: float
    c_min: float
    c_max: float
    hessian_residual: float
    lap_residual: float
    gradlam_residual: float

    @property
    def c_spread(self) -> float:
        return self.c_max - self.c_min

    @property
    def max_residual(self) -> float:
        return max(self.hessian_residual, self.lap_residual, self.gradlam_residual)

    def join(self, other: "EinsteinHessianProfile") -> "EinsteinHessianProfile":
        """The profile over both samples, keeping this one's `c_estimate`.

        np.minimum and np.maximum propagate NaN, as the per-sample reductions do.
        """
        def hi(name):
            return float(np.maximum(getattr(self, name), getattr(other, name)))

        return EinsteinHessianProfile(
            self.c_estimate, float(np.minimum(self.c_min, other.c_min)), hi("c_max"),
            hi("hessian_residual"), hi("lap_residual"), hi("gradlam_residual"))


def einstein_hessian_profile(fr: StructureFrame,
                             c: Optional[float] = None) -> EinsteinHessianProfile:
    """On an Einstein base with n >= 3 and finite m, u satisfies
    hess u = (-R/(n(n-1)) u + c/m) g with one constant c, and with it
    lap u = (R/m)u - (n/m) lam u and grad(lam u) = R(m+n-1)/(n(n-1)) grad u.
    The residuals use `c` when given, else its estimate at the first point.
    """
    s, n = fr.s, fr.n
    if n < 3:
        raise ValueError("the Einstein Hessian profile needs dim >= 3")
    if not s.m_finite:
        raise ValueError("the Einstein Hessian profile needs finite m")
    u = s.require_u()
    g = fr.metric_values()
    rr = fr.scalar_curvature_value()
    u_val = fr.u_jet(0).value
    lap_u = fr.laplacian(u, 0).value

    c_per_point = s.m * (lap_u / n + rr * u_val / (n * (n - 1)))
    if c is None:
        c = float(c_per_point.flat[0])

    hess_u = fr.hessian_values(u)
    target = (-rr / (n * (n - 1)) * u_val + c / s.m)[..., None, None] * g
    hessian_residual = float(np.max(np.abs(hess_u - target)))

    lam = fr.lam_jet(0).value
    lap_residual = float(np.max(np.abs(lap_u - (rr / s.m) * u_val + (n / s.m) * lam * u_val)))

    lam_u = s.lam * u
    dlamu = fr.partials_of_jet(fr.field_jet(lam_u, 1))
    du = fr.partials_of_jet(fr.u_jet(1))
    w = dlamu - (rr * (s.m + n - 1) / (n * (n - 1)))[..., None] * du
    gradlam_residual = float(np.max(norm_g(fr.metric_inv_values(), w)))
    return EinsteinHessianProfile(c, float(np.min(c_per_point)), float(np.max(c_per_point)),
                                  hessian_residual, lap_residual, gradlam_residual)


@dataclass
class SignScan:
    minimum: float
    maximum: float
    sign_changes: bool


def sign_scan_r_minus_n_lambda(fr: StructureFrame) -> SignScan:
    """Range of R - n lambda over the frame's sample; a nontrivial compact
    structure must see both signs."""
    vals = fr.scalar_curvature_value() - fr.n * fr.lam_jet(0).value
    lo, hi = float(np.min(vals)), float(np.max(vals))
    return SignScan(lo, hi, lo < 0.0 < hi)


# ---------------------------------------------------------------------------
# catalog and suite runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityInfo:
    identity_id: str
    formula: str
    orders: dict  # highest jet order requested of "g", "f", "lambda", "u"; None: never read
    order_class: int  # 2, 3 or 4; selects the tolerance class
    kind: str  # "pointwise" | "profile"
    needs_finite_m: bool = False
    needs_einstein_base: bool = False
    min_dim: int = 2
    runner: Optional[Callable] = None  # runner(frame); a profile row's also takes c


CATALOG: tuple[IdentityInfo, ...] = (
    IdentityInfo(
        "defining_equation",
        "Ric + ∇²f − (1/m)df⊗df = λg",
        {"g": 2, "f": 2, "lambda": 0, "u": None},
        2,
        "pointwise",
        runner=lambda fr: fr.defining_values(),
    ),
    IdentityInfo(
        "traceless_defining",
        "∇²f − (Δf/n)g = (1/m)(df⊗df − (|∇f|²/n)g) − (Ric − (R/n)g)",
        {"g": 2, "f": 2, "lambda": None, "u": None},
        2,
        "pointwise",
        runner=lambda fr: fr.traceless_values(),
    ),
    IdentityInfo(
        "radial_identity",
        "Ric(∇f,∇f) + ⟨∇_∇f∇f,∇f⟩ = (1/m)|∇f|⁴ + λ|∇f|²",
        {"g": 2, "f": 2, "lambda": 0, "u": None},
        3,
        "pointwise",
        # qem rows call through the module global, which perfbench's tracer patches
        runner=lambda fr: radial_identity_values(fr),
    ),
    IdentityInfo(
        "trace_gradient",
        "⟨∇f,∇R⟩ + ⟨∇f,∇Δf⟩ = (1/m)⟨∇f,∇|∇f|²⟩ + n⟨∇λ,∇f⟩",
        {"g": 3, "f": 3, "lambda": 1, "u": None},
        3,
        "pointwise",
        runner=trace_gradient_residual,
    ),
    IdentityInfo(
        "u_transform",
        "∇²f − (1/m)df⊗df = −(m/u)∇²u",
        {"g": 1, "f": 2, "lambda": None, "u": 2},
        3,
        "pointwise",
        needs_finite_m=True,
        runner=lambda fr: u_transform_values(fr),
    ),
    IdentityInfo(
        "u_laplacian",
        "Δu = (u/m)(R − nλ)",
        {"g": 2, "f": None, "lambda": 0, "u": 2},
        2,
        "pointwise",
        needs_finite_m=True,
        runner=lambda fr: u_laplacian_values(fr),
    ),
    IdentityInfo(
        "trace_divergence",
        "m·div∇f = |∇f|² + m(nλ − R)",
        {"g": 2, "f": 2, "lambda": 0, "u": None},
        3,
        "pointwise",
        needs_finite_m=True,
        runner=lambda fr: trace_divergence_values(fr),
    ),
    IdentityInfo(
        "gradient_norm_laplacian",
        "½Δ|∇f|² = |∇²f|² − Ric(∇f,∇f) + (2/m)|∇f|²Δf − (n−2)⟨∇λ,∇f⟩",
        {"g": 2, "f": 3, "lambda": 1, "u": None},
        3,
        "pointwise",
        runner=gradient_norm_laplacian_residual,
    ),
    IdentityInfo(
        "curvature_gradient",
        "½∇R = ((m−1)/m)Ric(∇f) + (1/m)(R−(n−1)λ)∇f + (n−1)∇λ",
        {"g": 3, "f": 1, "lambda": 1, "u": None},
        3,
        "pointwise",
        runner=curvature_gradient_residual,
    ),
    IdentityInfo(
        "hamilton_gradient",
        "∇(R + |∇f|² − 2(n−1)λ) = 2λ∇f + (2/m){∇_∇f∇f + (|∇f|²−Δf)∇f}",
        {"g": 3, "f": 2, "lambda": 1, "u": None},
        3,
        "pointwise",
        runner=hamilton_gradient_residual,
    ),
    IdentityInfo(
        "curvature_laplacian",
        "½ΔR = −|∇²f−(Δf/n)g|² − ((m+n)/nm)(Δf)² − (n/2)⟨∇f,∇λ⟩ + ⟨∇f,∇R⟩"
        " + ((m−2)/2m)⟨∇f,∇Δf⟩ + (1/m)div(∇_∇f∇f) + (n−1)Δλ + λΔf",
        {"g": 4, "f": 3, "lambda": 2, "u": None},
        4,
        "pointwise",
        needs_finite_m=True,
        runner=curvature_laplacian_residual,
    ),
    IdentityInfo(
        "u_conformality",
        "½L_∇u g = (Δu/n)g on an Einstein base",
        {"g": 1, "f": None, "lambda": None, "u": 2},
        3,
        "pointwise",
        needs_finite_m=True,
        needs_einstein_base=True,
        runner=lambda fr: conformality_residual(fr, grad_field(fr.chart, fr.s.require_u())),
    ),
    IdentityInfo(
        "contracted_bianchi",
        "∇R = 2 div Ric",
        {"g": 3, "f": None, "lambda": None, "u": None},
        3,
        "pointwise",
        runner=contracted_bianchi_residual,
    ),
    IdentityInfo(
        "div_hessian",
        "div ∇²f = Ric(∇f) + ∇Δf",
        {"g": 2, "f": 3, "lambda": None, "u": None},
        3,
        "pointwise",
        runner=lambda fr: div_hessian_residual(fr, fr.s.f),
    ),
    IdentityInfo(
        "div_outer_grad",
        "div(df⊗df) = Δf·df + ∇²f(∇f,·)",
        {"g": 1, "f": 2, "lambda": None, "u": None},
        3,
        "pointwise",
        runner=lambda fr: div_outer_grad_residual(fr, fr.s.f),
    ),
    IdentityInfo(
        "bochner",
        "½Δ|∇f|² = |∇²f|² + ⟨∇f,∇Δf⟩ + Ric(∇f,∇f)",
        {"g": 2, "f": 3, "lambda": None, "u": None},
        3,
        "pointwise",
        runner=lambda fr: bochner_residual(fr, fr.s.f),
    ),
    IdentityInfo(
        "lie_divergence",
        "div(L_X g)(X) = ½Δ|X|² − |∇X|² + Ric(X,X) + ⟨X,∇div X⟩  (X = ∇f)",
        {"g": 2, "f": 3, "lambda": None, "u": None},
        3,
        "pointwise",
        runner=lambda fr: lie_divergence_residual(fr, grad_field(fr.chart, fr.s.f)),
    ),
    IdentityInfo(
        "einstein_hessian",
        "∇²u = (−R/(n(n−1))·u + c/m)g;  Δu = (R/m)u − (n/m)λu;"
        "  ∇(λu) = R(m+n−1)/(n(n−1))·∇u",
        {"g": 2, "f": None, "lambda": 1, "u": 2},
        2,
        "profile",
        needs_finite_m=True,
        needs_einstein_base=True,
        min_dim=3,
        runner=einstein_hessian_profile,
    ),
)

CATALOG_BY_ID = {info.identity_id: info for info in CATALOG}


def applicable(info: IdentityInfo, s: QemStructure) -> bool:
    if info.needs_finite_m and not s.m_finite:
        return False
    if info.needs_einstein_base and s.chart.family is None:
        return False
    if s.chart.dim < info.min_dim:
        return False
    return True


@dataclass
class SuiteEntry:
    identity_id: str
    formula: str
    n_points: int
    max_residual: float
    mean_residual: float
    tolerance: float
    passed: bool


def run_pointwise_suite(
    s: QemStructure,
    points,
    tolerances: dict[int, float],
    ids: Optional[list[str]] = None,
) -> list[SuiteEntry]:
    """Evaluate every applicable catalog identity over the sample points.

    Each row's runner gets a frame of at most `qem._CHUNK` points at a time; a
    pointwise row's residual (`qem.residual`) is reduced to its largest
    component per point. The entries are those of one batch holding every
    point. A selection of which no row applies to `s` raises a `ValueError`
    that names the skipped ids, so that a run that checks nothing cannot pass;
    an unknown id, or a row's order class without a tolerance, raises one too.
    """
    batches = chunks(points)
    unknown = [i for i in ids or () if i not in CATALOG_BY_ID]
    if unknown:
        raise ValueError(f"unknown identity id(s): {', '.join(map(repr, unknown))}")
    selected = list(CATALOG) if ids is None else [CATALOG_BY_ID[i] for i in ids]
    rows = [info for info in selected if applicable(info, s)]
    if not rows:
        raise ValueError(f"no selected identity applies to {s.label}; skipped: "
                         + ", ".join(info.identity_id for info in selected))
    missing = sorted({info.order_class for info in rows} - tolerances.keys())
    if missing:
        raise ValueError(f"no tolerance for order class(es) {missing}")
    out = []
    for info in rows:
        tol = tolerances[info.order_class]
        if info.kind == "profile":
            prof = info.runner(StructureFrame(s, batches[0]))
            for chunk in batches[1:]:
                prof = prof.join(info.runner(StructureFrame(s, chunk), prof.c_estimate))
            res_max = max(prof.max_residual, prof.c_spread)
            res_mean = res_max
        else:
            res = []
            for chunk in batches:
                r = residual(*info.runner(StructureFrame(s, chunk)))  # may only broadcast to the chunk
                res.append(np.broadcast_to(r, (len(chunk),) + r.shape[1:]).reshape(len(chunk), -1).max(axis=-1))
            res = np.concatenate(res)
            res_max = float(np.max(res))
            res_mean = float(np.mean(res))
        out.append(
            SuiteEntry(
                identity_id=info.identity_id,
                formula=info.formula,
                n_points=sum(map(len, batches)),
                max_residual=res_max,
                mean_residual=res_mean,
                tolerance=tol,
                passed=res_max < tol,
            )
        )
    return out
