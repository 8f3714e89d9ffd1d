"""The three model geometries and their ready-made quasi-Einstein structures.

Charts: Euclidean space in cartesian coordinates, the round sphere of radius r
in stereographic or polar coordinates, and hyperbolic space (curvature -1) in
the Poincare ball. Each carries an ambient embedding; the sphere embeds in
Euclidean space, the ball in the hyperboloid sheet of Minkowski space.

Height functions use the sign convention h_v >= 1 on hyperbolic space
(h_v = cosh of the geodesic distance to the base point), so that
u = tau + h_v stays positive for every tau > -1 while the eigen-Hessian
property hess(h_v) = h_v g is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import jets
from .jets import Jet
from .geometry import Chart, ScalarField, _values, check_metric_spd
from .qem import QemStructure, make_structure

FAMILIES = ("euclidean", "sphere", "hyperbolic")
CHART_KINDS = {
    "euclidean": ("cartesian",),
    "sphere": ("stereographic", "polar"),
    "hyperbolic": ("poincare_ball",),
}


@dataclass(frozen=True)
class ModelSpec:
    """Parameters of one model structure.

    v_axis selects the ambient coordinate axis of the height function
    (hyperbolic space only supports the apex axis 0).
    """

    family: str
    dim: int
    tau: float
    m: float
    radius: float = 1.0
    chart_kind: str = ""
    v_axis: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.dim < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dim}")
        kind = self.chart_kind or CHART_KINDS[self.family][0]
        object.__setattr__(self, "chart_kind", kind)
        if kind not in CHART_KINDS[self.family]:
            raise ValueError(
                f"chart kind {kind!r} not supported for family {self.family!r} "
                f"(supported: {CHART_KINDS[self.family]})"
            )
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.family == "hyperbolic" and self.radius != 1.0:
            raise ValueError("hyperbolic model is fixed at curvature -1 (radius 1)")
        if not (self.m > 0):
            raise ValueError(f"m must be positive (inf allowed), got {self.m}")
        n, tau, r = self.dim, self.tau, self.radius
        if self.family == "sphere" and not tau > r / n:
            raise ValueError(
                f"sphere potential requires tau > r/n = {r / n:.6g}, got tau = {tau}"
            )
        if self.family == "euclidean" and not tau > 0:
            raise ValueError(f"euclidean potential requires tau > 0, got tau = {tau}")
        if self.family == "hyperbolic" and not tau > -1:
            raise ValueError(f"hyperbolic potential requires tau > -1, got tau = {tau}")
        if not 0 <= self.v_axis <= self.dim:
            raise ValueError(f"v_axis must be in 0..{self.dim}, got {self.v_axis}")
        if self.family == "hyperbolic" and self.v_axis != 0:
            raise ValueError("hyperbolic height functions only support v_axis = 0 (apex)")


def _diagonal(entries):
    """The (n, n) object array of jets with `entries` on its diagonal and zeros off it."""
    n, e = len(entries), entries[0]
    out = np.full((n, n), Jet.constant(np.zeros(e.batch_shape), e.dim, e.order), dtype=object)
    for i in range(n):
        out[i, i] = entries[i]
    return out


def _norm2(coords):
    s = coords[0] * coords[0]
    for c in coords[1:]:
        s = s + c * c
    return s


def make_chart(spec: ModelSpec) -> Chart:
    n, r = spec.dim, spec.radius
    domain_fn = lambda p: np.full(p.shape[:-1], True)
    signature = (1.0,) * (n if spec.family == "euclidean" else n + 1)

    if spec.family == "euclidean":

        def metric_fn(coords):
            one = Jet.constant(np.ones(coords[0].batch_shape), n, coords[0].order)
            return _diagonal([one] * n)

        embedding_fn = lambda coords: list(coords)
        label = f"R^{n} cartesian"
        lo, hi = np.full(n, -2.0), np.full(n, 2.0)

    elif spec.chart_kind == "stereographic":
        r2, r4 = r * r, r**4

        def metric_fn(coords):
            q = r2 + _norm2(coords)
            return _diagonal([(4.0 * r4) / (q * q)] * n)

        def embedding_fn(coords):
            s = _norm2(coords)
            inv_q = jets.reciprocal(r2 + s)
            amb = [(2.0 * r2) * c * inv_q for c in coords]
            amb.append(r * (s - r2) * inv_q)
            return amb

        label = f"S^{n}(r={r:g}) stereographic"
        lo, hi = np.full(n, -2.0 * r), np.full(n, 2.0 * r)

    elif spec.chart_kind == "polar":
        # coordinates (theta_1 .. theta_{n-1}, phi); metric r^2 diag(1, sin^2 th_1, ...)
        def metric_fn(coords):
            diag = [Jet.constant(np.full(coords[0].batch_shape, r * r), n, coords[0].order)]
            for c in coords[:-1]:
                s = jets.sin(c)
                diag.append(diag[-1] * s * s)
            return _diagonal(diag)

        def embedding_fn(coords):
            amb = []
            prod = Jet.constant(np.full(coords[0].batch_shape, r), n, coords[0].order)
            for c in coords:
                amb.append(prod * jets.cos(c))
                prod = prod * jets.sin(c)
            amb.append(prod)
            return amb

        def domain_fn(p):
            polar = p[..., : n - 1]
            return np.all((polar > 0.0) & (polar < np.pi), axis=-1)

        label = f"S^{n}(r={r:g}) polar"
        lo = np.array([0.35] * (n - 1) + [0.2])
        hi = np.array([np.pi - 0.35] * (n - 1) + [2 * np.pi - 0.2])

    else:  # hyperbolic: ModelSpec admits no other (family, chart) pair

        def metric_fn(coords):
            q = 1.0 - _norm2(coords)
            return _diagonal([4.0 * jets.reciprocal(q * q)] * n)

        def embedding_fn(coords):
            # hyperboloid sheet <x,x>_0 = -1; time axis first
            s = _norm2(coords)
            inv_q = jets.reciprocal(1.0 - s)
            amb = [(1.0 + s) * inv_q]
            amb.extend(2.0 * c * inv_q for c in coords)
            return amb

        domain_fn = lambda p: np.sum(p * p, axis=-1) < 1.0
        label = f"H^{n} poincare ball"
        lo, hi = np.full(n, -0.55), np.full(n, 0.55)
        signature = (-1.0,) + (1.0,) * n

    return Chart(
        dim=n,
        metric_fn=metric_fn,
        domain_fn=domain_fn,
        label=label,
        chart_kind=spec.chart_kind,
        family=spec.family,
        compact=spec.family == "sphere",
        sample_lo=lo,
        sample_hi=hi,
        embedding_fn=embedding_fn,
        ambient_signature=signature,
    )


def height_field(spec: ModelSpec, chart: Chart, v_axis: Optional[int] = None) -> ScalarField:
    """Height function along an ambient axis, restricted to the model.

    Sphere: the ambient coordinate of the embedding. Hyperbolic: cosh of the
    geodesic distance to the apex, i.e. minus the Minkowski pairing with it.
    """
    if v_axis is not None:
        spec = replace(spec, v_axis=v_axis)  # ModelSpec checks the axis
    axis = spec.v_axis
    if spec.family == "euclidean":
        raise ValueError("height fields are defined on the sphere and hyperbolic models")

    def fn(*coords):
        amb = chart.embedding_fn(coords)
        return amb[axis]  # hyperbolic: -<x, e_0>_0 = +x_time = amb[0]

    return ScalarField.from_coords(chart.dim, fn, f"h[{axis}]")


def example_structure(spec: ModelSpec, validate: bool = True) -> QemStructure:
    """The model quasi-Einstein structure: u positive, f = -m log(u), closed-form lambda.

    sphere      u = tau - h_v/n     lambda = (n-1) - m (tau-u)/u   (unit radius)
    euclidean   u = tau + |x|^2     lambda = -2m/u
    hyperbolic  u = tau + h_v       lambda = -(n-1) - m (u-tau)/u

    For a sphere of radius != 1 lambda is trace-solved instead of closed form.
    With m infinite the log potential is undefined; see `gaussian_soliton`.
    """
    if math.isinf(spec.m):
        raise ValueError(
            "model potentials f = -m log(u) are undefined for m = inf; "
            "use gaussian_soliton or trivial_structure"
        )
    chart = make_chart(spec)
    n, tau, m = spec.dim, spec.tau, spec.m

    if spec.family == "sphere":
        h = height_field(spec, chart)
        u = tau - h * (1.0 / n)
        lam = (n - 1.0) - m * (tau - u) / u if spec.radius == 1.0 else None
    elif spec.family == "euclidean":
        u = ScalarField.from_coords(n, lambda *c: tau + _norm2(c), "tau+|x|^2")
        lam = -2.0 * m / u
    else:
        h = height_field(spec, chart)
        u = tau + h
        lam = -(n - 1.0) - m * (u - tau) / u

    u.label = "u"
    f = ScalarField(n, lambda p, order: -m * jets.log(u.jet(p, order)), "f")
    if lam is not None:
        lam.label = "lambda"
    s = make_structure(
        chart, f, m, lam=lam, u=u,
        label=f"{spec.family} n={n} tau={tau:g} m={m:g} r={spec.radius:g} {spec.chart_kind}",
    )
    if validate:
        _validate_structure(s, spec)
    return s


def gaussian_soliton(dim: int) -> QemStructure:
    """Euclidean structure with f = |x|^2 / 2 and m = inf (lambda trace-solves to 1)."""
    spec = ModelSpec("euclidean", dim, tau=1.0, m=math.inf)
    chart = make_chart(spec)
    f = ScalarField.from_coords(dim, lambda *c: _norm2(c) * 0.5, "|x|^2/2")
    return make_structure(chart, f, math.inf, label=f"gaussian soliton n={dim}")


def trivial_structure(family: str, dim: int, m: float = math.inf) -> QemStructure:
    """Constant potential on a model chart; lambda trace-solves to R/n."""
    tau = {"sphere": 1.0, "euclidean": 1.0, "hyperbolic": 0.0}[family]
    chart = make_chart(ModelSpec(family, dim, tau=tau, m=1.0))
    f = ScalarField.constant(dim, 0.0, "0")
    return make_structure(chart, f, m, label=f"trivial {family} n={dim}")


_VALIDATION_SAMPLES = 40


def _validate_structure(s: QemStructure, spec: ModelSpec) -> None:
    pts = sample_points(s.chart, _VALIDATION_SAMPLES, seed=20240229)
    check_metric_spd(s.chart, pts)
    u_vals = s.u(pts)
    if np.any(u_vals <= 0.0):
        raise ValueError(
            f"u = exp(-f/m) must stay positive; found min {np.min(u_vals):.3e} "
            f"for {spec}"
        )


_MAX_DRAW_ROUNDS = 64


def sample_points(chart: Chart, count: int, seed: int) -> np.ndarray:
    """Uniform draws from the chart sampling box, rejection-filtered to the domain.

    Each round draws 2 * count points; after `_MAX_DRAW_ROUNDS` rounds without
    `count` accepted points the box is taken to miss the domain.
    """
    if chart.sample_lo is None or chart.sample_hi is None:
        raise ValueError(f"chart {chart.label!r} has no sampling box")
    rng = np.random.default_rng(seed)
    out: list[np.ndarray] = []
    have = 0
    for _ in range(_MAX_DRAW_ROUNDS):
        draw = rng.uniform(chart.sample_lo, chart.sample_hi, size=(2 * count, chart.dim))
        keep = draw[chart.in_domain(draw)]
        out.append(keep)
        have += len(keep)
        if have >= count:
            return np.concatenate(out, axis=0)[:count]
    raise ValueError(
        f"chart {chart.label!r}: only {have} of {count} points fell in the domain "
        f"after {_MAX_DRAW_ROUNDS} draws of {2 * count} from its sampling box"
    )


# ---------------------------------------------------------------------------
# parameter sweeps and chart correspondence
# ---------------------------------------------------------------------------

SWEEP_N = (2, 3, 4)
SWEEP_M = (1.0, 2.0, 5.0)
SWEEP_TAU = {
    "sphere": (0.8, 1.5, 3.0),
    "euclidean": (0.5, 1.0, 2.0),
    "hyperbolic": (-0.5, 0.5, 2.0),
}


def default_sweep(family: str) -> list[ModelSpec]:
    """The 27 (n, m, tau) combinations used by the verification sweeps."""
    return [
        ModelSpec(family, n, tau=tau, m=m)
        for n in SWEEP_N
        for m in SWEEP_M
        for tau in SWEEP_TAU[family]
    ]


def polar_to_stereographic(spec: ModelSpec, theta: np.ndarray) -> np.ndarray:
    """Map polar-chart points of the sphere to stereographic coordinates.

    Both charts embed in the same ambient space; the stereographic chart
    projects from the pole on the last ambient axis.
    """
    polar = make_chart(replace(spec, chart_kind="polar"))
    amb = _values(polar.embedding_fn(jets.seed_point(theta, 0)))
    r = spec.radius
    last = amb[..., -1]
    if np.any(np.abs(last - r) < 1e-8):
        raise ValueError("point too close to the stereographic projection pole")
    norm2 = r * r * (r + last) / (r - last)
    return amb[..., :-1] * ((r * r + norm2[..., None]) / (2 * r * r))
