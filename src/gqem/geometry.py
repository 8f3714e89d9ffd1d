"""Coordinate charts, jet-evaluable fields, and Levi-Civita differential operators.

Everything is evaluated pointwise from jets of the metric and of the fields.
Derived quantities consume jet orders explicitly: Christoffel symbols need one
metric order, the curvature tensor two, the gradient of the scalar curvature
three, and its Laplacian four. Requests past the supported truncation order
raise an `OrderCapabilityError` instead of silently losing accuracy.

Index conventions (components of a `TensorValue` and of jet-valued tensors):
contravariant axes come first, covariant axes after. The curvature tensor is
stored as R^i_{jkl} with Ric_{jl} = R^i_{jil}, which makes the round unit
sphere satisfy Ric = (n-1) g and R = n(n-1).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import jets
from .jets import Jet, OrderCapabilityError, JetDomainError, MAX_ORDER, _ZeroJet, seed_point


class DegenerateMetricError(ArithmeticError):
    """The metric is numerically singular at an evaluation point."""


# ---------------------------------------------------------------------------
# charts and fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Chart:
    """A coordinate domain with a jet-evaluable metric field.

    metric_fn maps a tuple of coordinate jets to an (n, n) object array of
    jets g_ij. domain_fn is a vectorized predicate on coordinate points.
    embedding_fn (optional) maps coordinate jets to ambient-component jets
    and is what height functions and chart-to-chart comparisons go through.
    """

    dim: int
    metric_fn: Callable
    domain_fn: Callable
    label: str
    chart_kind: str = "generic"
    family: Optional[str] = None
    compact: bool = False
    sample_lo: Optional[np.ndarray] = None
    sample_hi: Optional[np.ndarray] = None
    embedding_fn: Optional[Callable] = None
    ambient_signature: Optional[tuple] = None

    def metric_jets(self, coords) -> np.ndarray:
        """g_ij as an (n, n) object array of jets, from a tuple of coordinate jets."""
        return np.asarray(self.metric_fn(coords), dtype=object)

    def in_domain(self, p) -> np.ndarray:
        return np.asarray(self.domain_fn(np.asarray(p, dtype=np.float64)))


class Field:
    """A field of chart coordinates, evaluable to jets of any order <= 4.

    jet(coords) maps a tuple of coordinate jets of one order, as
    `ChartFrame.coords` or `seed_point(p, order)` give them, to a `Jet` for a
    scalar field, or to a sequence of component jets for a contravariant
    vector field. The arithmetic operators combine scalar fields.
    """

    def __init__(self, dim: int, jet_fn: Callable, label: str = ""):
        self.dim = dim
        self._jet_fn = jet_fn
        self.label = label

    @staticmethod
    def from_coords(dim: int, fn: Callable, label: str = "") -> "Field":
        """Build a field from a formula in coordinate jets."""
        return Field(dim, lambda coords: fn(*coords), label)

    @staticmethod
    def constant(dim: int, c: float, label: str = "") -> "Field":
        jet_fn = lambda coords: Jet.constant(
            np.full(coords[0].batch_shape, float(c)), dim, coords[0].order)
        return Field(dim, jet_fn, label or f"{c}")

    def jet(self, coords):
        return self._jet_fn(coords)

    def __call__(self, p):
        return self.jet(seed_point(p, 0)).value

    def _combine(self, other, op, template):
        """Field of op(self, other), labelled by `template` with {0} = self, {1} = other."""
        if isinstance(other, Field):
            fn = lambda coords: op(self.jet(coords), other.jet(coords))
            label = template.format(self.label, other.label)
        else:
            fn = lambda coords: op(self.jet(coords), other)
            label = template.format(self.label, other)
        return Field(self.dim, fn, label)

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b, "({0}+{1})")

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, lambda a, b: a - b, "({0}-{1})")

    def __rsub__(self, other):
        return self._combine(other, lambda a, b: b - a, "({1}-{0})")

    def __mul__(self, other):
        return self._combine(other, lambda a, b: a * b, "({0}*{1})")

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._combine(other, lambda a, b: a / b, "({0}/{1})")

    def __rtruediv__(self, other):
        return self._combine(other, lambda a, b: b / a, "({1}/{0})")

    def __neg__(self):
        return Field(self.dim, lambda coords: -self.jet(coords), f"(-{self.label})")


# the public API names a field by its kind; all three are this one class
ScalarField = VectorField = Tensor2Field = Field


# ---------------------------------------------------------------------------
# tensor values at a point
# ---------------------------------------------------------------------------


@dataclass
class TensorValue:
    """Dense tensor components at a point with valence bookkeeping.

    Component axes: `con` contravariant axes first, then `cov` covariant ones.
    """

    components: np.ndarray
    con: int
    cov: int

    def __post_init__(self):
        self.components = np.asarray(self.components, dtype=np.float64)
        expected = self.con + self.cov
        if self.components.ndim != expected:
            raise ValueError(
                f"components have rank {self.components.ndim}, valence says {expected}"
            )


# ---------------------------------------------------------------------------
# pointwise evaluation frames
# ---------------------------------------------------------------------------


def _trunc_tree(obj, order: int):
    if isinstance(obj, Jet):
        return obj.truncated(order) if obj.order > order else obj
    if isinstance(obj, np.ndarray) and obj.dtype == object:
        return np.frompyfunc(lambda x: _trunc_tree(x, order), 1, 1)(obj)
    if isinstance(obj, (list, tuple)):
        return type(obj)(_trunc_tree(x, order) for x in obj)
    return obj


# `invert_jet_matrix`, `gamma` and `riemann`, whose loops meet most zero marks, form
# every product but add none that is a mark: x + mark and x - mark are x for a mark of x's batch.


def invert_jet_matrix(g: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite jet matrix (Gauss-Jordan, no pivoting)."""
    n = g.shape[0]
    a = [[g[i, j] for j in range(n)] for i in range(n)]
    proto = g[0, 0]
    # one unit and one zero mark serve every entry: no jet is written once built
    one = Jet.constant(np.ones(proto.batch_shape), proto.dim, proto.order)
    zero = Jet.constant(np.zeros(proto.batch_shape), proto.dim, proto.order)
    eye = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        try:
            inv_piv = jets.reciprocal(a[col][col])
        except JetDomainError as exc:
            raise DegenerateMetricError(f"singular metric: {exc}") from exc
        for j in range(n):
            a[col][j] = a[col][j] * inv_piv
            eye[col][j] = eye[col][j] * inv_piv
        for row in range(n):
            if row == col:
                continue
            factor = a[row][col]
            for j in range(n):
                term = factor * a[col][j]
                if term.__class__ is not _ZeroJet:
                    a[row][j] = a[row][j] - term
                term = factor * eye[col][j]
                if term.__class__ is not _ZeroJet:
                    eye[row][j] = eye[row][j] - term
    return np.array(eye, dtype=object)


def _memoized(method):
    """Cache `method(self, *fields, order)` per frame, keyed by (method name, fields).

    Fields hash by identity, so two fields with the same label get separate
    entries. A cached result of the requested order is returned itself (no
    caller writes into a returned list or array); one of higher order is
    reused by exact truncation.
    """
    name = method.__name__

    @functools.wraps(method)
    def wrapper(self, *args):
        *fields, order = args
        key = (name, *fields)
        hit = self._cache.get(key)
        if hit is not None and hit[0] >= order:
            return hit[1] if hit[0] == order else _trunc_tree(hit[1], order)
        val = method(self, *args)
        self._cache[key] = (order, val)
        return val

    return wrapper


class ChartFrame:
    """All jet-level geometric quantities of one chart at one (batch of) point(s).

    Results are memoized per requested order; a cached higher-order result is
    reused by exact truncation. The frame seeds the coordinate jets that the
    metric and every field read (`coords`).
    """

    def __init__(self, chart: Chart, p):
        self.chart = chart
        self.p = np.asarray(p, dtype=np.float64)
        if self.p.shape[-1] != chart.dim:
            raise ValueError(
                f"point of dimension {self.p.shape[-1]} on chart of dim {chart.dim}"
            )
        self.n = chart.dim
        self._cache: dict = {}
        self._xs = jets.coordinate_values(self.p)
        self._coords: dict = {}

    def coords(self, order: int) -> tuple:
        """The coordinate jets of `order` at this frame's points, seeded once per order.

        Every order's seed of one coordinate shares that coordinate's value
        row and its np.sin and np.cos (`jets.CoordinateValues`), so each is
        evaluated at most once per frame. A lower order is seeded, never
        truncated: a truncated seed would not share them.
        """
        try:
            return self._coords[order]
        except KeyError:
            seeds = self._coords[order] = jets.seed_coordinates(self._xs, order)
            return seeds

    # -- metric and curvature ------------------------------------------

    @_memoized
    def metric(self, order: int) -> np.ndarray:
        return self.chart.metric_jets(self.coords(order))

    @_memoized
    def metric_inv(self, order: int) -> np.ndarray:
        return invert_jet_matrix(self.metric(order))

    @_memoized
    def gamma(self, order: int) -> np.ndarray:
        """Christoffel symbols Gamma^k_{ij} as jets of the given order."""
        n = self.n
        g = self.metric(order + 1)
        gi = self.metric_inv(order)
        dg = [[[g[a, b].derive(c) for b in range(n)] for a in range(n)]
              for c in range(n)]  # dg[c][a][b] = d_c g_ab
        out = np.empty((n, n, n), dtype=object)
        for i in range(n):
            for j in range(i, n):
                brackets = [
                    dg[i][j][l] + dg[j][i][l] - dg[l][i][j] for l in range(n)
                ]
                for kk in range(n):
                    acc = gi[kk, 0] * brackets[0]
                    for l in range(1, n):
                        term = gi[kk, l] * brackets[l]
                        if term.__class__ is not _ZeroJet:
                            acc = acc + term
                    out[kk, i, j] = acc * 0.5
                    out[kk, j, i] = out[kk, i, j]
        return out

    @_memoized
    def riemann(self, order: int) -> np.ndarray:
        """Curvature tensor R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj} + Gamma.Gamma."""
        n = self.n
        # nested lists: a list lookup costs less than an object array's 3-index one
        gam = self.gamma(order + 1).tolist()
        gam0 = _trunc_tree(gam, order)
        out = np.empty((n, n, n, n), dtype=object)
        zero = Jet.constant(np.zeros(gam[0][0][0].batch_shape), n, order)
        for i in range(n):
            gi, gi0 = gam[i], gam0[i]
            for j in range(n):
                for k in range(n):
                    out[i, j, k, k] = zero
                    for l in range(k + 1, n):
                        term = gi[l][j].derive(k) - gi[k][j].derive(l)
                        for mm in range(n):
                            plus = gi0[k][mm] * gam0[mm][l][j]
                            if plus.__class__ is not _ZeroJet:
                                term = term + plus
                            minus = gi0[l][mm] * gam0[mm][k][j]
                            if minus.__class__ is not _ZeroJet:
                                term = term - minus
                        out[i, j, k, l] = term
                        out[i, j, l, k] = -term
        return out

    @_memoized
    def ricci(self, order: int) -> np.ndarray:
        n = self.n
        rm = self.riemann(order)
        out = np.empty((n, n), dtype=object)
        for j in range(n):
            for l in range(j, n):
                acc = rm[0, j, 0, l]
                for i in range(1, n):
                    acc = acc + rm[i, j, i, l]
                out[j, l] = acc
                out[l, j] = acc
        return out

    @_memoized
    def scalar_curvature_jet(self, order: int) -> Jet:
        return np.dot(self.metric_inv(order).ravel(), self.ricci(order).ravel())

    # -- fields ----------------------------------------------------------

    @_memoized
    def field_jet(self, X: Field, order: int) -> Jet | list:
        """A scalar field's jet, or a vector field's list of component jets."""
        if order > MAX_ORDER:
            raise OrderCapabilityError(
                f"field {X.label!r} requested at jet order {order} > max {MAX_ORDER}"
            )
        return X.jet(self.coords(order))

    @_memoized
    def grad(self, phi: Field, order: int) -> list:
        """Contravariant gradient components as jets."""
        gi = self.metric_inv(order)
        fj = self.field_jet(phi, order + 1)
        return list(gi @ np.array([fj.derive(j) for j in range(self.n)], dtype=object))

    @_memoized
    def hessian(self, phi: Field, order: int) -> np.ndarray:
        n = self.n
        fj = self.field_jet(phi, order + 2)
        d1 = [fj.derive(i).truncated(order) for i in range(n)]
        gam = self.gamma(order)
        out = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(i, n):
                acc = fj.derive(i).derive(j)
                for kk in range(n):
                    acc = acc - gam[kk, i, j] * d1[kk]
                out[i, j] = acc
                out[j, i] = acc
        return out

    @_memoized
    def laplacian(self, phi: Field, order: int) -> Jet:
        return (self.metric_inv(order) * self.hessian(phi, order)).sum()

    @_memoized
    def grad_norm2(self, phi: Field, order: int) -> Jet:
        n = self.n
        gi = self.metric_inv(order)
        df = [self.field_jet(phi, order + 1).derive(j) for j in range(n)]
        return _quadratic_form(gi, df)

    @_memoized
    def covariant_vector(self, X: Field, order: int) -> np.ndarray:
        """nabla X as jets, component [i, j] = nabla_j X^i."""
        n = self.n
        xj = self.field_jet(X, order + 1)
        x0 = [x.truncated(order) for x in xj]
        gam = self.gamma(order)
        out = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                acc = xj[i].derive(j)
                for kk in range(n):
                    acc = acc + gam[i, j, kk] * x0[kk]
                out[i, j] = acc
        return out

    def div_vector(self, X: Field, order: int) -> Jet:
        return self.covariant_vector(X, order).trace()

    @_memoized
    def lie_metric(self, X: Field, order: int) -> np.ndarray:
        """(L_X g)_{ij} as jets."""
        n = self.n
        g = self.metric(order + 1)
        g0 = _trunc_tree(g, order)
        xj = self.field_jet(X, order + 1)
        x0 = [x.truncated(order) for x in xj]
        out = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(i, n):
                acc = _sum_jets([x0[kk] * g[i, j].derive(kk) for kk in range(n)])
                for kk in range(n):
                    acc = acc + g0[kk, j] * xj[kk].derive(i)
                    acc = acc + g0[i, kk] * xj[kk].derive(j)
                out[i, j] = acc
                out[j, i] = acc
        return out

    def div_tensor2(self, tj: np.ndarray) -> list:
        """Divergence (div T)_j = g^{ik} nabla_i T_{kj} as jets of order k, from a
        (0,2) tensor's (n, n) jets `tj` of order k + 1 at this frame's points."""
        n = self.n
        order = tj[0, 0].order - 1
        t0 = _trunc_tree(tj, order)
        gam = self.gamma(order)
        gi = self.metric_inv(order)
        out = []
        for j in range(n):
            terms = []
            for i in range(n):
                for kk in range(n):
                    cov = tj[kk, j].derive(i)
                    for l in range(n):
                        cov = cov - gam[l, i, kk] * t0[l, j]
                        cov = cov - gam[l, i, j] * t0[kk, l]
                    terms.append(gi[i, kk] * cov)
            out.append(_sum_jets(terms))
        return out

    # -- operators applied to already-computed jets ------------------------

    def laplacian_of_jet(self, sjet: Jet):
        """Laplace-Beltrami of a scalar given as a jet of order >= 2 at this point."""
        d1 = [sjet.derive(k) for k in range(self.n)]
        return self.laplacian_from_partials(
            [d.value for d in d1], lambda i, j: d1[i].derive(j).value
        )

    def laplacian_from_partials(self, d1, d2):
        """g^ij (d2(i, j) - Gamma^k_ij d1[k]) from coordinate first and second partials."""
        n = self.n
        gi = self.metric_inv_values()
        gam = self.gamma(0)
        out = 0.0
        for i in range(n):
            for j in range(n):
                term = d2(i, j)
                for k in range(n):
                    term = term - gam[k, i, j].value * d1[k]
                out = out + gi[..., i, j] * term
        return out

    def grad_values_of_jet(self, sjet: Jet) -> np.ndarray:
        """Contravariant gradient values of a scalar given as a jet of order >= 1."""
        gi = self.metric_inv_values()
        return np.einsum("...ij,...j->...i", gi, self.partials_of_jet(sjet))

    def partials_of_jet(self, sjet: Jet) -> np.ndarray:
        """Covariant (coordinate) first partials of a scalar jet of order >= 1."""
        return _values([sjet.derive(k) for k in range(self.n)])

    # -- value-level conveniences (order-0 extraction, batch aware) -------

    def metric_values(self) -> np.ndarray:
        return _values(self.metric(0))

    def metric_inv_values(self) -> np.ndarray:
        """g^-1 values, whose batch axes broadcast to the frame's batch, as every
        `*_values` result's do (`_values`). Read after the jet requests that need
        the inverse at a higher order, this truncates the cached jets; read first,
        it builds an order-0 inverse of its own and adds jet products."""
        return _values(self.metric_inv(0))

    def ricci_values(self) -> np.ndarray:
        return _values(self.ricci(0))

    def scalar_curvature_value(self):
        return self.scalar_curvature_jet(0).value

    def grad_values(self, phi: Field) -> np.ndarray:
        return _values(self.grad(phi, 0))

    def hessian_values(self, phi: Field) -> np.ndarray:
        return _values(self.hessian(phi, 0))


def _sum_jets(js):
    return functools.reduce(operator.add, js)


def _quadratic_form(a: np.ndarray, x) -> Jet:
    """a_ij x^i x^j as one jet, from an (n, n) jet array and n jets of equal order.

    Every product a_ij x^i x^j is formed before the sum, which adds them in
    (i, j) order.
    """
    n = len(x)
    return _sum_jets([a[i, j] * x[i] * x[j] for i in range(n) for j in range(n)])


def _values(js) -> np.ndarray:
    """Values of a list or object array of jets: batch axes first, tensor axes last.

    Each component is its stored value row (`jets._value_row`), so the batch
    axes broadcast to the jets' batch: below `_BIG_BATCH` nodes they are the
    batch, from `_BIG_BATCH` on a row may be cut to length 1 along any axis.
    Rows of different shapes are broadcast to their common shape, never
    further, so every value has the bits of its node's.
    """
    comp = np.asarray(js, dtype=object)
    rows = [jets._value_row(j) for j in comp.flat]
    if any(r.shape != rows[0].shape for r in rows):
        shape = np.broadcast_shapes(*(r.shape for r in rows))
        rows = [np.broadcast_to(r, shape) for r in rows]
    vals = np.stack(rows, axis=-1)
    return vals.reshape(vals.shape[:-1] + comp.shape)


# ---------------------------------------------------------------------------
# batched metric algebra on plain value arrays
# ---------------------------------------------------------------------------


def dot_g(g: np.ndarray, a: np.ndarray, b: np.ndarray):
    """<a, b>_g for contravariant vectors; batch axes lead."""
    return np.einsum("...ij,...i,...j->...", g, a, b)


def norm_g(g: np.ndarray, a: np.ndarray):
    return np.sqrt(np.maximum(dot_g(g, a, a), 0.0))


def tensor2_norm2_g(ginv: np.ndarray, t: np.ndarray):
    """|T|^2_g = g^ik g^jl T_ij T_kl for a (0,2) tensor of values; batch axes lead and broadcast."""
    return np.einsum("...ik,...jl,...ij,...kl->...", ginv, ginv, t, t)


# ---------------------------------------------------------------------------
# public pointwise operators
# ---------------------------------------------------------------------------


def _scalar_point(chart: Chart, p) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (chart.dim,):
        raise ValueError(f"expected a single point of shape ({chart.dim},)")
    return p


def check_metric_spd(chart: Chart, points) -> float:
    """Smallest metric eigenvalue over the sample; raises if not positive."""
    g = ChartFrame(chart, points).metric_values()
    sym_gap = float(np.max(np.abs(g - np.swapaxes(g, -1, -2))))
    if sym_gap > 1e-12:
        raise DegenerateMetricError(f"metric not symmetric (gap {sym_gap:.2e})")
    smallest = float(np.min(np.linalg.eigvalsh(g)))
    if smallest <= 0.0:
        raise DegenerateMetricError(
            f"metric not positive definite (smallest eigenvalue {smallest:.3e})"
        )
    return smallest


def christoffel(chart: Chart, p) -> TensorValue:
    p = _scalar_point(chart, p)
    comp = _values(ChartFrame(chart, p).gamma(0))
    return TensorValue(comp, con=1, cov=2)


def riemann(chart: Chart, p) -> TensorValue:
    p = _scalar_point(chart, p)
    comp = _values(ChartFrame(chart, p).riemann(0))
    return TensorValue(comp, con=1, cov=3)


def ricci(chart: Chart, p) -> TensorValue:
    p = _scalar_point(chart, p)
    return TensorValue(ChartFrame(chart, p).ricci_values(), con=0, cov=2)


def scalar_curvature(chart: Chart, p) -> float:
    p = _scalar_point(chart, p)
    return float(ChartFrame(chart, p).scalar_curvature_value())


# ---------------------------------------------------------------------------
# derived fields
# ---------------------------------------------------------------------------


def frame_at(chart: Chart, coords) -> ChartFrame:
    """A new frame at the points whose coordinate jets are `coords`, rebuilt from their values."""
    return ChartFrame(chart, np.stack([c.value for c in coords], axis=-1))


def grad_field(chart: Chart, phi: Field) -> Field:
    return Field(chart.dim, lambda coords: frame_at(chart, coords).grad(phi, coords[0].order),
                 f"grad({phi.label})")
