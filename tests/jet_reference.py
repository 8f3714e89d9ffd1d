"""A slow reference jet, sharing no code with `gqem.jets`, that the engine is tested against.

`Ref` holds batch-major coefficients ``(*batch, size)`` in the engine's
table order (grade by grade, each grade in descending lexicographic order),
and mirrors the engine's public API: ``+``, ``-``, ``*`` and ``/`` with a jet,
a number or an array, negation, `derive`, `truncated`, `partial`, and the
module functions `exp`, `log`, `sqrt`, `reciprocal`, `power`, `sin`, `cos`,
`sincos`, `sinh` and `cosh`. A test can so write each operation once, as
``op(module, *operands)``, and run it on `gqem.jets` and on this module.

- The tables come from a multi-index enumeration of their own, with Leibniz
  factors from `math.comb`.
- A product sums each output's terms left to right in table order, each term
  ``(x * y) * factor``, vectorised over the batch: no term is skipped and no
  row is shared, so a node's result depends on that node's coefficients alone.
- The compositions run Horner's scheme with the engine's Taylor coefficients,
  each computed by the same numpy expression, so that bits can match.
"""

import itertools
import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def alphas(dim: int, order: int) -> tuple:
    """Every multi-index of total degree <= order, in table order."""
    grid = itertools.product(range(order + 1), repeat=dim)
    return tuple(sorted((a for a in grid if sum(a) <= order),
                        key=lambda a: (sum(a), tuple(-x for x in a))))


@lru_cache(maxsize=None)
def index(dim: int, order: int) -> dict:
    return {a: k for k, a in enumerate(alphas(dim, order))}


@lru_cache(maxsize=None)
def terms(dim: int, order: int) -> tuple:
    """For each output gamma, its terms (left alpha, right gamma - alpha, binom(gamma, alpha))."""
    at = index(dim, order)
    out = []
    for g in alphas(dim, order):
        out.append(tuple(
            (at[a], at[tuple(y - x for x, y in zip(a, g))],
             float(math.prod(math.comb(y, x) for x, y in zip(a, g))))
            for a in alphas(dim, order) if all(x <= y for x, y in zip(a, g))))
    return tuple(out)


class Ref:
    __array_ufunc__ = None  # `array * ref` is `Ref.__rmul__`, as for a `gqem.jets.Jet`

    def __init__(self, dim: int, order: int, coeffs):
        self.dim, self.order = dim, order
        self.coeffs = np.array(coeffs, dtype=np.float64)
        assert self.coeffs.shape[-1] == len(alphas(dim, order))

    @property
    def value(self) -> np.ndarray:
        return self.coeffs[..., 0]

    @property
    def batch_shape(self) -> tuple:
        return self.coeffs.shape[:-1]

    def _as_ref(self, other) -> "Ref":
        if isinstance(other, Ref):
            return other
        return constant(other, self.dim, self.order)

    def __add__(self, other):
        return Ref(self.dim, self.order, self.coeffs + self._as_ref(other).coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        return Ref(self.dim, self.order, self.coeffs - self._as_ref(other).coeffs)

    def __rsub__(self, other):
        return self._as_ref(other) - self

    def __neg__(self):
        return Ref(self.dim, self.order, -self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, Ref):
            return Ref(self.dim, self.order,
                       self.coeffs * np.asarray(other, dtype=np.float64)[..., None])
        x, y = self.coeffs, other.coeffs
        out = np.empty(np.broadcast_shapes(x.shape, y.shape))
        for k, row in enumerate(terms(self.dim, self.order)):
            total = None
            for i, j, factor in row:
                term = x[..., i] * y[..., j]
                if factor != 1.0:
                    term = term * factor
                total = term if total is None else total + term
            out[..., k] = total
        return Ref(self.dim, self.order, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Ref):
            return self * reciprocal(other)
        return self * (1.0 / np.asarray(other, dtype=np.float64))

    def __rtruediv__(self, other):
        return reciprocal(self) * other

    def partial(self, alpha) -> np.ndarray:
        return self.coeffs[..., index(self.dim, self.order)[tuple(alpha)]]

    def truncated(self, order: int) -> "Ref":
        keep = [k for k, a in enumerate(alphas(self.dim, self.order)) if sum(a) <= order]
        return Ref(self.dim, order, self.coeffs[..., keep])

    def derive(self, axis: int) -> "Ref":
        at = index(self.dim, self.order)
        step = tuple(int(k == axis) for k in range(self.dim))
        src = [at[tuple(b + s for b, s in zip(a, step))]
               for a in alphas(self.dim, self.order - 1)]
        return Ref(self.dim, self.order - 1, self.coeffs[..., src])


def constant(value, dim: int, order: int) -> Ref:
    value = np.asarray(value, dtype=np.float64)
    coeffs = np.zeros(value.shape + (len(alphas(dim, order)),))
    coeffs[..., 0] = value
    return Ref(dim, order, coeffs)


def seed_point(p, order: int) -> tuple:
    """The coordinate jets at points p of shape (..., dim): value p_i, derivative 1 along i."""
    p = np.asarray(p, dtype=np.float64)
    dim = p.shape[-1]
    out = []
    for i in range(dim):
        c = constant(p[..., i], dim, order)
        if order:
            c.coeffs[..., index(dim, order)[tuple(int(k == i) for k in range(dim))]] = 1.0
        out.append(c)
    return tuple(out)


def _domain(bad, what: str) -> None:
    if np.any(bad):
        raise ArithmeticError(what)


def _compose(a: Ref, taylor) -> Ref:
    """sum_k taylor[k] (a - a0)^k by Horner: one product per step, then taylor[k] into the value."""
    rem = a.coeffs.copy()
    rem[..., 0] = 0.0
    rem = Ref(a.dim, a.order, rem)
    acc = constant(taylor[a.order], a.dim, a.order)
    for k in range(a.order - 1, -1, -1):
        acc = acc * rem
        acc.coeffs[..., 0] += taylor[k]
    return acc


def exp(a: Ref) -> Ref:
    e = np.exp(a.value)
    return _compose(a, [e / math.factorial(k) for k in range(a.order + 1)])


def log(a: Ref) -> Ref:
    v = a.value
    _domain(v <= 0.0, "log")
    return _compose(a, [np.log(v)] + [(-1.0) ** (k - 1) / (k * v**k)
                                      for k in range(1, a.order + 1)])


def _binomial(a: Ref, exponent: float) -> Ref:
    v, c, taylor = a.value, 1.0, []
    for k in range(a.order + 1):
        taylor.append(c * v ** (exponent - k))
        c *= (exponent - k) / (k + 1)
    return _compose(a, taylor)


def sqrt(a: Ref) -> Ref:
    _domain(a.value <= 0.0, "sqrt")
    return _binomial(a, 0.5)


def reciprocal(a: Ref) -> Ref:
    v = a.value
    _domain(v == 0.0, "division")
    return _compose(a, [-(v ** -(k + 1)) if k % 2 else v ** -(k + 1)
                        for k in range(a.order + 1)])


def power(a: Ref, exponent) -> Ref:
    """Integral exponents (of any real type) by repeated products, others by the binomial series."""
    if float(exponent).is_integer():
        k = int(exponent)
        if k < 0:
            return reciprocal(power(a, -k))
        acc = a if k else constant(np.ones(a.batch_shape), a.dim, a.order)
        for _ in range(k - 1):
            acc = acc * a
        return acc
    _domain(a.value <= 0.0, "power")
    return _binomial(a, float(exponent))


def _cycle(a: Ref, derivatives) -> Ref:
    """Compose with the function whose k-th derivative at a's value is derivatives[k % len]."""
    return _compose(a, [derivatives[k % len(derivatives)] / math.factorial(k)
                        for k in range(a.order + 1)])


def sin(a: Ref) -> Ref:
    s, c = np.sin(a.value), np.cos(a.value)
    return _cycle(a, (s, c, -s, -c))


def cos(a: Ref) -> Ref:
    s, c = np.sin(a.value), np.cos(a.value)
    return _cycle(a, (c, -s, -c, s))


def sincos(a: Ref) -> tuple:
    return sin(a), cos(a)


def sinh(a: Ref) -> Ref:
    return _cycle(a, (np.sinh(a.value), np.cosh(a.value)))


def cosh(a: Ref) -> Ref:
    return _cycle(a, (np.cosh(a.value), np.sinh(a.value)))


def canonical(c: np.ndarray) -> np.ndarray:
    """`c` with every NaN replaced by one NaN: numpy's loops pick a NaN's sign by code path."""
    c = np.asarray(c, dtype=np.float64)
    return np.where(np.isnan(c), np.nan, c)


def assert_matches(got, want, exact: bool = True) -> None:
    """An engine jet (or array) against a reference one: every bit but a NaN's, or else `==`.

    With `exact` false, values compare with `==` and equal NaN, +inf and -inf
    masks, so only the sign of a zero may differ: the engine skips terms and
    sums with a row that is ±0 at every node, which changes nothing else.
    """
    g = np.asarray(getattr(got, "coeffs", got), dtype=np.float64)
    w = np.asarray(getattr(want, "coeffs", want), dtype=np.float64)
    assert g.shape == w.shape, (g.shape, w.shape)
    if exact:
        assert canonical(g).tobytes() == canonical(w).tobytes()
        return
    assert np.array_equal(g, w, equal_nan=True)
    for mask in (np.isposinf, np.isneginf):
        assert np.array_equal(mask(g), mask(w))
