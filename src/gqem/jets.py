"""Truncated multivariate Taylor arithmetic (forward-mode jets up to order 4).

A `Jet` carries the exact partial derivatives of a smooth scalar at a point:
``coeffs[k]`` is the value of the mixed partial with multi-index
``alphas[k]`` (the derivative itself, not divided by the factorial).
Coefficients may carry leading batch axes, so one jet can represent the
derivatives of a field at many points at once; every operation is
elementwise over the batch. From `_BIG_BATCH` nodes on, coefficients are
stored coefficient-major: ``coeffs`` keeps its ``(..., size)`` shape but is a
transposed view of a C-contiguous ``(size, ...)`` array, so each coefficient
is one contiguous row over the batch. A jet known to be zero at every
coefficient and node, at any batch size, is a `_ZeroJet`: sums, differences
and products with it return an operand or a mark instead of running over
zeros (see `_ZeroJet`).

Below `_BIG_BATCH` a product gathers every product-table term and sums each
output with the bits of `np.add.reduceat`, in one of three forms
(`_mul_gather`): direct at order 0 and 1, where an output has at most two
terms; by whole layers of terms from `_LAYER_BATCH` nodes on, where no output
has more than `_LAYER_TERMS` terms, because per-segment `reduceat` costs more
there; and `reduceat` itself otherwise, which is cheaper in one call at small
batches and sums longer segments pairwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

MAX_ORDER = 4

# Broadcast batch size from which `Jet.__mul__` switches from the gather /
# `np.add.reduceat` product to the coefficient-major one, and from which
# `Jet.constant` and products store coefficients coefficient-major. Measured
# crossover: 256..512 for every (dim, order) from (2, 2) to (5, 4).
_BIG_BATCH = 512

# Batch size (of the larger operand) from which `_mul_gather` sums by layers
# instead of `np.add.reduceat`, where the table allows it. Measured crossover:
# the first of the batches 1, 16, 32, 48, 64, 100 at which layers are not
# slower, over two runs (best of 5, 2-vCPU Linux host, numpy 2.4):
#   order 2: dim 1 64..100, dim 2 48..64, dim 3 32, dim 4 32, dim 5 16..32, dim 6 16
#   order 3: dim 1 100, dim 2 48, dim 3 48, dim 4 32, dim 5 16, dim 6 16
#   order 4: dim 1 100 (the only order-4 table with layers)
# A batch-1 product takes 2.7..4.2 us with reduceat, 4.1..7.3 us with layers.
_LAYER_BATCH = 64


class JetDomainError(ArithmeticError):
    """An elementary operation left its domain (log/sqrt of a nonpositive value, division by a zero value)."""


class OrderCapabilityError(RuntimeError):
    """A computation would need derivatives beyond the supported truncation order."""


def _grade(dim: int, total: int):
    if dim == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _grade(dim - 1, total - first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def jet_table(dim: int, order: int) -> "_Table":
    """Dense multi-index table for jets in `dim` variables up to `order`."""
    if dim < 1:
        raise ValueError(f"jet dimension must be >= 1, got {dim}")
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
    alphas: list[tuple[int, ...]] = []
    for total in range(order + 1):
        alphas.extend(_grade(dim, total))
    index = {a: i for i, a in enumerate(alphas)}
    size = len(alphas)
    grade_sizes = tuple(
        sum(1 for a in alphas if sum(a) <= k) for k in range(order + 1)
    )

    # Leibniz product table: out gamma collects binom(gamma, alpha) * a[alpha] * b[gamma - alpha].
    triples = []
    for ia, a in enumerate(alphas):
        for ib, b in enumerate(alphas):
            g = tuple(x + y for x, y in zip(a, b))
            if sum(g) > order:
                continue
            factor = 1.0
            for gi, ai in zip(g, a):
                factor *= math.comb(gi, ai)
            triples.append((index[g], ia, ib, factor))
    triples.sort(key=lambda t: t[0])
    out_idx = np.array([t[0] for t in triples], dtype=np.intp)
    mul_ii = np.array([t[1] for t in triples], dtype=np.intp)
    mul_jj = np.array([t[2] for t in triples], dtype=np.intp)
    mul_ff = np.array([t[3] for t in triples], dtype=np.float64)
    # every output index occurs (alpha = gamma, beta = 0), so reduceat segments cover 0..size-1
    mul_starts = np.searchsorted(out_idx, np.arange(size))
    # the same triples as Python tuples, still sorted by output index, for the coefficient-major product
    mul_triples = tuple(triples)
    layers = _layer_plan(mul_ii, mul_jj, mul_ff, mul_starts)

    derive_src = None
    if order >= 1:
        lower = jet_table(dim, order - 1)
        derive_src = tuple(
            np.array(
                [index[tuple(b[j] + (1 if j == ax else 0) for j in range(dim))]
                 for b in lower.alphas],
                dtype=np.intp,
            )
            for ax in range(dim)
        )
    return _Table(dim, order, tuple(alphas), index, size, grade_sizes,
                  mul_ii, mul_jj, mul_ff, mul_starts, mul_triples, layers, derive_src)


@dataclass(frozen=True, slots=True, eq=False)
class _Table:
    dim: int
    order: int
    alphas: tuple
    index: dict
    size: int
    grade_sizes: tuple
    mul_ii: np.ndarray
    mul_jj: np.ndarray
    mul_ff: np.ndarray
    mul_starts: np.ndarray
    mul_triples: tuple
    layers: Optional["_Layers"]
    derive_src: Optional[tuple]


# `np.add.reduceat` sums a segment of at most this many terms t0, t1, ... as
# t0 + (((t1 + t2) + t3) + ...): the tail is summed in order from -0.0, which
# leaves t1 as it is. A longer tail goes through numpy's pairwise summation
# with 8 accumulators. Checked on numpy 2.4; the kernel tests compare bytes.
_LAYER_TERMS = 8


@dataclass(frozen=True, slots=True, eq=False)
class _Layers:
    """The product table laid out to sum every output with slice additions.

    Outputs are sorted by descending term count (stable); layer p holds the
    p-th term of every output that has more than p terms, so each layer is a
    prefix of layer 0's columns. Column q of the gathered product is the
    table's triple ``(ii[q], jj[q], ff[q])``; layer p spans ``widths[p]``
    columns from ``sum(widths[:p])``. Each ``(dst, src)`` of `adds` is one
    ``+=``: layers 2, 3, ... into layer 1, then layer 1 into layer 0, which
    gives each output the reduceat sum. Output k is then column ``inv[k]``.
    """

    widths: tuple
    ii: np.ndarray
    jj: np.ndarray
    ff: np.ndarray
    adds: tuple
    inv: np.ndarray


def _layer_plan(ii, jj, ff, starts) -> Optional[_Layers]:
    """`_Layers` of a product table; None where an output has more than `_LAYER_TERMS` terms."""
    counts = np.diff(np.append(starts, len(ii)))
    if counts.max() > _LAYER_TERMS:
        return None
    order = np.argsort(-counts, kind="stable")
    widths = tuple(int(np.count_nonzero(counts > p)) for p in range(counts.max()))
    take = np.concatenate([starts[order[:w]] + p for p, w in enumerate(widths)])
    offsets = np.cumsum((0,) + widths).tolist()
    one = offsets[1]
    adds = tuple((slice(one, one + w), slice(lo, lo + w))
                 for w, lo in zip(widths[2:], offsets[2:]))
    if len(widths) > 1:
        adds += ((slice(0, widths[1]), slice(one, one + widths[1])),)
    return _Layers(widths, ii[take], jj[take], ff[take], adds, np.argsort(order))


class Jet:
    """Truncated Taylor expansion of a scalar in `dim` variables.

    coeffs has shape ``(..., table_size)``; leading axes are batch axes.
    The coefficients must not be written once the jet has taken part in a
    product, which caches three flags of them on first use: all zero
    (`_is_zero`), all finite (`_is_finite`) and the per-row pair
    (`_row_flags`), and may mark it a `_ZeroJet`. Nor may a jet that an
    operation returned be written: `truncated`, and `derive` of a mark,
    return views, sums and products with a mark can return an operand
    itself, and a large-batch `Jet.constant` is built with its row flags.
    """

    __slots__ = ("dim", "order", "coeffs", "_flags", "_zero", "_finite")

    def __init__(self, dim: int, order: int, coeffs: np.ndarray):
        table = jet_table(dim, order)
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape[-1] != table.size:
            raise ValueError(
                f"coefficient vector of length {coeffs.shape[-1]} does not match "
                f"table size {table.size} for dim={dim}, order={order}"
            )
        self.dim = dim
        self.order = order
        self.coeffs = coeffs

    # -- construction -------------------------------------------------

    @staticmethod
    def constant(value, dim: int, order: int) -> "Jet":
        """Jet of `value` with every derivative zero; an all-zero one is a mark.

        From `_BIG_BATCH` nodes on it is built with its `_row_flags` set: the
        value row is not all zero (that would be a mark) and is finite as
        `value` is, and every other row is zero and finite, so no product
        scans its zero rows.
        """
        value = np.asarray(value, dtype=np.float64)
        size = jet_table(dim, order).size
        coeffs = _zero_coeffs(value.shape + (size,))
        coeffs[..., 0] = value
        out = _jet(dim, order, coeffs)
        if not np.count_nonzero(value):
            return _mark_zero(out)
        if value.size >= _BIG_BATCH:
            out._flags = _constant_row_flags(size, False, bool(np.isfinite(value).all()))
        return out

    @property
    def value(self):
        return self.coeffs[..., 0]

    @property
    def batch_shape(self):
        return self.coeffs.shape[:-1]

    def partial(self, alpha: Sequence[int]):
        """Mixed partial derivative for multi-index `alpha` (exact, not /alpha!)."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dim or any(a < 0 for a in alpha):
            raise ValueError(f"bad multi-index {alpha} for dim {self.dim}")
        if sum(alpha) > self.order:
            raise ValueError(
                f"multi-index {alpha} has degree {sum(alpha)} > jet order {self.order}"
            )
        return self.coeffs[..., jet_table(self.dim, self.order).index[alpha]]

    def truncated(self, order: int) -> "Jet":
        """Drop all coefficients of total degree > `order` (exact operation)."""
        if order == self.order:
            return self
        if not 0 <= order < self.order:
            raise ValueError(f"cannot truncate order-{self.order} jet to order {order}")
        size = jet_table(self.dim, self.order).grade_sizes[order]
        return _jet(self.dim, order, self.coeffs[..., :size])

    def derive(self, axis: int) -> "Jet":
        """Jet of the partial derivative along `axis`, one order lower."""
        return _jet(self.dim, self.order - 1, self.coeffs[..., self._derive_src(axis)])

    def _derive_src(self, axis: int) -> np.ndarray:
        """The coefficients `derive(axis)` reads, after checking its arguments."""
        if self.order < 1:
            raise ValueError("cannot derive an order-0 jet")
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dim {self.dim}")
        return jet_table(self.dim, self.order).derive_src[axis]

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.dim != self.dim or other.order != self.order:
                raise ValueError(
                    f"jet mismatch: (dim={self.dim}, order={self.order}) vs "
                    f"(dim={other.dim}, order={other.order})"
                )
            return other
        return Jet.constant(other, self.dim, self.order)

    # `_coerce` only when `other` is not a Jet of the same (dim, order): it
    # converts a constant or raises on a mismatch.

    def __add__(self, other):
        if other.__class__ is not Jet or other.dim != self.dim or other.order != self.order:
            other = self._coerce(other)
        return _jet(self.dim, self.order, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Jet or other.dim != self.dim or other.order != self.order:
            other = self._coerce(other)
        return _jet(self.dim, self.order, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        other = self._coerce(other)
        return _jet(self.dim, self.order, other.coeffs - self.coeffs)

    def __neg__(self):
        return _jet(self.dim, self.order, -self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            scalar = np.asarray(other, dtype=np.float64)
            # a mark times a finite number is ±0 at every coefficient
            if self.__class__ is _ZeroJet and scalar.ndim == 0 and math.isfinite(scalar):
                return self
            return _jet(self.dim, self.order, self.coeffs * scalar[..., None])
        if other.dim != self.dim or other.order != self.order:
            other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if a.shape == b.shape and a.size < _BIG_BATCH * a.shape[-1]:
            # the zero checks below, in their order, before any broadcast: a
            # mark times a finite operand is the mark, or the other operand
            # where that is found zero
            if self.__class__ is _ZeroJet:
                if other._is_finite():
                    return self
            elif other.__class__ is _ZeroJet:
                if self._is_zero():
                    return self
                if self._is_finite():
                    return other
        shape = a.shape if a.shape == b.shape else np.broadcast_shapes(a.shape, b.shape)
        if math.prod(shape[:-1]) < _BIG_BATCH:
            # a term is left unless one operand is all zero and the other finite
            if not ((self._is_zero() and other._is_finite())
                    or (other._is_zero() and self._is_finite())):
                return _jet(self.dim, self.order,
                            _mul_gather(a, b, jet_table(self.dim, self.order)))
        else:
            t = jet_table(self.dim, self.order)
            kept = _kept_terms(t, self._row_flags(), other._row_flags())
            if kept.any():
                return _jet(self.dim, self.order, _mul_coeff_major(a, b, t, kept))
        # no term left, every one is ±0 at every node: skip the kernel
        if self.__class__ is _ZeroJet and a.shape == shape:
            return self
        if other.__class__ is _ZeroJet and b.shape == shape:
            return other
        return _mark_zero(_jet(self.dim, self.order, _zero_coeffs(shape)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / np.asarray(other, dtype=np.float64))
        return self * reciprocal(self._coerce(other))

    def __rtruediv__(self, other):
        return reciprocal(self) * other

    def __pow__(self, exponent):
        return power(self, exponent)

    def __repr__(self):
        return f"Jet(dim={self.dim}, order={self.order}, value={self.value!r})"

    def _is_zero(self) -> bool:
        """Whether every coefficient is ±0, computed on first use and cached.

        A jet found to be zero is marked (`_mark_zero`).
        """
        try:
            return self._zero
        except AttributeError:
            if np.count_nonzero(self.coeffs):
                self._zero = False
            else:
                _mark_zero(self)
            return self._zero

    def _is_finite(self) -> bool:
        """Whether every coefficient is finite, computed on first use and cached."""
        try:
            return self._finite
        except AttributeError:
            self._finite = bool(np.isfinite(self.coeffs).all())
            return self._finite

    def _row_flags(self):
        """`_row_flags` of the coefficients, computed on first use and cached.

        The slot stays unset until then, so small-batch jets never pay for it.
        A jet whose every row is zero is marked (`_mark_zero`).
        """
        try:
            return self._flags
        except AttributeError:
            self._flags = _row_flags(self.coeffs)
            if self._flags[0].all():
                _mark_zero(self)
            return self._flags


class _ZeroJet(Jet):
    """A jet, of any batch size, that is ±0 at every coefficient and node.

    All-zero constants, products with no term left, jets that `_is_zero` or
    `_row_flags` find all zero, and `derive`, `truncated`, negation and
    finite scalar multiples of a mark carry it, with `_zero`, `_finite` and
    `_row_flags` set. A product with no term left (below `_BIG_BATCH` a zero
    times a finite operand, from `_BIG_BATCH` on one whose row flags leave
    no term) returns a marked operand of the product's shape, at any batch
    size, and fresh marked zeros otherwise, such as for a broadcast one. A sum or
    difference with an operand of the same shape returns that operand (or
    its negation) instead of adding zeros. Each value equals the full
    operation's (`==`); only the sign of a zero can differ (x + (+0) is +0
    where x is -0). Zero times NaN or ±inf runs the full product, and
    products go through `Jet.__mul__`.
    """

    __slots__ = ()

    def _same_shape(self, other) -> bool:
        return (isinstance(other, Jet) and other.dim == self.dim and other.order == self.order
                and other.coeffs.shape == self.coeffs.shape)

    # A subclass's reflected methods run before the left operand's own, so
    # `x + zero` and `x - zero` land here without a check in `Jet.__add__`.

    def __add__(self, other):
        return other if self._same_shape(other) else Jet.__add__(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return -other if self._same_shape(other) else Jet.__sub__(self, other)

    def __rsub__(self, other):
        return other if self._same_shape(other) else Jet.__rsub__(self, other)

    def __neg__(self):
        return self

    def truncated(self, order: int) -> "Jet":
        return _mark_zero(Jet.truncated(self, order))

    def derive(self, axis: int) -> "Jet":
        # every coefficient is zero, so the leading ones serve as the derivative's
        self._derive_src(axis)
        return self.truncated(self.order - 1)


def _mark_zero(j: Jet) -> _ZeroJet:
    """Mark a jet whose coefficients are all ±0 (the caller knows they are)."""
    j.__class__ = _ZeroJet
    j._zero = j._finite = True
    j._flags = _constant_row_flags(j.coeffs.shape[-1], True, True)
    return j


@lru_cache(maxsize=None)
def _constant_row_flags(size: int, zero: bool, finite: bool):
    """`_row_flags` of a constant jet of `size` coefficients, shared read-only.

    The value row is all zero and all finite as given; every other row is both.
    """
    zeros, finites = np.ones(size, dtype=bool), np.ones(size, dtype=bool)
    zeros[0], finites[0] = zero, finite
    zeros.flags.writeable = finites.flags.writeable = False
    return zeros, finites


_new = object.__new__


def _jet(dim: int, order: int, coeffs: np.ndarray) -> Jet:
    """A `Jet` without the constructor's checks, for float64 arrays of table size built here."""
    j = _new(Jet)
    j.dim = dim
    j.order = order
    j.coeffs = coeffs
    return j


def _mul_gather(a: np.ndarray, b: np.ndarray, t: _Table) -> np.ndarray:
    """Leibniz product of coefficient arrays: gather every triple, then sum per output.

    Every form gives the gather + `np.add.reduceat` sum bit for bit. The one
    exception is the sign of a NaN, which numpy's loops, `reduceat` included,
    pick by code path.

    - Order 0 and 1: every factor is 1 and an output has at most two terms,
      ``a0*bk`` then ``ak*b0`` in table order, so the direct forms below need
      no gather.
    - Layered: from `_LAYER_BATCH` nodes in the larger operand on, where no
      output has more than `_LAYER_TERMS` terms (every table up to order 3),
      the terms are summed in reduceat's order by slice additions of whole
      layers (`_Layers`), which beat reduceat's per-segment loop there.
    - `np.add.reduceat` otherwise: below `_LAYER_BATCH` its single call costs
      less than the layers' several, and longer segments (order 4 from dim 2
      on) are summed pairwise, which slice additions would not reproduce.
    """
    if t.order == 0:
        return a * b
    if t.order == 1:
        out = a[..., :1] * b
        out[..., 1:] += a[..., 1:] * b[..., :1]
        return out
    lay = t.layers
    if lay is not None and max(a.size, b.size) >= _LAYER_BATCH * t.size:
        prod = a[..., lay.ii] * b[..., lay.jj]
        prod *= lay.ff
        for dst, src in lay.adds:
            prod[..., dst] += prod[..., src]
        return prod[..., lay.inv]
    prod = a[..., t.mul_ii] * b[..., t.mul_jj]
    prod *= t.mul_ff
    return np.add.reduceat(prod, t.mul_starts, axis=-1)


def _zero_coeffs(shape: tuple) -> np.ndarray:
    """Fresh zero coefficients of `shape`, stored coefficient-major from `_BIG_BATCH` nodes on."""
    if math.prod(shape[:-1]) >= _BIG_BATCH:
        return _coeff_major(np.zeros(shape[-1:] + shape[:-1]))
    return np.zeros(shape)


def _coeff_major(rows: np.ndarray) -> np.ndarray:
    """The ``(..., size)`` view of coefficient rows stored as ``(size, ...)``."""
    return rows.transpose(*range(1, rows.ndim), 0)


def _row_flags(c: np.ndarray):
    """Per coefficient: (all zero over the batch, all finite over the batch).

    min and max propagate NaN, so a NaN makes a row neither zero nor finite.
    """
    batch_axes = tuple(range(c.ndim - 1))
    lo, hi = c.min(axis=batch_axes), c.max(axis=batch_axes)
    return (lo == 0.0) & (hi == 0.0), np.isfinite(lo) & np.isfinite(hi)


def _kept_terms(t: _Table, flags_a, flags_b) -> np.ndarray:
    """Per product-table triple: False where its term is ±0 at every node.

    That is where one operand's row is all zero and the other's all finite
    (`_row_flags`), so zero times NaN or ±inf is kept.
    """
    (zero_a, finite_a), (zero_b, finite_b) = flags_a, flags_b
    za, fa, zb, fb = zero_a[t.mul_ii], finite_a[t.mul_ii], zero_b[t.mul_jj], finite_b[t.mul_jj]
    return ~((za & fb) | (zb & fa))


def _mul_coeff_major(a: np.ndarray, b: np.ndarray, t: _Table, kept: np.ndarray) -> np.ndarray:
    """Leibniz product for large batches: one row per coefficient, summed triple by triple.

    Each node's coefficients are summed in table order, so a node's result does
    not depend on the batch it is computed in. Only the triples in `kept`
    (`_kept_terms`) are summed: a skipped term is ±0 at every node, so every
    output equals the full sum up to the sign of a zero, and NaN and ±inf land
    where they would. The result is coefficient-major.
    """
    rows_a, rows_b = a.transpose(-1, *range(a.ndim - 1)), b.transpose(-1, *range(b.ndim - 1))
    out = np.empty((t.size,) + np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    tmp = np.empty(out.shape[1:])
    last = -1
    for k, i, j, factor in itertools.compress(t.mul_triples, kept.tolist()):
        dst = tmp if k == last else out[k]
        np.multiply(rows_a[i], rows_b[j], out=dst)
        if factor != 1.0:
            dst *= factor
        if k == last:
            out[k] += tmp
        last = k
    out[~np.logical_or.reduceat(kept, t.mul_starts)] = 0.0
    return _coeff_major(out)


def seed_variable(i: int, x0, dim: int, order: int) -> Jet:
    """Jet of the i-th coordinate function at x0 (value x0, unit first derivative)."""
    if not 0 <= i < dim:
        raise ValueError(f"axis {i} out of range for dim {dim}")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")
    t = jet_table(dim, order)
    # fresh coefficients, never a zero constant's: those belong to a mark
    coeffs = _zero_coeffs(np.shape(x0) + (t.size,))
    coeffs[..., 0] = x0
    coeffs[..., t.index[tuple(1 if k == i else 0 for k in range(dim))]] = 1.0
    return _jet(dim, order, coeffs)


def seed_point(p, order: int) -> tuple[Jet, ...]:
    """Coordinate jets at point(s) p of shape (..., dim); order 0 gives plain values."""
    p = np.asarray(p, dtype=np.float64)
    dim = p.shape[-1]
    if order > MAX_ORDER:
        raise OrderCapabilityError(
            f"requested jet order {order} exceeds supported maximum {MAX_ORDER}"
        )
    if order == 0:
        return tuple(Jet.constant(p[..., i], dim, 0) for i in range(dim))
    return tuple(seed_variable(i, p[..., i], dim, order) for i in range(dim))


# -- elementary functions ----------------------------------------------


def _compose(a: Jet, taylor):
    """Evaluate sum_k taylor[k] * (a - a0)^k by Horner; taylor[k] ~ f^(k)(a0)/k!.

    Each step is one jet product, acc * rem, into whose value row taylor[k]
    is then added in place: the constant taylor[k] is zero in every other
    row, so a full constant and sum would only add zeros there. Values equal
    the constant + sum's (`==`); only the sign of a zero can differ. A
    product returns an operand only when that is a mark, so a plain `Jet`
    product is fresh; a mark is never written and takes the constant + sum.
    """
    rem_coeffs = a.coeffs.copy(order="K")
    rem_coeffs[..., 0] = 0.0
    rem = _jet(a.dim, a.order, rem_coeffs)
    acc = Jet.constant(taylor[a.order], a.dim, a.order)
    for k in range(a.order - 1, -1, -1):
        product = acc * rem
        if product.__class__ is Jet:
            product.coeffs[..., 0] += taylor[k]
            acc = product
        else:
            acc = product + Jet.constant(taylor[k], a.dim, a.order)
    return acc


def exp(a: Jet) -> Jet:
    e = np.exp(a.value)
    return _compose(a, [e / math.factorial(k) for k in range(a.order + 1)])


def log(a: Jet) -> Jet:
    v = a.value
    if np.any(v <= 0.0):
        raise JetDomainError(f"log of non-positive value (min value {np.min(v)})")
    taylor = [np.log(v)]
    for k in range(1, a.order + 1):
        taylor.append((-1.0) ** (k - 1) / (k * v**k))
    return _compose(a, taylor)


def _binomial(a: Jet, exponent: float) -> Jet:
    """a ** exponent by the binomial series about a0 (the caller checks a0 > 0)."""
    v = a.value
    taylor = []
    c = 1.0
    for k in range(a.order + 1):
        taylor.append(c * v ** (exponent - k))
        c *= (exponent - k) / (k + 1)
    return _compose(a, taylor)


def sqrt(a: Jet) -> Jet:
    v = a.value
    if np.any(v <= 0.0):
        raise JetDomainError(f"sqrt of non-positive value (min value {np.min(v)})")
    return _binomial(a, 0.5)


def reciprocal(a: Jet) -> Jet:
    v = a.value
    if np.any(v == 0.0):
        raise JetDomainError("division by zero value coefficient")
    return _compose(a, [(-1.0) ** k * v ** (-(k + 1)) for k in range(a.order + 1)])


def _cyclic(a: Jet, f, df, sign: float) -> Jet:
    """Compose with f where f'' = sign * f, evaluating f and f' once each.

    The derivatives at the value cycle f, f', sign f, sign f'; negation is
    exact, so each equals its own evaluation bit for bit.
    """
    cycle = [f(a.value)]
    if a.order >= 1:
        cycle.append(df(a.value))
    if sign < 0 and a.order >= 2:
        cycle += [-c for c in cycle]
    return _compose(
        a, [cycle[k % len(cycle)] / math.factorial(k) for k in range(a.order + 1)]
    )


def sin(a: Jet) -> Jet:
    return _cyclic(a, np.sin, np.cos, -1.0)


def cos(a: Jet) -> Jet:
    return _cyclic(a, np.cos, lambda v: -np.sin(v), -1.0)


def sinh(a: Jet) -> Jet:
    return _cyclic(a, np.sinh, np.cosh, 1.0)


def cosh(a: Jet) -> Jet:
    return _cyclic(a, np.cosh, np.sinh, 1.0)


def power(a: Jet, exponent) -> Jet:
    """a ** exponent; integer exponents work for any value, real ones need value > 0."""
    if isinstance(exponent, (int, np.integer)) or (
        isinstance(exponent, float) and exponent.is_integer()
    ):
        k = int(exponent)
        if k < 0:
            return reciprocal(power(a, -k))
        acc = a if k else Jet.constant(np.ones(a.batch_shape), a.dim, a.order)
        for _ in range(k - 1):
            acc = acc * a
        return acc
    if np.any(a.value <= 0.0):
        raise JetDomainError(
            f"power with non-integer exponent {exponent} of non-positive value"
        )
    return _binomial(a, exponent)
