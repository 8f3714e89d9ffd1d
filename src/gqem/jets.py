"""Truncated multivariate Taylor arithmetic (forward-mode jets up to order 4).

A `Jet` carries the exact partial derivatives of a smooth scalar at a point:
coefficient ``k`` is the value of the mixed partial with multi-index
``alphas[k]`` (the derivative itself, not divided by the factorial).
A jet may hold a batch of points, and every operation is elementwise over it.

Coefficients are stored coefficient-major, one row per coefficient holding it
at every node: below `_BIG_BATCH` nodes as one ``(size, *batch)`` array, whose
rows `value`, `partial` and `truncated` view; from `_BIG_BATCH` nodes on as a
tuple, with ``None`` for a row known to be zero at every node (read as +0) and
otherwise an array that broadcasts to the batch. A row is stored only along
the batch axes it varies on: a coordinate's value row and a constant's row
are cut to length 1 along every axis on which they are constant (`_compact`),
products keep the broadcast shape of their operand rows, and the Taylor
compositions read the stored value row. The jet keeps its full batch, so
`value`, `partial` and `coeffs` broadcast to it. Rows are never written once
stored, so `derive`, `truncated` and the Taylor compositions' remainder share
or gather them, and sums, differences, negation and products touch only the
rows an operand stores (see `_row_mul`). `Jet.coeffs` gives the batch-major
``(*batch, size)`` array for callers outside the engine. A jet known to be
zero at every coefficient and node, at any batch size, is a `_ZeroJet`: sums,
differences and products with it return an operand or a mark instead of
running over zeros (see `_ZeroJet`); `Jet.__mul__` states that rule once,
for both forms, before it picks a kernel.

Every product sums each output's terms left to right in table order, so a
node's result does not depend on the batch it is computed in. Below
`_BIG_BATCH` a product gathers the rows of every product-table term
(`_mul_gather`) and sums them directly at order 0 and 1 and by whole layers
of terms (`_Layers`) from order 2 on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

try:  # the C-level count, without the argument handling of numpy's Python wrapper
    from numpy._core.multiarray import count_nonzero as _count_nonzero
except ImportError:  # numpy < 2
    _count_nonzero = np.count_nonzero

MAX_ORDER = 4

# Broadcast batch size from which jets store a tuple of rows and `Jet.__mul__`
# takes the row product. Measured crossover, two runs (best of 5, 2-vCPU Linux
# host, numpy 2.4.6): 256..1024 for (dim, order) from (2, 2) to (5, 4).
_BIG_BATCH = 512


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


_TABLES: dict = {}  # (dim, order) -> each table `jet_table` built, and it builds every lower order


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
    triples.sort(key=lambda t: t[0])  # stable: each output's terms stay in table order
    out_idx, ii, jj, ff = (np.array(col) for col in zip(*triples))
    # every output index occurs (alpha = gamma, beta = 0), so segments cover 0..size-1
    layers = _layer_plan(ii, jj, ff, np.searchsorted(out_idx, np.arange(size)))

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
    table = _TABLES[dim, order] = _Table(dim, order, tuple(alphas), index, size, grade_sizes, ii,
                                         tuple(triples), layers, derive_src)
    return table


@dataclass(frozen=True, slots=True, eq=False)
class _Table:
    dim: int
    order: int
    alphas: tuple
    index: dict
    size: int
    grade_sizes: tuple
    mul_ii: np.ndarray  # each term's left-operand coefficient, in table order
    mul_triples: tuple  # (output, left, right, factor) of each term, by output, in table order
    layers: "_Layers"
    derive_src: Optional[tuple]


@dataclass(frozen=True, slots=True, eq=False)
class _Layers:
    """The product table laid out to sum every output with slice additions.

    Outputs are sorted by descending term count (stable); layer p holds the
    p-th term of every output that has more than p terms, so each layer is a
    prefix of layer 0's columns. Column q of the gathered product is the
    table's triple ``(ii[q], jj[q], ff[q])``; layer p spans ``widths[p]``
    columns from ``sum(widths[:p])``. Each ``(dst, src)`` of `adds` is one
    ``+=`` of layer p into layer 0, for p = 1, 2, ..., which sums each output
    in table order. Output k is then column ``inv[k]``.
    """

    widths: tuple
    ii: np.ndarray
    jj: np.ndarray
    ff: np.ndarray
    fc: np.ndarray  # ff as a column, for products over one batch axis
    adds: tuple
    inv: np.ndarray


def _layer_plan(ii, jj, ff, starts) -> _Layers:
    """`_Layers` of product-table triples sorted by output, each output's in table order."""
    counts = np.diff(np.append(starts, len(ii)))
    order = np.argsort(-counts, kind="stable")
    widths = tuple(int(np.count_nonzero(counts > p)) for p in range(counts.max()))
    take = np.concatenate([starts[order[:w]] + p for p, w in enumerate(widths)])
    offsets = np.cumsum((0,) + widths).tolist()
    adds = tuple((slice(0, w), slice(lo, lo + w)) for w, lo in zip(widths[1:], offsets[1:]))
    return _Layers(widths, ii[take], jj[take], ff[take], ff[take, None], adds, np.argsort(order))


class Jet:
    """Truncated Taylor expansion of a scalar in `dim` variables.

    Below `_BIG_BATCH` nodes the coefficients are one coefficient-major array
    `_c` of shape ``(table_size, *batch)``; a jet with no batch is 1-D. From
    `_BIG_BATCH` nodes on `_c` is unset and the jet holds `_rows`, one entry
    per coefficient (``None`` for +0 at every node, else an array that
    broadcasts to the batch), and `_batch`, the batch shape. The public
    constructor picks the form by the batch, copies its input and stores an
    all-zero row as ``None``.

    Neither form may be written once the jet has taken part in an operation.
    A jet caches two flags of its coefficients: all zero (`_is_zero`) and
    all finite (`_is_finite`), and may become a `_ZeroJet`. Every
    constructor sets `_finite` to ``None`` (not yet computed) and `_zero` to
    ``None`` for a dense jet and ``False`` for a row-form one that stores a
    row; a mark sets both to ``True``. Gathers of rows, in `derive` and the dense
    product, go through ``ndarray.take(..., axis=0)``, which costs less per
    call than fancy indexing and gives the same bytes. Results
    share what they can: `truncated` of a dense jet and `derive` of a dense
    mark return views, `derive` and `truncated` of a row-form jet share its
    rows, a mark keeps the lower-order marks they return (`_lower`), and sums
    and products with a mark can return an operand itself. A coordinate seed
    also holds `_x`, the `CoordinateValues` its value came from.
    """

    __slots__ = ("dim", "order", "_c", "_rows", "_batch", "_zero", "_finite", "_x", "_lower")

    # numpy defers every operator with an ndarray operand to the jet, so that
    # ``array * jet`` is `__rmul__`, a product over the batch, and not an
    # object array with one jet per array element
    __array_ufunc__ = None

    def __init__(self, dim: int, order: int, coeffs: np.ndarray):
        table = jet_table(dim, order)
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape[-1:] != (table.size,):
            raise ValueError(
                f"coefficient array of shape {coeffs.shape} does not match "
                f"table size {table.size} for dim={dim}, order={order}"
            )
        self.dim = dim
        self.order = order
        self._zero = self._finite = None
        rows = np.moveaxis(coeffs, -1, 0)
        if coeffs.size < _BIG_BATCH * table.size:
            # a copy: a later write to the caller's array must not reach the jet or its flags
            self._c = np.array(rows, order="C")
            return
        self._rows = tuple(np.array(r) if r.any() else None for r in rows)
        self._batch = coeffs.shape[:-1]
        if any(r is not None for r in self._rows):
            self._zero = False
        else:
            _mark_zero(self)

    # -- construction -------------------------------------------------

    @staticmethod
    def constant(value, dim: int, order: int) -> "Jet":
        """Jet of `value` with every derivative zero; an all-zero one is a mark.

        From `_BIG_BATCH` nodes on it stores one row, a copy of `value` cut to
        length 1 along each axis on which it is constant (`_compact`).
        """
        value = np.asarray(value, dtype=np.float64)
        size = jet_table(dim, order).size
        if value.size >= _BIG_BATCH:
            row = _compact(value)
            rows = (np.array(row) if _count_nonzero(row) else None,) + (None,) * (size - 1)
            return _from_rows(dim, order, rows, value.shape)
        coeffs = np.zeros((size,) + value.shape)
        coeffs[0] = value
        out = _jet(dim, order, coeffs)
        return out if _count_nonzero(value) else _mark_zero(out)

    @property
    def coeffs(self) -> np.ndarray:
        """The batch-major ``(..., size)`` coefficients: a view for a dense jet, else fresh."""
        try:
            c = self._c
        except AttributeError:
            c = np.zeros((len(self._rows),) + self._batch)
            for dst, row in zip(c, self._rows):
                if row is not None:
                    dst[...] = row
        return c.T if c.ndim < 3 else np.moveaxis(c, 0, -1)  # .T: the same view, cheaper

    @property
    def value(self):
        return self._coefficient(0)

    @property
    def batch_shape(self):
        try:
            return self._c.shape[1:]
        except AttributeError:
            return self._batch

    def _coefficient(self, k: int) -> np.ndarray:
        """Coefficient `k` at every node: a view of a dense jet's row, else a read-only array."""
        try:
            return self._c[k, ...]
        except AttributeError:
            row = self._rows[k]
        return np.broadcast_to(np.zeros(()) if row is None else row, self._batch)

    def partial(self, alpha: Sequence[int]):
        """Mixed partial derivative for multi-index `alpha` (exact, not /alpha!)."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dim or any(a < 0 for a in alpha):
            raise ValueError(f"bad multi-index {alpha} for dim {self.dim}")
        if sum(alpha) > self.order:
            raise ValueError(
                f"multi-index {alpha} has degree {sum(alpha)} > jet order {self.order}"
            )
        return self._coefficient(jet_table(self.dim, self.order).index[alpha])

    def truncated(self, order: int) -> "Jet":
        """Drop all coefficients of total degree > `order` (exact operation)."""
        if order == self.order:
            return self
        if not 0 <= order < self.order:
            raise ValueError(f"cannot truncate order-{self.order} jet to order {order}")
        size = _TABLES[self.dim, self.order].grade_sizes[order]
        try:
            return _jet(self.dim, order, self._c[:size])
        except AttributeError:
            return _from_rows(self.dim, order, self._rows[:size], self._batch)

    def derive(self, axis: int) -> "Jet":
        """Jet of the partial derivative along `axis`, one order lower."""
        src = self._derive_src(axis)
        try:
            return _jet(self.dim, self.order - 1, self._c.take(src, axis=0))
        except AttributeError:
            rows = self._rows
            return _from_rows(self.dim, self.order - 1, tuple(rows[k] for k in src.tolist()),
                              self._batch)

    def _derive_src(self, axis: int) -> np.ndarray:
        """The coefficients `derive(axis)` reads, after checking its arguments."""
        if self.order < 1:
            raise ValueError("cannot derive an order-0 jet")
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dim {self.dim}")
        return _TABLES[self.dim, self.order].derive_src[axis]

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
    # converts a constant or raises on a mismatch. An operand without `_c`
    # is in row form, and the operation goes row by row.

    def __add__(self, other):
        if other.__class__ is not Jet or other.dim != self.dim or other.order != self.order:
            other = self._coerce(other)
        try:
            a, b = self._c, other._c
        except AttributeError:
            return _row_sum(self, other, False)
        if a.ndim != b.ndim:
            a, b = _lift(a, b.ndim), _lift(b, a.ndim)
        c, j = a + b, _new(Jet)  # as `_jet` builds it (the array first), without the call
        j._c, j.dim, j.order, j._zero, j._finite = c, self.dim, self.order, None, None
        return j

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Jet or other.dim != self.dim or other.order != self.order:
            other = self._coerce(other)
        try:
            a, b = self._c, other._c
        except AttributeError:
            return _row_sum(self, other, True)
        if a.ndim != b.ndim:
            a, b = _lift(a, b.ndim), _lift(b, a.ndim)
        c, j = a - b, _new(Jet)
        j._c, j.dim, j.order, j._zero, j._finite = c, self.dim, self.order, None, None
        return j

    def __rsub__(self, other):
        # not ``constant - self``, which for a mark would call this method again
        return Jet.__sub__(self._coerce(other), self)

    def __neg__(self):
        try:
            c = -self._c
        except AttributeError:
            return _from_rows(self.dim, self.order,
                              tuple(None if r is None else -r for r in self._rows), self._batch)
        j = _new(Jet)
        j._c, j.dim, j.order, j._zero, j._finite = c, self.dim, self.order, None, None
        return j

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return _scale(self, np.asarray(other, dtype=np.float64))
        dim, order = self.dim, self.order
        if other.dim != dim or other.order != order:
            self._coerce(other)  # raises on the mismatch
        # the zero rule, for both forms: a zero (a mark, or a dense jet found zero)
        # times a finite operand is a zero of the product's batch; a flag is computed if None
        if self._zero or self._zero is None and self._is_zero():
            if other._finite or other._finite is None and other._is_finite():
                return _zero_product(self, other)
        elif (other._zero or other._zero is None and other._is_zero()) and (
                self._finite or self._finite is None and self._is_finite()):
            return _zero_product(other, self)
        try:
            a, b = self._c, other._c
        except AttributeError:
            return _row_mul(self, other)
        if a.shape != b.shape or a.size >= _BIG_BATCH * len(a):  # a broadcast or a large pair
            if math.prod(_broadcast(a.shape[1:], b.shape[1:])) >= _BIG_BATCH:
                return _row_mul(self, other)
        j = _new(Jet)  # as `_jet` builds it, without the call
        j._c = _mul_gather(a, b, _TABLES[dim, order])
        j.dim, j.order, j._zero, j._finite = dim, order, None, None
        return j

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

    # The two flags below serve the zero rule of `__mul__` and `_row_mul`'s row skip.

    def _is_zero(self) -> bool:
        """Whether every coefficient is ±0, computed on first use and cached.

        A jet found to be zero is marked (`_mark_zero`). A row-form jet is set
        when it is built: a mark if it stores no row, else False.
        """
        if self._zero is None:
            if _count_nonzero(self._c):
                self._zero = False
            else:
                _mark_zero(self)
        return self._zero

    def _is_finite(self) -> bool:
        """Whether every coefficient is finite (each stored row, in row form), computed on first use and cached."""
        if self._finite is None:
            try:
                c = self._c
            except AttributeError:
                self._finite = all(r is None or _count_nonzero(np.isfinite(r)) == r.size
                                   for r in self._rows)
            else:
                self._finite = bool(_count_nonzero(np.isfinite(c)) == c.size)
        return self._finite


class _ZeroJet(Jet):
    """A jet, of any batch size, that is ±0 at every coefficient and node.

    All-zero constants, products with no term left, jets that `_is_zero`
    finds all zero, row-form jets whose every row is ``None``, and `derive`,
    `truncated`, negation and finite scalar multiples of a mark carry it, with
    `_zero` and `_finite` set. A zero times a finite operand, in either form,
    returns before any kernel (`_zero_product`): the marked operand where its
    batch is the product's, and a fresh mark otherwise, such as for a
    broadcast one. A sum or difference with an operand of the same
    shape returns that operand (or its negation) instead of adding zeros.
    Each value equals the full operation's (`==`); only the sign of a zero
    can differ (x + (+0) is +0 where x is -0). Zero times NaN or ±inf runs
    the full product, and products go through `Jet.__mul__`.
    """

    __slots__ = ()

    def _same_shape(self, other) -> bool:
        # the shape first: only a jet has `_c`, and most operands are dense
        try:
            same = other._c.shape == self._c.shape
        except AttributeError:
            same = isinstance(other, Jet) and other.batch_shape == self.batch_shape
        return same and other.dim == self.dim and other.order == self.order

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
        # each lower order's mark is built once per mark and kept in `_lower`
        if order == self.order:
            return self
        if not hasattr(self, "_lower"):
            self._lower = {}
        if order not in self._lower:
            self._lower[order] = _mark_zero(Jet.truncated(self, order))
        return self._lower[order]

    def derive(self, axis: int) -> "Jet":
        # every coefficient is zero, so the leading ones serve as the derivative's
        self._derive_src(axis)
        return self.truncated(self.order - 1)


def _mark_zero(j: Jet) -> _ZeroJet:
    """Mark a jet whose coefficients are all ±0 (the caller knows they are)."""
    j.__class__ = _ZeroJet
    j._zero = j._finite = True
    return j


_new = object.__new__


def _jet(dim: int, order: int, coeffs: np.ndarray) -> Jet:
    """A dense `Jet` without the constructor's checks, for float64 arrays of table size built here."""
    j = _new(Jet)
    j.dim = dim
    j.order = order
    j._c = coeffs
    j._zero = j._finite = None
    return j


def _from_rows(dim: int, order: int, rows: tuple, batch: tuple) -> Jet:
    """A row-form `Jet` of `rows` (table size, each None or broadcasting to `batch`); a mark if none is stored."""
    j = _new(Jet)
    j.dim = dim
    j.order = order
    j._rows = rows
    j._batch = batch
    j._finite = None
    for row in rows:
        if row is not None:
            j._zero = False
            return j
    return _mark_zero(j)


def _rows_of(j: Jet) -> tuple:
    """(rows, batch shape) of either form; a dense jet's all-zero rows read as None."""
    try:
        c = j._c
    except AttributeError:
        return j._rows, j._batch
    return tuple(r if r.any() else None for r in c), c.shape[1:]


def _zero_product(zero: _ZeroJet, other: Jet) -> _ZeroJet:
    """``zero * other`` for a finite `other`: `zero` if it has the product's batch, else a fresh mark."""
    try:  # the common case first: two dense jets of one shape
        if zero._c.shape == other._c.shape:
            return zero
    except AttributeError:
        pass
    batch = _broadcast(zero.batch_shape, other.batch_shape)
    return zero if batch == zero.batch_shape else Jet.constant(np.zeros(batch), zero.dim, zero.order)


def _compact(x: np.ndarray) -> np.ndarray:
    """`x` cut to length 1 along every axis on which its entries are bitwise equal.

    Entries compare by their bits (``view(np.int64)``), so +0 and -0, and NaNs
    with different payloads, stay apart, and the result broadcasts back to
    `x` bit for bit. Below `_BIG_BATCH` entries, or with no such axis, it is
    `x` itself; otherwise a view of it.
    """
    if x.size < _BIG_BATCH:
        return x
    for axis, length in enumerate(x.shape):
        if length > 1:
            head = (slice(None),) * axis + (slice(0, 1),)
            bits = x.view(np.int64)
            if (bits == bits[head]).all():
                x = x[head]
    return x


@lru_cache(maxsize=1024)
def _broadcast(a: tuple, b: tuple) -> tuple:
    return np.broadcast_shapes(a, b)


def _lift(c: np.ndarray, ndim: int) -> np.ndarray:
    """Coefficient-major `c` with unit axes after axis 0 up to `ndim` axes, to broadcast."""
    return c.reshape(c.shape[:1] + (1,) * (ndim - c.ndim) + c.shape[1:])


def _row_sum(a: Jet, b: Jet, subtract: bool) -> Jet:
    """``a + b``, or ``a - b``, row by row: a row that one operand does not store is the other's.

    Where both store a row the result is numpy's; elsewhere it is the stored
    row (negated for ``None - y``), which equals the dense result (`==`) with
    only the sign of a zero free to differ.
    """
    ra, batch_a = _rows_of(a)
    rb, batch_b = _rows_of(b)
    if subtract:
        rows = tuple((None if y is None else -y) if x is None else x if y is None else x - y
                     for x, y in zip(ra, rb))
    else:
        rows = tuple(y if x is None else x if y is None else x + y for x, y in zip(ra, rb))
    batch = batch_a if batch_a == batch_b else np.broadcast_shapes(batch_a, batch_b)
    return _from_rows(a.dim, a.order, rows, batch)


def _scale(j: Jet, scalar: np.ndarray) -> Jet:
    """A jet times a number or an array over its batch; a mark times a finite number is the mark.

    A row-form jet's ``None`` row stays ``None`` where `scalar` is finite
    everywhere and is 0 × `scalar` otherwise, so NaN and ±inf reach the rows
    they would.
    """
    if j.__class__ is _ZeroJet and scalar.ndim == 0 and math.isfinite(scalar):
        return j
    try:
        c = j._c
    except AttributeError:
        pass
    else:
        if scalar.ndim >= c.ndim:
            c = _lift(c, scalar.ndim + 1)
        return _jet(j.dim, j.order, c * scalar)
    if np.isfinite(scalar).all():
        zero = None
    else:
        zero = np.multiply(np.zeros(()), scalar)
    rows = tuple(zero if r is None else r * scalar for r in j._rows)
    return _from_rows(j.dim, j.order, rows, np.broadcast_shapes(j._batch, scalar.shape))


def _row_mul(a: Jet, b: Jet) -> Jet:
    """Leibniz product from `_BIG_BATCH` nodes on, each output summed term by term in table order.

    A dense operand is read row by row (`_rows_of`). A term is skipped where
    one row is ``None`` and the other is ``None`` or finite at every node: it
    is ±0 at every node. The other row is finite if its jet `_is_finite`
    (asked only for such pairs), and is scanned itself only where that jet
    is not. A ``None`` row against a non-finite one is read as zeros, so NaN
    and ±inf land where they would. Every output equals the
    full sum up to the sign of a zero; one with no term left is ``None``, and
    a product with none left at all is a fresh mark. Each output is summed in
    table order, as `_mul_gather` sums it, so a node's result does not depend
    on the batch it is computed in.

    Rows keep the shapes they are stored in: each term, and the output row it
    starts, is allocated at the broadcast shape of its two rows, and a later
    term is added in place where the output row already has the shape of
    their broadcast, else into a new row of that shape. Every product lands in
    an array given as ``out``, so no 0-d result turns into a numpy scalar.
    """
    ra, batch_a = _rows_of(a)
    rb, batch_b = _rows_of(b)
    batch = batch_a if batch_a == batch_b else _broadcast(batch_a, batch_b)
    out = [None] * len(ra)
    fa = fb = None
    tmps = {}  # one scratch row per shape
    last = -1
    for k, i, j, factor in jet_table(a.dim, a.order).mul_triples:
        x, y = ra[i], rb[j]
        if x is None:
            if y is None:
                continue
            if fb is None:
                fb = b._is_finite()
            if fb or np.isfinite(y).all():
                continue
            x = _ZERO
        elif y is None:
            if fa is None:
                fa = a._is_finite()
            if fa or np.isfinite(x).all():
                continue
            y = _ZERO
        shape = x.shape if x.shape == y.shape else _broadcast(x.shape, y.shape)
        if k == last:
            tmp = tmps.get(shape)
            if tmp is None:
                tmp = tmps[shape] = np.empty(shape)
            np.multiply(x, y, out=tmp)
            if factor != 1.0:
                tmp *= factor
            dst = out[k]
            if dst.shape == shape or _broadcast(dst.shape, shape) == dst.shape:
                dst += tmp
            else:
                out[k] = np.add(dst, tmp, out=np.empty(_broadcast(dst.shape, shape)))
        else:
            dst = out[k] = np.multiply(x, y, out=np.empty(shape))
            if factor != 1.0:
                dst *= factor
            last = k
    return _from_rows(a.dim, a.order, tuple(out), batch)


def _mul_gather(a: np.ndarray, b: np.ndarray, t: _Table) -> np.ndarray:
    """Leibniz product of coefficient arrays: gather every triple, then sum per output.

    Every form sums each output left to right in table order, as `_row_mul`
    does, with one exception: the sign of a NaN, which numpy's loops pick by
    code path.

    - Order 0 and 1: every factor is 1 and an output has at most two terms,
      ``a0*bk`` then ``ak*b0`` in table order, so the direct forms below need
      no gather.
    - Order 2 on: the right terms multiply into the gathered left ones (a
      broadcast pair into a fresh array), then the factors, and whole layers of
      terms (`_Layers`) add in place into a view of layer 0; no operand is written.
    """
    if a.ndim != b.ndim:
        a, b = _lift(a, b.ndim), _lift(b, a.ndim)
    if t.order == 0:
        return a * b
    if t.order == 1:
        out = a[:1] * b
        tail = out[1:]
        tail += a[1:] * b[:1]
        return out
    lay = t.layers
    prod = a.take(lay.ii, axis=0)
    if a.shape == b.shape:
        prod *= b.take(lay.jj, axis=0)
    else:
        prod = prod * b.take(lay.jj, axis=0)
    prod *= lay.fc if prod.ndim == 2 else _lift(lay.ff, prod.ndim)
    for dst, src in lay.adds:
        layer0 = prod[dst]
        layer0 += prod[src]
    return prod.take(lay.inv, axis=0)


# the unit row of every large-batch seed, and the zero row that `_row_mul` reads for a None
# row against a non-finite one: shared read-only 0-d arrays that broadcast to any batch
_ONE = np.ones(())
_ONE.flags.writeable = False
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


class CoordinateValues:
    """One coordinate's values at a batch of points, shared by its seeds of every order.

    `shape` is the batch shape and `values` a private copy of the values, cut
    to length 1 along each batch axis on which they are constant (`_compact`,
    which cuts nothing below `_BIG_BATCH` nodes). From `_BIG_BATCH` nodes on
    each seed stores `values` as its value row. Each seed carries this
    object, and `sin`, `cos` and `sincos` of a seed read np.sin and np.cos of
    `values` from `sincos()`, evaluated once, on first use. It lives as long
    as its seeds.
    """

    __slots__ = ("shape", "values", "_sincos")

    def __init__(self, values):
        values = np.array(values, dtype=np.float64)
        self.shape = values.shape
        if values.size >= _BIG_BATCH:
            values = _compact(values).copy()
        self.values = values
        self._sincos = None

    def sincos(self) -> tuple:
        if self._sincos is None:
            self._sincos = np.sin(self.values), np.cos(self.values)
        return self._sincos


def seed_variable(i: int, x0, dim: int, order: int) -> Jet:
    """Jet of the i-th coordinate function at x0 (value x0, unit first derivative).

    From `_BIG_BATCH` nodes on it stores two rows: a copy of x0, cut by
    `_compact`, and `_ONE`.
    """
    if not 0 <= i < dim:
        raise ValueError(f"axis {i} out of range for dim {dim}")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")
    return _seed(i, CoordinateValues(x0), dim, order)


def _seed(i: int, x: CoordinateValues, dim: int, order: int) -> Jet:
    """The seed of coordinate i at the values `x`; order 0 gives a constant (a mark where x is ±0)."""
    t = jet_table(dim, order)
    x0 = x.values
    unit = t.index.get(tuple(1 if k == i else 0 for k in range(dim)))  # None at order 0
    if math.prod(x.shape) >= _BIG_BATCH:
        rows = [None] * t.size
        if order:
            rows[0], rows[unit] = x0, _ONE
        elif _count_nonzero(x0):
            rows[0] = x0
        j = _from_rows(dim, order, tuple(rows), x.shape)
    elif order:
        # fresh coefficients, never a zero constant's: those belong to a mark
        coeffs = np.zeros((t.size,) + x0.shape)
        coeffs[0] = x0
        coeffs[unit] = 1.0
        j = _jet(dim, order, coeffs)
    else:
        j = Jet.constant(x0, dim, 0)
    j._x = x
    return j


def coordinate_values(p) -> tuple[CoordinateValues, ...]:
    """One `CoordinateValues` per coordinate of point(s) p of shape (..., dim)."""
    p = np.asarray(p, dtype=np.float64)
    return tuple(CoordinateValues(p[..., i]) for i in range(p.shape[-1]))


def seed_coordinates(xs: Sequence[CoordinateValues], order: int) -> tuple[Jet, ...]:
    """Coordinate jets of `order` at the values `xs`; order 0 gives constants.

    Seeds of any order made from the same `xs` share each coordinate's value
    row and its sine and cosine.
    """
    if order > MAX_ORDER:
        raise OrderCapabilityError(
            f"requested jet order {order} exceeds supported maximum {MAX_ORDER}"
        )
    return tuple(_seed(i, x, len(xs), order) for i, x in enumerate(xs))


def seed_point(p, order: int) -> tuple[Jet, ...]:
    """Coordinate jets at point(s) p of shape (..., dim); order 0 gives constants."""
    return seed_coordinates(coordinate_values(p), order)


# -- elementary functions ----------------------------------------------


def _value_row(a: Jet):
    """a's value row as stored, which broadcasts to its batch: +0 for a row-form ``None``."""
    try:
        return a._c[0, ...]
    except AttributeError:
        row = a._rows[0]
    return _ZERO if row is None else row


def _compose(a: Jet, taylor):
    """Evaluate sum_k taylor[k] * (a - a0)^k by Horner; taylor[k] ~ f^(k)(a0)/k!.

    The taylor[k] are fresh arrays of a's value row's shape (`_value_row`).
    Each step is one jet product, acc * rem, whose value row then takes
    taylor[k]: the constant taylor[k] is zero in every other row, so a full
    constant and sum would only add zeros there. A dense product has it added
    in place. A row-form product stores no value row unless acc's is not
    finite (rem's is ``None``), and takes taylor[k] as that row. Values equal
    the constant + sum's (`==`); only the sign of a zero can differ. A
    product returns an operand only when that is a mark, so a plain `Jet`
    product is fresh; a mark is never written and takes the constant + sum.
    A row-form a's constants are row-form jets of its batch that store
    taylor[k] as it is.
    """
    dim, order = a.dim, a.order
    try:
        rem_coeffs = a._c.copy()
    except AttributeError:
        rem = _from_rows(dim, order, (None,) + a._rows[1:], a._batch)
        zeros = (None,) * (len(a._rows) - 1)

        def constant(v):
            return _from_rows(dim, order, (v if _count_nonzero(v) else None,) + zeros, a._batch)
    else:
        rem_coeffs[0] = 0.0
        rem = _jet(dim, order, rem_coeffs)

        def constant(v):
            return Jet.constant(v, dim, order)
    acc = constant(taylor[order])
    for k in range(order - 1, -1, -1):
        product = acc * rem
        if product.__class__ is not Jet:
            acc = product + constant(taylor[k])
            continue
        try:
            product._c[0] += taylor[k]
            acc = product
        except AttributeError:
            rows = product._rows
            value = taylor[k] if rows[0] is None else rows[0] + taylor[k]
            acc = _from_rows(dim, order, (value,) + rows[1:], product._batch)
    return acc


def exp(a: Jet) -> Jet:
    e = np.exp(_value_row(a))
    return _compose(a, [e / math.factorial(k) for k in range(a.order + 1)])


def log(a: Jet) -> Jet:
    v = _value_row(a)
    if _count_nonzero(v <= 0.0):
        raise JetDomainError(f"log of non-positive value (min value {np.min(v)})")
    taylor = [np.log(v)]
    for k in range(1, a.order + 1):
        taylor.append((-1.0) ** (k - 1) / (k * v**k))
    return _compose(a, taylor)


def _binomial(a: Jet, exponent: float) -> Jet:
    """a ** exponent by the binomial series about a0 (the caller checks a0 > 0)."""
    v = _value_row(a)
    taylor = []
    c = 1.0
    for k in range(a.order + 1):
        taylor.append(c * v ** (exponent - k))
        c *= (exponent - k) / (k + 1)
    return _compose(a, taylor)


def sqrt(a: Jet) -> Jet:
    v = _value_row(a)
    if _count_nonzero(v <= 0.0):
        raise JetDomainError(f"sqrt of non-positive value (min value {np.min(v)})")
    return _binomial(a, 0.5)


def reciprocal(a: Jet) -> Jet:
    v = _value_row(a)
    if _count_nonzero(v == 0.0):
        raise JetDomainError("division by zero value coefficient")
    powers = [v ** -(k + 1) for k in range(a.order + 1)]
    return _compose(a, [-t if k % 2 else t for k, t in enumerate(powers)])  # (-1)^k v^-(k+1)


def _cyclic(a: Jet, f: np.ndarray, df: np.ndarray, sign: float) -> Jet:
    """Compose with a function whose second derivative is `sign` times itself.

    `f` and `df` are its value and first derivative at a's value; the
    derivatives cycle f, f', sign f, sign f'. Negation is exact, so each
    equals its own evaluation bit for bit.
    """
    cycle = (f, df) if sign > 0 or a.order < 2 else (f, df, -f, -df)
    return _compose(
        a, [cycle[k % len(cycle)] / math.factorial(k) for k in range(a.order + 1)]
    )


def _sin_cos(a: Jet) -> tuple:
    """np.sin and np.cos of a's value row: a seed's shared pair, else evaluated here."""
    try:
        x = a._x
    except AttributeError:
        v = _value_row(a)
        return np.sin(v), np.cos(v)
    return x.sincos()


def sincos(a: Jet) -> tuple[Jet, Jet]:
    """``(sin(a), cos(a))``, bit for bit, from one np.sin and one np.cos of the value."""
    s, c = _sin_cos(a)
    return _cyclic(a, s, c, -1.0), _cyclic(a, c, -s, -1.0)


def sin(a: Jet) -> Jet:
    s, c = _sin_cos(a)
    return _cyclic(a, s, c, -1.0)


def cos(a: Jet) -> Jet:
    s, c = _sin_cos(a)
    return _cyclic(a, c, -s, -1.0)


def sinh(a: Jet) -> Jet:
    v = _value_row(a)
    return _cyclic(a, np.sinh(v), np.cosh(v), 1.0)


def cosh(a: Jet) -> Jet:
    v = _value_row(a)
    return _cyclic(a, np.cosh(v), np.sinh(v), 1.0)


def power(a: Jet, exponent) -> Jet:
    """a ** exponent; integral exponents of any real type (numpy's float32 too) work for any
    value, others need value > 0."""
    if isinstance(exponent, (int, np.integer)) or float(exponent).is_integer():
        k = int(exponent)
        if k < 0:
            return reciprocal(power(a, -k))
        acc = a if k else Jet.constant(np.ones(a.batch_shape), a.dim, a.order)
        for _ in range(k - 1):
            acc = acc * a
        return acc
    if _count_nonzero(_value_row(a) <= 0.0):
        raise JetDomainError(
            f"power with non-integer exponent {exponent} of non-positive value"
        )
    return _binomial(a, float(exponent))
