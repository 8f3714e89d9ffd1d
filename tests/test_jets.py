"""Unit tests for the truncated Taylor arithmetic."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gqem import jets, qem
from gqem import quadrature as quad
from gqem.jets import Jet, JetDomainError, jet_table, seed_point, seed_variable
from gqem.models import ModelSpec, example_structure, height_field, make_chart
from gqem.qem import make_structure


def test_seed_square_polynomial():
    # d/dx and d2/dx2 of x^2 at x0 = 2
    x = seed_variable(0, 2.0, dim=1, order=2)
    sq = x * x
    assert np.allclose(sq.coeffs, [4.0, 4.0, 2.0])


def test_exp_at_zero_all_ones():
    x = seed_variable(0, 0.0, dim=1, order=4)
    assert np.allclose(jets.exp(x).coeffs, np.ones(5), atol=1e-15)


def test_log_one_plus_square():
    # hand-differentiated: value ln 2, then 1, 0, -1 at x = 1
    t = seed_variable(0, 1.0, dim=1, order=3)
    j = jets.log(1.0 + t * t)
    assert np.allclose(j.coeffs, [math.log(2.0), 1.0, 0.0, -1.0], atol=1e-13)


def test_mul_second_derivative():
    x = seed_variable(0, 3.0, dim=1, order=2)
    assert (x * x).partial((2,)) == pytest.approx(2.0)


def test_log_exp_round_trip():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = Jet(2, 3, rng.normal(scale=0.7, size=jet_table(2, 3).size))
        back = jets.log(jets.exp(a))
        assert np.max(np.abs(back.coeffs - a.coeffs)) < 1e-12


def test_third_derivative_vs_finite_differences():
    # f(x) = ln(1 + x^2); f''' (1) = -1
    def f(x):
        return math.log(1.0 + x * x)

    h = 1e-3
    fd = (f(1 + 2 * h) - 2 * f(1 + h) + 2 * f(1 - h) - f(1 - 2 * h)) / (2 * h**3)
    t = seed_variable(0, 1.0, dim=1, order=3)
    jet_val = jets.log(1.0 + t * t).partial((3,))
    assert jet_val == pytest.approx(-1.0, abs=1e-12)
    assert abs(jet_val - fd) / abs(jet_val) < 1e-5


def test_partial_constant_and_seeds():
    c = Jet.constant(3.5, dim=3, order=2)
    assert c.partial((1, 0, 0)) == 0.0
    assert c.partial((0, 1, 1)) == 0.0
    x1 = seed_variable(1, 0.3, dim=3, order=2)
    assert x1.partial((0, 1, 0)) == 1.0


def test_mixed_partial_xy():
    x = seed_variable(0, 1.0, dim=2, order=2)
    y = seed_variable(1, 1.0, dim=2, order=2)
    assert (x * y).partial((1, 1)) == pytest.approx(1.0)


def test_seed_argument_errors():
    with pytest.raises(ValueError):
        seed_variable(3, 0.0, dim=2, order=2)
    with pytest.raises(ValueError):
        seed_variable(0, 0.0, dim=2, order=5)
    with pytest.raises(ValueError):
        seed_variable(0, 0.0, dim=2, order=0)


def test_partial_order_error():
    x = seed_variable(0, 1.0, dim=1, order=2)
    with pytest.raises(ValueError):
        x.partial((3,))


def test_domain_errors_name_the_operation():
    bad = Jet.constant(-1.0, dim=1, order=2)
    with pytest.raises(JetDomainError, match="log"):
        jets.log(bad)
    with pytest.raises(JetDomainError, match="sqrt"):
        jets.sqrt(bad)
    zero = Jet.constant(0.0, dim=1, order=2)
    with pytest.raises(JetDomainError, match="division"):
        jets.reciprocal(zero)
    one = Jet.constant(1.0, dim=1, order=2)
    with pytest.raises(JetDomainError, match="division"):
        one / zero


def test_table_and_partial_refuse_bad_arguments():
    for dim, order in ((0, 2), (-1, 2), (2, -1), (2, jets.MAX_ORDER + 1)):
        with pytest.raises(ValueError, match="jet dimension|jet order"):
            jet_table(dim, order)
    x = seed_variable(0, 1.0, dim=2, order=2)
    for alpha in ((1,), (1, 0, 0), (-1, 1), (0, -1)):
        with pytest.raises(ValueError, match="bad multi-index"):
            x.partial(alpha)


@pytest.mark.parametrize("batch", [(), (100,), (600,)])
def test_truncating_to_its_own_order_returns_the_jet_and_repr_names_it(batch):
    x = seed_point(np.full(batch + (2,), 0.5), 3)[0]
    assert type(x) is Jet and x.truncated(3) is x
    assert repr(x).startswith("Jet(dim=2, order=3, value=") and "0.5" in repr(x)


def test_mismatched_jets_refused():
    a = Jet.constant(1.0, dim=1, order=2)
    b = Jet.constant(1.0, dim=2, order=2)
    c = Jet.constant(1.0, dim=1, order=3)
    d = Jet.constant(1.0, dim=2, order=1)  # the same table size as `a`
    for op in (lambda: a + b, lambda: a - b, lambda: b - a, lambda: a * c, lambda: c * a,
               lambda: a + d, lambda: a - d, lambda: d * a, lambda: a * d):
        with pytest.raises(ValueError, match="jet mismatch"):
            op()


def test_mismatched_row_form_jets_refused():
    rng = np.random.default_rng(3)
    a = Jet(2, 2, rng.normal(size=(600, jet_table(2, 2).size)))
    b = Jet(2, 3, rng.normal(size=(600, jet_table(2, 3).size)))
    small = Jet(2, 3, rng.normal(size=(100, jet_table(2, 3).size)))
    assert not hasattr(a, "_c") and not hasattr(b, "_c")
    for op in (lambda: a * b, lambda: b * a, lambda: a * small, lambda: small * a):
        with pytest.raises(ValueError, match="jet mismatch"):
            op()


def test_public_constructor_checks_the_coefficient_length():
    size = jet_table(2, 2).size
    for bad in (np.zeros(size - 1), np.zeros((3, size + 1))):
        with pytest.raises(ValueError, match="does not match table size"):
            Jet(2, 2, bad)
    assert Jet(2, 2, np.arange(size)).coeffs.dtype == np.float64


def test_public_constructor_refuses_a_scalar():
    for bad in (5.0, np.float64(5.0), np.zeros(())):
        with pytest.raises(ValueError, match=r"shape \(\) does not match table size 3"):
            Jet(2, 1, bad)


@pytest.mark.parametrize("batch", [(), (1,), (100,), (600,)])
def test_domain_checks_refuse_zero_and_negative_values_and_pass_nan(batch):
    # the last node holds the bad value; at (600,) the jet is in row form
    dim, order = 2, 2
    size = jet_table(dim, order).size
    rng = np.random.default_rng(sum(batch) + 31)
    node = (-1,) * len(batch)

    def with_value(v):
        c = rng.normal(size=batch + (size,))
        c[..., 0] = rng.uniform(0.5, 2.0, size=batch)
        c[node + (0,)] = v
        return Jet(dim, order, c)

    checks = [(jets.log, "log", True), (jets.sqrt, "sqrt", True),
              (jets.reciprocal, "division", False),
              (lambda a: jets.power(a, 1.5), "non-integer exponent", True)]
    for fn, name, refuses_negative in checks:
        for bad in (0.0, -0.0, -1.5):
            a = with_value(bad)
            if bad < 0 and not refuses_negative:
                assert np.isfinite(fn(a).coeffs).all()
                continue
            with pytest.raises(JetDomainError, match=name):
                fn(a)
        got = fn(with_value(np.nan)).value
        assert np.isnan(got[node]) and np.count_nonzero(np.isnan(got)) == 1


@pytest.mark.parametrize("batch", [(), (3,), (100,), (600,)])
def test_a_jet_is_unchanged_after_its_source_array_is_written(batch):
    rng = np.random.default_rng(41)
    size = jet_table(2, 2).size
    source, zeros = rng.normal(size=batch + (size,)), np.zeros(batch + (size,))
    x, z = Jet(2, 2, source), Jet(2, 2, zeros)
    want, square = source.copy(), (x * x).coeffs.copy()
    dense = hasattr(x, "_c")
    if dense:
        assert x._is_finite() and not x._is_zero()  # flags cached before the writes
    source[...] = np.nan
    zeros[...] = 1.0
    assert np.array_equal(x.coeffs, want) and np.array_equal((x * x).coeffs, square)
    if dense:
        assert x._is_finite() and np.isfinite(x.coeffs).all()
    # z is still zero: its product with the finite x is z itself, a mark
    assert not np.count_nonzero(z.coeffs) and z * x is z and isinstance(z, jets._ZeroJet)


def test_internal_results_are_float64_arrays_of_table_size():
    rng = np.random.default_rng(30)
    size = jet_table(2, 3).size
    x = Jet(2, 3, rng.normal(size=(4, size)))
    zero = Jet(2, 3, np.zeros((4, size)))
    results = {
        "add": x + x, "add_int": x + 1, "radd": 2 + x, "sub": x - x, "rsub": 1 - x,
        "neg": -x, "scalar_mul": x * 3, "array_mul": x * np.arange(4),
        "mul": x * x, "zero_mul": zero * x, "constant": Jet.constant(np.arange(4), 2, 3),
        "truncated": x.truncated(1), "derive": x.derive(1), "exp": jets.exp(x),
    }
    for name, jet in results.items():
        t = jet_table(jet.dim, jet.order)
        assert type(jet.coeffs) is np.ndarray and jet.coeffs.dtype == np.float64, name
        assert jet.coeffs.shape == (4, t.size), name


# -- random composite expressions ------------------------------------------


def random_expression(rng, dim, order, point):
    """A domain-safe random composition of the supported elementaries.

    Returns the jet value and a plain-float callable for finite differences.
    """
    coords = seed_point(np.asarray(point), order)

    def leaf():
        i = rng.integers(dim)
        a = rng.uniform(0.4, 1.4)
        return (lambda c: a * c[i], f"{a:.3f}*x{i}")

    unary_ops = [
        (jets.sin, np.sin),
        (jets.cos, np.cos),
        (jets.sinh, np.sinh),
        (jets.cosh, np.cosh),
        (lambda j: jets.exp(j * 0.5), lambda v: np.exp(v * 0.5)),
        (lambda j: jets.log(2.5 + jets.sin(j)), lambda v: np.log(2.5 + np.sin(v))),
        (lambda j: jets.sqrt(1.5 + jets.cos(j)), lambda v: np.sqrt(1.5 + np.cos(v))),
        (lambda j: jets.power(1.2 + jets.sin(j) * 0.5, 1.7),
         lambda v: (1.2 + np.sin(v) * 0.5) ** 1.7),
        (lambda j: 1.0 / (2.0 + jets.sin(j)), lambda v: 1.0 / (2.0 + np.sin(v))),
    ]
    binary_ops = [
        (lambda a, b: a + b, lambda a, b: a + b),
        (lambda a, b: a - b, lambda a, b: a - b),
        (lambda a, b: a * b, lambda a, b: a * b),
        (lambda a, b: a / (2.0 + jets.cos(b)) if isinstance(b, Jet) else a / (2.0 + np.cos(b)),
         None),
    ]

    def build(depth):
        if depth == 0 or rng.random() < 0.3:
            fn, _ = leaf()
            return lambda c: fn(c)
        if rng.random() < 0.6:
            jet_op, val_op = unary_ops[rng.integers(len(unary_ops))]
            sub = build(depth - 1)
            return lambda c: (jet_op(sub(c)) if isinstance(sub(c), Jet) else val_op(sub(c)))
        k = rng.integers(3)
        jet_op, val_op = binary_ops[k]
        left, right = build(depth - 1), build(depth - 1)
        return lambda c: jet_op(left(c), right(c))

    expr = build(3)

    def value_fn(q):
        vals = [float(v) for v in q]
        consts = tuple(Jet.constant(v, dim, 0) for v in vals)
        return float(expr(consts).value)

    return expr(coords), value_fn


def fd_partial(fn, x, alpha, h):
    """Nested central differences for the mixed partial `alpha`."""
    alpha = list(alpha)
    for i, a in enumerate(alpha):
        if a > 0:
            alpha[i] -= 1
            e = np.zeros(len(x))
            e[i] = h
            return (fd_partial(fn, x + e, alpha, h) - fd_partial(fn, x - e, alpha, h)) / (2 * h)
    return fn(x)


def richardson_partial(fn, x, alpha, h):
    return (4.0 * fd_partial(fn, x, alpha, h / 2) - fd_partial(fn, x, alpha, h)) / 3.0


def test_random_compositions_match_finite_differences():
    rng = np.random.default_rng(2718)
    table3 = [a for a in jet_table(2, 3).alphas if 0 < sum(a) <= 3]
    for _ in range(25):
        point = rng.uniform(-0.8, 0.8, size=2)
        jet, value_fn = random_expression(rng, 2, 3, point)
        for alpha in table3:
            want = richardson_partial(value_fn, point, alpha, 1e-3)
            got = float(jet.partial(alpha))
            assert abs(got - want) <= 1e-5 * (1.0 + abs(got)), (alpha, got, want)


def test_leibniz_rule_exact():
    rng = np.random.default_rng(7)
    table = jet_table(2, 3)
    for _ in range(30):
        a = Jet(2, 3, rng.normal(size=table.size))
        b = Jet(2, 3, rng.normal(size=table.size))
        ab = a * b
        for alpha in table.alphas:
            total = 0.0
            for beta in table.alphas:
                if all(bi <= ai for bi, ai in zip(beta, alpha)):
                    gamma = tuple(ai - bi for ai, bi in zip(alpha, beta))
                    coef = math.prod(math.comb(ai, bi) for ai, bi in zip(alpha, beta))
                    total += coef * a.partial(beta) * b.partial(gamma)
            assert abs(ab.partial(alpha) - total) < 1e-13 * (1 + abs(total))


def test_truncation_stability():
    # compute at order K, drop the top layer == compute at order K-1
    rng = np.random.default_rng(11)
    for _ in range(15):
        point = rng.uniform(-0.7, 0.7, size=2)
        for order in (2, 3, 4):
            c_hi = seed_point(point, order)
            c_lo = seed_point(point, order - 1)

            def expr(c):
                return jets.exp(c[0] * 0.3) * jets.sin(c[1] + c[0] * c[0]) + 1.0 / (
                    2.0 + jets.cos(c[0] * c[1])
                )

            hi = expr(c_hi).truncated(order - 1)
            lo = expr(c_lo)
            assert np.max(np.abs(hi.coeffs - lo.coeffs)) < 1e-13


def test_batched_matches_scalar():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.5, 0.5, size=(6, 2))
    batch = seed_point(pts, 3)
    combined = jets.exp(batch[0]) * jets.sin(batch[1]) + batch[0] / (2.0 + batch[1])
    for k, p in enumerate(pts):
        single = seed_point(p, 3)
        want = jets.exp(single[0]) * jets.sin(single[1]) + single[0] / (2.0 + single[1])
        assert np.allclose(combined.coeffs[k], want.coeffs, atol=1e-15)


def test_integer_power_handles_negative_values():
    x = seed_variable(0, -2.0, dim=1, order=3)
    cubed = jets.power(x, 3)
    assert np.allclose(cubed.coeffs, [-8.0, 12.0, -12.0, 6.0])
    assert np.allclose((x ** 2).coeffs, [4.0, -4.0, 2.0, 0.0])


def test_negative_integer_power_is_the_reciprocal_of_the_positive_one():
    a = 1.5 + seed_point(np.array([[0.3, -0.2], [0.7, 0.4]]), 3)[0] * 0.5
    for k in (-2, -2.0, np.int64(-2)):
        got = jets.power(a, k)
        assert got.coeffs.tobytes() == jets.reciprocal(jets.power(a, 2)).coeffs.tobytes()


def test_real_power_of_a_non_positive_value_is_a_domain_error():
    x = seed_variable(0, np.array([0.5, 0.0]), dim=1, order=2)
    with pytest.raises(JetDomainError, match="non-integer exponent 1.5 of non-positive value"):
        jets.power(x, 1.5)


@pytest.mark.parametrize("batch", [(), (100,), (600,)])
@pytest.mark.parametrize("dim,order", [(2, 3), (3, 4)])
def test_integer_power_starts_from_its_base(dim, order, batch):
    # a ** k is k - 1 products, equal to the chain 1 * a * ... * a that starts from a constant
    rng = np.random.default_rng(10 * dim + order)
    a = Jet(dim, order, rng.normal(size=batch + (jet_table(dim, order).size,)))
    for k in range(5):
        want = Jet.constant(np.ones(batch), dim, order)
        for _ in range(k):
            want = want * a
        got, products = counting_products(jets.power, a, k)
        assert np.array_equal(got.coeffs, want.coeffs)
        assert products == max(k - 1, 0)


@given(st.floats(min_value=-1.2, max_value=1.2), st.floats(min_value=-1.2, max_value=1.2))
@settings(max_examples=60, deadline=None)
def test_exp_log_inverse_property(v, w):
    a = Jet(1, 3, np.array([v, w, 0.4 * v, -0.2]))
    back = jets.log(jets.exp(a))
    assert np.max(np.abs(back.coeffs - a.coeffs)) < 1e-11


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_product_commutes_and_associates(seed):
    rng = np.random.default_rng(seed)
    size = jet_table(2, 3).size
    a = Jet(2, 3, rng.normal(size=size))
    b = Jet(2, 3, rng.normal(size=size))
    c = Jet(2, 3, rng.normal(size=size))
    assert np.allclose((a * b).coeffs, (b * a).coeffs, atol=1e-13)
    assert np.allclose(((a * b) * c).coeffs, (a * (b * c)).coeffs, atol=2e-11)


# -- large-batch (row form) product ------------------------------------------


def gather(a: np.ndarray, b: np.ndarray, t) -> np.ndarray:
    """`jets._mul_gather` of batch-major ``(..., size)`` coefficients, passed to it
    coefficient-major as a dense jet stores them; the product comes back batch-major."""
    a, b = (np.ascontiguousarray(np.moveaxis(x, -1, 0)) for x in (a, b))
    return np.moveaxis(jets._mul_gather(a, b, t), 0, -1)


def assert_matches_gather(a: Jet, b: Jet, got: np.ndarray) -> None:
    """`got` equals the gather product (`==`), bit for bit in every output that skips no term."""
    want = gather(a.coeffs, b.coeffs, jet_table(a.dim, a.order))
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    kept = fully_kept(a, b)
    assert got[..., kept].tobytes() == want[..., kept].tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_coeff_major_product_matches_gather(dim, order):
    rng = np.random.default_rng(100 * dim + order)
    size = jet_table(dim, order).size
    for batch in (jets._BIG_BATCH - 1, jets._BIG_BATCH, jets._BIG_BATCH + 1):
        a = Jet(dim, order, rng.normal(size=(batch, size)))
        b = Jet(dim, order, rng.normal(size=(batch, size)))
        assert_matches_gather(a, b, (a * b).coeffs)


def test_coeff_major_product_broadcasts_to_c_contiguous_result():
    rng = np.random.default_rng(5)
    size = jet_table(3, 3).size
    const = Jet(3, 3, rng.normal(size=size))
    row = Jet(3, 3, rng.normal(size=(600, size)))
    grid = Jet(3, 3, rng.normal(size=(2, 600, size)))
    for a, b in ((const, row), (row, const), (grid, row), (grid, grid)):
        ab = a * b
        assert ab.coeffs.shape == np.broadcast_shapes(a.coeffs.shape, b.coeffs.shape)
        assert ab.coeffs.transpose(-1, *range(ab.coeffs.ndim - 1)).flags.c_contiguous
        assert_matches_gather(a, b, ab.coeffs)


def test_coeff_major_product_propagates_nonfinite_like_gather():
    rng = np.random.default_rng(6)
    t = jet_table(2, 3)
    a = rng.normal(size=(jets._BIG_BATCH, t.size))
    b = rng.normal(size=(jets._BIG_BATCH, t.size))
    a[3, 0] = np.nan
    a[7, 2] = np.inf
    a[11, 5] = -np.inf
    a[13, 1] = np.inf
    b[13, 0] = 0.0
    with np.errstate(invalid="ignore"):
        big = (Jet(2, 3, a) * Jet(2, 3, b)).coeffs
        want = gather(a, b, t)
    for mask in (np.isnan, np.isposinf, np.isneginf):
        assert np.array_equal(mask(big), mask(want))
    assert np.isnan(big).any() and np.isinf(big).any()
    finite = np.isfinite(want)
    assert np.allclose(big[finite], want[finite], rtol=0.0, atol=1e-13)


def test_coeff_major_product_is_independent_of_batch_size():
    # a node's product is the same bits in a batch of 600 or of 1200, so
    # quadrature integrals do not depend on how the grid is chunked
    rng = np.random.default_rng(9)
    size = jet_table(3, 4).size
    a = Jet(3, 4, rng.normal(size=(1200, size)))
    b = Jet(3, 4, rng.normal(size=(1200, size)))
    whole = (a * b).coeffs
    for half in (slice(0, 600), slice(600, 1200)):
        part = Jet(3, 4, a.coeffs[half]) * Jet(3, 4, b.coeffs[half])
        assert np.array_equal(part.coeffs, whole[half])


# -- row skip, row storage and the dense export -------------------------------


def coeff_rows(c: np.ndarray) -> np.ndarray:
    """The (size, ...) rows behind coefficients (..., size)."""
    return c.transpose(-1, *range(c.ndim - 1))


def full_sum(a: np.ndarray, b: np.ndarray, t) -> np.ndarray:
    """Dense reference for every product: every table triple, each output summed in table order.

    The gather product equals this bit for bit (but for the sign of a NaN).
    The row product skips only terms that are ±0 at every node, so it equals
    this (`==`, NaN where it is NaN); where it skips no term of an output, it
    equals it bit for bit.
    """
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    last = -1
    for k, i, j, factor in t.mul_triples:
        term = a[..., i] * b[..., j]
        if factor != 1.0:
            term = term * factor
        if k == last:
            out[..., k] += term
        else:
            out[..., k] = term
        last = k
    return out


@pytest.mark.parametrize("dim,order", [(1, 4), (2, 4), (3, 4), (5, 2)])
def test_row_skip_equals_the_full_sum(dim, order):
    rng = np.random.default_rng(10 * dim + order)
    t = jet_table(dim, order)
    top = t.grade_sizes[order - 1]
    a = rng.normal(size=(jets._BIG_BATCH, t.size))
    b = rng.normal(size=(jets._BIG_BATCH, t.size))
    a[:, 1:] = 0.0
    a[:, -1] = -0.0
    b[:, top:] = 0.0
    b[:, 1] = 0.0
    got = (Jet(dim, order, a) * Jet(dim, order, b)).coeffs
    assert not got[:, top:].any()  # output rows that keep no triple
    assert np.array_equal(got, full_sum(a, b, t))
    assert_matches_gather(Jet(dim, order, a), Jet(dim, order, b), got)


def test_zero_row_against_nonfinite_row_is_not_skipped():
    rng = np.random.default_rng(12)
    t = jet_table(2, 3)
    a = rng.normal(size=(jets._BIG_BATCH, t.size))
    b = rng.normal(size=(jets._BIG_BATCH, t.size))
    a[:, [0, 2, 5]] = 0.0
    b[:, [1, 3]] = 0.0
    b[5, 0] = np.nan
    b[9, 4] = np.inf
    a[11, 1] = -np.inf
    with np.errstate(invalid="ignore"):
        got = (Jet(2, 3, a) * Jet(2, 3, b)).coeffs
        want = gather(a, b, t)
        assert np.array_equal(got, full_sum(a, b, t), equal_nan=True)
    for mask in (np.isnan, np.isposinf, np.isneginf):
        assert np.array_equal(mask(got), mask(want))
    assert np.isnan(got).any() and np.isinf(got).any()


def test_row_skip_with_a_batchless_constant():
    rng = np.random.default_rng(13)
    t = jet_table(3, 4)
    row = Jet(3, 4, rng.normal(size=(600, t.size)))
    for const in (Jet.constant(2.5, 3, 4), Jet(3, 4, rng.normal(size=t.size))):
        for a, b in ((const, row), (row, const)):
            got = (a * b).coeffs
            assert np.array_equal(got, full_sum(a.coeffs, b.coeffs, t))
            assert_matches_gather(a, b, got)


def test_dense_operands_whose_broadcast_batch_is_large_take_the_row_product(monkeypatch):
    rng = np.random.default_rng(14)
    t = jet_table(2, 3)
    ca, cb = rng.normal(size=(20, 1, t.size)), rng.normal(size=(1, 30, t.size))
    a, b = Jet(2, 3, ca), Jet(2, 3, cb)
    assert hasattr(a, "_c") and hasattr(b, "_c")  # 20 and 30 nodes, each below `_BIG_BATCH`
    calls = []
    row_mul = jets._row_mul
    monkeypatch.setattr(jets, "_row_mul", lambda x, y: calls.append(1) or row_mul(x, y))
    for got, want in ((a * b, full_sum(ca, cb, t)), (b * a, full_sum(cb, ca, t))):
        assert not hasattr(got, "_c") and got.batch_shape == (20, 30)
        assert got.coeffs.tobytes() == want.tobytes()
    assert len(calls) == 2


def test_an_array_with_more_axes_than_the_batch_lifts_the_jet():
    rng = np.random.default_rng(13)
    c = rng.normal(size=(3, jet_table(2, 2).size))
    x, arr = Jet(2, 2, c), rng.normal(size=(2, 3))
    for got in (arr * x, x * arr):
        assert got.batch_shape == (2, 3)
        assert got.coeffs.tobytes() == (c[None] * arr[..., None]).tobytes()


def test_coeff_major_product_feeds_the_next_product():
    rng = np.random.default_rng(14)
    t = jet_table(3, 3)
    a, b, c = (Jet(3, 3, rng.normal(size=(600, t.size))) for _ in range(3))
    ab = a * b
    assert coeff_rows(ab.coeffs).flags.c_contiguous
    as_c = Jet(3, 3, np.ascontiguousarray(ab.coeffs))
    got = (ab * c).coeffs
    assert np.array_equal(got, (as_c * c).coeffs)
    assert_matches_gather(ab, c, got)


def test_derive_truncated_and_value_of_a_coeff_major_jet():
    rng = np.random.default_rng(15)
    t = jet_table(2, 4)
    ab = Jet(2, 4, rng.normal(size=(600, t.size))) * Jet(2, 4, rng.normal(size=(600, t.size)))
    as_c = Jet(2, 4, np.ascontiguousarray(ab.coeffs))
    for axis in (0, 1):
        d = ab.derive(axis).coeffs
        assert coeff_rows(d).flags.c_contiguous
        assert np.array_equal(d, as_c.derive(axis).coeffs)
    for order in (0, 2, 3):
        assert np.array_equal(ab.truncated(order).coeffs, as_c.truncated(order).coeffs)
    assert np.array_equal(ab.value, as_c.value)


def test_constant_layout_follows_the_batch():
    big = Jet.constant(np.full((2, jets._BIG_BATCH), 3.0), 2, 3)
    small = Jet.constant(np.full(jets._BIG_BATCH - 1, 3.0), 2, 3)
    assert coeff_rows(big.coeffs).flags.c_contiguous
    # below `_BIG_BATCH` the coefficients are one coefficient-major array
    assert small._c.shape == (jet_table(2, 3).size, jets._BIG_BATCH - 1)
    assert small._c.flags.c_contiguous and coeff_rows(small.coeffs).flags.c_contiguous
    for j in (big, small):
        assert np.all(j.value == 3.0) and not j.coeffs[..., 1:].any()


def test_row_flags_are_computed_once_per_jet(monkeypatch):
    # an all-zero row is stored as None; the finiteness of the other operand's
    # stored rows is scanned when a None row first meets them, then cached in `_finite`
    rng = np.random.default_rng(16)
    size = jet_table(2, 2).size
    c = rng.normal(size=(600, size))
    c[:, 3] = 0.0
    a = Jet(2, 2, c)
    b = Jet(2, 2, rng.normal(size=(600, size)))
    assert [r is None for r in a._rows] == [i == 3 for i in range(size)]
    assert a._finite is None and b._finite is None
    scanned = []
    isfinite = np.isfinite

    def spy(r, *args, **kwargs):
        scanned.append(r)
        return isfinite(r, *args, **kwargs)

    monkeypatch.setattr(jets.np, "isfinite", spy)
    a * b
    assert b._finite is True
    assert len(scanned) == size and all(r is row for r, row in zip(scanned, b._rows))
    b * a
    assert len(scanned) == size  # one scan per jet
    assert a._finite is None  # b stores every row, so no term needs a's finiteness


@pytest.mark.parametrize("special", [None, -0.0, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("batch", [(jets._BIG_BATCH,), (600,), (2, 300)])
def test_large_batch_constant_is_built_with_its_row_flags(special, batch):
    # from `_BIG_BATCH` on a constant stores one row, a copy of its value, and None for the rest
    rng = np.random.default_rng(17)
    value = rng.normal(size=batch)
    if special is not None:
        value.reshape(-1)[rng.integers(value.size, size=3)] = special
    one_entry = np.zeros(batch)
    one_entry.reshape(-1)[-1] = 1.0 if special is None else special
    for v in (value, one_entry):
        c = Jet.constant(v, 3, 3)
        assert c.batch_shape == batch and all(r is None for r in c._rows[1:])
        if np.count_nonzero(v):
            assert type(c) is Jet and c._rows[0] is not v and c._rows[0].tobytes() == v.tobytes()
        else:  # ±0 at every node (one_entry with -0): a mark, which stores no row
            assert isinstance(c, jets._ZeroJet) and c._rows[0] is None
        assert_same_values(c.coeffs[..., 0], v)
        assert not c.coeffs[..., 1:].any()
    # below `_BIG_BATCH` a constant is one dense array
    small = Jet.constant(value.reshape(-1)[:jets._BIG_BATCH - 1], 3, 3)
    assert not hasattr(small, "_rows") and small.coeffs.shape == (jets._BIG_BATCH - 1, 20)


# -- large-batch zero marks -----------------------------------------------------


def big_coeffs(rng, dim: int, order: int, batch: int = 600, special: bool = False) -> np.ndarray:
    """Random ``(batch, size)`` coefficients, with -0, NaN and ±inf entries if `special`."""
    rows = rng.normal(size=(jet_table(dim, order).size, batch))
    if special:
        rows = with_special_values(rows, rng)
    return rows.T


def big_jet(rng, dim: int, order: int, batch: int = 600, special: bool = False) -> Jet:
    """A row-form jet that stores every row (`big_coeffs`)."""
    return Jet(dim, order, big_coeffs(rng, dim, order, batch, special))


def marked_zeros(rng, dim: int, order: int, batch: int = 600) -> list:
    """Marked zero jets: a constant, a -0 constant, a product zero by its flags, and its negation."""
    zero = Jet.constant(np.zeros(batch), dim, order)
    negative = Jet.constant(np.full(batch, -0.0), dim, order)
    product = zero * big_jet(rng, dim, order, batch)
    return [zero, negative, product, -product]


def assert_same_values(got: np.ndarray, want: np.ndarray) -> None:
    """`==` at every entry (so only the sign of a zero may differ), with equal NaN and ±inf masks."""
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    for mask in (np.isnan, np.isposinf, np.isneginf):
        assert np.array_equal(mask(got), mask(want))


def test_large_batch_zero_jets_are_marked():
    rng = np.random.default_rng(30)
    zeros = marked_zeros(rng, 3, 3)
    for z in zeros + [zeros[0].truncated(2), zeros[2].derive(1)]:
        assert isinstance(z, jets._ZeroJet)
        assert z._zero and z._finite and not z.coeffs.any()
        assert z.batch_shape == (600,) and all(r is None for r in z._rows)
    assert isinstance(Jet.constant(np.zeros(jets._BIG_BATCH - 1), 3, 3), jets._ZeroJet)
    assert type(Jet.constant(np.r_[np.zeros(599), np.nan], 3, 3)) is Jet
    assert type(Jet.constant(np.r_[np.zeros(599), 1e-300], 3, 3)) is Jet


@pytest.mark.parametrize("dim,order", [(1, 4), (2, 3), (3, 4)])
def test_sums_with_a_marked_zero_equal_numpy(dim, order):
    rng = np.random.default_rng(31 + dim)
    x = big_jet(rng, dim, order, special=True)
    with np.errstate(invalid="ignore"):
        for z in marked_zeros(rng, dim, order):
            cases = (
                (x + z, x.coeffs + z.coeffs), (z + x, z.coeffs + x.coeffs),
                (x - z, x.coeffs - z.coeffs), (z - x, z.coeffs - x.coeffs),
                (-z, -z.coeffs), (z + z, z.coeffs + z.coeffs), (z - z, z.coeffs - z.coeffs),
            )
            for got, want in cases:
                assert_same_values(got.coeffs, want)
                assert coeff_rows(got.coeffs).flags.c_contiguous
            assert x + z is x and z + x is x and x - z is x
            assert isinstance(-z, jets._ZeroJet) and isinstance(z + z, jets._ZeroJet)


def test_marked_zero_against_a_broadcast_operand_runs_the_full_sum():
    rng = np.random.default_rng(32)
    size = jet_table(2, 3).size
    z = Jet.constant(np.zeros(600), 2, 3)
    for other in (Jet(2, 3, rng.normal(size=size)), 1.5, Jet(2, 3, rng.normal(size=(2, 600, size)))):
        oc = other.coeffs if isinstance(other, Jet) else Jet.constant(1.5, 2, 3).coeffs
        for got, want in ((z + other, z.coeffs + oc), (other + z, oc + z.coeffs),
                          (z - other, z.coeffs - oc), (other - z, oc - z.coeffs)):
            assert type(got) is Jet
            assert_same_values(got.coeffs, want)


def row_multiplies(monkeypatch) -> list:
    """Records the output shape of every `np.multiply` call, as the row product makes one per term."""
    calls = []
    multiply = np.multiply

    def spy(x, y, out=None):
        calls.append(np.shape(out))
        return multiply(x, y, out=out)

    monkeypatch.setattr(jets.np, "multiply", spy)
    return calls


def test_product_zero_by_its_row_flags_is_marked_and_skips_the_kernel(monkeypatch):
    rng = np.random.default_rng(33)
    dim, order = 2, 4
    t = jet_table(dim, order)
    degree = np.array([sum(a) for a in t.alphas])
    ca, cb = big_coeffs(rng, dim, order), big_coeffs(rng, dim, order)
    ca[:, degree < 3] = 0.0  # every term of degree >= 3 x degree >= 2 is truncated
    cb[:, degree < 2] = 0.0
    a, b = Jet(dim, order, ca), Jet(dim, order, cb)
    want = full_sum(ca, cb, t)
    calls = row_multiplies(monkeypatch)
    for got in (a * b, b * a):
        assert isinstance(got, jets._ZeroJet) and got._zero and got._finite
        assert np.array_equal(got.coeffs, want)
        assert all(r is None for r in got._rows)
    assert calls == []
    # a product with a term left multiplies each stored row of `a` by the constant's, and is not marked
    assert type(a * Jet.constant(np.ones(600), dim, order)) is Jet
    assert calls == [(600,)] * int(np.count_nonzero(degree >= 3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_marked_zero_times_nonfinite_runs_the_full_kernel(bad, monkeypatch):
    rng = np.random.default_rng(34)
    t = jet_table(2, 3)
    c = big_coeffs(rng, 2, 3)
    c[7, 4] = bad
    other = Jet(2, 3, c)
    zero = Jet.constant(np.zeros(600), 2, 3)
    calls = row_multiplies(monkeypatch)
    with np.errstate(invalid="ignore"):
        for got, want in ((zero * other, full_sum(zero.coeffs, c, t)),
                          (other * zero, full_sum(c, zero.coeffs, t))):
            assert type(got) is Jet
            assert np.isnan(got.coeffs[7]).any()  # 0 * NaN and 0 * ±inf
            assert_same_values(got.coeffs, want)
    # each product multiplies the mark's zeros by the one non-finite row, and by nothing else
    assert len(calls) == 2 * sum(1 for _, _, j, _ in t.mul_triples if j == 4)


def test_large_batch_zero_product_returns_its_marked_operand(monkeypatch):
    rng = np.random.default_rng(36)
    dim, order = 3, 3
    size = jet_table(dim, order).size
    finite = big_jet(rng, dim, order)
    calls = row_multiplies(monkeypatch)
    for zero in marked_zeros(rng, dim, order):
        assert zero * finite is zero and finite * zero is zero
        assert Jet(dim, order, rng.normal(size=size)) * zero is zero
    # a broadcast mark gets a fresh mark of the product's shape
    for zero in (Jet.constant(0.0, dim, order), Jet.constant(np.zeros((1, 600)), dim, order)):
        wide = Jet(dim, order, rng.normal(size=(2, 600, size)))
        for got in (zero * wide, wide * zero):
            assert isinstance(got, jets._ZeroJet) and got is not zero
            assert got.coeffs.shape == (2, 600, size) and not got.coeffs.any()
            assert got.batch_shape == (2, 600) and all(r is None for r in got._rows)
    assert calls == []


def test_small_batch_marks_return_an_operand_or_a_mark():
    rng = np.random.default_rng(35)
    dim, order = 2, 3
    t = jet_table(dim, order)
    finite = Jet(dim, order, rng.normal(size=(100, t.size)))
    x = Jet(dim, order, with_special_values(rng.normal(size=(100, t.size)), rng))
    found = Jet(dim, order, np.zeros((100, t.size)))
    for zero in (Jet.constant(np.zeros(100), dim, order), found * finite):
        assert isinstance(zero, jets._ZeroJet) and zero._zero and zero._finite
        with np.errstate(invalid="ignore"):
            cases = (
                (x + zero, x.coeffs + zero.coeffs), (zero + x, zero.coeffs + x.coeffs),
                (x - zero, x.coeffs - zero.coeffs), (zero - x, zero.coeffs - x.coeffs),
                (-zero, -zero.coeffs), (zero + zero, zero.coeffs + zero.coeffs),
                (zero * finite, gather(zero.coeffs, finite.coeffs, t)),
                (finite * zero, gather(finite.coeffs, zero.coeffs, t)),
                (zero * x, gather(zero.coeffs, x.coeffs, t)),
                (x * zero, gather(x.coeffs, zero.coeffs, t)),
                (zero * 2.5, zero.coeffs * 2.5), (2.5 * zero, zero.coeffs * 2.5),
                (zero * np.nan, zero.coeffs * np.nan),
                (zero.derive(1), zero.coeffs[..., t.derive_src[1]]),
                (zero.truncated(1), zero.coeffs[..., :t.grade_sizes[1]]),
            )
        for got, want in cases:
            assert_same_values(got.coeffs, want)
        assert x + zero is x and zero + x is x and x - zero is x
        assert zero * finite is zero and finite * zero is zero and zero * 2.5 is zero
        for got in (-zero, zero + zero, 2.5 * zero, zero / 4.0, zero.derive(1), zero.truncated(1)):
            assert isinstance(got, jets._ZeroJet)
        assert np.shares_memory(zero.derive(1).coeffs, zero.coeffs)
        # zero times NaN or ±inf runs the full product and is not marked
        with np.errstate(invalid="ignore"):
            for got in (zero * x, x * zero, zero * np.nan):
                assert type(got) is Jet and np.isnan(got.coeffs).any()
    assert found._zero and isinstance(found, jets._ZeroJet)
    # a flag that lies on an unmarked jet shows whether a sum reads it
    liar = Jet(dim, order, rng.normal(size=(100, t.size)))
    liar._zero = liar._finite = True
    for a, b in ((finite, liar), (liar, finite)):
        for got, want in ((a + b, a.coeffs + b.coeffs), (a - b, a.coeffs - b.coeffs), (-a, -a.coeffs)):
            assert type(got) is Jet and got is not a and got is not b
            assert got._zero is None and not hasattr(got, "_flags")
            assert got.coeffs.tobytes() == want.tobytes()


MARK_BATCHES = [(), (1,), (100,), (jets._BIG_BATCH - 1,), (jets._BIG_BATCH,), (600,)]
SPECIALS = [0.0, -0.0, np.nan, np.inf, -np.inf]


@given(
    batch=st.sampled_from(MARK_BATCHES),
    dim_order=st.sampled_from([(1, 4), (2, 3), (3, 2)]),
    source=st.sampled_from(["constant", "negative", "found", "product", "batchless"]),
    specials=st.lists(st.sampled_from(SPECIALS), max_size=6),
    scalar=st.sampled_from([2.5, -0.5] + SPECIALS),
    seed=st.integers(0, 2**16),
)
@settings(derandomize=True, max_examples=80, deadline=None)
def test_every_operation_with_a_mark_equals_the_unmarked_reference(
        batch, dim_order, source, specials, scalar, seed):
    dim, order = dim_order
    t = jet_table(dim, order)
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=batch + (t.size,))
    dense[..., rng.random(t.size) < 0.3] = 0.0  # rows zero at every node, as in a chart's jets
    flat = dense.reshape(-1)
    for special in specials:
        flat[rng.integers(flat.size)] = special
    x = Jet(dim, order, dense)
    finite = Jet(dim, order, rng.normal(size=batch + (t.size,)))
    batchless = Jet(dim, order, rng.normal(size=t.size))
    zero_batch = () if source == "batchless" else batch
    if source == "negative":
        zero = Jet.constant(np.full(zero_batch, -0.0), dim, order)
    elif source == "found":
        zero = Jet(dim, order, np.zeros(zero_batch + (t.size,)))
        assert zero._is_zero()
    elif source == "product":
        zero = Jet.constant(np.zeros(zero_batch), dim, order) * finite
    else:
        zero = Jet.constant(np.zeros(zero_batch), dim, order)
    assert isinstance(zero, jets._ZeroJet)
    z, xc = zero.coeffs.copy(), x.coeffs.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        cases = [
            (x + zero, xc + z), (zero + x, z + xc), (x - zero, xc - z), (zero - x, z - xc),
            (-zero, -z), (zero + zero, z + z), (zero - zero, z - z),
            (zero * x, full_sum(z, xc, t)), (x * zero, full_sum(xc, z, t)),
            (zero * finite, full_sum(z, finite.coeffs, t)),
            (zero * zero, full_sum(z, z, t)),
            (zero + batchless, z + batchless.coeffs), (batchless - zero, batchless.coeffs - z),
            (batchless * zero, full_sum(batchless.coeffs, z, t)),
            (zero * scalar, z * scalar), (scalar * zero, z * scalar),
            (zero.truncated(order - 1), z[..., :t.grade_sizes[order - 1]]),
        ] + [(zero.derive(axis), z[..., src]) for axis, src in enumerate(t.derive_src)]
        if scalar:
            cases.append((zero / scalar, z * (1.0 / scalar)))
    for got, want in cases:
        assert_same_values(got.coeffs, want)
        if isinstance(got, jets._ZeroJet):
            assert not np.count_nonzero(got.coeffs) and got._zero and got._finite
    # zero times NaN or ±inf is NaN, and no operation wrote into an operand
    if not np.isfinite(xc).all():
        assert np.isnan(cases[7][0].coeffs).any() and np.isnan(cases[8][0].coeffs).any()
    assert np.array_equal(x.coeffs, xc, equal_nan=True) and not np.count_nonzero(zero.coeffs)
    # an operand is marked only if it is zero
    assert isinstance(x, jets._ZeroJet) == (not np.count_nonzero(xc))


@pytest.mark.parametrize("source", ["constant", "found", "product"])
@pytest.mark.parametrize("batch", [(), (100,), (600,)])
def test_a_mark_builds_each_lower_order_mark_once(batch, source):
    dim, order = 3, 4
    size = jet_table(dim, order).size
    zero = Jet.constant(np.zeros(batch), dim, order)
    if source == "found":
        zero = Jet(dim, order, np.zeros(batch + (size,)))
        assert zero._is_zero()
    elif source == "product":  # a fresh mark where the batchless zero broadcasts
        zero = Jet.constant(0.0, dim, order) * Jet(dim, order, np.ones(batch + (size,)))
    assert isinstance(zero, jets._ZeroJet)
    dense = hasattr(zero, "_c")
    assert dense == (batch != (600,))
    lower = {k: zero.truncated(k) for k in range(order)}
    for k, mark in lower.items():
        assert isinstance(mark, jets._ZeroJet) and mark._zero and mark._finite
        assert (mark.dim, mark.order, mark.batch_shape) == (dim, k, batch)
        assert hasattr(mark, "_c") == dense and not np.count_nonzero(mark.coeffs)
        assert mark.coeffs.shape == batch + (jet_table(dim, k).size,)
        assert zero.truncated(k) is mark
    for axis in range(dim):
        assert zero.derive(axis) is zero.derive(axis) is lower[order - 1]
    assert zero.truncated(order) is zero
    # the checks still run before a mark is reused, and a refused call keeps nothing
    for bad in (-1, order + 1):
        with pytest.raises(ValueError):
            zero.truncated(bad)
    for bad in (-1, dim):
        with pytest.raises(ValueError):
            zero.derive(bad)
    with pytest.raises(ValueError):
        lower[0].derive(0)
    assert sorted(zero._lower) == list(range(order))


def assert_flags_unset_or_marked(j: Jet) -> None:
    """A fresh jet's `_finite` is None, and its `_zero` None, or False in row form; a mark's are both True."""
    if isinstance(j, jets._ZeroJet):
        assert j._zero is True and j._finite is True
    else:
        assert j._zero is (None if hasattr(j, "_c") else False) and j._finite is None


@pytest.mark.parametrize("batch", [(), (1,), (100,), (600,)])
def test_every_way_to_build_a_jet_leaves_its_flags_unset_or_marked(batch):
    dim, order = 2, 3
    size = jet_table(dim, order).size
    rng = np.random.default_rng(sum(batch) + 41)

    def fresh():
        return Jet(dim, order, rng.normal(size=batch + (size,)))

    xs = jets.coordinate_values(rng.normal(size=batch + (dim,)))
    zero = Jet.constant(np.zeros(batch), dim, order)
    # each is built from operands not used before, whose flags no product has set
    makers = [
        fresh, lambda: Jet(dim, order, np.zeros(batch + (size,))),
        lambda: Jet.constant(rng.normal(size=batch), dim, order),
        lambda: Jet.constant(np.zeros(batch), dim, order),
        lambda: jets.seed_coordinates(xs, order)[1], lambda: jets.seed_coordinates(xs, 0)[0],
        lambda: fresh() + fresh(), lambda: fresh() - fresh(), lambda: fresh() * fresh(),
        lambda: 2.5 * fresh(), lambda: fresh() * rng.normal(size=batch), lambda: fresh() / 4.0,
        lambda: fresh().derive(1), lambda: fresh().truncated(1), lambda: -fresh(),
        lambda: zero * fresh(), lambda: zero.derive(0), lambda: zero.truncated(1), lambda: -zero,
    ]
    built = [make() for make in makers]
    for j in built:
        assert_flags_unset_or_marked(j)
    assert any(isinstance(j, jets._ZeroJet) for j in built)
    # computed flags are Python bools
    j = fresh()
    if hasattr(j, "_c"):
        assert j._is_zero() is False and j._is_finite() is True
        assert j._zero is False and j._finite is True


@pytest.mark.parametrize("shape", [(600,), (2, 600), (), (1,), (100,)])
def test_seed_at_the_origin_of_a_large_batch_is_not_marked(shape):
    x, y = seed_point(np.zeros(shape + (2,)), 3)
    for j in (x, y):
        assert type(j) is Jet and j._zero is (None if hasattr(j, "_c") else False)
    assert np.all((x * y).partial((1, 1)) == 1.0)


# -- the zero rule, before either kernel ---------------------------------------


def kernel_calls(monkeypatch) -> list:
    """Records the name of each call of `_row_mul` or `_mul_gather`."""
    calls = []
    for name in ("_row_mul", "_mul_gather"):
        kernel = getattr(jets, name)
        monkeypatch.setattr(jets, name,
                            lambda *args, _kernel=kernel, _name=name: calls.append(_name) or _kernel(*args))
    return calls


@pytest.mark.parametrize("batch", [(1,), (100,), (600,), (2, 32, 64)])
def test_a_zero_times_a_finite_jet_returns_before_either_kernel(batch, monkeypatch):
    # (2, 32, 64) is a quadrature tensor block, whose seeds store short rows
    rng = np.random.default_rng(51 + len(batch))
    dim, order = 3, 3
    size = jet_table(dim, order).size
    finite = Jet(dim, order, rng.normal(size=batch + (size,)))
    seed = seed_point(rng.normal(size=batch + (dim,)), order)[1]
    calls = kernel_calls(monkeypatch)
    for zero in (Jet.constant(np.zeros(batch), dim, order),
                 Jet(dim, order, np.zeros(batch + (size,)))):  # a mark, or a dense jet found zero
        for x in (finite, seed):
            assert zero * x is zero and x * zero is zero
        assert isinstance(zero, jets._ZeroJet)
    assert calls == []
    finite * seed  # a product with a term left reaches its kernel
    assert calls == ["_row_mul" if math.prod(batch) >= jets._BIG_BATCH else "_mul_gather"]


@pytest.mark.parametrize("batch", [(100,), (jets._BIG_BATCH - 1,), (jets._BIG_BATCH,), (2, 600)])
def test_a_broadcast_zero_times_a_finite_jet_is_a_fresh_mark_of_the_product_batch(batch, monkeypatch):
    rng = np.random.default_rng(52)
    dim, order = 2, 3
    size = jet_table(dim, order).size
    finite = Jet(dim, order, rng.normal(size=batch + (size,)))
    zeros = [Jet.constant(0.0, dim, order), Jet.constant(np.zeros((1,) * len(batch)), dim, order)]
    if len(batch) > 1:
        zeros.append(Jet.constant(np.zeros((1,) + batch[1:]), dim, order))  # a row-form mark
    calls = kernel_calls(monkeypatch)
    for zero in zeros:
        assert isinstance(zero, jets._ZeroJet) and zero.batch_shape != batch
        for got in (zero * finite, finite * zero):
            assert isinstance(got, jets._ZeroJet) and got is not zero
            assert got.batch_shape == batch
            assert hasattr(got, "_c") == (math.prod(batch) < jets._BIG_BATCH)
            assert got.coeffs.shape == batch + (size,) and not got.coeffs.any()
    assert calls == []


# -- small-batch zero-operand short-circuit -----------------------------------


def checked_product(a: Jet, b: Jet) -> Jet:
    """`a * b` equals the gather product (==, with equal NaN and ±inf masks); returns it."""
    with np.errstate(invalid="ignore"):
        product = a * b
        want = gather(a.coeffs, b.coeffs, jet_table(a.dim, a.order))
    got = product.coeffs
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    for mask in (np.isnan, np.isposinf, np.isneginf):
        assert np.array_equal(mask(got), mask(want))
    return product


@pytest.mark.parametrize("batch", [(), (1,), (100,), (jets._BIG_BATCH - 1,)])
@pytest.mark.parametrize("dim,order", [(1, 4), (2, 3), (3, 4)])
def test_zero_operand_product_equals_the_gather(batch, dim, order):
    rng = np.random.default_rng(sum(batch) + 10 * dim + order)
    size = jet_table(dim, order).size
    dense = Jet(dim, order, rng.normal(size=batch + (size,)))
    negative_zeros = np.zeros(batch + (size,))
    negative_zeros[..., ::2] = -0.0
    for zero in (Jet(dim, order, np.zeros(batch + (size,))),
                 Jet(dim, order, negative_zeros),
                 Jet.constant(0.0, dim, order)):
        for a, b in ((zero, dense), (dense, zero), (zero, zero)):
            assert checked_product(a, b)._is_zero()


def test_zero_operand_broadcasts_a_batchless_constant():
    rng = np.random.default_rng(21)
    size = jet_table(3, 3).size
    row = Jet(3, 3, rng.normal(size=(100, size)))
    zero_row = Jet(3, 3, np.zeros((100, size)))
    for const in (Jet.constant(0.0, 3, 3), Jet(3, 3, rng.normal(size=size))):
        for a, b in ((const, zero_row), (zero_row, const), (const, row), (row, const)):
            assert (a * b).coeffs.shape == (100, size)
            checked_product(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("batch", [(1,), (100,)])
def test_zero_operand_against_nonfinite_runs_the_full_product(bad, batch):
    rng = np.random.default_rng(22)
    size = jet_table(2, 3).size
    c = rng.normal(size=batch + (size,))
    c[(0,) * len(batch) + (4,)] = bad
    other = Jet(2, 3, c)
    zero = Jet(2, 3, np.zeros(batch + (size,)))
    # the second round reads the cached finiteness flag
    for a, b in ((zero, other), (other, zero)) * 2:
        assert np.isnan(checked_product(a, b).coeffs).any()  # 0 * ±inf and 0 * NaN
    assert other._finite is False


def test_zero_times_finite_skips_the_gather(monkeypatch):
    calls = []
    gather = jets._mul_gather

    def spy(a, b, t):
        calls.append(a.shape)
        return gather(a, b, t)

    monkeypatch.setattr(jets, "_mul_gather", spy)
    size = jet_table(2, 2).size
    zero = Jet(2, 2, np.zeros((100, size)))
    finite = Jet(2, 2, np.ones((100, size)))
    zero * finite
    finite * zero
    assert calls == []
    nan = np.ones((100, size))
    nan[3, 2] = np.nan
    with np.errstate(invalid="ignore"):
        zero * Jet(2, 2, nan)
    assert calls == [(size, 100)]  # coefficient-major


def test_zero_flag_is_computed_once_per_jet(monkeypatch):
    counted = []
    count_nonzero = jets._count_nonzero  # numpy's C-level count, which `_is_zero` calls

    def spy(c):
        if c.dtype != bool:  # the zero scan reads coefficients; the finite check counts a mask
            counted.append(c)
        return count_nonzero(c)

    monkeypatch.setattr(jets, "_count_nonzero", spy)
    size = jet_table(2, 2).size
    zero = Jet(2, 2, np.zeros((100, size)))
    finite = Jet(2, 2, np.ones((100, size)))
    assert zero._zero is None
    product = zero * finite
    assert len(counted) == 1 and counted[0] is zero._c
    assert zero._zero and product._zero
    for a, b in ((finite, zero), (product, finite), (zero, product), (finite, finite)):
        a * b
    assert len(counted) == 2 and counted[1] is finite._c


def test_finite_flag_is_computed_once_per_jet(monkeypatch):
    scanned = []
    isfinite = np.isfinite

    def spy(c, *args, **kwargs):
        scanned.append(c)
        return isfinite(c, *args, **kwargs)

    monkeypatch.setattr(jets.np, "isfinite", spy)
    size = jet_table(2, 2).size
    zero = Jet(2, 2, np.zeros((100, size)))
    finite = Jet(2, 2, np.ones((100, size)))
    assert finite._finite is None
    product = zero * finite
    assert len(scanned) == 1 and scanned[0] is finite._c
    assert finite._finite and product._finite
    for a, b in ((finite, zero), (zero, finite), (product, finite), (finite, product)):
        assert (a * b)._is_zero()
    assert len(scanned) == 1


@pytest.mark.parametrize("shape", [(2,), (1, 2), (100, 2)])
def test_seeds_at_the_origin_are_not_zero_jets(shape):
    # the value row of both seeds is zero there; their unit derivatives are not
    x, y = seed_point(np.zeros(shape), 2)
    assert np.all((x * x).partial((2, 0)) == 2.0)
    assert np.all((x * y).partial((1, 1)) == 1.0)
    assert not (x * y).coeffs[..., :3].any()


@pytest.mark.parametrize("batch", [(1,), (100,), (600,)])
def test_reciprocal_coefficients_keep_the_bits_of_the_signed_power(batch, monkeypatch):
    # (-1)^k v^-(k+1) as one power, negated for odd k, against (-1.0)**k times the power
    rng = np.random.default_rng(61 + sum(batch))
    taylors = []
    compose = jets._compose
    monkeypatch.setattr(jets, "_compose", lambda a, taylor: taylors.append(taylor) or compose(a, taylor))
    for order in range(jets.MAX_ORDER + 1):
        a = Jet(2, order, rng.normal(size=batch + (jet_table(2, order).size,)))
        v = jets._value_row(a)
        got = jets.reciprocal(a)
        want = [(-1.0) ** k * v ** (-(k + 1)) for k in range(order + 1)]
        assert len(taylors[-1]) == len(want)
        for t, w in zip(taylors[-1], want):
            assert list(map(float.hex, np.ravel(t).tolist())) == list(map(float.hex, np.ravel(w).tolist()))
        assert got.coeffs.tobytes() == compose(a, want).coeffs.tobytes()


def test_the_numpy_1_import_path_binds_numpys_count_nonzero():
    # numpy < 2 has no `numpy._core`; blocking the module takes the fallback import
    code = "\n".join([
        "import sys, numpy as np",
        "sys.modules['numpy._core.multiarray'] = None",
        "from gqem import jets",
        "assert jets._count_nonzero is np.count_nonzero",
        "for n in (3, 600):",
        "    assert type(jets.Jet.constant(np.zeros(n), 2, 2)) is jets._ZeroJet",
        "    assert type(jets.Jet.constant(np.ones(n), 2, 2)) is jets.Jet",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(jets.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


# -- small-batch gather kernel ------------------------------------------------


def with_special_values(c: np.ndarray, rng) -> np.ndarray:
    """`c` with -0, NaN, +inf and -inf written at random entries."""
    c = c.copy()
    flat = c.reshape(-1)
    for special in (-0.0, np.nan, np.inf, -np.inf):
        flat[rng.integers(flat.size, size=max(1, flat.size // 50))] = special
    return c


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_gather_kernels_equal_the_reduceat_sum_bit_for_bit(dim, order):
    rng = np.random.default_rng(200 * dim + order)
    t = jet_table(dim, order)
    pairs = []
    # every form against the table-order sum: no batch, batches from 1 to the largest
    # gather batch (the pointwise chunk among them), and two batch axes (3-D arrays)
    for batch in ((), (1,), (63,), (64,), (100,), (qem._CHUNK,), (jets._BIG_BATCH - 1,),
                  (2, 3), (4, 25)):
        a, b = (with_special_values(rng.normal(size=batch + (t.size,)), rng) for _ in range(2))
        const = Jet.constant(rng.normal(), dim, order).coeffs
        pairs += [(a, b), (const, b), (a, const)]
    for n in (1, 100):
        pairs.append((rng.normal(size=t.size), with_special_values(rng.normal(size=(n, t.size)), rng)))
    with np.errstate(invalid="ignore", over="ignore"):
        for a, b in pairs:
            want = canonical_nan(full_sum(a, b, t))
            for got in (gather(a, b, t), (Jet(dim, order, a) * Jet(dim, order, b)).coeffs):
                assert got.shape == want.shape and got.dtype == want.dtype
                assert canonical_nan(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_dense_products_keep_the_table_order_bits_and_leave_their_operands(dim, order):
    # a same-shape product multiplies into its gather of the left terms and adds
    # layers in place; a broadcast pair takes a fresh product. Both sum in table
    # order (against `full_sum`, which shares no code with `_mul_gather`), and
    # neither writes an operand's array, a squared jet's included
    rng = np.random.default_rng(300 * dim + order)
    t = jet_table(dim, order)
    shapes = [((), ()), ((1,), (1,)), ((7,), (7,)), ((100,), (100,)),
              ((), (100,)), ((100,), ()), ((1,), (100,)), ((7,), (1,)), ((3, 1), (1, 7))]
    pairs = []
    for sa, sb in shapes:
        a, b = (Jet(dim, order, with_special_values(rng.normal(size=s + (t.size,)), rng))
                for s in (sa, sb))
        pairs += [(a, b), (a, a)] if sa == sb else [(a, b)]
    with np.errstate(invalid="ignore", over="ignore"):
        for a, b in pairs:
            kept = a._c.tobytes(), b._c.tobytes()
            want = canonical_nan(full_sum(a.coeffs, b.coeffs, t))
            for got in ((a * b).coeffs, gather(a.coeffs, b.coeffs, t)):
                assert got.shape == want.shape
                assert canonical_nan(got).tobytes() == want.tobytes()
            assert (a._c.tobytes(), b._c.tobytes()) == kept


@pytest.mark.parametrize("batch", [(), (1,), (100,)])
def test_dense_dispatch_reads_each_flag_once_and_keeps_its_returns(batch):
    # `Jet.__mul__` reads `_zero` and `_finite` from their slots and computes
    # one only where it is None: a mark or a found zero times a finite operand
    # is that zero itself, and zero times NaN or ±inf runs the kernel
    rng = np.random.default_rng(41 + len(batch))
    dim, order = 3, 2
    t = jet_table(dim, order)
    finite = Jet(dim, order, rng.normal(size=batch + (t.size,)))
    mark = Jet.constant(np.zeros(batch), dim, order)
    assert type(mark) is jets._ZeroJet and mark._zero is mark._finite is True
    assert mark * finite is mark and finite * mark is mark
    assert finite._finite is True and finite._zero is False
    found = Jet(dim, order, np.zeros(batch + (t.size,)))
    assert type(found) is Jet and found._zero is None
    assert finite * found is found
    assert type(found) is jets._ZeroJet and found._zero is found._finite is True
    negative = np.zeros(batch + (t.size,))
    negative[..., ::2] = -0.0
    c = rng.normal(size=batch + (t.size,))
    c[..., 2] = np.nan
    c[..., 4] = np.inf
    for zero_first in (True, False):
        zero, bad = Jet(dim, order, negative), Jet(dim, order, c)
        x, y = (zero, bad) if zero_first else (bad, zero)
        with np.errstate(invalid="ignore"):
            got = x * y
            want = full_sum(x.coeffs, y.coeffs, t)
        assert type(got) is Jet and got is not x and got is not y
        assert type(zero) is jets._ZeroJet and bad._finite is False
        assert np.isnan(want).any()
        for mask in (np.isnan, np.isposinf, np.isneginf):
            assert np.array_equal(mask(got.coeffs), mask(want))
        assert np.array_equal(got.coeffs, want, equal_nan=True)


@pytest.mark.parametrize("batch", [(), (1,), (2, 3), (100,)])
@pytest.mark.parametrize("dim,order", [(1, 4), (2, 3), (3, 2), (4, 1), (5, 4)])
def test_derive_gathers_the_coefficients_bit_for_bit(batch, dim, order):
    rng = np.random.default_rng(10 * dim + order + sum(batch))
    t = jet_table(dim, order)
    c = with_special_values(rng.normal(size=batch + (t.size,)), rng)
    x = Jet(dim, order, c)
    for axis, src in enumerate(t.derive_src):
        got = x.derive(axis).coeffs
        assert got.shape == batch + (len(src),)
        assert got.tobytes() == c[..., src].tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_layer_plan_sums_every_triple_once_in_table_order(dim, order):
    t = jet_table(dim, order)
    out, ii, jj, ff = (np.array(col) for col in zip(*t.mul_triples))
    starts = np.searchsorted(out, np.arange(t.size))
    counts = np.diff(np.append(starts, len(ii)))
    lay = t.layers
    assert np.array_equal(t.mul_ii, ii)  # the left operand of every term, in table order
    # every triple exactly once, with its factor; (ii, jj) names a triple
    position = {(i, j): q for q, (i, j) in enumerate(zip(ii.tolist(), jj.tolist()))}
    take = np.array([position[i, j] for i, j in zip(lay.ii.tolist(), lay.jj.tolist())])
    assert sorted(take.tolist()) == list(range(len(ii)))
    assert np.array_equal(lay.ff, ff[take])
    # layer p holds the p-th term, in table order, of every output with more than p terms
    outputs = np.argsort(lay.inv)  # by descending term count
    assert sorted(lay.inv.tolist()) == list(range(t.size))
    assert lay.widths == tuple(int(np.count_nonzero(counts > p)) for p in range(counts.max()))
    lo = 0
    for p, width in enumerate(lay.widths):
        outs = outputs[:width]
        assert (counts[outs] > p).all()
        assert np.array_equal(take[lo:lo + width], starts[outs] + p)
        lo += width
    assert lo == len(ii)
    # one stage: layers 1, 2, ... are each added into layer 0, in that order
    offsets = np.cumsum((0,) + lay.widths).tolist()
    assert lay.adds == tuple((slice(0, w), slice(lo, lo + w))
                             for w, lo in zip(lay.widths[1:], offsets[1:]))


def canonical_nan(c: np.ndarray) -> np.ndarray:
    """`c` with every NaN replaced by the one NaN `np.nan`.

    numpy's SIMD and scalar loops return different operands' NaN when both are
    NaN, so the sign of a NaN depends on the batch even in the reference: one
    node's row at batch 1 and at batch 100 can differ there. Every other bit is
    compared.
    """
    return np.where(np.isnan(c), np.nan, c)


# -- elementary functions with cyclic derivatives ----------------------------------

CYCLES = {
    jets.sin: (np.sin, np.cos, lambda v: -np.sin(v), lambda v: -np.cos(v)),
    jets.cos: (np.cos, lambda v: -np.sin(v), lambda v: -np.cos(v), np.sin),
    jets.sinh: (np.sinh, np.cosh),
    jets.cosh: (np.cosh, np.sinh),
}


@pytest.mark.parametrize("fn", list(CYCLES), ids=lambda f: f.__name__)
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("batch", [(), (1,), (600,)])
def test_cyclic_functions_equal_the_per_order_series(fn, order, batch):
    rng = np.random.default_rng(40 + order)
    size = jet_table(2, order).size
    a = Jet(2, order, rng.normal(size=batch + (size,)))
    cycle = CYCLES[fn]
    taylor = [cycle[k % len(cycle)](a.value) / math.factorial(k) for k in range(order + 1)]
    assert fn(a).coeffs.tobytes() == jets._compose(a, taylor).coeffs.tobytes()


# -- Taylor compositions -----------------------------------------------------------


def reference_compose(a: Jet, taylor) -> Jet:
    """Horner with a full `Jet.constant` and a full jet sum at every step."""
    rem_coeffs = a.coeffs.copy(order="K")
    rem_coeffs[..., 0] = 0.0
    rem = Jet(a.dim, a.order, rem_coeffs)
    acc = Jet.constant(taylor[a.order], a.dim, a.order)
    for k in range(a.order - 1, -1, -1):
        acc = acc * rem + Jet.constant(taylor[k], a.dim, a.order)
    return acc


COMPOSITIONS = {
    "exp": jets.exp, "log": jets.log, "sqrt": jets.sqrt, "reciprocal": jets.reciprocal,
    "sin": jets.sin, "cos": jets.cos, "sinh": jets.sinh, "cosh": jets.cosh,
    "power 2.5": lambda a: jets.power(a, 2.5),
}


def counting_products(fn, *args):
    """`fn(*args)` and the number of `Jet × Jet` products it ran."""
    calls = []
    mul = Jet.__mul__

    def counted(self, other):
        if isinstance(other, Jet):
            calls.append(1)
        return mul(self, other)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Jet, "__mul__", counted)
        mp.setattr(Jet, "__rmul__", counted)
        return fn(*args), len(calls)


@given(
    name=st.sampled_from(list(COMPOSITIONS)),
    batch=st.sampled_from([(), (1,), (100,), (jets._BIG_BATCH - 1,), (jets._BIG_BATCH,), (600,)]),
    dim_order=st.sampled_from([(1, 4), (2, 3), (3, 4), (2, 1), (2, 0)]),
    coefficient_major=st.booleans(),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    at_zero=st.booleans(),
    specials=st.lists(st.sampled_from(SPECIALS), max_size=6),
    seed=st.integers(0, 2**16),
)
@settings(derandomize=True, max_examples=150, deadline=None)
def test_compositions_equal_the_constant_and_sum_horner(
        name, batch, dim_order, coefficient_major, zero_share, at_zero, specials, seed):
    dim, order = dim_order
    size = jet_table(dim, order).size
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(size,) + batch)
    # rows zero at every node, as in a chart's jets; with all of them zero a product returns `rem`
    rows[rng.random(size) < zero_share] = 0.0
    rows[0] = rng.uniform(0.5, 2.0, size=batch)  # in every function's domain
    if at_zero and name in ("exp", "sin", "cos", "sinh", "cosh"):
        rows[0] = 0.0  # sin(0) = 0 and sinh(0) = 0: some Horner constants are marks
    if size > 1:
        for special in specials:
            rows[(rng.integers(1, size),) + tuple(rng.integers(n) for n in batch)] = special
    coeffs = np.moveaxis(rows, 0, -1)
    a = Jet(dim, order, coeffs if coefficient_major else coeffs.copy())
    before = a.coeffs.copy()
    fn = COMPOSITIONS[name]
    with np.errstate(all="ignore"):
        got, products = counting_products(fn, a)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jets, "_compose", reference_compose)
            want, want_products = counting_products(fn, a)
    assert_same_values(got.coeffs, want.coeffs)
    assert products == want_products
    assert np.array_equal(a.coeffs, before, equal_nan=True)


def sphere_control(seed: int):
    """Polar S², f = a h0³ + b h1 in ambient heights with seeded a and b, λ trace-solved."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.8, 1.2), rng.uniform(0.2, 0.4)
    spec = ModelSpec("sphere", 2, tau=1.5, m=2.0, chart_kind="polar")
    chart = make_chart(spec)
    h0, h1 = height_field(spec, chart, 0), height_field(spec, chart, 1)
    return make_structure(chart, h0 * h0 * h0 * a + h1 * b, 2.0, label="S2 control")


def integral_rows(s, resolution) -> list:
    """Each integral row's id with `float.hex` of its lhs, rhs and relative gap."""
    rows = quad.run_integral_suite(quad.make_sphere_grid(s.chart, resolution), s, 1e-6)
    return [(r["id"],) + tuple(float(r[k]).hex() for k in ("lhs", "rhs", "relative_gap"))
            for r in rows]


@pytest.mark.parametrize("structure", ["sphere", "control"])
def test_integral_suite_is_unchanged_by_the_in_place_horner(structure, monkeypatch):
    if structure == "sphere":
        s = example_structure(ModelSpec("sphere", 2, tau=1.5, m=2.0, chart_kind="polar"))
    else:
        s = sphere_control(5)
    got = integral_rows(s, (32, 64))
    monkeypatch.setattr(jets, "_compose", reference_compose)
    assert got == integral_rows(s, (32, 64))
    assert len(got) == 6


@pytest.mark.parametrize("structure,resolution", [
    ("sphere", (32, 64)), ("control", (32, 64)), ("S3", (8, 16, 32))])
def test_integral_suite_is_unchanged_by_the_shared_sine_and_cosine(
        structure, resolution, monkeypatch):
    if structure == "control":
        s = sphere_control(5)
    else:
        n = len(resolution)
        s = example_structure(ModelSpec("sphere", n, tau=1.5, m=2.0, chart_kind="polar"))
    got = integral_rows(s, resolution)
    # every sin, cos and sincos evaluates np.sin and np.cos of its operand afresh
    monkeypatch.setattr(jets, "_sin_cos", lambda a: (np.sin(a.value), np.cos(a.value)))
    assert got == integral_rows(s, resolution)
    assert len(got) == 6


@pytest.mark.parametrize("batch", [(3,), (600,)])
def test_array_times_jet_is_the_jet_times_the_array(batch):
    rng = np.random.default_rng(39)
    j = Jet(2, 2, rng.normal(size=batch + (6,)))
    x = np.arange(float(batch[0]))
    left, right = x * j, j * x
    assert isinstance(left, Jet) and left.batch_shape == batch
    assert left.coeffs.tobytes() == right.coeffs.tobytes()


def test_compositions_peak_below_three_and_a_half_results():
    rng = np.random.default_rng(37)
    c = big_coeffs(rng, 3, 4, batch=16_384)
    c[:, 0] = rng.uniform(0.5, 2.0, size=16_384)
    a = Jet(3, 4, c)
    tracemalloc.start()
    try:
        for fn in (jets.exp, jets.log, jets.sin):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = fn(a)
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak <= 3.5 * out.coeffs.nbytes, (fn.__name__, peak / out.coeffs.nbytes)
            del out
    finally:
        tracemalloc.stop()


# -- large-batch row form against a dense reference ------------------------------

ROW_BATCHES = [(jets._BIG_BATCH,), (600,), (2, 300)]


def dense_with_special_rows(rng, dim: int, order: int, batch: tuple, zero_share: float,
                            specials: list, first: int = 0) -> np.ndarray:
    """Coefficients with rows zero at every node, and each special value as a whole row from `first` on or at one entry."""
    size = jet_table(dim, order).size
    c = rng.normal(size=batch + (size,))
    c[..., rng.random(size) < zero_share] = 0.0
    for special in specials:
        if first == size:
            break
        k = int(rng.integers(first, size))
        if rng.random() < 0.5:
            c[..., k] = special
        else:
            c.reshape(-1, size)[rng.integers(math.prod(batch)), k] = special
    return c


def dense_compose(a: Jet, taylor) -> Jet:
    """Dense reference Horner: `full_sum` products, each Taylor coefficient added into the value."""
    t = jet_table(a.dim, a.order)
    rem = a.coeffs.copy()
    rem[..., 0] = 0.0
    acc = np.zeros(rem.shape)
    acc[..., 0] = taylor[a.order]
    for k in range(a.order - 1, -1, -1):
        acc = full_sum(acc, rem, t)
        acc[..., 0] += taylor[k]
    return Jet(a.dim, a.order, acc)


def assert_equals_dense(got: Jet, want: np.ndarray, exact=()) -> None:
    """`got.coeffs` equals `want` (`==`, NaN where it is NaN), with the sign of every non-NaN zero in the `exact` rows."""
    c = got.coeffs
    assert_same_values(c, want)
    exact = list(exact)
    same = np.isnan(want[..., exact]) | (np.signbit(c[..., exact]) == np.signbit(want[..., exact]))
    assert same.all()


def both_stored(x: Jet, y: Jet) -> list:
    """The coefficients that both operands store as rows (`jets._rows_of`)."""
    rx, ry = jets._rows_of(x)[0], jets._rows_of(y)[0]
    return [k for k, (p, q) in enumerate(zip(rx, ry)) if p is not None and q is not None]


def fully_kept(x: Jet, y: Jet) -> list:
    """The product outputs every one of whose terms multiplies two stored rows."""
    rx, ry = jets._rows_of(x)[0], jets._rows_of(y)[0]
    skipped = {k for k, i, j, _ in jet_table(x.dim, x.order).mul_triples
               if rx[i] is None or ry[j] is None}
    return [k for k in range(len(rx)) if k not in skipped]


@given(
    batch=st.sampled_from(ROW_BATCHES),
    dim_order=st.sampled_from([(1, 4), (2, 3), (3, 4), (2, 1), (3, 2)]),
    zero_share=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    specials=st.lists(st.sampled_from(SPECIALS), max_size=4),
    scalar=st.sampled_from([2.5, -0.5, "array"] + SPECIALS),
    seed=st.integers(0, 2**16),
)
@settings(derandomize=True, max_examples=60, deadline=None)
def test_row_form_equals_the_dense_reference(batch, dim_order, zero_share, specials, scalar, seed):
    dim, order = dim_order
    t = jet_table(dim, order)
    rng = np.random.default_rng(seed)
    xc = dense_with_special_rows(rng, dim, order, batch, zero_share, specials)
    yc = dense_with_special_rows(rng, dim, order, batch, 0.3, specials[::-1])
    x, y = Jet(dim, order, xc), Jet(dim, order, yc)
    assert not hasattr(x, "_c") and x.batch_shape == batch
    assert_equals_dense(x, xc)
    xc, yc = x.coeffs, y.coeffs  # an all-±0 row reads back as +0
    batchless = Jet(dim, order, with_special_values(rng.normal(size=t.size), rng))
    single = Jet(dim, order, rng.normal(size=(1, t.size)))
    marks = [Jet.constant(np.zeros(batch), dim, order), Jet.constant(0.0, dim, order)]
    if scalar == "array":
        scalar = with_special_values(rng.normal(size=batch), rng)
    with np.errstate(all="ignore"):
        # products
        for a, b in [(x, y), (y, x), (x, x), (x, batchless), (batchless, x), (x, single),
                     (single, x)] + [(x, z) for z in marks] + [(z, x) for z in marks]:
            assert_equals_dense(a * b, full_sum(a.coeffs, b.coeffs, t), fully_kept(a, b))
        # sums, differences and negation
        for a, b in [(x, y), (y, x), (x, batchless), (batchless, x), (x, single), (x, marks[1])]:
            stored = both_stored(a, b)
            assert_equals_dense(a + b, a.coeffs + b.coeffs, stored)
            assert_equals_dense(a - b, a.coeffs - b.coeffs, stored)
        const = Jet.constant(1.5, dim, order)
        assert_equals_dense(x + 1.5, xc + const.coeffs, both_stored(x, const))
        assert_equals_dense(1.5 - x, const.coeffs - xc, both_stored(x, const))
        assert_equals_dense(-x, -xc, both_stored(x, x))
        # scalar products: a row that x does not store is 0 × the scalar where that is not finite
        scalar_c = np.asarray(scalar, dtype=np.float64)[..., None]
        assert_equals_dense(x * scalar, xc * scalar_c, both_stored(x, x))
        if np.ndim(scalar) == 0:
            assert_equals_dense(scalar * x, scalar_c * xc, both_stored(x, x))
        # derive and truncated re-index rows: every bit
        for axis, src in enumerate(t.derive_src or ()):
            assert_equals_dense(x.derive(axis), xc[..., src], range(len(src)))
        for lower in range(order):
            size = t.grade_sizes[lower]
            assert_equals_dense(x.truncated(lower), xc[..., :size], range(size))
        # every composition on an operand in every function's domain, and those
        # defined on the whole line on x, whose value row can hold NaN and ±inf
        pc = dense_with_special_rows(rng, dim, order, batch, zero_share, specials, first=1)
        pc[..., 0] = rng.uniform(0.5, 2.0, size=batch)
        p = Jet(dim, order, pc)
        fns = dict(COMPOSITIONS, sincos=jets.sincos)
        cases = [(fn, p) for fn in fns.values()]
        cases += [(fns[name], x) for name in ("exp", "sin", "cos", "sinh", "cosh", "sincos")]
        got = [fn(a) for fn, a in cases]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jets, "_compose", dense_compose)
            want = [fn(a) for fn, a in cases]
    for g, w in zip(got, want):
        for gj, wj in zip(np.atleast_1d(g), np.atleast_1d(w)):
            assert_equals_dense(gj, wj.coeffs)


def test_row_form_reuses_its_operands_rows():
    rng = np.random.default_rng(38)
    t = jet_table(3, 4)
    c = rng.normal(size=(600, t.size))
    c[..., 4] = 0.0
    x = Jet(3, 4, c)
    for axis, src in enumerate(t.derive_src):
        d = x.derive(axis)
        assert all(r is x._rows[k] for r, k in zip(d._rows, src.tolist()))
    for lower in range(4):
        assert all(r is q for r, q in zip(x.truncated(lower)._rows, x._rows))
    # the Taylor compositions' remainder is x with its value row dropped
    operands = []
    mul = Jet.__mul__

    def recorded(self, other):
        operands.append(other)
        return mul(self, other)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Jet, "__mul__", recorded)
        jets.exp(x)
    rem = operands[0]
    assert rem._rows[0] is None and all(r is q for r, q in zip(rem._rows[1:], x._rows[1:]))
    assert all(o is rem for o in operands)
