"""Tests of the truncated Taylor arithmetic, against the reference jet of `jet_reference`.

The properties draw operands through the public constructors (coefficients,
constants, seeds and whole zero jets, with 0, -0, NaN and ±inf entries and
rows zero at every node) at batches on both sides of the row form, and
compare every public operation with the reference at every node
(`assert_matches`); no operand may change. The other tests pin the rules of
the API: errors, marks, flags, kernels and layouts. Private engine state is
read only through `test_jet_internals`.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import jet_reference as R
from gqem import jets
from gqem import quadrature as quad
from gqem.jets import Jet, JetDomainError, jet_table, seed_point, seed_variable
from gqem.models import ModelSpec, example_structure, height_field, make_chart
from gqem.qem import make_structure
from jet_reference import assert_matches
from test_jet_internals import (NUMPY_1_CHECK, ROW_BATCH, flags, is_dense, is_mark,
                                lie_about_flags, lower_marks, nonzero_counts, stored_rows)

BATCHES = [(), (1,), (7,), (ROW_BATCH - 1,), (ROW_BATCH,), (600,), (1, 32, 64), (2, 32, 64)]
ROW_BATCHES = [(ROW_BATCH,), (600,), (2, 300), (1, 32, 64)]
SPECIALS = [0.0, -0.0, np.nan, np.inf, -np.inf]
EXPONENTS = [0, 1, 3, np.int64(2), -1, -3, 2.0, -2.0, 0.5, 1.7, -2.5,
             np.float32(2.0), np.float32(-1.0), np.float32(2.5)]


def ref(j: Jet) -> R.Ref:
    return R.Ref(j.dim, j.order, j.coeffs)


def exact(*operands, composed=()) -> bool:
    """Whether the engine must give the reference's bits, and not only its values (`==`).

    It skips a term, or returns an operand, where a row is ±0 at every node.
    A Taylor composition of an operand with a ±0 or ±inf entry can meet such a
    row (a zero Taylor coefficient, the remainder's value row) or a -0 partial
    sum. Skipping a ±0 term changes at most the sign of a zero.
    """
    def zero_row(c):
        return not c.reshape(-1, c.shape[-1]).any(axis=0).all()

    return not (any(zero_row(o.coeffs) for o in operands)
                or any(((o.coeffs == 0) | np.isinf(o.coeffs)).any() for o in composed))


def with_special_values(c: np.ndarray, rng) -> np.ndarray:
    """`c` with -0, NaN, +inf and -inf written at random entries."""
    c = c.copy()
    flat = c.reshape(-1)
    for special in (-0.0, np.nan, np.inf, -np.inf):
        flat[rng.integers(flat.size, size=max(1, flat.size // 50))] = special
    return c


# -- one property per public operation --------------------------------------------

OPS = {  # name: operation on a module (`gqem.jets` or `jet_reference`), its operands and an int
    "+": lambda m, a, b, k: a + b,
    "-": lambda m, a, b, k: a - b,
    "*": lambda m, a, b, k: a * b,
    "/": lambda m, a, b, k: a / b,
    "neg": lambda m, a, b, k: -a,
    "derive": lambda m, a, b, k: a.derive(k % a.dim),
    "truncated": lambda m, a, b, k: a.truncated(k % (a.order + 1)),
    "partial": lambda m, a, b, k: a.partial(pick(R.alphas(a.dim, a.order), k)),
    "exp": lambda m, a, b, k: m.exp(a),
    "log": lambda m, a, b, k: m.log(a),
    "sqrt": lambda m, a, b, k: m.sqrt(a),
    "reciprocal": lambda m, a, b, k: m.reciprocal(a),
    "sincos": lambda m, a, b, k: m.sincos(a),
    "sin": lambda m, a, b, k: m.sin(a),
    "cos": lambda m, a, b, k: m.cos(a),
    "sinh": lambda m, a, b, k: m.sinh(a),
    "cosh": lambda m, a, b, k: m.cosh(a),
    "power": lambda m, a, b, k: m.power(a, pick(EXPONENTS, k)),
}
BINARY, INDEXING = ("+", "-", "*", "/"), ("neg", "derive", "truncated", "partial")


def pick(seq, k: int):
    return seq[k % len(seq)]


@st.composite
def operands(draw, dim: int, order: int, batch: tuple, positive: bool = False, zero: bool = False):
    """(engine jet, reference jet) built from one input through one public constructor.

    Seeds and constants vary along some batch axes only, so that their rows are
    stored short; `positive` puts the values in every function's domain but
    where a special value lands.
    """
    kinds = ["coeffs", "coeffs", "constant", "seed", "zero"]  # coefficients twice as often
    kind = "zero" if zero else draw(st.sampled_from(kinds))
    specials = draw(st.lists(st.sampled_from(SPECIALS), max_size=3))
    sign = draw(st.sampled_from([0.0, -0.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    varies = tuple(n if rng.random() < 0.7 else 1 for n in batch)

    def values(shape):
        return rng.uniform(0.5, 2.0, size=shape) if positive else rng.normal(size=shape)

    if kind == "seed":
        p = np.broadcast_to(values(varies + (dim,)), batch + (dim,))
        i = int(rng.integers(dim))
        return seed_point(p, order)[i], R.seed_point(p, order)[i]
    size = len(R.alphas(dim, order))
    if kind == "constant":
        v = np.broadcast_to(values(varies), batch).copy()
        for s in specials:
            v.reshape(-1)[rng.integers(v.size)] = s
        return Jet.constant(v, dim, order), R.constant(v, dim, order)
    c = np.full(batch + (size,), sign)
    if kind == "zero" and draw(st.booleans()):
        return Jet.constant(c[..., 0], dim, order), R.constant(c[..., 0], dim, order)
    if kind == "coeffs":
        c = rng.normal(size=batch + (size,))
        c[..., 0] = values(batch)
        c[..., rng.random(size) < rng.choice([0.0, 0.3])] = sign
        for s in specials:
            c.reshape(-1)[rng.integers(c.size)] = s
    return Jet(dim, order, c), R.Ref(dim, order, c)


def check(op, engine: list, reference: list, exact_bits: bool):
    """`op` on the engine's operands against `op` on the reference's: a domain error on
    both, or matching results (`assert_matches`); no engine operand may change."""
    before = [j.coeffs.tobytes() for j in engine if isinstance(j, Jet)]
    with np.errstate(all="ignore"):
        try:
            want = op(R, *reference)
        except ArithmeticError:
            with pytest.raises(JetDomainError):
                op(jets, *engine)
            return None
        got = op(jets, *engine)
    for g, w in zip(got, want) if isinstance(want, tuple) else [(got, want)]:
        assert_matches(g, w, exact_bits)
    assert [j.coeffs.tobytes() for j in engine if isinstance(j, Jet)] == before
    return got


def run(data, name: str, batches=BATCHES, zero: bool = False):
    """Draw operands for operation `name` and check it against the reference; returns its result."""
    dim = data.draw(st.sampled_from([1, 2, 3, 4, 5]))
    order = data.draw(st.sampled_from([1, 2, 3, 4] if name == "derive" else [0, 1, 2, 3, 4]))
    batch = data.draw(st.sampled_from(batches))
    left = right = batch
    if name in BINARY:
        left, right = data.draw(st.sampled_from(
            [(batch, batch), ((), batch), (batch, ()), ((3, 1), (1, 7))]))
    positive = name in ("log", "sqrt", "reciprocal", "power") and data.draw(st.booleans())
    x, rx = data.draw(operands(dim, order, left, positive, zero))
    y = ry = None
    if name in BINARY:
        other = data.draw(st.sampled_from(["jet", "scalar", "array"]))
        if other == "jet":
            y, ry = data.draw(operands(dim, order, right))
        elif other == "scalar":
            y = ry = data.draw(st.sampled_from([2.5, -0.5] + SPECIALS))
        else:
            y = ry = np.random.default_rng(data.draw(st.integers(0, 99))).normal(size=right)
        if data.draw(st.booleans()):
            x, y, rx, ry = y, x, ry, rx
    k = data.draw(st.integers(0, 99))
    refs = [r for r in (rx, ry) if isinstance(r, R.Ref)]
    if name in ("+", "-"):  # a number or an array is added as a constant jet
        refs += [R.constant(r, dim, order) for r in (rx, ry) if not isinstance(r, R.Ref)]
    composed = [ry] if name == "/" and isinstance(ry, R.Ref) else []
    if name not in BINARY + INDEXING:
        composed = [rx]
    op = OPS[name]
    return check(lambda m, a, b: op(m, a, b, k), [x, y], [rx, ry],
                 exact(*refs, composed=composed))


@pytest.mark.parametrize("name", list(OPS))
@given(data=st.data())
@settings(derandomize=True, max_examples=12, deadline=None)
def test_every_operation_matches_the_reference(name, data):
    run(data, name)


# -- construction, arguments and errors -------------------------------------------


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
    for i, order in ((3, 2), (0, 5), (0, 0)):
        with pytest.raises(ValueError):
            seed_variable(i, 0.0, dim=2, order=order)


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
    size = jet_table(2, 2).size
    rng = np.random.default_rng(sum(batch) + 31)
    node = (-1,) * len(batch)

    def with_value(v):
        c = rng.normal(size=batch + (size,))
        c[..., 0] = rng.uniform(0.5, 2.0, size=batch)
        c[node + (0,)] = v
        return Jet(2, 2, c)

    checks = [(jets.log, "log"), (jets.sqrt, "sqrt"), (jets.reciprocal, "division"),
              (lambda a: jets.power(a, 1.5), "non-integer exponent")]
    for fn, name in checks:
        for bad in (0.0, -0.0, -1.5):
            if bad < 0 and name == "division":
                assert np.isfinite(fn(with_value(bad)).coeffs).all()
                continue
            with pytest.raises(JetDomainError, match=name):
                fn(with_value(bad))
        got = fn(with_value(np.nan)).value
        assert np.isnan(got[node]) and np.count_nonzero(np.isnan(got)) == 1


@pytest.mark.parametrize("batch", [(), (3,), (100,), (600,)])
def test_a_jet_is_unchanged_after_its_source_array_is_written(batch):
    rng = np.random.default_rng(41)
    size = jet_table(2, 2).size
    source, zeros = rng.normal(size=batch + (size,)), np.zeros(batch + (size,))
    x, z = Jet(2, 2, source), Jet(2, 2, zeros)
    want, square = source.copy(), (x * x).coeffs.copy()
    assert z * x is z  # caches both jets' flags before the writes
    source[...] = np.nan
    zeros[...] = 1.0
    assert np.array_equal(x.coeffs, want) and np.array_equal((x * x).coeffs, square)
    assert not np.count_nonzero(z.coeffs) and z * x is z and is_mark(z)


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
    for _ in range(30):
        coefficient_products_match(2, 3, *rng.normal(size=(2, jet_table(2, 3).size)))


def test_truncation_stability():
    # compute at order K, drop the top layer == compute at order K-1
    rng = np.random.default_rng(11)
    for _ in range(15):
        point = rng.uniform(-0.7, 0.7, size=2)
        for order in (2, 3, 4):
            def expr(c):
                return jets.exp(c[0] * 0.3) * jets.sin(c[1] + c[0] * c[0]) + 1.0 / (
                    2.0 + jets.cos(c[0] * c[1])
                )

            hi = expr(seed_point(point, order)).truncated(order - 1)
            lo = expr(seed_point(point, order - 1))
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


# -- powers ---------------------------------------------------------------------


def test_integer_power_handles_negative_values():
    x = seed_variable(0, -2.0, dim=1, order=3)
    cubed = jets.power(x, 3)
    assert np.allclose(cubed.coeffs, [-8.0, 12.0, -12.0, 6.0])
    assert np.allclose((x ** 2).coeffs, [4.0, -4.0, 2.0, 0.0])
    # an integral exponent of any real type, numpy's float32 among them
    for k in (2.0, np.float64(2.0), np.float32(2.0), np.int8(2)):
        assert jets.power(x, k).coeffs.tobytes() == (x * x).coeffs.tobytes()


def test_negative_integer_power_is_the_reciprocal_of_the_positive_one():
    a = 1.5 + seed_point(np.array([[0.3, -0.2], [0.7, 0.4]]), 3)[0] * 0.5
    for k in (-2, -2.0, np.int64(-2), np.float32(-2.0)):
        got = jets.power(a, k)
        assert got.coeffs.tobytes() == jets.reciprocal(jets.power(a, 2)).coeffs.tobytes()


def test_real_power_of_a_non_positive_value_is_a_domain_error():
    x = seed_variable(0, np.array([0.5, 0.0]), dim=1, order=2)
    with pytest.raises(JetDomainError, match="non-integer exponent 1.5 of non-positive value"):
        jets.power(x, 1.5)


@pytest.mark.parametrize("batch", [(), (100,), (600,)])
@pytest.mark.parametrize("dim,order", [(2, 3), (3, 4)])
def test_integer_power_starts_from_its_base(dim, order, batch, spy):
    # a ** k is k - 1 products, equal to the chain 1 * a * ... * a that starts from a constant
    rng = np.random.default_rng(10 * dim + order)
    a = Jet(dim, order, rng.normal(size=batch + (jet_table(dim, order).size,)))
    for k in range(5):
        want = Jet.constant(np.ones(batch), dim, order)
        for _ in range(k):
            want = want * a
        products = spy(Jet, "__mul__")
        got = jets.power(a, k)
        assert np.array_equal(got.coeffs, want.coeffs)
        assert len(products) == max(k - 1, 0)


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


# -- products on both sides of the row form -------------------------------------


def coeff_rows(c: np.ndarray) -> np.ndarray:
    """The (size, ...) rows behind coefficients (..., size)."""
    return c.transpose(-1, *range(c.ndim - 1))


def products_match(a: Jet, b: Jet, bits=None) -> Jet:
    """``a * b`` against the reference product (`check`), by the bits where `exact`, or
    `bits` if given, asks for them."""
    ra, rb = ref(a), ref(b)
    return check(lambda m, x, y: x * y, [a, b], [ra, rb], exact(ra, rb) if bits is None else bits)


def coefficient_products_match(dim: int, order: int, a: np.ndarray, b: np.ndarray) -> None:
    """Dense or without a zero row, the product of jets of `a` and `b` has the reference's bits."""
    products_match(Jet(dim, order, a), Jet(dim, order, b), bits=True)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_coeff_major_product_matches_gather(dim, order):
    # the dense product just below the row form, and the row product from it
    rng = np.random.default_rng(100 * dim + order)
    size = jet_table(dim, order).size
    for batch in (ROW_BATCH - 1, ROW_BATCH, ROW_BATCH + 1):
        coefficient_products_match(dim, order, *rng.normal(size=(2, batch, size)))


def test_coeff_major_product_broadcasts_to_c_contiguous_result():
    rng = np.random.default_rng(5)
    size = jet_table(3, 3).size
    const = Jet(3, 3, rng.normal(size=size))
    row = Jet(3, 3, rng.normal(size=(600, size)))
    grid = Jet(3, 3, rng.normal(size=(2, 600, size)))
    for a, b in ((const, row), (row, const), (grid, row), (grid, grid)):
        ab = products_match(a, b)
        assert ab.coeffs.shape == np.broadcast_shapes(a.coeffs.shape, b.coeffs.shape)
        assert coeff_rows(ab.coeffs).flags.c_contiguous


def test_coeff_major_product_propagates_nonfinite_like_gather():
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=(2, ROW_BATCH, jet_table(2, 3).size))
    a[3, 0], a[7, 2], a[11, 5], a[13, 1], b[13, 0] = np.nan, np.inf, -np.inf, np.inf, 0.0
    big = products_match(Jet(2, 3, a), Jet(2, 3, b)).coeffs
    assert np.isnan(big).any() and np.isinf(big).any()


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


@pytest.mark.parametrize("dim,order", [(1, 4), (2, 4), (3, 4), (5, 2)])
def test_row_skip_equals_the_full_sum(dim, order):
    rng = np.random.default_rng(10 * dim + order)
    t = jet_table(dim, order)
    top = t.grade_sizes[order - 1]
    a, b = rng.normal(size=(2, ROW_BATCH, t.size))
    a[:, 1:] = 0.0
    a[:, -1] = -0.0
    b[:, top:] = 0.0
    b[:, 1] = 0.0
    got = products_match(Jet(dim, order, a), Jet(dim, order, b)).coeffs
    assert not got[:, top:].any()  # output rows that keep no term


def test_zero_row_against_nonfinite_row_is_not_skipped():
    rng = np.random.default_rng(12)
    a, b = rng.normal(size=(2, ROW_BATCH, jet_table(2, 3).size))
    a[:, [0, 2, 5]] = 0.0
    b[:, [1, 3]] = 0.0
    b[5, 0], b[9, 4], a[11, 1] = np.nan, np.inf, -np.inf
    got = products_match(Jet(2, 3, a), Jet(2, 3, b)).coeffs
    assert np.isnan(got).any() and np.isinf(got).any()


def test_row_skip_with_a_batchless_constant():
    rng = np.random.default_rng(13)
    size = jet_table(3, 4).size
    row = Jet(3, 4, rng.normal(size=(600, size)))
    for const in (Jet.constant(2.5, 3, 4), Jet(3, 4, rng.normal(size=size))):
        products_match(const, row), products_match(row, const)


def test_dense_operands_whose_broadcast_batch_is_large_take_the_row_product(kernel_calls):
    rng = np.random.default_rng(14)
    size = jet_table(2, 3).size
    a, b = Jet(2, 3, rng.normal(size=(20, 1, size))), Jet(2, 3, rng.normal(size=(1, 30, size)))
    assert is_dense(a) and is_dense(b)  # 20 and 30 nodes, each below the row form
    for x, y in ((a, b), (b, a)):
        got = products_match(x, y)
        assert not is_dense(got) and got.batch_shape == (20, 30)
    assert kernel_calls == ["row", "row"]


def test_an_array_with_more_axes_than_the_batch_lifts_the_jet():
    rng = np.random.default_rng(13)
    c = rng.normal(size=(3, jet_table(2, 2).size))
    x, arr = Jet(2, 2, c), rng.normal(size=(2, 3))
    for got in (arr * x, x * arr):
        assert got.batch_shape == (2, 3)
        assert got.coeffs.tobytes() == (c[None] * arr[..., None]).tobytes()


@pytest.mark.parametrize("batch", [(3,), (600,)])
def test_array_times_jet_is_the_jet_times_the_array(batch):
    rng = np.random.default_rng(39)
    j = Jet(2, 2, rng.normal(size=batch + (6,)))
    x = np.arange(float(batch[0]))
    left, right = x * j, j * x
    assert isinstance(left, Jet) and left.batch_shape == batch
    assert left.coeffs.tobytes() == right.coeffs.tobytes()


def test_coeff_major_product_feeds_the_next_product():
    rng = np.random.default_rng(14)
    a, b, c = (Jet(3, 3, rng.normal(size=(600, jet_table(3, 3).size))) for _ in range(3))
    ab = a * b
    assert coeff_rows(ab.coeffs).flags.c_contiguous
    as_c = Jet(3, 3, np.ascontiguousarray(ab.coeffs))
    assert np.array_equal(products_match(ab, c).coeffs, (as_c * c).coeffs)


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
    big = Jet.constant(np.full((2, ROW_BATCH), 3.0), 2, 3)
    small = Jet.constant(np.full(ROW_BATCH - 1, 3.0), 2, 3)
    assert not is_dense(big) and is_dense(small)
    for j in (big, small):
        assert coeff_rows(j.coeffs).flags.c_contiguous
        assert np.all(j.value == 3.0) and not j.coeffs[..., 1:].any()


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_gather_kernels_equal_the_reduceat_sum_bit_for_bit(dim, order):
    # every dense form, with -0, NaN and ±inf entries: no batch, batches from 1 to the
    # largest dense batch, two batch axes, and a batchless operand on either side
    rng = np.random.default_rng(200 * dim + order)
    size = jet_table(dim, order).size
    for batch in ((), (1,), (63,), (64,), (100,), (ROW_BATCH - 1,), (2, 3), (4, 25)):
        a, b = (with_special_values(rng.normal(size=batch + (size,)), rng) for _ in range(2))
        const = Jet.constant(rng.normal(), dim, order).coeffs
        for x, y in ((a, b), (const, b), (a, const)):
            coefficient_products_match(dim, order, x, y)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_dense_products_keep_the_table_order_bits_and_leave_their_operands(dim, order):
    # a same-shape product, a squared jet and broadcast pairs: the reference's bits,
    # and no operand written
    rng = np.random.default_rng(300 * dim + order)
    size = jet_table(dim, order).size
    shapes = [((), ()), ((1,), (1,)), ((7,), (7,)), ((100,), (100,)), ((), (100,)),
              ((100,), ()), ((1,), (100,)), ((7,), (1,)), ((3, 1), (1, 7))]
    for sa, sb in shapes:
        a, b = (Jet(dim, order, with_special_values(rng.normal(size=s + (size,)), rng))
                for s in (sa, sb))
        products_match(a, b, bits=True), products_match(a, a, bits=True)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_layer_plan_sums_every_triple_once_in_table_order(dim, order):
    # every term once, with its factor, each output summed left to right in table order
    rng = np.random.default_rng(400 * dim + order)
    coefficient_products_match(dim, order, *rng.normal(size=(2, 3, jet_table(dim, order).size)))


@pytest.mark.parametrize("batch", [(), (1,), (2, 3), (100,)])
@pytest.mark.parametrize("dim,order", [(1, 4), (2, 3), (3, 2), (4, 1), (5, 4)])
def test_derive_gathers_the_coefficients_bit_for_bit(batch, dim, order):
    rng = np.random.default_rng(10 * dim + order + sum(batch))
    c = with_special_values(rng.normal(size=batch + (jet_table(dim, order).size,)), rng)
    for axis in range(dim):
        assert Jet(dim, order, c).derive(axis).coeffs.tobytes() == \
            R.Ref(dim, order, c).derive(axis).coeffs.tobytes()


# -- zero marks -------------------------------------------------------------------


def marked_zeros(rng, dim: int, order: int, batch: int = 600) -> list:
    """Marked zeros: a constant, a -0 constant, a product zero by its flags, and its negation."""
    zero = Jet.constant(np.zeros(batch), dim, order)
    negative = Jet.constant(np.full(batch, -0.0), dim, order)
    product = zero * Jet(dim, order, rng.normal(size=(batch, jet_table(dim, order).size)))
    return [zero, negative, product, -product]


@pytest.mark.parametrize("special", [None, -0.0, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("batch", [(ROW_BATCH,), (600,), (2, 300)])
def test_large_batch_constant_is_built_with_its_row_flags(special, batch):
    # from the row form on a constant stores one row, a copy of its value, and None for the rest
    rng = np.random.default_rng(17)
    value = rng.normal(size=batch)
    if special is not None:
        value.reshape(-1)[rng.integers(value.size, size=3)] = special
    one_entry = np.zeros(batch)
    one_entry.reshape(-1)[-1] = 1.0 if special is None else special
    for v in (value, one_entry):
        c = Jet.constant(v, 3, 3)
        rows = stored_rows(c)
        assert c.batch_shape == batch and all(r is None for r in rows[1:])
        if np.count_nonzero(v):
            assert not is_mark(c) and rows[0] is not v and rows[0].tobytes() == v.tobytes()
        else:  # ±0 at every node (one_entry with -0): a mark, which stores no row
            assert is_mark(c) and rows[0] is None
        assert_matches(c.coeffs[..., 0], v, exact=False)
        assert not c.coeffs[..., 1:].any()
    small = Jet.constant(value.reshape(-1)[:ROW_BATCH - 1], 3, 3)
    assert is_dense(small) and small.coeffs.shape == (ROW_BATCH - 1, 20)


def test_large_batch_zero_jets_are_marked():
    rng = np.random.default_rng(30)
    zeros = marked_zeros(rng, 3, 3)
    for z in zeros + [zeros[0].truncated(2), zeros[2].derive(1)]:
        assert is_mark(z) and flags(z) == (True, True) and not z.coeffs.any()
        assert z.batch_shape == (600,) and all(r is None for r in stored_rows(z))
    assert is_mark(Jet.constant(np.zeros(ROW_BATCH - 1), 3, 3))
    assert not is_mark(Jet.constant(np.r_[np.zeros(599), np.nan], 3, 3))
    assert not is_mark(Jet.constant(np.r_[np.zeros(599), 1e-300], 3, 3))


@pytest.mark.parametrize("dim,order", [(1, 4), (2, 3), (3, 4)])
def test_sums_with_a_marked_zero_equal_numpy(dim, order):
    rng = np.random.default_rng(31 + dim)
    size = jet_table(dim, order).size
    x = Jet(dim, order, with_special_values(rng.normal(size=(600, size)), rng))
    with np.errstate(invalid="ignore"):
        for z in marked_zeros(rng, dim, order):
            for got, want in ((x + z, ref(x) + ref(z)), (z + x, ref(z) + ref(x)),
                              (x - z, ref(x) - ref(z)), (z - x, ref(z) - ref(x)), (-z, -ref(z)),
                              (z + z, ref(z) + ref(z)), (z - z, ref(z) - ref(z))):
                assert_matches(got, want, exact=False)
                assert coeff_rows(got.coeffs).flags.c_contiguous
            assert x + z is x and z + x is x and x - z is x
            assert is_mark(-z) and is_mark(z + z)


def test_marked_zero_against_a_broadcast_operand_runs_the_full_sum():
    rng = np.random.default_rng(32)
    size = jet_table(2, 3).size
    z = Jet.constant(np.zeros(600), 2, 3)
    for other in (Jet(2, 3, rng.normal(size=size)), 1.5,
                  Jet(2, 3, rng.normal(size=(2, 600, size)))):
        o = ref(other) if isinstance(other, Jet) else other
        for got, want in ((z + other, ref(z) + o), (other + z, o + ref(z)),
                          (z - other, ref(z) - o), (other - z, o - ref(z))):
            assert not is_mark(got)
            assert_matches(got, want, exact=False)


def test_product_zero_by_its_row_flags_is_marked_and_skips_the_kernel(spy):
    rng = np.random.default_rng(33)
    dim, order = 2, 4
    t = jet_table(dim, order)
    degree = np.array([sum(a) for a in t.alphas])
    ca, cb = rng.normal(size=(2, 600, t.size))
    ca[:, degree < 3] = 0.0  # every term of degree >= 3 x degree >= 2 is truncated
    cb[:, degree < 2] = 0.0
    a, b = Jet(dim, order, ca), Jet(dim, order, cb)
    multiplies = spy(np, "multiply")
    for got in (a * b, b * a):
        assert is_mark(got) and flags(got) == (True, True) and not got.coeffs.any()
        assert all(r is None for r in stored_rows(got))
    assert multiplies == []
    # a product with a term left multiplies each stored row of `a` by the constant's
    assert not is_mark(a * Jet.constant(np.ones(600), dim, order))
    assert len(multiplies) == np.count_nonzero(degree >= 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_marked_zero_times_nonfinite_runs_the_full_kernel(bad, spy):
    rng = np.random.default_rng(34)
    t = jet_table(2, 3)
    c = rng.normal(size=(600, t.size))
    c[7, 4] = bad
    other = Jet(2, 3, c)
    zero = Jet.constant(np.zeros(600), 2, 3)
    multiplies = spy(np, "multiply")
    for x, y in ((zero, other), (other, zero)):
        got = products_match(x, y)
        assert not is_mark(got) and np.isnan(got.coeffs[7]).any()  # 0 * NaN and 0 * ±inf
    # each product multiplies the mark's zeros by the one non-finite row, and by nothing else
    assert len(multiplies) == 2 * sum(1 for a in t.alphas if sum(a) + sum(t.alphas[4]) <= 3)


def test_large_batch_zero_product_returns_its_marked_operand(kernel_calls):
    rng = np.random.default_rng(36)
    dim, order = 3, 3
    size = jet_table(dim, order).size
    finite = Jet(dim, order, rng.normal(size=(600, size)))
    for zero in marked_zeros(rng, dim, order):
        assert zero * finite is zero and finite * zero is zero
        assert Jet(dim, order, rng.normal(size=size)) * zero is zero
    # a broadcast mark gets a fresh mark of the product's shape
    for zero in (Jet.constant(0.0, dim, order), Jet.constant(np.zeros((1, 600)), dim, order)):
        wide = Jet(dim, order, rng.normal(size=(2, 600, size)))
        for got in (zero * wide, wide * zero):
            assert is_mark(got) and got is not zero and got.batch_shape == (2, 600)
            assert got.coeffs.shape == (2, 600, size) and not got.coeffs.any()
            assert all(r is None for r in stored_rows(got))
    assert kernel_calls == []


def test_small_batch_marks_return_an_operand_or_a_mark():
    # their values are the reference's (`test_every_operation_with_a_mark_equals_...`)
    rng = np.random.default_rng(35)
    size = jet_table(2, 3).size
    finite = Jet(2, 3, rng.normal(size=(100, size)))
    x = Jet(2, 3, with_special_values(rng.normal(size=(100, size)), rng))
    found = Jet(2, 3, np.zeros((100, size)))
    for zero in (Jet.constant(np.zeros(100), 2, 3), found * finite):
        assert is_mark(zero) and flags(zero) == (True, True)
        assert x + zero is x and zero + x is x and x - zero is x
        assert zero * finite is zero and finite * zero is zero and zero * 2.5 is zero
        for got in (-zero, zero + zero, 2.5 * zero, zero / 4.0, zero.derive(1), zero.truncated(1)):
            assert is_mark(got) and not got.coeffs.any()
        assert np.shares_memory(zero.derive(1).coeffs, zero.coeffs)
        with np.errstate(invalid="ignore"):  # zero times NaN or ±inf runs the full product
            for got in (zero * x, x * zero, zero * np.nan):
                assert not is_mark(got) and np.isnan(got.coeffs).any()
    # a flag that lies on an unmarked jet shows whether a sum reads it
    liar = Jet(2, 3, rng.normal(size=(100, size)))
    lie_about_flags(liar)
    for a, b in ((finite, liar), (liar, finite)):
        for got, want in ((a + b, a.coeffs + b.coeffs), (a - b, a.coeffs - b.coeffs),
                          (-a, -a.coeffs)):
            assert not is_mark(got) and got is not a and got is not b
            assert flags(got)[0] is None and got.coeffs.tobytes() == want.tobytes()


@given(data=st.data(), name=st.sampled_from(list(OPS)))
@settings(derandomize=True, max_examples=15, deadline=None)
def test_every_operation_with_a_mark_equals_the_unmarked_reference(data, name):
    # the first operand is a whole zero jet, which every public constructor marks
    got = run(data, name, zero=True)
    for j in got if isinstance(got, tuple) else [got]:
        if is_mark(j):
            assert not np.count_nonzero(j.coeffs) and flags(j) == (True, True)


@pytest.mark.parametrize("source", ["constant", "found", "product"])
@pytest.mark.parametrize("batch", [(), (100,), (600,)])
def test_a_mark_builds_each_lower_order_mark_once(batch, source):
    dim, order = 3, 4
    size = jet_table(dim, order).size
    zero = Jet.constant(np.zeros(batch), dim, order)
    if source == "found":
        zero = Jet(dim, order, np.zeros(batch + (size,)))
        assert zero * Jet.constant(1.0, dim, order) is zero
    elif source == "product":  # a fresh mark where the batchless zero broadcasts
        zero = Jet.constant(0.0, dim, order) * Jet(dim, order, np.ones(batch + (size,)))
    assert is_mark(zero) and is_dense(zero) == (batch != (600,))
    lower = {k: zero.truncated(k) for k in range(order)}
    for k, mark in lower.items():
        assert is_mark(mark) and flags(mark) == (True, True) and is_dense(mark) == is_dense(zero)
        assert (mark.dim, mark.order, mark.batch_shape) == (dim, k, batch)
        assert mark.coeffs.shape == batch + (jet_table(dim, k).size,)
        assert not np.count_nonzero(mark.coeffs) and zero.truncated(k) is mark
    for axis in range(dim):
        assert zero.derive(axis) is zero.derive(axis) is lower[order - 1]
    assert zero.truncated(order) is zero
    # the checks still run before a mark is reused, and a refused call keeps nothing
    for call in (lambda: zero.truncated(-1), lambda: zero.truncated(order + 1),
                 lambda: zero.derive(-1), lambda: zero.derive(dim), lambda: lower[0].derive(0)):
        with pytest.raises(ValueError):
            call()
    assert lower_marks(zero) == list(range(order))


@pytest.mark.parametrize("batch", [(), (1,), (100,), (600,)])
def test_every_way_to_build_a_jet_leaves_its_flags_unset_or_marked(batch):
    # a fresh jet's finite flag is None, and its zero flag None, or False in row form;
    # a mark's are both True
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
        assert flags(j) == ((True, True) if is_mark(j) else (None if is_dense(j) else False, None))
    assert any(is_mark(j) for j in built)
    j = fresh()
    if is_dense(j):  # computed flags are Python bools
        j * Jet.constant(0.0, dim, order)
        assert flags(j)[0] is False and flags(j)[1] is True


@pytest.mark.parametrize("shape", [(600,), (2, 600), (), (1,), (100,)])
def test_seed_at_the_origin_of_a_large_batch_is_not_marked(shape):
    x, y = seed_point(np.zeros(shape + (2,)), 3)
    for j in (x, y):
        assert not is_mark(j) and flags(j)[0] is (None if is_dense(j) else False)
    assert np.all((x * y).partial((1, 1)) == 1.0)


@pytest.mark.parametrize("shape", [(2,), (1, 2), (100, 2)])
def test_seeds_at_the_origin_are_not_zero_jets(shape):
    # the value row of both seeds is zero there; their unit derivatives are not
    x, y = seed_point(np.zeros(shape), 2)
    assert np.all((x * x).partial((2, 0)) == 2.0)
    assert np.all((x * y).partial((1, 1)) == 1.0)
    assert not (x * y).coeffs[..., :3].any()


# -- the zero rule, before either kernel ---------------------------------------


@pytest.mark.parametrize("batch", [(1,), (100,), (600,), (2, 32, 64)])
def test_a_zero_times_a_finite_jet_returns_before_either_kernel(batch, kernel_calls):
    # (2, 32, 64) is a quadrature tensor block, whose seeds store short rows
    rng = np.random.default_rng(51 + len(batch))
    dim, order = 3, 3
    size = jet_table(dim, order).size
    finite = Jet(dim, order, rng.normal(size=batch + (size,)))
    seed = seed_point(rng.normal(size=batch + (dim,)), order)[1]
    for zero in (Jet.constant(np.zeros(batch), dim, order),
                 Jet(dim, order, np.zeros(batch + (size,)))):  # a mark, or a dense jet found zero
        for x in (finite, seed):
            assert zero * x is zero and x * zero is zero
        assert is_mark(zero)
    assert kernel_calls == []
    finite * seed  # a product with a term left reaches its kernel
    assert kernel_calls == ["row" if math.prod(batch) >= ROW_BATCH else "dense"]


@pytest.mark.parametrize("batch", [(100,), (ROW_BATCH - 1,), (ROW_BATCH,), (2, 600)])
def test_a_broadcast_zero_times_a_finite_jet_is_a_fresh_mark_of_the_product_batch(
        batch, kernel_calls):
    rng = np.random.default_rng(52)
    dim, order = 2, 3
    size = jet_table(dim, order).size
    finite = Jet(dim, order, rng.normal(size=batch + (size,)))
    zeros = [Jet.constant(0.0, dim, order), Jet.constant(np.zeros((1,) * len(batch)), dim, order)]
    if len(batch) > 1:
        zeros.append(Jet.constant(np.zeros((1,) + batch[1:]), dim, order))  # a row-form mark
    for zero in zeros:
        assert is_mark(zero) and zero.batch_shape != batch
        for got in (zero * finite, finite * zero):
            assert is_mark(got) and got is not zero and got.batch_shape == batch
            assert is_dense(got) == (math.prod(batch) < ROW_BATCH)
            assert got.coeffs.shape == batch + (size,) and not got.coeffs.any()
    assert kernel_calls == []


@pytest.mark.parametrize("batch", [(), (1,), (100,), (ROW_BATCH - 1,)])
@pytest.mark.parametrize("dim,order", [(1, 4), (2, 3), (3, 4)])
def test_zero_operand_product_equals_the_gather(batch, dim, order):
    rng = np.random.default_rng(sum(batch) + 10 * dim + order)
    size = jet_table(dim, order).size
    dense = Jet(dim, order, rng.normal(size=batch + (size,)))
    negative_zeros = np.zeros(batch + (size,))
    negative_zeros[..., ::2] = -0.0
    for zero in (Jet(dim, order, np.zeros(batch + (size,))), Jet(dim, order, negative_zeros),
                 Jet.constant(0.0, dim, order)):
        for a, b in ((zero, dense), (dense, zero), (zero, zero)):
            assert not products_match(a, b).coeffs.any()


def test_zero_operand_broadcasts_a_batchless_constant():
    rng = np.random.default_rng(21)
    size = jet_table(3, 3).size
    row = Jet(3, 3, rng.normal(size=(100, size)))
    zero_row = Jet(3, 3, np.zeros((100, size)))
    for const in (Jet.constant(0.0, 3, 3), Jet(3, 3, rng.normal(size=size))):
        for a, b in ((const, zero_row), (zero_row, const), (const, row), (row, const)):
            assert products_match(a, b).coeffs.shape == (100, size)


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
        assert np.isnan(products_match(a, b).coeffs).any()  # 0 * ±inf and 0 * NaN
    assert flags(other)[1] is False


def test_zero_times_finite_skips_the_gather(kernel_calls):
    size = jet_table(2, 2).size
    zero = Jet(2, 2, np.zeros((100, size)))
    finite = Jet(2, 2, np.ones((100, size)))
    zero * finite
    finite * zero
    assert kernel_calls == []
    nan = np.ones((100, size))
    nan[3, 2] = np.nan
    with np.errstate(invalid="ignore"):
        zero * Jet(2, 2, nan)
    assert kernel_calls == ["dense"]


@pytest.mark.parametrize("batch", [(), (1,), (100,)])
def test_dense_dispatch_reads_each_flag_once_and_keeps_its_returns(batch):
    # `Jet.__mul__` computes a flag only where it is None: a mark or a found zero
    # times a finite operand is that zero itself, and zero times NaN or ±inf runs the kernel
    rng = np.random.default_rng(41 + len(batch))
    dim, order = 3, 2
    size = jet_table(dim, order).size
    finite = Jet(dim, order, rng.normal(size=batch + (size,)))
    mark = Jet.constant(np.zeros(batch), dim, order)
    assert is_mark(mark) and flags(mark) == (True, True)
    assert mark * finite is mark and finite * mark is mark and flags(finite) == (False, True)
    found = Jet(dim, order, np.zeros(batch + (size,)))
    assert not is_mark(found) and flags(found)[0] is None
    assert finite * found is found and is_mark(found) and flags(found) == (True, True)
    negative = np.zeros(batch + (size,))
    negative[..., ::2] = -0.0
    c = rng.normal(size=batch + (size,))
    c[..., 2], c[..., 4] = np.nan, np.inf
    for zero_first in (True, False):
        zero, bad = Jet(dim, order, negative), Jet(dim, order, c)
        x, y = (zero, bad) if zero_first else (bad, zero)
        got = products_match(x, y)
        assert not is_mark(got) and got is not x and got is not y and np.isnan(got.coeffs).any()
        assert is_mark(zero) and flags(bad)[1] is False


def test_zero_flag_is_computed_once_per_jet(spy):
    size = jet_table(2, 2).size
    zero = Jet(2, 2, np.zeros((100, size)))
    finite = Jet(2, 2, np.ones((100, size)))
    counted = nonzero_counts(spy)
    assert flags(zero)[0] is None
    product = zero * finite
    scans = [c for (c,) in counted if c.dtype != bool]  # the finite check counts a mask
    assert len(scans) == 1 and np.shares_memory(scans[0], zero.coeffs)
    assert flags(zero)[0] and flags(product)[0]
    for a, b in ((finite, zero), (product, finite), (zero, product), (finite, finite)):
        a * b
    scans = [c for (c,) in counted if c.dtype != bool]
    assert len(scans) == 2 and np.shares_memory(scans[1], finite.coeffs)


def test_finite_flag_is_computed_once_per_jet(spy):
    size = jet_table(2, 2).size
    zero = Jet(2, 2, np.zeros((100, size)))
    finite = Jet(2, 2, np.ones((100, size)))
    scanned = spy(np, "isfinite")
    assert flags(finite)[1] is None
    product = zero * finite
    assert len(scanned) == 1 and np.shares_memory(scanned[0][0], finite.coeffs)
    assert flags(finite)[1] and flags(product)[1]
    for a, b in ((finite, zero), (zero, finite), (product, finite), (finite, product)):
        assert not (a * b).coeffs.any()
    assert len(scanned) == 1


def test_row_flags_are_computed_once_per_jet(spy):
    # an all-zero row is stored as None; the finiteness of the other operand's
    # stored rows is scanned when a None row first meets them, then cached
    rng = np.random.default_rng(16)
    size = jet_table(2, 2).size
    c = rng.normal(size=(600, size))
    c[:, 3] = 0.0
    a, b = Jet(2, 2, c), Jet(2, 2, rng.normal(size=(600, size)))
    assert [r is None for r in stored_rows(a)] == [i == 3 for i in range(size)]
    assert flags(a)[1] is None and flags(b)[1] is None
    scanned = spy(np, "isfinite")
    a * b
    assert flags(b)[1] is True
    assert len(scanned) == size and all(r is q for (r,), q in zip(scanned, stored_rows(b)))
    b * a
    assert len(scanned) == size  # one scan per jet
    assert flags(a)[1] is None  # b stores every row, so no term needs a's finiteness


def test_the_numpy_1_import_path_binds_numpys_count_nonzero():
    src = os.path.dirname(os.path.dirname(os.path.abspath(jets.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", NUMPY_1_CHECK], env=dict(os.environ, PYTHONPATH=path),
                   check=True, timeout=120)


# -- Taylor compositions -----------------------------------------------------------


@pytest.mark.parametrize("batch", [(1,), (100,), (600,)])
def test_reciprocal_coefficients_keep_the_bits_of_the_signed_power(batch):
    # (-1)^k v^-(k+1) as one power, negated for odd k, has the bits of (-1.0)**k times the power
    rng = np.random.default_rng(61 + sum(batch))
    for order in range(jets.MAX_ORDER + 1):
        c = rng.normal(size=batch + (jet_table(2, order).size,))
        v = c[..., 0]
        for k in range(order + 1):
            p = v ** -(k + 1)
            assert (-p if k % 2 else p).tobytes() == ((-1.0) ** k * v ** (-(k + 1))).tobytes()
        assert_matches(jets.reciprocal(Jet(2, order, c)), R.reciprocal(R.Ref(2, order, c)))


@pytest.mark.parametrize("fn", [jets.sin, jets.cos, jets.sinh, jets.cosh], ids=lambda f: f.__name__)
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("batch", [(), (1,), (600,)])
def test_cyclic_functions_equal_the_per_order_series(fn, order, batch):
    c = np.random.default_rng(40 + order).normal(size=batch + (jet_table(2, order).size,))
    assert_matches(fn(Jet(2, order, c)), getattr(R, fn.__name__)(R.Ref(2, order, c)))


@given(data=st.data(), name=st.sampled_from(["exp", "log", "sqrt", "reciprocal", "sin", "cos",
                                              "sinh", "cosh"]))
@settings(derandomize=True, max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_compositions_equal_the_constant_and_sum_horner(data, name, spy):
    # the reference's Horner: one product per order, then the Taylor coefficient into the value
    products = spy(Jet, "__mul__")
    got = run(data, name)
    if got is not None:
        assert len(products) == got.order


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


def use_reference(monkeypatch, names) -> None:
    """Replace each named `gqem.jets` composition by the reference's, on the same coefficients."""
    def through(name):
        def composed(a, *args):
            out = getattr(R, name)(ref(a), *args)
            return tuple(Jet(o.dim, o.order, o.coeffs) for o in out) if isinstance(out, tuple) \
                else Jet(out.dim, out.order, out.coeffs)
        return composed

    for name in names:
        monkeypatch.setattr(jets, name, through(name))


@pytest.mark.parametrize("structure", ["sphere", "control"])
def test_integral_suite_is_unchanged_by_the_in_place_horner(structure, monkeypatch):
    if structure == "sphere":
        s = example_structure(ModelSpec("sphere", 2, tau=1.5, m=2.0, chart_kind="polar"))
    else:
        s = sphere_control(5)
    got = integral_rows(s, (32, 64))
    use_reference(monkeypatch, ["exp", "log", "sqrt", "reciprocal", "power", "sin", "cos",
                                "sincos", "sinh", "cosh"])
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
    use_reference(monkeypatch, ["sin", "cos", "sincos"])
    assert got == integral_rows(s, resolution)
    assert len(got) == 6


def test_compositions_peak_below_three_and_a_half_results():
    rng = np.random.default_rng(37)
    c = rng.normal(size=(16_384, jet_table(3, 4).size))
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


# -- the row form ------------------------------------------------------------------


@given(data=st.data(), name=st.sampled_from(list(OPS)))
@settings(derandomize=True, max_examples=15, deadline=None)
def test_row_form_equals_the_dense_reference(data, name):
    run(data, name, batches=ROW_BATCHES)


def test_row_form_reuses_its_operands_rows(spy):
    rng = np.random.default_rng(38)
    t = jet_table(3, 4)
    c = rng.normal(size=(600, t.size))
    c[..., 4] = 0.0
    x = Jet(3, 4, c)
    rows = stored_rows(x)
    for axis in range(3):
        derived = stored_rows(x.derive(axis))
        src = [t.index[tuple(b + (k == axis) for k, b in enumerate(a))]
               for a in jet_table(3, 3).alphas]
        assert all(r is rows[k] for r, k in zip(derived, src))
    for lower in range(4):
        assert all(r is q for r, q in zip(stored_rows(x.truncated(lower)), rows))
    # the Taylor compositions' remainder is x with its value row dropped
    operands = spy(Jet, "__mul__")
    jets.exp(x)
    rem = operands[0][1]
    assert stored_rows(rem)[0] is None
    assert all(r is q for r, q in zip(stored_rows(rem)[1:], rows[1:]))
    assert all(other is rem for _, other in operands)
