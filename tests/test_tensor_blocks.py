"""Quadrature chunks as tensor blocks, and jet rows stored only along the axes they vary on.

Every quadrature chunk goes to its frame as a ``(k, *resolution[a+1:], n)``
block of whole slabs of the first axis `a` whose slab fits in a chunk
(`quadrature._chunks`). From the row-form batch on, a coordinate's value
row and a constant's row are cut to length 1 along every batch axis on
which they are constant, the row product keeps the broadcast shapes of its
operand rows, and the frame's ``*_values`` arrays keep the common shape of
their components' rows. Every value must keep its
bits: a block and the same nodes as one flat chunk give the same jets, node
quantities and integral rows.

Bits are compared through ``view(np.int64)``, which tells apart everything
``float.hex`` does and NaN payloads besides. The block side evaluates numpy's
transcendentals (sin, cos, exp, log, sqrt, ...) on short rows and the flat
side on full ones, so these tests also guard that those give the same bits
at every array length on the host that runs them.
"""

import math

import numpy as np
import pytest

import jet_reference as R
from gqem import jets
from gqem import quadrature as quad
from gqem.jets import Jet, jet_table
from gqem.geometry import check_metric_spd
from gqem.models import ModelSpec, example_structure, sample_points
from gqem.qem import StructureFrame
from jet_reference import assert_matches
from test_jet_internals import ROW_BATCH, from_rows, is_dense, row_shapes, stored_rows
from test_jets import ref, sphere_control


def same_bits(a, b) -> bool:
    a, b = (np.ascontiguousarray(x, dtype=np.float64) for x in (a, b))
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# -- the compression helper -------------------------------------------------------


def test_compact_keeps_signed_zeros_and_nan_payloads_apart():
    zeros = np.zeros(600)
    zeros[-1] = -0.0
    assert jets.CoordinateValues(zeros).values.shape == (600,)
    nans = np.full((2, 300), np.nan)
    nans.view(np.int64)[1] ^= 1  # the second row's NaNs carry another payload
    assert np.isnan(nans).all() and jets.CoordinateValues(nans).values.shape == (2, 1)
    negative = jets.CoordinateValues(np.full(600, -0.0)).values
    assert negative.shape == (1,) and np.signbit(negative).all()
    c = Jet.constant(nans, 2, 2)
    assert row_shapes(c) == {(2, 1)} and same_bits(c.coeffs[..., 0], nans)


def test_compact_leaves_small_batches_and_distinct_values_alone():
    for x in (np.full(ROW_BATCH - 1, 3.0), np.full((1, ROW_BATCH - 1), 3.0), np.arange(600.0),
              np.arange(600.0).reshape(2, 300)):
        assert jets.CoordinateValues(x).values.shape == x.shape
    assert is_dense(Jet.constant(np.full(ROW_BATCH - 1, 3.0), 2, 2))


def test_compact_cuts_each_constant_axis():
    grid = np.add.outer(np.arange(4.0), np.zeros((3, 50)))  # varies along axis 0 only
    assert jets.CoordinateValues(grid).values.shape == (4, 1, 1)
    assert jets.CoordinateValues(np.full((4, 3, 50), 2.0)).values.shape == (1, 1, 1)
    x, y = jets.seed_point(np.stack([grid, np.full_like(grid, 1.5)], axis=-1), 2)
    assert x.batch_shape == (4, 3, 50) and stored_rows(x)[0].shape == (4, 1, 1)
    assert stored_rows(y)[0].shape == (1, 1, 1) and x.value.shape == (4, 3, 50)
    assert same_bits(x.value, grid) and (y.value == 1.5).all()


def s3_structure():
    return example_structure(ModelSpec("sphere", 3, tau=1.5, m=2.0, chart_kind="polar"))


def s3_block():
    """The first chunk of S³ 16×32×64 on the polar chart: 8 whole slabs of the leading angle."""
    s = s3_structure()
    res = (16, 32, 64)
    nodes = quad.make_sphere_grid(s.chart, res).nodes
    (lo, block), (lo2, block2) = quad._chunks(nodes, res)
    assert lo == 0 and lo2 == quad._CHUNK
    assert block.shape == block2.shape == (8, 32, 64, 3)
    return s, block


def test_rows_of_an_s3_block_keep_only_the_axes_they_vary_on():
    s, block = s3_block()
    fr = StructureFrame(s, block)
    g = fr.metric(2)
    assert row_shapes(g[2, 2]) == {(8, 32, 1)}
    assert row_shapes(g[1, 1]) == {(8, 1, 1)}
    assert row_shapes(fr.f_jet(2)) == {(8, 1, 1)}
    ric = fr.ricci(1)
    assert row_shapes(ric[2, 2]) == {(8, 32, 1)}
    assert set().union(*(row_shapes(r) for r in ric.flat)) <= {(8, 32, 1), (8, 1, 1)}
    assert all(j.batch_shape == (8, 32, 64) for j in (g[2, 2], ric[2, 2], fr.f_jet(2)))


def test_chunks_are_blocks_only_where_they_cover_whole_slabs():
    def shapes(res):
        return [c.shape for _, c in quad._chunks(np.zeros((math.prod(res), len(res))), res)]

    assert shapes((64, 128)) == [(64, 128, 2)]
    assert shapes((16, 32, 64)) == [(8, 32, 64, 3)] * 2
    # 27,648 nodes: 14 slabs of 1,152 nodes fit in 16,384, and 10 are left
    assert shapes((24, 24, 48)) == [(14, 24, 48, 3), (10, 24, 48, 3)]
    assert shapes((37, 53)) == [(37, 53, 2)]
    # a leading slab of 18,432 nodes does not fit, so blocks are slabs of the azimuth
    assert shapes((12, 192, 96)) == [(170, 96, 3), (22, 96, 3)] * 12


def test_chunks_past_the_leading_slab_lie_on_the_flat_chunks_boundaries(monkeypatch):
    monkeypatch.setattr(quad, "_CHUNK", 512)
    res = (4, 16, 64)  # a leading slab of 1,024 nodes
    nodes = np.arange(math.prod(res) * 3.0).reshape(-1, 3)
    chunks = list(quad._chunks(nodes, res))
    assert [(lo, block.shape) for lo, block in chunks] == [(512 * i, (8, 64, 3)) for i in range(8)]
    for (lo, block), (lo2, flat) in zip(chunks, flat_chunks(nodes, res)):
        assert lo == lo2 and np.shares_memory(block, nodes)
        assert same_bits(block.reshape(flat.shape), flat)


# -- value arrays at the shapes their rows are stored in -----------------------------


def dense_values(js) -> np.ndarray:
    """Every component's value at every node, batch axes first: the full-size reference."""
    comp = np.asarray(js, dtype=object)
    vals = np.stack([j.value for j in comp.flat], axis=-1)
    return vals.reshape(vals.shape[:-1] + comp.shape)


def assert_values_broadcast_to_the_batch(fr, phi) -> dict:
    """Each `*_values` array broadcasts to the frame's batch with the bits of `dense_values`."""
    batch = fr.f_jet(0).batch_shape
    got = {
        "metric": (fr.metric_values(), fr.metric(0)),
        "inverse metric": (fr.metric_inv_values(), fr.metric_inv(0)),
        "Ricci": (fr.ricci_values(), fr.ricci(0)),
        "gradient": (fr.grad_values(phi), fr.grad(phi, 0)),
        "Hessian": (fr.hessian_values(phi), fr.hessian(phi, 0)),
    }
    for name, (values, js) in got.items():
        want = dense_values(js)
        assert want.shape[: len(batch)] == batch, name
        assert same_bits(np.broadcast_to(values, want.shape), want), name
    return {name: values.shape for name, (values, _) in got.items()}


def test_values_of_flat_euclidean_points_broadcast_to_the_batch():
    s = example_structure(ModelSpec("euclidean", 3, tau=1.0, m=2.0))
    pts = sample_points(s.chart, 600, seed=11)
    shapes = assert_values_broadcast_to_the_batch(StructureFrame(s, pts), s.f)
    assert shapes["metric"] == shapes["inverse metric"] == (1, 3, 3)  # every row compacts to (1,)
    assert shapes["gradient"] == (600, 3)
    assert check_metric_spd(s.chart, pts) == 1.0


def test_values_of_an_s3_block_broadcast_to_the_batch():
    s, block = s3_block()
    shapes = assert_values_broadcast_to_the_batch(StructureFrame(s, block), s.f)
    assert shapes["metric"] == shapes["Ricci"] == (8, 32, 1, 3, 3)
    assert shapes["gradient"] == (8, 1, 1, 3)  # f and g¹¹ vary along θ₁ only


# -- the row product on rows of different shapes -----------------------------------

SHAPES = [None, (), (4, 1), (1, 150), (4, 150)]


def shaped_jet(rng, dim: int, order: int, shapes: list) -> Jet:
    rows = tuple(None if sh is None else rng.normal(size=sh) for sh in shapes)
    return from_rows(dim, order, rows, (4, 150))


@pytest.mark.parametrize("dim,order", [(1, 4), (2, 2), (2, 3), (3, 2)])
def test_row_product_of_broadcast_rows_equals_the_dense_product(dim, order):
    rng = np.random.default_rng(40 + 10 * dim + order)
    size = jet_table(dim, order).size
    for _ in range(6):
        a, b = (shaped_jet(rng, dim, order, [SHAPES[i] for i in rng.integers(5, size=size)])
                for _ in range(2))
        for x, y in ((a, b), (b, a), (a, a)):
            got = x * y
            assert got.batch_shape == (4, 150)
            # a skipped term is ±0, so the values are the reference's up to the sign of a zero
            assert_matches(got, ref(x) * ref(y), exact=False)
            rx, ry = stored_rows(x), stored_rows(y)
            for row, terms in zip(stored_rows(got), R.terms(dim, order)):
                kept = [np.broadcast_shapes(np.shape(rx[i]), np.shape(ry[j]))
                        for i, j, _ in terms if rx[i] is not None and ry[j] is not None]
                assert np.shape(row) == (np.broadcast_shapes(*kept) if kept else ())
                assert (row is None) == (not kept)


def test_row_product_of_two_0d_rows_keeps_its_leibniz_factor():
    # x² at order 2 has d²/dx² = 2 · x₁ · x₁ from two 0-d unit rows: np.multiply of two
    # 0-d arrays is a numpy scalar, so an in-place factor on it would be lost
    x = jets.seed_variable(0, np.linspace(0.1, 1.0, 600), 2, 2)
    assert stored_rows(x)[1].shape == ()
    sq = x * x
    k = jet_table(2, 2).index[(2, 0)]
    assert stored_rows(sq)[k].shape == () and float(stored_rows(sq)[k]) == 2.0
    assert (sq.partial((2, 0)) == 2.0).all() and (sq.partial((1, 0)) == 2 * x.value).all()
    assert_matches(sq, ref(x) * ref(x))
    # and a later 0-d term into a 0-d output
    y = jets.seed_variable(1, np.full(600, 0.5), 2, 2)
    xy = (x + y) * (x + y)
    assert_matches(xy, ref(x + y) * ref(x + y))
    assert float(stored_rows(xy)[jet_table(2, 2).index[(1, 1)]]) == 2.0


# -- a tensor block against the same nodes as one flat chunk ---------------------------

# name: (structure, resolution, `_CHUNK`, first block's shape)
CASES = {
    "S2 64x128": (lambda: example_structure(ModelSpec("sphere", 2, tau=1.5, m=2.0,
                                                      chart_kind="polar")),
                  (64, 128), quad._CHUNK, (64, 128, 2)),
    "S2 64x128 control": (lambda: sphere_control(5), (64, 128), quad._CHUNK, (64, 128, 2)),
    "S3 16x32x64": (s3_structure, (16, 32, 64), quad._CHUNK, (8, 32, 64, 3)),
    # blocks of azimuth slabs, as where the leading slab exceeds `_CHUNK`
    "S3 4x16x64, chunks of 512": (s3_structure, (4, 16, 64), 512, (8, 64, 3)),
}


def flat_chunks(nodes, resolution):
    for lo in range(0, nodes.shape[0], quad._CHUNK):
        yield lo, nodes[lo : lo + quad._CHUNK]


def assert_same_jets(block_jets, flat_jets, name: str) -> None:
    """Every coefficient of every jet at every node, one jet at a time."""
    block_jets = np.asarray(block_jets, dtype=object).ravel()
    flat_jets = np.asarray(flat_jets, dtype=object).ravel()
    assert len(block_jets) == len(flat_jets)
    for idx, (jb, jf) in enumerate(zip(block_jets, flat_jets)):
        cf = jf.coeffs
        assert same_bits(jb.coeffs.reshape(cf.shape), cf), (name, idx)


@pytest.mark.parametrize("case", list(CASES))
def test_a_block_gives_the_bits_of_the_flat_chunk(case, monkeypatch):
    make, res, chunk, shape = CASES[case]
    monkeypatch.setattr(quad, "_CHUNK", chunk)
    s, n = make(), len(res)
    grid = quad.make_sphere_grid(s.chart, res)
    (_, block), *_ = quad._chunks(grid.nodes, res)
    assert block.shape == shape
    fb, ff = StructureFrame(s, block), StructureFrame(s, block.reshape(-1, n))
    layers = {
        "metric (order 3)": lambda fr: fr.metric(3),
        "inverse metric (order 2)": lambda fr: fr.metric_inv(2),
        "Christoffel (order 2)": lambda fr: fr.gamma(2),
        "Riemann (order 1)": lambda fr: fr.riemann(1),
        "Ricci (order 1)": lambda fr: fr.ricci(1),
        "R (order 1)": lambda fr: fr.scalar_curvature_jet(1),
        "f (order 3)": lambda fr: fr.f_jet(3),
        "lambda (order 1)": lambda fr: fr.lam_jet(1),
        "u (order 2)": lambda fr: fr.u_jet(2),
    }
    for name, get in layers.items():
        assert_same_jets(get(fb), get(ff), name)
    del fb, ff
    got_q, got_rows = quad._node_quantities(grid, s), quad.run_integral_suite(grid, s, 1e-6)
    with monkeypatch.context() as mp:
        mp.setattr(quad, "_chunks", flat_chunks)
        flat_grid = quad.make_sphere_grid(s.chart, res)
        want_q = quad._node_quantities(flat_grid, s)
        want_rows = quad.run_integral_suite(flat_grid, s, 1e-6)
    assert same_bits(grid.weights, flat_grid.weights)
    assert got_q.keys() == want_q.keys()
    for key, values in got_q.items():
        assert (values is None) == (want_q[key] is None), key
        assert values is None or same_bits(values, want_q[key]), key
    assert len(got_rows) == 6
    for got, want in zip(got_rows, want_rows):
        assert got["id"] == want["id"]
        assert [float(got[k]).hex() for k in ("lhs", "rhs", "relative_gap")] == \
            [float(want[k]).hex() for k in ("lhs", "rhs", "relative_gap")], got["id"]
