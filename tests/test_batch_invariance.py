"""A point's jets and residual rows do not depend on the batch it is computed in.

Every jet product sums each output in table order at every batch size
(`gqem.jets`), in the dense product and on both sides of the row-form batch
`ROW_BATCH`, so one point gives the same bits alone, in a pointwise chunk
and in a batch large enough for the row form. `tests/test_jets.py` checks
each jet operation against a reference that computes every node alone.
"""

import numpy as np
import pytest

from gqem import identities as idt
from gqem.geometry import ChartFrame
from gqem.models import ModelSpec, example_structure, sample_points
from gqem.qem import StructureFrame, residual
from test_charts import chart_runners, warped_chart
from test_jet_internals import ROW_BATCH

BATCHES = (1, 63, 64, 100, ROW_BATCH - 1, ROW_BATCH, 600)


def bits(values) -> list:
    """`float.hex` of every entry.

    The sign of a zero is compared too. The row product and operations with a
    zero mark promise only `==` with the full operation, which would allow a
    ±0 difference, but none arises here.
    """
    return [v.hex() for v in np.asarray(values, dtype=np.float64).ravel().tolist()]


def jet_bits(js, q: int) -> list:
    """`bits` of every coefficient at node `q` of each jet in `js`, one jet or an array of them."""
    out = []
    for j in np.asarray(js, dtype=object).ravel():
        out += bits(j.coeffs[q] if j.batch_shape else j.coeffs)
    return out


def quantities(frame, runners: dict) -> dict:
    """Name -> (points, node) -> bits: the curvature jets, then one entry per residual row.

    Each quantity gets a fresh frame (`frame(points)`), as each suite row does.
    """
    out = {
        "R jet (order 2)": lambda p, q: jet_bits(frame(p).scalar_curvature_jet(2), q),
        "Ricci jets (order 1)": lambda p, q: jet_bits(frame(p).ricci(1), q),
        "inverse metric jets (order 2)": lambda p, q: jet_bits(frame(p).metric_inv(2), q),
    }
    for name, run in runners.items():
        out[name] = lambda p, q, run=run: bits(residual(*run(frame(p)))[q])
    return out


def structure_case(spec: ModelSpec):
    s = example_structure(spec)
    runners = {info.identity_id: info.runner for info in idt.CATALOG
               if info.kind == "pointwise" and idt.applicable(info, s)}
    return (quantities(lambda p: StructureFrame(s, p), runners),
            sample_points(s.chart, BATCHES[-1], seed=7))


def warped_case(n: int):
    chart = warped_chart(n)
    points = np.random.default_rng(7).uniform(-0.6, 0.6, size=(BATCHES[-1], n))
    return quantities(lambda p: ChartFrame(chart, p), chart_runners(chart)), points


CASES = {
    "sphere n=3": lambda: structure_case(ModelSpec("sphere", 3, tau=1.0, m=2.0)),
    "hyperbolic n=4": lambda: structure_case(ModelSpec("hyperbolic", 4, tau=0.5, m=2.0)),
    # lambda trace-solved on the frame that asks for it
    "sphere n=3 r=2": lambda: structure_case(ModelSpec("sphere", 3, tau=2.0, m=2.0, radius=2.0)),
    "warped n=3": lambda: warped_case(3),
}


@pytest.mark.parametrize("case", list(CASES))
def test_a_point_gives_the_same_bits_in_every_batch(case):
    # the point is the last node of each batch: alone, below and at the layer crossover,
    # in a pointwise chunk, the largest gather batch and two row-form batches
    found, points = CASES[case]()
    assert len(found) > 3  # every case has residual rows
    for name, get in found.items():
        alone = get(points[-1:], 0)
        for batch in BATCHES[1:]:
            assert get(points[-batch:], batch - 1) == alone, (name, batch)
