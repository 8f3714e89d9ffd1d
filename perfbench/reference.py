"""Fixed host reference kernel and the normalisation of timed intervals.

The machine this benchmark runs on is shared, and its speed drifts by more
than a tenth within seconds. Every timed interval is therefore bracketed by a
run of a fixed kernel that imports no gqem code, and reported as

    normalized = raw * R0 / R,    R = (reference before + reference after) / 2.

The kernel has the kinds of work the workloads do: a pure-Python loop
(interpreter overhead per jet operation) and a numpy gather plus
``np.add.reduceat`` of jet-product shape at batch 1 (numpy call overhead),
batch 100 and batch 16384 (the large one contends for the shared last-level
cache as big quadrature chunks do). Each workload is bracketed by the parts
that track it: in ten runs of ``single_point`` the spread of ``pass_s`` was
2.9% with the Python and batch-1 parts and 9.7% with the other three, while
``pointwise_sweep`` spread least (2.1%, five runs) with the Python, batch-100
and batch-16384 parts. R0 is the median of R on the reference host, recorded
once, so a normalized time reads in seconds of that host.
"""

from __future__ import annotations

import time

import numpy as np

PARTS = {
    "pointwise_sweep": ("python", "batch100", "batch16384"),
    "integral_sphere": ("python", "batch100", "batch16384"),
    "single_point": ("python", "batch1"),
}
# Median R per workload on the reference host: 2 vCPU Xeon, Python 3.11.7,
# numpy 2.4.6, OPENBLAS_NUM_THREADS=1.
R0_S = {"pointwise_sweep": 0.055, "integral_sphere": 0.055, "single_point": 0.03}

_PY_REPS = 30_000
_REPS = {"batch1": 1500, "batch100": 70, "batch16384": 1}


def _product_table(size: int, triples: int, seed: int):
    """Synthetic gather/reduceat table shaped like a jet product table."""
    rng = np.random.default_rng(seed)
    out = np.sort(np.concatenate(
        [np.arange(size), rng.integers(0, size, triples - size)]))
    ii = rng.integers(0, size, triples)
    jj = rng.integers(0, size, triples)
    ff = rng.uniform(0.5, 2.0, triples)
    starts = np.searchsorted(out, np.arange(size))
    return ii, jj, ff, starts


def _python_loop(reps: int) -> float:
    acc = 0.0
    slots = {}
    for i in range(reps):
        key = (i & 63, i & 7)
        slots[key] = slots.get(key, 0.0) + 0.5
        acc += slots[key] * (i % 7)
    return acc


def _products(a, b, table, reps: int) -> float:
    ii, jj, ff, starts = table
    total = 0.0
    for _ in range(reps):
        prod = a[..., ii] * b[..., jj] * ff
        total += float(np.add.reduceat(prod, starts, axis=-1)[0, 0])
    return total


class ReferenceKernel:
    """The fixed kernel for one workload; `run()` returns its wall time R in seconds."""

    def __init__(self, workload: str):
        rng = np.random.default_rng(3)
        # dim 3, order 4 (35 coefficients, 210 products) at batch 1 and 100;
        # dim 3, order 3 (20 coefficients, 84 products) at batch 16384.
        shapes = {"batch1": (1, 35, 210), "batch100": (100, 35, 210),
                  "batch16384": (16384, 20, 84)}
        self._work = []
        for part in PARTS[workload]:
            if part == "python":
                self._work.append((_python_loop, (_PY_REPS,)))
                continue
            batch, size, triples = shapes[part]
            table = _product_table(size, triples, seed=size)
            a, b = rng.standard_normal((2, batch, size))
            self._work.append((_products, (a, b, table, _REPS[part])))

    def run(self) -> float:
        start = time.perf_counter()
        for fn, args in self._work:
            fn(*args)
        return time.perf_counter() - start


def normalize(raw_s: float, ref_before_s: float, ref_after_s: float, r0_s: float) -> float:
    """Host-normalized time of an interval bracketed by two reference runs."""
    return raw_s * r0_s / (0.5 * (ref_before_s + ref_after_s))
