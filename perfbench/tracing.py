"""Span tracing of gqem's layers from outside the package.

`install` wraps the public functions and methods of ``jets``, ``geometry``,
``qem``, ``identities``, ``quadrature``, ``models`` and ``cli`` in place for
the duration of a ``with`` block and restores every original after it. A wrapped call records a
span (name, start, end, parent); a layer's self time is the duration of its
spans minus the time their child spans cover. ``Jet.__mul__`` is too frequent
for a span per call (tens of thousands per pass at batch 1), so its time and
counts are aggregated per parent span instead.

Counts (jet products, frames, metric builds) are kept per scope as well as in
total. The caller opens a scope around each workload case, and each call of
``run_pointwise_suite`` or ``run_integral_suite`` opens one nested in it, so a
count can be compared with the figure for that case or that suite call alone.

Functions that other modules imported by name are patched wherever a gqem
module holds them. ``CATALOG`` and ``INTEGRAL_SUITE`` hold their runners by
reference, so they are replaced by copies with wrapped runners; the library's
own suite loops then run unchanged.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import defaultdict
from contextlib import contextmanager

MUL = "jets.mul"
FIELD_JET = "geometry.field_jet"

# span name -> methods (class, attribute) or module functions it covers
_METHOD_SPANS = {
    "geometry.metric": [("Chart", "metric_jets"), ("ChartFrame", "metric"),
                        ("ChartFrame", "metric_values")],
    "geometry.metric_inv": [("ChartFrame", "metric_inv"), ("ChartFrame", "metric_inv_values")],
    "geometry.gamma": [("ChartFrame", "gamma")],
    "geometry.riemann": [("ChartFrame", "riemann")],
    "geometry.ricci": [("ChartFrame", "ricci"), ("ChartFrame", "ricci_values")],
    "geometry.scalar_curvature": [("ChartFrame", "scalar_curvature_jet"),
                                  ("ChartFrame", "scalar_curvature_value")],
    "geometry.field_ops": [("ChartFrame", name) for name in (
        "grad", "hessian", "laplacian", "grad_norm2", "covariant_vector", "div_vector",
        "lie_metric", "div_tensor2", "laplacian_of_jet", "grad_values_of_jet",
        "partials_of_jet", "grad_values", "hessian_values")],
    FIELD_JET: [("ScalarField", "jet"), ("VectorField", "jet"), ("Tensor2Field", "jet")],
    "qem.values": [("StructureFrame", "bakry_emery_values"), ("StructureFrame", "defining_values"),
                   ("StructureFrame", "traceless_values")],
}
_FUNCTION_SPANS = {
    "jets.elementary": ("jets", ("exp", "log", "sqrt", "reciprocal", "sin", "cos",
                                 "sinh", "cosh", "power")),
    "qem.values": ("qem", ("u_transform_values", "radial_identity_values",
                           "u_laplacian_values", "trace_divergence_values",
                           "defining_residual", "traceless_residual", "bakry_emery_ricci",
                           "u_transform_residual", "radial_identity_residual", "is_gqem")),
    "quadrature.node_pass": ("quadrature", ("_node_quantities",)),
    "quadrature.stokes": ("quadrature", ("stokes_sanity",)),
    "quadrature.grid": ("quadrature", ("make_sphere_grid",)),
    "models.structure": ("models", ("example_structure", "make_chart", "height_field",
                                    "make_structure")),
    "models.sample": ("models", ("sample_points",)),
}

# counters kept per scope
PRODUCTS, ZERO_PRODUCTS, TERMS = "jets.mul_calls", "jets.mul_zero_products", "jets.mul_terms"
FRAMES, HIDDEN_FRAMES, METRIC_BUILDS = ("geometry.frames", "geometry.hidden_frames",
                                        "geometry.metric_builds")


class Tracer:
    """Spans and counts of one traced interval, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []  # [name, start, end, parent index or None]
        self.stack: list = []  # indices of the open spans
        self.aggregates: dict = {}  # parent index -> seconds in Jet.__mul__
        self.counts = defaultdict(lambda: defaultdict(int))  # scope -> counter -> value
        self.scopes = [""]  # open scopes, outermost first; "" holds the totals

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self.stack[-1] if self.stack else None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    @contextmanager
    def scope(self, label: str):
        """Count into scope `label` as well as the open ones, and time a span of that name."""
        self.scopes.append(label)
        try:
            with self.span("scope:" + label):
                yield
        finally:
            self.scopes.pop()

    def count(self, key: str, amount: int = 1) -> None:
        for label in self.scopes:
            self.counts[label][key] += amount

    def in_span(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def totals(self) -> dict:
        return dict(self.counts[""])


def self_times(spans: list, aggregates: dict) -> dict:
    """Self time per span name: each span's duration minus its children's.

    `aggregates` maps a parent span index to seconds spent in aggregated
    ``Jet.__mul__`` calls under it; they count as one child named `MUL`.
    """
    child = [0.0] * len(spans)
    out = defaultdict(float)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    for parent, seconds in aggregates.items():
        if parent is not None:
            child[parent] += seconds
        out[MUL] += seconds
    for i, (name, start, end, _parent) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return dict(out)


def _span_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


def _mul_wrapper(tracer: Tracer, jets, fn):
    Jet, jet_table = jets.Jet, jets.jet_table

    @functools.wraps(fn)
    def wrapper(self, other):
        start = tracer.clock()
        try:
            return fn(self, other)
        finally:
            seconds = tracer.clock() - start
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.aggregates[parent] = tracer.aggregates.get(parent, 0.0) + seconds
            if isinstance(other, Jet):
                tracer.count(PRODUCTS)
                if not self.coeffs.any() or not other.coeffs.any():
                    tracer.count(ZERO_PRODUCTS)
                batch = self.coeffs.size // self.coeffs.shape[-1]
                tracer.count(TERMS, batch * len(jet_table(self.dim, self.order).mul_ii))

    return wrapper


def _frame_init_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        tracer.count(FRAMES)
        if tracer.in_span(FIELD_JET):
            tracer.count(HIDDEN_FRAMES)
        return fn(self, *args, **kwargs)

    return wrapper


def _metric_build_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        tracer.count(METRIC_BUILDS)
        return fn(self, *args, **kwargs)

    return wrapper


def _scope_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.scope(f"{tracer.scopes[-1]}/{fn.__name__}"):
            return fn(*args, **kwargs)

    return wrapper


def _cli_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(argv=None):
        command = argv[0] if argv else "main"
        with tracer.span(f"cli.{command}"):
            return fn(argv)

    return wrapper


@contextmanager
def install(tracer: Tracer):
    """Wrap gqem's layers for `tracer` while the block runs; every original is restored after."""
    import gqem
    from gqem import cli, geometry, identities, jets, models, qem, quadrature

    modules = (gqem, jets, geometry, qem, models, identities, quadrature, cli)
    classes = {"Chart": geometry.Chart, "ChartFrame": geometry.ChartFrame,
               "ScalarField": geometry.ScalarField, "VectorField": geometry.VectorField,
               "Tensor2Field": geometry.Tensor2Field, "StructureFrame": qem.StructureFrame}
    undo: list = []

    def patch_attr(owner, name, value):
        undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def patch_everywhere(original, replacement):
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    patch_attr(mod, name, replacement)

    try:
        traced_mul = _mul_wrapper(tracer, jets, jets.Jet.__dict__["__mul__"])
        patch_attr(jets.Jet, "__mul__", traced_mul)
        patch_attr(jets.Jet, "__rmul__", traced_mul)
        patch_attr(geometry.ChartFrame, "__init__",
                   _frame_init_wrapper(tracer, geometry.ChartFrame.__dict__["__init__"]))
        for span, targets in _METHOD_SPANS.items():
            for cls_name, attr in targets:
                cls = classes[cls_name]
                wrapped = _span_wrapper(tracer, span, cls.__dict__[attr])
                if (cls_name, attr) == ("Chart", "metric_jets"):
                    wrapped = _metric_build_wrapper(tracer, wrapped)
                patch_attr(cls, attr, wrapped)
        for span, (mod_name, names) in _FUNCTION_SPANS.items():
            for name in names:
                original = getattr(getattr(gqem, mod_name), name)
                patch_everywhere(original, _span_wrapper(tracer, span, original))
        patch_everywhere(cli.main, _cli_wrapper(tracer, cli.main))
        for suite_fn in (identities.run_pointwise_suite, quadrature.run_integral_suite):
            patch_everywhere(suite_fn, _scope_wrapper(tracer, suite_fn))

        catalog = tuple(
            dataclasses.replace(info, runner=_span_wrapper(
                tracer, f"identities.{info.identity_id}", info.runner))
            for info in identities.CATALOG)
        patch_everywhere(identities.CATALOG_BY_ID, {info.identity_id: info for info in catalog})
        patch_everywhere(identities.CATALOG, catalog)
        suite = tuple((name, _span_wrapper(tracer, "quadrature.checks", fn), needs_m)
                      for name, fn, needs_m in quadrature.INTEGRAL_SUITE)
        patch_everywhere(quadrature.INTEGRAL_SUITE, suite)
        yield tracer
    finally:
        while undo:
            owner, name, value = undo.pop()
            setattr(owner, name, value)
