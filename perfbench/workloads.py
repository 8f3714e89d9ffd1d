"""The benchmark's workloads: their inputs, their passes and their expected verdicts.

A workload is built once (`build`) into a list of cases; one pass runs every
case and checks every verdict against the expected table. All inputs derive
from the benchmark seed: sample points are drawn here and handed to gqem, and
the negative controls take their coefficients from the same generator. The
one exception is the case run through ``gqem verify``, whose input format is a
config file carrying a sampling seed; that seed is drawn here too.

gqem functions are always reached through their module (``models.x``, not
``from gqem.models import x``), so that the traced run's wrappers apply.
"""

from __future__ import annotations

import json
import os
import sys
import traceback
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from gqem import cli, geometry, identities, models, qem, quadrature

WORKLOADS = ("pointwise_sweep", "integral_sphere", "single_point")

TOLS = {2: 1e-8, 3: 1e-7, 4: 1e-6}
INTEGRAL_TOL = 1e-6
M = 2.0

CATALOG_IDS = (
    "defining_equation", "traceless_defining", "radial_identity", "trace_gradient",
    "u_transform", "u_laplacian", "trace_divergence", "gradient_norm_laplacian",
    "curvature_gradient", "hamilton_gradient", "curvature_laplacian", "u_conformality",
    "contracted_bianchi", "div_hessian", "div_outer_grad", "bochner", "lie_divergence",
    "einstein_hessian",
)
# A cubic potential on flat space with trace-solved lambda satisfies only the
# trace of the defining equation: these identities must fail on it (at n >= 3
# einstein_hessian too); the other nine hold for any potential.
CUBIC_FAILS = frozenset({
    "defining_equation", "traceless_defining", "radial_identity",
    "gradient_norm_laplacian", "curvature_gradient", "hamilton_gradient",
    "curvature_laplacian", "u_conformality",
})
F_BALANCES = ("traceless_hessian_balance", "ricci_energy_balance",
              "traceless_hessian_flux", "hessian_energy_identity")
INTEGRAL_IDS = F_BALANCES + ("bochner_integral_balance", "stokes_sanity")
POINT_OPS = ("scalar_curvature", "ricci", "christoffel", "defining_residual")
EXIT_CODE = "exit_code"

# (family, n, tau) of the exact models in pointwise_sweep, all at m = 2;
# sphere n=3 runs through `gqem verify` instead.
SWEEP_MODELS = (
    ("sphere", 2, 1.5), ("sphere", 4, 1.5), ("sphere", 5, 1.5),
    ("euclidean", 2, 1.0), ("euclidean", 3, 1.0), ("euclidean", 4, 1.0),
    ("hyperbolic", 2, 0.5), ("hyperbolic", 3, 0.5), ("hyperbolic", 4, 0.5),
)
SWEEP_POINTS = 100
SINGLE_POINTS = 10
S2_GRID = (64, 128)
S3_GRID = (16, 32, 64)


def pointwise_expected(n: int, control: bool = False) -> dict:
    """Expected verdict per catalog id for an exact model or a cubic control."""
    fails = (CUBIC_FAILS | {"einstein_hessian"}) if control else frozenset()
    return {i: i not in fails for i in CATALOG_IDS
            if n >= 3 or i != "einstein_hessian"}


def integral_expected(control: bool = False) -> dict:
    return {i: not (control and i in F_BALANCES) for i in INTEGRAL_IDS}


def count_mismatches(expected: dict, got: Optional[dict]) -> tuple[int, int]:
    """(checks attempted, checks whose verdict is wrong) for one case.

    `got` maps check id to (passed, ...); None means the case raised, and
    every expected check counts as wrong. Missing or unexpected ids are wrong.
    """
    if got is None:
        return len(expected), len(expected)
    extra = sum(1 for k in got if k not in expected)
    wrong = sum(1 for k, ok in expected.items() if k not in got or got[k][0] != ok)
    return len(expected) + extra, wrong + extra


@dataclass
class Case:
    """One structure of a workload: `run()` returns {check id: (passed, residual/tol, evals)}."""

    label: str
    expected: dict
    run: Callable[[], dict]


@dataclass
class PassResult:
    attempted: int
    wrong: int
    evals: int
    worst_ratio: float


def check_case(case: Case, scope=None) -> PassResult:
    """Run one case and check its verdicts; a case that raises counts wholly wrong.

    `scope(label)`, when given, is a context manager entered around the case
    (the traced run uses it to attribute counts to cases).
    """
    try:
        if scope is None:
            got = case.run()
        else:
            with scope(case.label):
                got = case.run()
    except Exception:  # the benchmark keeps running and reports the checks as wrong
        traceback.print_exc(file=sys.stderr)
        got = None
    attempted, wrong = count_mismatches(case.expected, got)
    evals, worst = 0, 0.0
    for k, (ok, ratio, n_evals) in (got or {}).items():
        if k in case.expected and case.expected[k] == bool(ok):
            evals += n_evals
            if ok:
                worst = max(worst, ratio)
    return PassResult(attempted, wrong, evals, worst)


def combine(results: list) -> PassResult:
    return PassResult(sum(r.attempted for r in results), sum(r.wrong for r in results),
                      sum(r.evals for r in results), max(r.worst_ratio for r in results))


def run_pass(cases: list, scope=None) -> PassResult:
    return combine([check_case(case, scope) for case in cases])


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def draw_points(rng: np.random.Generator, chart, count: int) -> np.ndarray:
    """Uniform draws from the chart's sampling box, kept where the chart is defined."""
    out = np.empty((0, chart.dim))
    while len(out) < count:
        draw = rng.uniform(chart.sample_lo, chart.sample_hi, size=(2 * count, chart.dim))
        out = np.concatenate([out, draw[chart.in_domain(draw)]])
    return out[:count]


def cubic_control(rng: np.random.Generator, n: int):
    """Flat space, f = sum_i a_i x_i^3 with seeded a_i, lambda trace-solved."""
    coef = rng.uniform(0.3, 0.6, n) * rng.choice([-1.0, 1.0], n)
    chart = models.make_chart(models.ModelSpec("euclidean", n, tau=1.0, m=M))

    def fn(*x):
        acc = x[0] * x[0] * x[0] * coef[0]
        for i in range(1, n):
            acc = acc + x[i] * x[i] * x[i] * coef[i]
        return acc

    f = geometry.ScalarField.from_coords(n, fn, "cubic")
    return qem.make_structure(chart, f, M, label=f"cubic control n={n}")


def sphere_control(rng: np.random.Generator):
    """S^2 in polar form, f = a h0^3 + b h1 in ambient heights, lambda trace-solved."""
    a, b = rng.uniform(0.8, 1.2), rng.uniform(0.2, 0.4)
    spec = models.ModelSpec("sphere", 2, tau=1.5, m=M, chart_kind="polar")
    chart = models.make_chart(spec)
    h0 = models.height_field(spec, chart, 0)
    h1 = models.height_field(spec, chart, 1)
    f = h0 * h0 * h0 * a + h1 * b
    return qem.make_structure(chart, f, M, label="S2 control")


# ---------------------------------------------------------------------------
# case runners
# ---------------------------------------------------------------------------


def _suite_verdicts(s, points) -> dict:
    return {e.identity_id: (e.passed, e.max_residual / e.tolerance, e.n_points)
            for e in identities.run_pointwise_suite(s, points, TOLS)}


def _integral_verdicts(rows, nodes: int) -> dict:
    return {r["id"]: (r["pass"], r["relative_gap"] / r["tolerance"], nodes) for r in rows}


def _cli(argv: list, report_path: str) -> tuple[int, dict]:
    rc = cli.main(argv + ["--json", report_path])
    with open(report_path, encoding="utf-8") as fh:
        return rc, json.load(fh)


def _write_config(workdir: str, name: str, lines: list) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _cli_verify_case(workdir: str, family: str, n: int, tau: float, seed: int) -> Case:
    config = _write_config(workdir, "verify.cfg", [
        f"family = {family}", f"n = {n}", f"tau = {tau}", f"m = {M}",
        f"points = {SWEEP_POINTS}", f"seed = {seed}",
    ])
    report = os.path.join(workdir, "verify.json")

    def run():
        rc, rep = _cli(["verify", "--config", config], report)
        got = {r["id"]: (r["pass"], r["max_residual"] / r["tolerance"], r["n_points"])
               for r in rep["pointwise"]}
        got[EXIT_CODE] = (rc == 0, 0.0, 0)
        return got

    return Case(f"{family} n={n} (gqem verify)",
                {**pointwise_expected(n), EXIT_CODE: True}, run)


def _cli_integrate_case(workdir: str) -> Case:
    config = _write_config(workdir, "integrate.cfg", [
        "family = sphere", "n = 2", "tau = 1.5", f"m = {M}",
        "grid = " + ",".join(str(k) for k in S2_GRID),
    ])
    report = os.path.join(workdir, "integrate.json")
    nodes = int(np.prod(S2_GRID))

    def run():
        rc, rep = _cli(["integrate", "--config", config], report)
        got = _integral_verdicts(rep["integrals"], nodes)
        got[EXIT_CODE] = (rc == 0, 0.0, 0)
        return got

    return Case("S2 64x128 (gqem integrate)", {**integral_expected(), EXIT_CODE: True}, run)


def _integral_case(label: str, s, resolution: tuple, control: bool) -> Case:
    # Validates the resolution once; every pass builds a fresh grid, because
    # the node quantities are cached per grid object.
    quadrature.make_sphere_grid(s.chart, resolution)
    nodes = int(np.prod(resolution))

    def run():
        grid = quadrature.make_sphere_grid(s.chart, resolution)
        return _integral_verdicts(quadrature.run_integral_suite(grid, s, INTEGRAL_TOL), nodes)

    return Case(label, integral_expected(control), run)


def _conformal_oracle(family: str, p: np.ndarray):
    """log conformal factor phi (g = e^{2 phi} delta), its gradient and the sectional curvature."""
    q = float(p @ p)
    if family == "sphere":
        return np.log(2.0 / (1.0 + q)), -2.0 * p / (1.0 + q), 1.0
    if family == "hyperbolic":
        return np.log(2.0 / (1.0 - q)), 2.0 * p / (1.0 - q), -1.0
    return 0.0, np.zeros_like(p), 0.0


def point_operator_verdicts(s, family: str, p: np.ndarray) -> dict:
    """The per-point public operators at p against closed forms of the model metric."""
    n = s.chart.dim
    phi, dphi, kappa = _conformal_oracle(family, p)
    g = np.exp(2.0 * phi) * np.eye(n)
    eye = np.eye(n)
    gamma = (np.einsum("ki,j->kij", eye, dphi) + np.einsum("kj,i->kij", eye, dphi)
             - np.einsum("ij,k->kij", eye, dphi))
    tol = TOLS[2]
    errors = {
        "scalar_curvature": abs(geometry.scalar_curvature(s.chart, p) - kappa * n * (n - 1)),
        "ricci": np.max(np.abs(geometry.ricci(s.chart, p).components - kappa * (n - 1) * g)),
        "christoffel": np.max(np.abs(geometry.christoffel(s.chart, p).components - gamma)),
        "defining_residual": np.max(np.abs(qem.defining_residual(s, p).components)),
    }
    return {k: (bool(e < tol), float(e) / tol, 1) for k, e in errors.items()}


def _single_point_case(label: str, s, family: str, points: np.ndarray, control: bool) -> Case:
    base = {**pointwise_expected(s.chart.dim, control),
            **{op: not (control and op == "defining_residual") for op in POINT_OPS}}
    expected = {f"{k}@{j}": v for j in range(len(points)) for k, v in base.items()}

    def run():
        got = {}
        for j, p in enumerate(points):
            per_point = {**_suite_verdicts(s, p[None, :]),
                         **point_operator_verdicts(s, family, p)}
            got.update({f"{k}@{j}": v for k, v in per_point.items()})
        return got

    return Case(label, expected, run)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def build(workload: str, seed: int, workdir: str) -> list:
    """Build, validate and sample everything a workload's passes need."""
    rng = np.random.default_rng(seed)
    if workload == "pointwise_sweep":
        cases = [_cli_verify_case(workdir, "sphere", 3, 1.5, int(rng.integers(2**31)))]
        for family, n, tau in SWEEP_MODELS:
            s = models.example_structure(models.ModelSpec(family, n, tau=tau, m=M))
            pts = draw_points(rng, s.chart, SWEEP_POINTS)
            cases.append(Case(s.label, pointwise_expected(n),
                              lambda s=s, pts=pts: _suite_verdicts(s, pts)))
        s = models.example_structure(models.ModelSpec("sphere", 3, tau=2.0, m=M, radius=2.0))
        pts = draw_points(rng, s.chart, SWEEP_POINTS)
        cases.append(Case(s.label + " (trace-solved)", pointwise_expected(3),
                          lambda s=s, pts=pts: _suite_verdicts(s, pts)))
        for n in (2, 3):
            c = cubic_control(rng, n)
            pts_c = draw_points(rng, c.chart, SWEEP_POINTS)
            cases.append(Case(c.label, pointwise_expected(n, control=True),
                              lambda c=c, pts=pts_c: _suite_verdicts(c, pts)))
        return cases
    if workload == "integral_sphere":
        s3 = models.example_structure(
            models.ModelSpec("sphere", 3, tau=1.5, m=M, chart_kind="polar"))
        return [
            _cli_integrate_case(workdir),
            _integral_case("S3 16x32x64", s3, S3_GRID, control=False),
            _integral_case("S2 64x128 control", sphere_control(rng), S2_GRID, control=True),
        ]
    if workload == "single_point":
        cases = []
        for family, n, tau in (("sphere", 3, 1.5), ("hyperbolic", 2, 0.5)):
            s = models.example_structure(models.ModelSpec(family, n, tau=tau, m=M))
            cases.append(_single_point_case(s.label, s, family,
                                            draw_points(rng, s.chart, SINGLE_POINTS), False))
        c = cubic_control(rng, 2)
        cases.append(_single_point_case(c.label, c, "euclidean",
                                        draw_points(rng, c.chart, SINGLE_POINTS), True))
        return cases
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
