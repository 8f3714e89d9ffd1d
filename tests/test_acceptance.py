"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines (they are also printed without -s on failure).
"""

import json
import math
import time

import numpy as np
import pytest

from gqem import identities as idt
from gqem import jets
from gqem import quadrature as quad
from gqem.cli import main as cli_main
from gqem.geometry import ScalarField
from gqem.jets import Jet, jet_table, seed_point
from gqem.models import (
    ModelSpec,
    default_sweep,
    example_structure,
    height_field,
    make_chart,
    sample_points,
)
from gqem.qem import StructureFrame, is_gqem, make_structure, rank_one_proportionality

FAMILIES = ("sphere", "euclidean", "hyperbolic")

LEMMA_IDS_1E7 = (
    "gradient_norm_laplacian",
    "curvature_gradient",
    "hamilton_gradient",
    "trace_gradient",
    "trace_divergence",
    "u_transform",
    "radial_identity",
)


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}")
    assert passed, detail


def test_criterion_1_defining_equation_fidelity():
    """Eq-residual sup over 100 seeded points < 1e-8 on the full 81-structure sweep."""
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for family in FAMILIES:
        sweep = default_sweep(family)
        assert len(sweep) == 27
        for spec in sweep:
            s = example_structure(spec, validate=False)
            pts = sample_points(s.chart, 100, seed=1000 + count)
            chk = is_gqem(s, pts, 1e-8)
            worst = max(worst, chk.sup_residual)
            count += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst < 1e-8 and elapsed < 30.0,
        f"defining-equation sup residual {worst:.3e} < 1e-8 over {count} structures "
        f"x 100 points in {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_lemma_suite():
    """Third-order identities < 1e-7 and the fourth-order identity < 1e-6 on the sweep."""
    worst3 = 0.0
    worst4 = 0.0
    for family in FAMILIES:
        for k, spec in enumerate(default_sweep(family)):
            s = example_structure(spec, validate=False)
            pts = sample_points(s.chart, 10, seed=2000 + k)
            for ident in LEMMA_IDS_1E7:
                info = idt.CATALOG_BY_ID[ident]
                if not idt.applicable(info, s):
                    continue
                res = info.runner(StructureFrame(s, pts))
                worst3 = max(worst3, float(np.max(np.abs(res))))
            worst4 = max(
                worst4, float(np.max(idt.curvature_laplacian_residual(StructureFrame(s, pts))))
            )
    # cross-validation of the fourth-order path against finite differences
    s = example_structure(ModelSpec("sphere", 2, tau=1.0, m=2.0))
    fd_gap = 0.0
    for p in sample_points(s.chart, 5, seed=2999):
        r_jet = float(idt.curvature_laplacian_residual(StructureFrame(s, p)))
        r_fd = float(idt.curvature_laplacian_residual(StructureFrame(s, p), fd_step=1e-3))
        fd_gap = max(fd_gap, abs(r_jet - r_fd))
    _report(
        2,
        worst3 < 1e-7 and worst4 < 1e-6 and fd_gap < 1e-4,
        f"lemma suite: 3rd-order max {worst3:.3e} < 1e-7, 4th-order max "
        f"{worst4:.3e} < 1e-6, jet-vs-FD gap {fd_gap:.3e} < 1e-4",
    )


def test_criterion_3_einstein_hessian_case():
    """Einstein case n=3: c is one constant and the u-identities hold to 1e-8."""
    worst_spread = 0.0
    worst_lap = 0.0
    worst_gradlam = 0.0
    for family, tau in (("sphere", 1.0), ("euclidean", 1.0), ("hyperbolic", 0.5)):
        s = example_structure(ModelSpec(family, 3, tau=tau, m=2.0))
        pts = sample_points(s.chart, 30, seed=3000)
        prof = idt.einstein_hessian_profile(StructureFrame(s, pts))
        worst_spread = max(worst_spread, prof.c_spread)
        worst_lap = max(worst_lap, prof.lap_residual)
        worst_gradlam = max(worst_gradlam, prof.gradlam_residual)
    _report(
        3,
        worst_spread < 1e-9 and worst_lap < 1e-8 and worst_gradlam < 1e-8,
        f"Einstein case: c spread {worst_spread:.3e} < 1e-9, lap-u residual "
        f"{worst_lap:.3e} < 1e-8, grad(lam u) residual {worst_gradlam:.3e} < 1e-8",
    )


def test_criterion_4_integral_suite():
    """Integral identities on S2 (64x128) and S3 (32x64x128) at their tolerances."""
    details = []
    ok = True

    for dim, res in ((2, (64, 128)), (3, (32, 64, 128))):
        spec = ModelSpec("sphere", dim, tau=1.0, m=2.0, chart_kind="polar")
        s = example_structure(spec)
        grid = quad.make_sphere_grid(s.chart, res)

        area = quad.integrate(grid, ScalarField.constant(dim, 1.0))
        want = quad.sphere_area(dim)
        area_rel = abs(area - want) / want
        ok &= area_rel < 1e-10

        rows = quad.run_integral_suite(grid, s, 1e-6)
        gap = max(r["relative_gap"] for r in rows if r["id"] != "stokes_sanity")
        stokes = next(r["relative_gap"] for r in rows if r["id"] == "stokes_sanity")
        ok &= gap < 1e-6 and stokes < 1e-9

        b = quad.bochner_integrals(grid, s)
        ok &= b.equality_gap < 1e-8  # conformal grad u attains the equality case
        details.append(
            f"S{dim}: measure rel {area_rel:.1e}, max identity gap {gap:.1e}, "
            f"stokes {stokes:.1e}, equality gap {b.equality_gap:.1e}"
        )
        if dim == 2:
            h = height_field(spec, s.chart)
            h2 = quad.integrate(grid, h * h)
            h2_rel = abs(h2 - 4 * math.pi / 3) / (4 * math.pi / 3)
            ok &= h2_rel < 1e-10
            details.append(f"S2: height second moment rel {h2_rel:.1e}")

    _report(4, ok, "; ".join(details))


def test_criterion_5_theorem_consequences():
    """Sign scan, rank-one impossibility, and non-vacuous negative controls."""
    s = example_structure(ModelSpec("sphere", 2, tau=1.0, m=2.0))
    scan = idt.sign_scan_r_minus_n_lambda(
        StructureFrame(s, sample_points(s.chart, 200, seed=5000)))
    sign_ok = scan.minimum < 0.0 < scan.maximum

    rank_ok = True
    rng = np.random.default_rng(5001)
    for n in (2, 3, 4):
        g = np.eye(n)
        for _ in range(20):
            v = rng.normal(size=n)
            v = v / np.linalg.norm(v) * rng.uniform(0.1, 5.0)
            rank_ok &= rank_one_proportionality(v, g).decision == "impossible"
        rank_ok &= rank_one_proportionality(np.zeros(n), g).decision == "zero"

    eucl = make_chart(ModelSpec("euclidean", 2, tau=1.0, m=1.0))
    cubic = make_structure(
        eucl, ScalarField.from_coords(2, lambda x, y: x * x * x, "x^3"), m=2.0
    )
    linear = make_structure(
        eucl, ScalarField.from_coords(2, lambda x, y: x, "x1"), m=2.0
    )
    controls_fail = True
    for bad in (cubic, linear):
        chk = is_gqem(bad, sample_points(eucl, 50, seed=5002), 1e-8)
        controls_fail &= not chk.passed

    _report(
        5,
        sign_ok and rank_ok and controls_fail,
        f"sign scan [{scan.minimum:.3f}, {scan.maximum:.3f}] straddles 0: {sign_ok}; "
        f"rank-one detector: {rank_ok}; negative controls fail at 1e-8: {controls_fail}",
    )


def test_criterion_6_ad_correctness():
    """200 random compositions vs Richardson differences; exact algebra invariants."""
    from test_jets import fd_partial, random_expression, richardson_partial

    rng = np.random.default_rng(6000)
    alphas = [a for a in jet_table(2, 3).alphas if 0 < sum(a) <= 3]
    worst_rel = 0.0
    for _ in range(200):
        point = rng.uniform(-0.8, 0.8, size=2)
        jet, value_fn = random_expression(rng, 2, 3, point)
        for alpha in alphas:
            want = richardson_partial(value_fn, point, alpha, 1e-3)
            got = float(jet.partial(alpha))
            worst_rel = max(worst_rel, abs(got - want) / (1.0 + abs(got)))
    fd_ok = worst_rel < 1e-5

    table = jet_table(2, 3)
    leibniz_gap = 0.0
    for _ in range(40):
        a = Jet(2, 3, rng.normal(size=table.size))
        b = Jet(2, 3, rng.normal(size=table.size))
        ab = a * b
        for alpha in table.alphas:
            total = 0.0
            for beta in table.alphas:
                if all(bi <= ai for bi, ai in zip(beta, alpha)):
                    gamma = tuple(x - y for x, y in zip(alpha, beta))
                    coef = math.prod(math.comb(x, y) for x, y in zip(alpha, beta))
                    total += coef * a.partial(beta) * b.partial(gamma)
            leibniz_gap = max(
                leibniz_gap, abs(ab.partial(alpha) - total) / (1.0 + abs(total))
            )

    trunc_gap = 0.0
    for _ in range(25):
        point = rng.uniform(-0.7, 0.7, size=2)
        for order in (2, 3, 4):
            def expr(c):
                return jets.exp(c[0] * 0.4) * jets.sin(c[1]) + 2.0 / (2.5 + jets.cos(c[0] * c[1]))

            hi = expr(seed_point(point, order)).truncated(order - 1)
            lo = expr(seed_point(point, order - 1))
            trunc_gap = max(trunc_gap, float(np.max(np.abs(hi.coeffs - lo.coeffs))))

    _report(
        6,
        fd_ok and leibniz_gap < 1e-13 and trunc_gap < 1e-13,
        f"AD vs finite differences: worst rel {worst_rel:.3e} < 1e-5 over 200 "
        f"compositions; Leibniz gap {leibniz_gap:.3e} and truncation gap "
        f"{trunc_gap:.3e} both < 1e-13",
    )


def test_criterion_7_determinism(tmp_path):
    """Identical config + seed produce byte-identical reports minus the timing field."""
    cfg = tmp_path / "config.txt"
    cfg.write_text("family = sphere\nn = 2\ntau = 1.0\nm = 2\npoints = 20\nseed = 9\n")
    texts = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert cli_main(["verify", "--config", str(cfg), "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        report.pop("wall_time_s")
        texts.append(json.dumps(report, sort_keys=True))
    same = texts[0] == texts[1]
    _report(7, same, f"repeated verify runs byte-identical minus timing: {same}")
