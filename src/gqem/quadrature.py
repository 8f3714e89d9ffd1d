"""Riemannian integration on round spheres and the integral-identity suite.

Grids are tensor products of Gauss-Legendre nodes, one factor per polar
angle, with weights carrying the metric volume factor sqrt(det g). Nodes are
strictly interior, so the coordinate singularities of the polar chart are
never touched. Node ordering and the summation order are fixed, making every
integral bitwise reproducible.

Integral identities are only meaningful on compact models, so grids reject
non-sphere charts and `run_integral_suite` rejects non-compact structures.
Each suite call makes one chunked pass over the nodes for every integrand its
identities read; nothing is cached between calls. Every chunk is a tensor
block of whole slabs (`_chunks`), whose jets and node values keep only the
angles they vary on until each value is put back node-major.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .geometry import Chart, ChartFrame, DegenerateMetricError, ScalarField, tensor2_norm2_g
from .jets import JetDomainError, _value_row
from .qem import QemStructure, StructureFrame

_CHUNK = 16384


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Product Gauss-Legendre grid on a polar sphere chart."""

    chart: Chart
    nodes: np.ndarray  # (N, n) in C order of the angle product
    weights: np.ndarray  # (N,) product weights x sqrt(det g)
    resolution: tuple


def make_sphere_grid(chart: Chart, resolution) -> QuadratureGrid:
    """Gauss-Legendre product grid for a sphere in polar coordinates.

    resolution lists the node count per angle: n-1 polar angles on (0, pi)
    followed by the azimuthal angle on (0, 2 pi).
    """
    if chart.family != "sphere" or chart.chart_kind != "polar":
        raise ValueError(
            f"quadrature grids need a polar sphere chart, got {chart.label!r}"
        )
    n = chart.dim
    resolution = tuple(int(k) for k in resolution)
    if len(resolution) != n:
        raise ValueError(
            f"resolution needs {n} entries for a {n}-dimensional chart, got {resolution}"
        )
    if any(k < 2 for k in resolution):
        raise ValueError(f"resolution entries must be >= 2, got {resolution}")
    axes_nodes = []
    axes_weights = []
    for axis, count in enumerate(resolution):
        hi = np.pi if axis < n - 1 else 2 * np.pi
        x, w = np.polynomial.legendre.leggauss(count)
        axes_nodes.append(0.5 * hi * (x + 1.0))
        axes_weights.append(0.5 * hi * w)
    mesh = np.meshgrid(*axes_nodes, indexing="ij")
    nodes = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    wmesh = np.meshgrid(*axes_weights, indexing="ij")
    weights = np.ones(nodes.shape[0])
    for m in wmesh:
        weights = weights * m.reshape(-1)
    # metric volume factor, chunked to bound memory
    vol = []
    for _, chunk in _chunks(nodes, resolution):
        det = np.linalg.det(ChartFrame(chart, chunk).metric_values())
        if np.any(det <= 0):
            raise DegenerateMetricError("metric degenerate at a quadrature node")
        vol.append(np.broadcast_to(np.sqrt(det), chunk.shape[:-1]).reshape(-1))
    return QuadratureGrid(chart, nodes, weights * np.concatenate(vol), resolution)


def _chunks(nodes: np.ndarray, resolution: tuple):
    """(lo, block) for consecutive tensor blocks of at most `_CHUNK` nodes from node lo.

    With `a` the first axis whose slab ``resolution[a+1:]`` fits in `_CHUNK`, each block
    is a contiguous ``(k, *resolution[a+1:], n)`` view at one index of every axis before a.
    """
    a = next(a for a in range(len(resolution)) if math.prod(resolution[a + 1 :]) <= _CHUNK)
    slab = math.prod(resolution[a + 1 :])
    k = _CHUNK // slab
    grid = nodes.reshape(resolution + nodes.shape[-1:])
    for j, head in enumerate(np.ndindex(resolution[:a])):
        for i in range(0, resolution[a], k):
            yield (j * resolution[a] + i) * slab, grid[head + (slice(i, i + k),)]


def sphere_area(dim: int, radius: float = 1.0) -> float:
    """Closed-form measure of the round sphere, the grid calibration oracle."""
    return 2.0 * math.pi ** ((dim + 1) / 2) / math.gamma((dim + 1) / 2) * radius**dim


def integrate(grid: QuadratureGrid, phi: ScalarField) -> float:
    """Integral of a scalar field over the grid, evaluated `_CHUNK` nodes at a time."""
    values = np.empty(grid.weights.shape)
    for lo in range(0, grid.nodes.shape[0], _CHUNK):
        chunk = grid.nodes[lo : lo + _CHUNK]
        try:
            block = np.asarray(phi(chunk), dtype=np.float64)
        except JetDomainError as exc:
            block = _locate_node_failure(chunk, lo, phi, exc)
        if block.shape != (len(chunk),):
            raise ValueError(
                f"integrand produced shape {block.shape}, expected {(len(chunk),)}"
            )
        values[lo : lo + _CHUNK] = block
    return float(np.sum(grid.weights * values))


def _locate_node_failure(chunk, lo, phi, exc):
    """Re-raise `exc` naming the first node of `chunk` (grid index lo + k) that fails."""
    for k, node in enumerate(chunk):
        try:
            phi(node)
        except JetDomainError:
            raise JetDomainError(
                f"integrand failed at node {lo + k} with coordinates {node}: {exc}"
            ) from exc
    raise exc


def stokes_sanity(grid: QuadratureGrid, phi: ScalarField) -> float:
    """Integral of lap(phi), which must vanish on a closed manifold."""
    total = 0.0
    for lo, chunk in _chunks(grid.nodes, grid.resolution):
        lap = ChartFrame(grid.chart, chunk).laplacian(phi, 0).value.reshape(-1)
        total += float(np.sum(grid.weights[lo : lo + lap.size] * lap))
    return total


def _node_quantities(grid: QuadratureGrid, s: QemStructure) -> dict:
    """All pointwise integrand ingredients at every node, in one chunked pass."""
    if s.chart is not grid.chart:
        raise ValueError("grid and structure must share one chart")
    n = s.chart.dim
    names = (
        "traceless2_f", "hess2_f", "lapf2", "ric_ff", "gf_dot_gR", "gf_dot_glam", "gn2f_lapf",
        "traceless2_u", "lapu2", "ric_uu", "gn2u_lapu",
    )
    fields = [("f", s.f)] + ([("u", s.require_u())] if s.m_finite else [])
    acc = {k: [] for k in names}
    for _, chunk in _chunks(grid.nodes, grid.resolution):
        fr = StructureFrame(s, chunk)
        # each value at the shape its jet rows are stored in, put back node-major on append
        add = lambda key, v: acc[key].append(np.broadcast_to(v, chunk.shape[:-1]).reshape(-1))
        g, ric, ginv = fr.metric_values(), fr.ricci_values(), fr.metric_inv_values()
        for x, phi in fields:
            hess = fr.hessian_values(phi)
            lap = _value_row(fr.laplacian(phi, 0))
            grad = fr.grad_values(phi)
            traceless = hess - (lap / n)[..., None, None] * g
            add(f"traceless2_{x}", tensor2_norm2_g(ginv, traceless))
            add(f"lap{x}2", lap**2)
            add(f"ric_{x}{x}", np.einsum("...ij,...i,...j->...", ric, grad, grad))
            add(f"gn2{x}_lap{x}", _value_row(fr.grad_norm2(phi, 0)) * lap)
            if x == "f":
                dR = fr.partials_of_jet(fr.scalar_curvature_jet(1))
                dlam = fr.partials_of_jet(fr.lam_jet(1))
                add("hess2_f", tensor2_norm2_g(ginv, hess))
                add("gf_dot_gR", np.einsum("...i,...i->...", grad, dR))
                add("gf_dot_glam", np.einsum("...i,...i->...", grad, dlam))
    return {k: np.concatenate(parts) if parts else None for k, parts in acc.items()}


def _integrals(grid: QuadratureGrid, s: QemStructure) -> dict:
    """The integral of each node quantity; None for the u quantities when m is infinite."""
    return {
        k: (None if v is None else float(np.sum(grid.weights * v)))
        for k, v in _node_quantities(grid, s).items()
    }


# The integral identities as (id, formula, sides, needs finite m). `sides(I, n, inv_m)`
# gives (lhs, rhs) from the node integrals `I` of `_integrals`, the dimension and 1/m.
_IDENTITIES = (
    ("traceless_hessian_balance",
     "∫|∇²f−(Δf/n)g|² + ((n+2)/2n)∫(Δf)² = ∫⟨∇f,∇R⟩ − ((n+2)/2)∫⟨∇f,∇λ⟩",
     lambda I, n, inv_m: (I["traceless2_f"] + (n + 2) / (2 * n) * I["lapf2"],
                          I["gf_dot_gR"] - (n + 2) / 2 * I["gf_dot_glam"]),
     False),
    ("ricci_energy_balance",
     "∫(Ric(∇f,∇f) + ⟨∇f,∇R⟩) = (3/2)∫(Δf)² + ((n+2)/2)∫⟨∇f,∇λ⟩",
     lambda I, n, inv_m: (I["ric_ff"] + I["gf_dot_gR"],
                          1.5 * I["lapf2"] + (n + 2) / 2 * I["gf_dot_glam"]),
     False),
    ("traceless_hessian_flux",
     "∫|∇²f−(Δf/n)g|² = ((n−2)/2n)∫⟨∇f,∇R⟩ − ((n+2)/2nm)∫|∇f|²Δf",
     lambda I, n, inv_m: (I["traceless2_f"],
                          (n - 2) / (2 * n) * I["gf_dot_gR"]
                          - (n + 2) / (2 * n) * inv_m * I["gn2f_lapf"]),
     False),
    ("hessian_energy_identity",
     "∫|∇²f|² = ∫Ric(∇f,∇f) − (2/m)∫|∇f|²Δf + (n−2)∫⟨∇λ,∇f⟩",
     lambda I, n, inv_m: (I["hess2_f"],
                          I["ric_ff"] - 2 * inv_m * I["gn2f_lapf"] + (n - 2) * I["gf_dot_glam"]),
     False),
    # rhs is 0 in the conformal equality case ∫Ric(∇u,∇u) = ((n−1)/n)∫(Δu)²
    ("bochner_integral_balance",
     "∫|∇²u−(Δu/n)g|² = ((n−1)/n)∫(Δu)² − ∫Ric(∇u,∇u)",
     lambda I, n, inv_m: (I["traceless2_u"], (n - 1) / n * I["lapu2"] - I["ric_uu"]),
     True),
)
INTEGRAL_SUITE = tuple((rid, sides, needs_m) for rid, _formula, sides, needs_m in _IDENTITIES)
_FORMULAS = {rid: formula for rid, formula, _sides, _needs_m in _IDENTITIES}


def run_integral_suite(
    grid: QuadratureGrid, s: QemStructure, tol: float
) -> list[dict]:
    """Every two-sided integral identity plus the Stokes sanity check.

    One node pass feeds every identity; an identity's gap is |lhs − rhs| / (1 + |lhs|),
    while the Stokes gap is the bare |∫Δf|.
    """
    if not s.chart.compact:
        raise ValueError(
            f"integral identities need a compact model; chart {s.chart.label!r} is not"
        )
    I, n = _integrals(grid, s), s.chart.dim
    rows = []
    for rid, sides, needs_m in INTEGRAL_SUITE:
        if s.m_finite or not needs_m:
            lhs, rhs = sides(I, n, s.inv_m)
            rows.append((rid, _FORMULAS[rid], lhs, rhs, abs(lhs - rhs) / (1.0 + abs(lhs))))
    stokes = stokes_sanity(grid, s.f)
    rows.append(("stokes_sanity", "∫Δf dμ = 0", stokes, 0.0, abs(stokes)))
    return [
        {"id": rid, "formula": formula, "lhs": lhs, "rhs": rhs, "relative_gap": gap,
         "resolution": list(grid.resolution), "tolerance": tol, "pass": gap < tol}
        for rid, formula, lhs, rhs, gap in rows
    ]
