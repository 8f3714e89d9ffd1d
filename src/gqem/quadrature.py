"""Riemannian integration on round spheres and the integral-identity suite.

Grids are tensor products of Gauss-Legendre nodes, one factor per polar
angle, with weights carrying the metric volume factor sqrt(det g). Nodes are
strictly interior, so the coordinate singularities of the polar chart are
never touched. Node ordering and the summation order are fixed, making every
integral bitwise reproducible.

Integral identities are only meaningful on compact models; constructors
reject non-sphere charts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable
import numpy as np

from .geometry import Chart, ChartFrame, ScalarField, tensor2_norm2_g
from .jets import JetDomainError
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
    vol = np.empty(nodes.shape[0])
    for lo in range(0, nodes.shape[0], _CHUNK):
        chunk = nodes[lo : lo + _CHUNK]
        g = ChartFrame(chart, chunk).metric_values()
        det = np.linalg.det(g)
        if np.any(det <= 0):
            raise ValueError("metric degenerate at a quadrature node")
        vol[lo : lo + _CHUNK] = np.sqrt(det)
    return QuadratureGrid(chart, nodes, weights * vol, resolution)


def sphere_area(dim: int, radius: float = 1.0) -> float:
    """Closed-form measure of the round sphere, the grid calibration oracle."""
    return 2.0 * math.pi ** ((dim + 1) / 2) / math.gamma((dim + 1) / 2) * radius**dim


def integrate(grid: QuadratureGrid, phi) -> float:
    """Integral of a scalar field (or plain ndarray of node values) over the grid."""
    if isinstance(phi, np.ndarray):
        values = phi
    else:
        try:
            values = np.asarray(phi(grid.nodes), dtype=np.float64)
        except JetDomainError as exc:
            values = _locate_node_failure(grid, phi, exc)
    if values.shape != grid.weights.shape:
        raise ValueError(
            f"integrand produced shape {values.shape}, expected {grid.weights.shape}"
        )
    return float(np.sum(grid.weights * values))


def _locate_node_failure(grid, phi, exc):
    for k, node in enumerate(grid.nodes):
        try:
            phi(node)
        except JetDomainError:
            raise ValueError(
                f"integrand failed at node {k} with coordinates {node}: {exc}"
            ) from exc
    raise exc


def stokes_sanity(grid: QuadratureGrid, phi: ScalarField) -> float:
    """Integral of lap(phi), which must vanish on a closed manifold."""
    total = 0.0
    for lo in range(0, grid.nodes.shape[0], _CHUNK):
        chunk = grid.nodes[lo : lo + _CHUNK]
        frame = ChartFrame(grid.chart, chunk)
        total += float(
            np.sum(grid.weights[lo : lo + _CHUNK] * frame.laplacian(phi, 0).value)
        )
    return total


# ---------------------------------------------------------------------------
# cached node quantities for the structure integrands
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def _node_quantities(grid: QuadratureGrid, s: QemStructure) -> dict:
    """All pointwise integrand ingredients at every node (one chunked pass)."""
    if s.chart is not grid.chart:
        raise ValueError("grid and structure must share one chart")
    n = s.chart.dim
    names = (
        "traceless2_f", "hess2_f", "lapf", "lapf2", "ric_ff",
        "gf_dot_gR", "gf_dot_glam", "gn2f_lapf",
        "traceless2_u", "lapu", "lapu2", "ric_uu", "gn2u_lapu",
    )
    fields = [("f", s.f)] + ([("u", s.require_u())] if s.m_finite else [])
    acc = {k: [] for k in names}
    for lo in range(0, grid.nodes.shape[0], _CHUNK):
        chunk = grid.nodes[lo : lo + _CHUNK]
        fr = StructureFrame(s, chunk)
        g = fr.metric_values()
        ginv = np.linalg.inv(g)
        ric = fr.ricci_values()
        for x, phi in fields:
            hess = fr.hessian_values(phi)
            lap = fr.laplacian(phi, 0).value
            grad = fr.grad_values(phi)
            traceless = hess - (lap / n)[..., None, None] * g
            acc[f"traceless2_{x}"].append(tensor2_norm2_g(g, ginv, traceless))
            acc[f"lap{x}"].append(lap)
            acc[f"lap{x}2"].append(lap**2)
            acc[f"ric_{x}{x}"].append(np.einsum("...ij,...i,...j->...", ric, grad, grad))
            acc[f"gn2{x}_lap{x}"].append(fr.grad_norm2(phi, 0).value * lap)
            if x == "f":
                dR = fr.partials_of_jet(fr.scalar_curvature_jet(1))
                dlam = fr.partials_of_jet(fr.lam_jet(1))
                acc["hess2_f"].append(tensor2_norm2_g(g, ginv, hess))
                acc["gf_dot_gR"].append(np.einsum("...i,...i->...", grad, dR))
                acc["gf_dot_glam"].append(np.einsum("...i,...i->...", grad, dlam))
    return {k: np.concatenate(parts) if parts else None for k, parts in acc.items()}


def _integrals(grid: QuadratureGrid, s: QemStructure) -> dict:
    q = _node_quantities(grid, s)
    return {
        k: (None if v is None else float(np.sum(grid.weights * v)))
        for k, v in q.items()
    }


@dataclass
class IntegralCheck:
    """Both sides of one integral identity and their normalized gap."""

    identity_id: str
    formula: str
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def relative_gap(self) -> float:
        return self.gap / (1.0 + abs(self.lhs))


def _require_compact(s: QemStructure):
    if not s.chart.compact:
        raise ValueError(
            f"integral identities need a compact model; chart {s.chart.label!r} is not"
        )


@dataclass(frozen=True)
class IntegralIdentity:
    """A two-sided integral identity, called as `identity(grid, s)`.

    `sides(I, n, inv_m)` gives (lhs, rhs) from the node integrals `I` of
    `_integrals`, the dimension and 1/m.
    """

    identity_id: str
    formula: str
    sides: Callable
    needs_finite_m: bool = False

    def __call__(self, grid: QuadratureGrid, s: QemStructure) -> IntegralCheck:
        _require_compact(s)
        if self.needs_finite_m and not s.m_finite:
            raise ValueError(f"the integral identity {self.identity_id!r} needs finite m")
        lhs, rhs = self.sides(_integrals(grid, s), s.chart.dim, s.inv_m)
        return IntegralCheck(self.identity_id, self.formula, lhs, rhs)


traceless_hessian_balance = IntegralIdentity(
    "traceless_hessian_balance",
    "∫|∇²f−(Δf/n)g|² + ((n+2)/2n)∫(Δf)² = ∫⟨∇f,∇R⟩ − ((n+2)/2)∫⟨∇f,∇λ⟩",
    lambda I, n, inv_m: (I["traceless2_f"] + (n + 2) / (2 * n) * I["lapf2"],
                         I["gf_dot_gR"] - (n + 2) / 2 * I["gf_dot_glam"]),
)
ricci_energy_balance = IntegralIdentity(
    "ricci_energy_balance",
    "∫(Ric(∇f,∇f) + ⟨∇f,∇R⟩) = (3/2)∫(Δf)² + ((n+2)/2)∫⟨∇f,∇λ⟩",
    lambda I, n, inv_m: (I["ric_ff"] + I["gf_dot_gR"],
                         1.5 * I["lapf2"] + (n + 2) / 2 * I["gf_dot_glam"]),
)
traceless_hessian_flux = IntegralIdentity(
    "traceless_hessian_flux",
    "∫|∇²f−(Δf/n)g|² = ((n−2)/2n)∫⟨∇f,∇R⟩ − ((n+2)/2nm)∫|∇f|²Δf",
    lambda I, n, inv_m: (I["traceless2_f"],
                         (n - 2) / (2 * n) * I["gf_dot_gR"]
                         - (n + 2) / (2 * n) * inv_m * I["gn2f_lapf"]),
)
hessian_energy_identity = IntegralIdentity(
    "hessian_energy_identity",
    "∫|∇²f|² = ∫Ric(∇f,∇f) − (2/m)∫|∇f|²Δf + (n−2)∫⟨∇λ,∇f⟩",
    lambda I, n, inv_m: (I["hess2_f"],
                         I["ric_ff"] - 2 * inv_m * I["gn2f_lapf"] + (n - 2) * I["gf_dot_glam"]),
)
bochner_integral_balance = IntegralIdentity(
    "bochner_integral_balance",
    "∫|∇²u−(Δu/n)g|² = ((n−1)/n)∫(Δu)² − ∫Ric(∇u,∇u)",
    lambda I, n, inv_m: (I["traceless2_u"], (n - 1) / n * I["lapu2"] - I["ric_uu"]),
    needs_finite_m=True,
)


@dataclass
class BochnerIntegrals:
    """The integrated Bochner balance for u and the conformal equality case."""

    d2u_traceless: float  # ∫|∇²u − (Δu/n)g|²
    ric_term: float  # ∫Ric(∇u,∇u)
    lap_term: float  # ((n−1)/n)∫(Δu)²
    lemflat_term: float  # ∫|∇u|²Δu, zero for conformal ∇u

    @property
    def balance_gap(self) -> float:
        """Gap of ∫|∇²u−(Δu/n)g|² = ((n−1)/n)∫(Δu)² − ∫Ric(∇u,∇u)."""
        return abs(self.d2u_traceless - (self.lap_term - self.ric_term))

    @property
    def equality_gap(self) -> float:
        """Relative gap of ∫Ric(∇u,∇u) = ((n−1)/n)∫(Δu)² (conformal equality case)."""
        return abs(self.ric_term - self.lap_term) / (1.0 + abs(self.ric_term))


def bochner_integrals(grid: QuadratureGrid, s: QemStructure) -> BochnerIntegrals:
    _require_compact(s)
    if not s.m_finite:
        raise ValueError("the integrated Bochner balance for u needs finite m")
    n = s.chart.dim
    I = _integrals(grid, s)
    return BochnerIntegrals(
        d2u_traceless=I["traceless2_u"],
        ric_term=I["ric_uu"],
        lap_term=(n - 1) / n * I["lapu2"],
        lemflat_term=I["gn2u_lapu"],
    )


def triviality_margin(grid: QuadratureGrid, s: QemStructure) -> float:
    """∫⟨∇R,∇f⟩ − ((n+2)/2)∫⟨∇f,∇λ⟩; strictly positive on a nontrivial structure."""
    return traceless_hessian_balance(grid, s).rhs


INTEGRAL_SUITE = tuple(
    (check.identity_id, check, check.needs_finite_m)
    for check in (traceless_hessian_balance, ricci_energy_balance, traceless_hessian_flux,
                  hessian_energy_identity, bochner_integral_balance)
)


def run_integral_suite(
    grid: QuadratureGrid, s: QemStructure, tol: float
) -> list[dict]:
    """Every two-sided integral identity plus the Stokes sanity check."""
    checks = [fn(grid, s) for _name, fn, needs_m in INTEGRAL_SUITE if s.m_finite or not needs_m]
    stokes = IntegralCheck("stokes_sanity", "∫Δf dμ = 0", stokes_sanity(grid, s.f), 0.0)
    # the Stokes gap is the bare |∫Δf|, not normalized by 1 + |lhs|
    rows = [(chk, chk.relative_gap) for chk in checks] + [(stokes, stokes.gap)]
    return [
        {"id": chk.identity_id, "formula": chk.formula, "lhs": chk.lhs, "rhs": chk.rhs,
         "relative_gap": gap, "resolution": list(grid.resolution), "tolerance": tol,
         "pass": gap < tol}
        for chk, gap in rows
    ]
