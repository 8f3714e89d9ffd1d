"""A finite-difference left side for the `curvature_laplacian` row.

The row's ½ΔR comes from fourth-order metric jets. This oracle takes ΔR from
second central differences of the scalar curvature in coordinates instead,
with only the Christoffel symbols and g⁻¹ at the point from jets, so a fault
in the fourth-order path shows as a gap between the two residuals.
"""

import numpy as np

from gqem import identities as idt
from gqem.geometry import ChartFrame


def fd_laplacian_scalar_curvature(fr: ChartFrame, step: float):
    """g^ij (∂_i∂_j R − Γ^k_ij ∂_k R) at the frame's point, the partials of R
    from central differences of step h."""
    p, n = fr.p, fr.n
    e = step * np.eye(n)

    def r_at(q):
        return ChartFrame(fr.chart, q).scalar_curvature_value()

    def d2(i, j):
        if i == j:
            return (r_at(p + e[i]) - 2 * r0 + r_at(p - e[i])) / step**2
        return (
            r_at(p + e[i] + e[j])
            - r_at(p + e[i] - e[j])
            - r_at(p - e[i] + e[j])
            + r_at(p - e[i] - e[j])
        ) / (4 * step**2)

    r0 = r_at(p)
    d1 = [(r_at(p + e[i]) - r_at(p - e[i])) / (2 * step) for i in range(n)]
    gi = fr.metric_inv_values()
    gam = fr.gamma(0)
    out = 0.0
    for i in range(n):
        for j in range(n):
            term = d2(i, j)
            for k in range(n):
                term = term - gam[k, i, j].value * d1[k]
            out = out + gi[..., i, j] * term
    return out


def curvature_laplacian_fd_terms(fr, step: float):
    """The `curvature_laplacian` row's (lhs, rhs), its ½ΔR from finite differences."""
    lhs = 0.5 * fd_laplacian_scalar_curvature(fr, step)
    _, rhs = idt.curvature_laplacian_residual(fr)
    return (lhs,), rhs
