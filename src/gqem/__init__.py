"""Numerical verification toolkit for generalized m-quasi-Einstein structures.

Model structures on the sphere, Euclidean and hyperbolic space are built with
closed-form potentials; all curvature quantities are evaluated through
truncated Taylor jets (exact derivatives up to order four); and every
structural identity, pointwise or integral, is checked against a stated
tolerance.
"""

__version__ = "0.1.0"

from .jets import (  # noqa: F401
    Jet,
    JetDomainError,
    MAX_ORDER,
    OrderCapabilityError,
    seed_variable,
)
from .geometry import (  # noqa: F401
    Chart,
    ChartFrame,
    DegenerateMetricError,
    ScalarField,
    Tensor2Field,
    TensorValue,
    VectorField,
    christoffel,
    ricci,
    scalar_curvature,
)
from .qem import (  # noqa: F401
    GqemCheck,
    QemStructure,
    StructureFrame,
    bakry_emery_ricci,
    defining_residual,
    is_gqem,
    make_structure,
    radial_identity_residual,
    rank_one_proportionality,
    trace_lambda_field,
    traceless_residual,
    u_transform_residual,
)
from .models import (  # noqa: F401
    ModelSpec,
    default_sweep,
    example_structure,
    gaussian_soliton,
    height_field,
    make_chart,
    sample_points,
    trivial_structure,
)
from .identities import CATALOG, run_pointwise_suite  # noqa: F401
from .quadrature import (  # noqa: F401
    QuadratureGrid,
    integrate,
    make_sphere_grid,
    run_integral_suite,
    sphere_area,
    stokes_sanity,
)
