"""Finite quasi-metric measure spaces with asymmetric distances.

Tools for validating asymmetric distance matrices, generating model
Finsler-type quasi-metrics (Funk ball, Randers torus/ball), comparing
spaces via Hausdorff / Prokhorov / Gromov-Hausdorff-style brackets,
solving exact optimal transport with asymmetric costs, and numerically
checking displacement-convexity (curvature-dimension) conditions and
their geometric/functional consequences on finite discretizations.
"""

from .core import (
    BallSpec,
    DoublingReport,
    SpaceError,
    MeasuredSpace,
    QuasiMetricSpace,
    ThetaBound,
    ball,
    capacity,
    covering_number,
    diameter,
    doubling_constant,
    induced_length_metric,
    midpoint_defect,
    path_length,
    reversibility,
    symmetrize,
    validate,
)
from .models import (
    FunkBall,
    RandersBall,
    RandersTorus,
    SampleSpec,
    funk_distance,
    funk_norm,
    gaussian_line,
    randers_ball_distance,
    randers_torus_distance,
    rescale,
    sample,
)
from .ghdist import (
    GhBracket,
    PointMap,
    distortion,
    gh_bracket,
    ghp_upper,
    hausdorff,
    iso_defect,
    prokhorov,
)
from .transport import (
    Coupling,
    DynamicalPlan,
    Interpolation,
    TransportProblem,
    asymmetry_bound_check,
    dynamical_plan,
    geodesy_check,
    interpolate,
    kr_dual,
    wasserstein,
)
from .curvature import (
    DistortionParams,
    FunctionalReport,
    Nonlinearity,
    beta,
    bishop_gromov_profile,
    brunn_minkowski_check,
    cd_check,
    dcn_membership,
    entropy_nonlinearity,
    fisher_information,
    functional_inequality_suite,
    grad_norms,
    power_nonlinearity,
    s_kn,
    u_beta_functional,
    u_functional,
    un_nonlinearity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
