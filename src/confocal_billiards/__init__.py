"""Billiards inside nondegenerate ellipsoids: symmetric periodic trajectories.

Computes, classifies, and verifies the symmetric periodic trajectories
of the billiard map inside an ellipsoid with pairwise-distinct axes:
confocal geometry and elliptic coordinates, the reversor/symmetry
algebra of the map, rotation-number/frequency-map inversion, the 12-
and 112-class catalogs, and a verified minimal trajectory per class.
"""

from .dynamics import (
    PhasePoint,
    Reflection,
    Reversor,
    all_reflections,
    all_reversors,
    apply_reversor,
    apply_symmetry,
    billiard_map,
    billiard_map_inverse,
    dual_map,
    iterate_orbit,
    nonempty_reversors,
    reversor_from_key,
)
from .engine import (
    AtlasResult,
    SptClass,
    Trajectory,
    VerificationReport,
    class_by_id,
    class_count,
    enumerate_classes,
    find_spt,
    minimal_atlas,
    minimal_winding_for_delta,
    verify_trajectory,
    vertex_delta_of_kind,
    STOCK_ELLIPSOID_2D,
    STOCK_ELLIPSOIDS_3D,
)
from .errors import (
    BilliardError,
    BranchOutOfRange,
    DegenerateImpact,
    DegenerateOrbit,
    FeasibilityError,
    NegativeRadicand,
    NonGenericPoint,
    NonTransverse,
    NoSolutionInComponent,
    QuadratureNotConverged,
    SingularCaustic,
    SingularLine,
    UnsupportedDimension,
    VerificationFailed,
)
from .geometry import (
    CausticParams,
    Cuboid,
    EllipticPoint,
    Ellipsoid,
    cartesian_to_elliptic,
    caustic_component_bounds,
    caustic_params_of_line,
    caustic_type_of,
    cuboid,
    elliptic_to_cartesian,
    line_tangency_residual,
    tangent_directions,
)
from .spectral import (
    FrequencyValue,
    WindingNumbers,
    count_windings,
    empirical_frequency,
    even_required,
    frequencies,
    frequency_map,
    invert_frequency,
    parity_violations,
    rotation_number,
)
from .symmetry import (
    CuboidVertex,
    all_vertexes,
    classify_symmetric_point,
    feasible_reversors,
    forbidden_reversors,
    random_fix_point,
    reversor_of_vertex,
    seed_point,
    seed_point_at_vertex,
    symmetry_set_contains,
    symmetry_set_residual,
    vertex_of_reversor,
)

__version__ = "0.1.0"
