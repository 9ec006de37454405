"""polarblock: finite classical polar spaces and generator blocking sets.

Exact construction of Q(2n,q), Q-(2n+1,q) and H(2n,q^2) (plus the rank-2
section geometries Q+(3,q) and H(3,q^2)) from their defining forms,
enumeration of generators with stable indices, verification and
classification of generator blocking sets, coverage diagnostics, and
exact minimum searches (blocking sets, covers, maximal partial spreads)
at small field order.
"""

from .gf import GF, field_of_order, make_field
from .projective import (
    Subspace,
    canonicalize,
    enumerate_pg_points,
    meet,
    span,
    theta,
)
from .forms import (
    Form,
    elliptic_form,
    hermitian_form,
    hyperbolic_form,
    is_totally_singular,
    parabolic_form,
)
from .spaces import (
    BudgetError,
    BuildError,
    PolarSpace,
    SectionStructure,
    build_polar_space,
    enumerate_hyperplanes,
    generator_count,
    hyperplane_section,
    pencil_size,
    point_count,
    space_name,
    st_params,
)
from .analysis import (
    BlockingSet,
    Classification,
    CoverageProfile,
    GQCheckResult,
    IdentityReport,
    Threshold,
    check_gq_axioms,
    check_coverage_identities,
    classify,
    coverage_profile,
    delta_of,
    essential_members,
    is_blocking,
    is_cover,
    is_maximal_partial_spread,
    is_minimal,
    is_partial_spread,
    is_spread,
    minimize_blocking_set,
    project_blocking_set,
    spread_size_gate,
    theorem_threshold,
    verify_classification,
)
from .constructions import (
    cone_example,
    hyperbolic_section,
    lex_least_ts_subspace,
    min_generators_outside_hyperplanes,
    pencil,
    ruling_spread,
    section_cover,
)
from .search import (
    EnumerationResult,
    EpsilonResult,
    SearchResult,
    enumerate_minimal,
    greedy_then_minimize,
    min_blocking,
    min_cover,
    min_cover_of_space,
    min_maximal_partial_spread,
    minimum_minimal_blocking_sets,
    no_blocking_below,
    smallest_nontrivial_pg2,
)

__version__ = "0.1.0"
