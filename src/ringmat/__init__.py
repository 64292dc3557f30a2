"""Matrices over residue class rings Z_h, for any modulus h >= 2.

The package computes canonical diagonal forms and inner ranks, censuses of
equivalence orbits, low-rank-difference graphs on matrix spaces together
with their exact clique/independence/chromatic parameters, classification
of extremal cliques, and maximum rank-distance codes, with every headline
quantity backed by an independent verification route.
"""

from .errors import (
    BudgetExceededError,
    NotIntersectingError,
    RingmatError,
    ShapeError,
    UsageError,
    VerificationError,
)
from .ring import RingSpec, factor_modulus, ring_spec
from .matrix import Mat, crt_lift_mat, random_invertible, random_matrix
from .smith import (
    InvariantFactorArray,
    RankProjections,
    SmithForm,
    clear_kernel_caches,
    inner_rank,
    invariant_factors,
    rank_via_projections,
    snf,
    verify_smith_form,
)
from .orbits import (
    CensusReport,
    OrbitProductReport,
    census_by_enumeration,
    expected_label_count,
    verify_orbit_product,
)
from .graph import (
    GraphSpec,
    RankGraph,
    SandwichReport,
    adjacent,
    build_graph,
    check_connectivity,
    check_vertex_transitivity,
    exact_clique_number,
    exact_independence_number,
    sandwich_inequality,
)
from .cliques import (
    COL_FORM,
    MIXED_FORM,
    ROW_FORM,
    CliqueForm,
    EkrReport,
    build_canonical_clique,
    classify_max_clique,
    enumerate_max_cliques,
    form_tag,
    is_clique,
    random_clique_form,
    verify_ekr,
)
from .codes import (
    CliqueCover,
    Coloring,
    FieldSpec,
    GraphCertificate,
    RankCode,
    certify_graph_parameters,
    clique_cover_complement,
    color_graph,
    mrd_code,
    verify_distance,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
