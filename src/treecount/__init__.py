"""Canonical red-orange-green tree colorings and the exact point counts of
the cluster-type varieties attached to them."""

from .coloring import (
    Color,
    Coloring,
    RedGreenComponent,
    RedGreenPartition,
    SizeGuardError,
    adjacency_nullity,
    canonical_coloring,
    coloring_by_matchings,
    coloring_by_vertex_covers,
    dimension,
    red_green_components,
)
from .counting import (
    CensusClass,
    Mode,
    PhiAssignment,
    PhiKind,
    census,
    closed_form_a,
    closed_form_d,
    closed_form_e,
    count_polynomial,
    reciprocity_report,
    versal_by_independent_sets,
)
from .families import d_tree, e_tree, family_tree, linear_tree, star_tree
from .fqoracle import (
    FqContext,
    count_fixed,
    count_points,
    verify_polynomial,
)
from .groupoid import (
    CoefficientState,
    genericity_check,
    jump,
    normalize_to_matching,
    rank_profile,
)
from .matchings import (
    AdmissibleSet,
    admissible_sets,
    count_maximum_independent_sets,
    independent_sets,
    maximum_matching,
)
from .polynomials import Poly
from .trees import (
    Graph6Error,
    NotATreeError,
    Tree,
    canonical_key,
    emit_graph6,
    enumerate_free_trees,
    parse_edge_list,
    parse_graph6,
)

__version__ = "0.1.0"
