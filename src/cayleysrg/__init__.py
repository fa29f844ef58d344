"""Strongly regular Cayley graphs on Z_n x Z_n and their automorphisms.

The family: vertices are pairs mod n, two vertices adjacent when their
difference lies on a coordinate axis or the main diagonal.  The package
builds the graphs, certifies their regularity parameters by counting on
the connection set (graphs handed in are counted on their rows, from
vertex 0 alone once the rows are shown invariant under translation, from
every vertex otherwise), constructs the predicted automorphism group
from explicit coordinate maps, cross-checks it against an independent
count of the automorphism group along a stabiliser chain (n <= 55), and
classifies the vertex, edge, arc, distance and 2-arc transitivity of
vertex-transitive groups by orbit computation at vertex 0.
"""

from .bsgs import PermutationGroup
from .core import Permutation, UnitGroup, ZnPair, perm_from_pair_map, units
from .graph import (
    BUILD_MAX_MODULUS,
    GRAPH_MAX_MODULUS,
    CayleyGraph,
    CliqueTriple,
    ConnectionSet,
    build_graph,
    connection_set,
    zero_neighborhood_cliques,
)
from .regularity import (
    IntersectionArray,
    RegularityRefusal,
    SrgParams,
    cayley_srg_params,
    check_strongly_regular,
    diameter,
    intersection_array,
)
from .search import (
    BRUTE_FORCE_MAX_MODULUS,
    AutomorphismList,
    enumerate_automorphisms,
)
from .symmetries import (
    AffineGroup,
    AutomorphismError,
    CliqueActionLabel,
    NamedAutomorphism,
    claimed_affine_group,
    claimed_aut_group,
    claimed_origin_stabilizer,
    clique_action,
    clique_rotation,
    coordinate_swap,
    check_graph_automorphism,
    translation,
    unit_scaling,
)
from .transitivity import (
    DistanceTransitivityResult,
    TransitivityReport,
    TransitivityResult,
    classify,
    classify_action,
    is_arc_transitive,
    is_distance_transitive,
    is_edge_transitive,
    is_two_arc_transitive,
    is_vertex_transitive,
)
from .formats import from_graph6, to_dot, to_graph6

__version__ = "0.1.0"

__all__ = [
    "Permutation", "ZnPair", "UnitGroup", "units", "perm_from_pair_map",
    "PermutationGroup",
    "CayleyGraph", "ConnectionSet", "CliqueTriple", "connection_set",
    "build_graph", "zero_neighborhood_cliques", "BUILD_MAX_MODULUS", "GRAPH_MAX_MODULUS",
    "SrgParams", "IntersectionArray", "RegularityRefusal",
    "check_strongly_regular", "cayley_srg_params", "intersection_array", "diameter",
    "NamedAutomorphism", "AutomorphismError", "CliqueActionLabel",
    "translation", "unit_scaling", "coordinate_swap", "clique_rotation",
    "check_graph_automorphism",
    "AffineGroup", "claimed_affine_group",
    "claimed_aut_group", "claimed_origin_stabilizer", "clique_action",
    "AutomorphismList", "enumerate_automorphisms",
    "BRUTE_FORCE_MAX_MODULUS",
    "TransitivityResult", "DistanceTransitivityResult", "TransitivityReport",
    "is_vertex_transitive", "is_edge_transitive", "is_arc_transitive",
    "is_distance_transitive", "is_two_arc_transitive",
    "classify", "classify_action",
    "to_graph6", "from_graph6", "to_dot",
]
