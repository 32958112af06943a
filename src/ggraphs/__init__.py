"""Computational toolkit for G-graphs of finite groups.

A G-graph Phi(G, S) has one level of vertices per occurrence s in S (the
right cosets of <s>) and one edge per shared element between cosets on
distinct levels; Psi(G, S) adds the corresponding loops.  The package
builds these graphs, verifies their structural properties, recognizes
them from automorphism data, studies their incidence graphs, and decides
for which n the incidence graph of K_n is itself a G-graph.
"""

from .algebra import (
    FiniteGroup,
    Perm,
    cyclic_group,
    cyclic_subgroup,
    dihedral_group,
    direct_product,
    element_order,
    generated_subgroup,
    group_from_table,
    parse_element,
    parse_group,
    perm_group,
    quaternion_group,
    symmetric_group,
)
from .errors import (
    BudgetExceeded,
    CapExceeded,
    GGraphError,
    InternalAssertion,
    NotAGroup,
    ParseError,
    PreconditionFailed,
    WitnessInvalid,
)
from .ggraph import (
    GGraph,
    build_phi,
    build_psi,
    colour_clique,
    component_analysis,
    export_ggraph_json,
    is_complete_bipartite_multi,
    is_pairwise_product_closed,
    kmn_build,
    kmn_plan,
    level_vertices,
    replicate_components,
    shifts,
    verify_structure,
)
from .ikn import (
    Obstruction,
    SearchResult,
    TauCertificate,
    build_and_verify,
    canonical_tau,
    conjugate_tau,
    make_rho_sigma,
    obstructions,
    orbit_structure,
    pi_map,
    search_tau,
    verify_tau,
)
from .incidence import (
    IncidenceGraph,
    incidence_graph,
    incidence_preimage,
    lift_automorphism,
    necessary_bipartite_witness,
    sufficient_bipartite_test,
    witness_automorphism,
)
from .multigraph import (
    GraphAut,
    IsoWitness,
    Multigraph,
    connected_components,
    export_dot,
    export_json,
    import_json,
    induced_edge_map,
    isomorphic,
    map_defect,
    verify_iso_witness,
)
from .recognition import (
    RecognitionWitness,
    check,
    check_simple,
    check_with_loops,
    reconstruct,
    shifts_of,
    witness_from_json,
    witness_to_json,
)

__version__ = "0.1.0"
