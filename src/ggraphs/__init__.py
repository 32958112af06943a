"""Computational toolkit for G-graphs of finite groups.

A G-graph Phi(G, S) has one level of vertices per occurrence s in S (the
right cosets of <s>) and one edge per shared element between cosets on
distinct levels; Psi(G, S) adds the corresponding loops.  The package
builds these graphs, verifies their structural properties, recognizes
them from automorphism data, studies their incidence graphs, and decides
for which n the incidence graph of K_n is itself a G-graph.

``import ggraphs`` loads no submodule: each public name below is imported
from its module on first use (PEP 562), so a caller pays only for the layers
it touches; the ikn names load no numpy.
"""

import importlib

__version__ = "0.1.0"

# every public name and the module that defines it
_EXPORTS = {
    "FiniteGroup": "algebra",
    "Perm": "perm",
    "cyclic_group": "algebra",
    "cyclic_subgroup": "algebra",
    "dihedral_group": "algebra",
    "direct_product": "algebra",
    "element_order": "algebra",
    "generated_subgroup": "algebra",
    "group_from_table": "algebra",
    "parse_element": "algebra",
    "parse_group": "algebra",
    "perm_group": "algebra",
    "quaternion_group": "algebra",
    "symmetric_group": "algebra",
    "BudgetExceeded": "errors",
    "CapExceeded": "errors",
    "GGraphError": "errors",
    "InternalAssertion": "errors",
    "NotAGroup": "errors",
    "ParseError": "errors",
    "PreconditionFailed": "errors",
    "WitnessInvalid": "errors",
    "GGraph": "ggraph",
    "build_phi": "ggraph",
    "build_psi": "ggraph",
    "colour_clique": "ggraph",
    "component_analysis": "ggraph",
    "export_ggraph_json": "ggraph",
    "is_complete_bipartite_multi": "ggraph",
    "is_pairwise_product_closed": "ggraph",
    "kmn_build": "ggraph",
    "kmn_plan": "ggraph",
    "level_vertices": "ggraph",
    "replicate_components": "ggraph",
    "shifts": "ggraph",
    "verify_structure": "ggraph",
    "Obstruction": "ikn",
    "SearchResult": "ikn",
    "TauCertificate": "ikn",
    "build_and_verify": "ikn",
    "canonical_tau": "ikn",
    "conjugate_tau": "ikn",
    "make_rho_sigma": "ikn",
    "obstructions": "ikn",
    "orbit_structure": "ikn",
    "pi_map": "ikn",
    "search_tau": "ikn",
    "verify_tau": "ikn",
    "IncidenceGraph": "incidence",
    "incidence_graph": "incidence",
    "incidence_preimage": "incidence",
    "lift_automorphism": "incidence",
    "necessary_bipartite_witness": "incidence",
    "sufficient_bipartite_test": "incidence",
    "witness_automorphism": "incidence",
    "GraphAut": "multigraph",
    "IsoWitness": "multigraph",
    "Multigraph": "multigraph",
    "connected_components": "multigraph",
    "export_dot": "multigraph",
    "export_json": "multigraph",
    "import_json": "multigraph",
    "induced_edge_map": "multigraph",
    "isomorphic": "multigraph",
    "map_defect": "multigraph",
    "verify_iso_witness": "multigraph",
    "RecognitionWitness": "recognition",
    "check": "recognition",
    "check_simple": "recognition",
    "check_with_loops": "recognition",
    "reconstruct": "recognition",
    "shifts_of": "recognition",
    "witness_from_json": "recognition",
    "witness_to_json": "recognition",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
