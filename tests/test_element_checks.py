"""Group elements, exponents and vertex ids are checked on the way in: a
float, or an element outside 0..|G|-1, raises PreconditionFailed instead of
being truncated, wrapped round by a negative index, or failing later with a
bare IndexError or TypeError."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ggraphs import algebra as al
from ggraphs import ggraph as gg
from ggraphs import ikn
from ggraphs import multigraph as mg
from ggraphs.errors import PreconditionFailed
from ggraphs.incidence import sufficient_bipartite_test

Z6 = al.cyclic_group(6)

BAD_CALLS = [
    ("cyclic_subgroup-negative", lambda: al.cyclic_subgroup(Z6, -1)),
    ("cyclic_subgroup-too-large", lambda: al.cyclic_subgroup(Z6, 6)),
    ("element_order-negative", lambda: al.element_order(Z6, -1)),
    ("element_order-float", lambda: al.element_order(Z6, 2.5)),
    ("power-float-exponent", lambda: al.power(Z6, 1, 2.5)),
    ("power-too-large", lambda: al.power(Z6, 7, 1)),
    ("right_coset-float", lambda: al.right_coset(Z6, 2, 2.5)),
    ("right_coset-negative-generator", lambda: al.right_coset(Z6, -2, 1)),
    ("generated_subgroup-float", lambda: al.generated_subgroup(Z6, [2.5])),
    ("generated_subgroup-too-large", lambda: al.generated_subgroup(Z6, [2, 6])),
    ("factorize-float", lambda: al.factorize(2.5)),
    ("sufficient-negative", lambda: sufficient_bipartite_test(Z6, -1, 3)),
    ("sufficient-too-large", lambda: sufficient_bipartite_test(Z6, 7, 3)),
    ("colour_clique-float", lambda: gg.colour_clique(gg.build_phi(Z6, [2, 3]), 2.5)),
    ("product_closed-float", lambda: gg.is_pairwise_product_closed(Z6, 2.5, 3)),
    ("subgroup_group-empty", lambda: al.subgroup_group(Z6, [])),
    ("subgroup_group-too-large", lambda: al.subgroup_group(Z6, [0, 7])),
    ("level_vertices-too-large", lambda: gg.level_vertices(gg.build_phi(Z6, [2, 3]), 5)),
    ("vertex_of-negative-element", lambda: gg.build_phi(Z6, [2, 3]).vertex_of(0, -1)),
    ("vertex_of-negative-level", lambda: gg.build_phi(Z6, [2, 3]).vertex_of(-1, 0)),
    ("vertex_coset-negative", lambda: gg.build_phi(Z6, [2, 3]).vertex_coset(-1)),
    ("vertex_of-element-too-large", lambda: gg.build_phi(Z6, [2, 3]).vertex_of(0, 6)),
    ("vertex_of-level-too-large", lambda: gg.build_phi(Z6, [2, 3]).vertex_of(2, 0)),
    ("vertex_level-too-large", lambda: gg.build_phi(Z6, [2, 3]).vertex_level(5)),
    ("vertex_of-float", lambda: gg.build_phi(Z6, [2, 3]).vertex_of(0, 2.0)),
    ("conjugate_tau-float", lambda: ikn.conjugate_tau(5, ikn.search_tau(5).certificates[0].tau, 1.5)),
]


@pytest.mark.parametrize("call", [c for _, c in BAD_CALLS], ids=[i for i, _ in BAD_CALLS])
def test_bad_element_raises_precondition_failed(call):
    with pytest.raises(PreconditionFailed):
        call()


@pytest.mark.parametrize("call", [
    "Perm((1, 1, 2)).cycle_string()",
    "algebra.perm_group(3, [Perm((1, 1, 2))])",
    "ikn.canonical_tau(5, Perm((1, 1, 2, 3, 4)))",
    "ikn.build_and_verify(5, Perm((1, 1, 2, 3, 4)))",
    "ikn.orbit_structure(5, Perm((1, 1, 2, 3, 4)))",
])
def test_a_non_permutation_is_refused_not_walked_forever(call):
    """A Perm whose images repeat has a cycle walk that never returns to its
    start; each call runs in a child process, so a hang fails the test."""
    root = Path(__file__).resolve().parents[1]
    code = ("from ggraphs import algebra, ikn\n"
            "from ggraphs.errors import PreconditionFailed\n"
            "from ggraphs.perm import Perm\n"
            "try:\n    %s\nexcept PreconditionFailed as exc:\n    print('refused:', exc)\n" % call)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert proc.returncode == 0, proc.stderr
    assert "refused: " in proc.stdout and "permutation of 1.." in proc.stdout


def test_numpy_integers_pass_as_elements():
    x = np.int64(2)
    assert al.cyclic_subgroup(Z6, x) == (0, 2, 4)
    assert al.element_order(Z6, np.int32(3)) == 2
    assert al.power(Z6, x, np.int64(2)) == 4
    assert al.right_coset(Z6, x, np.int32(1)).elems == (1, 3, 5)


def two_vertices():
    g = mg.Multigraph()
    g.add_vertex()
    g.add_vertex()
    return g


@pytest.mark.parametrize("ends", [(0, 1.5), (1.0, 0), (0, 2), (-1, 0)])
def test_add_edge_refuses_a_bad_endpoint(ends):
    g = two_vertices()
    with pytest.raises(PreconditionFailed):
        g.add_edge(*ends)
    assert g.n_edges == 0


def test_add_edge_stores_integer_endpoints():
    g = two_vertices()
    g.add_edge(np.int64(0), np.int32(1))
    e = g.edges[0]
    assert (type(e.u), type(e.v)) == (int, int)
    adj = g.adj()
    assert [adj[v].tolist() for v in range(2)] == [[[0, 1]], [[0, 0]]]


@pytest.mark.parametrize("vertex_set", [[0, 1.5], [0, 2], [-1]])
def test_induced_subgraph_refuses_a_bad_vertex(vertex_set):
    g = two_vertices()
    g.add_edge(0, 1)
    with pytest.raises(PreconditionFailed):
        mg.induced_subgraph_with_maps(g, vertex_set)
