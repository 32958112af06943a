"""Incidence graph construction, lifts, preimages, and bipartite tests."""

import itertools
import random

import pytest

from ggraphs.algebra import (
    cyclic_group,
    cyclic_subgroup,
    dihedral_group,
    direct_product,
    element_order,
    parse_element,
    symmetric_group,
)
from ggraphs.errors import BudgetExceeded, PreconditionFailed
from ggraphs.ggraph import build_phi, build_psi, level_vertices, shifts
from ggraphs.incidence import (
    _extend_by_words,
    _is_homomorphism,
    incidence_graph,
    incidence_preimage,
    lift_automorphism,
    necessary_bipartite_witness,
    sufficient_bipartite_test,
    witness_automorphism,
)
from ggraphs.multigraph import Multigraph, isomorphic
from ggraphs.recognition import (
    GraphAut,
    RecognitionWitness,
    check_simple,
    close_under_composition,
    reconstruct,
)


def cycle_graph(n):
    g = Multigraph()
    for i in range(n):
        g.add_vertex(str(i))
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def complete_graph(n):
    g = Multigraph()
    for i in range(n):
        g.add_vertex(str(i))
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(i, j)
    return g


def all_automorphisms(g):
    """Brute-force automorphisms of a simple multigraph."""
    nv = g.n_vertices
    out = []
    for vperm in itertools.permutations(range(nv)):
        ok = all(
            g.multiplicity(u, v) == g.multiplicity(vperm[u], vperm[v])
            for u in range(nv)
            for v in range(u, nv)
        )
        if not ok:
            continue
        emap = []
        for e in g.edges:
            cands = g.edges_between(vperm[e.u], vperm[e.v])
            assert len(cands) == 1
            emap.append(cands[0])
        out.append(GraphAut(tuple(vperm), tuple(emap)))
    return out


def test_incidence_of_single_edge_is_path():
    g = complete_graph(2)
    ig = incidence_graph(g)
    assert ig.graph.n_vertices == 3
    assert ig.graph.n_edges == 2
    assert sorted(ig.graph.degree(v) for v in range(3)) == [1, 1, 2]
    assert not ig.outside_theorems


def test_incidence_of_triangle_is_hexagon():
    ig = incidence_graph(complete_graph(3))
    assert isomorphic(ig.graph, cycle_graph(6)) is not None


def test_incidence_of_doubled_edge_is_square():
    g = Multigraph()
    g.add_vertex("a")
    g.add_vertex("b")
    g.add_edge(0, 1)
    g.add_edge(0, 1)
    ig = incidence_graph(g)
    assert isomorphic(ig.graph, cycle_graph(4)) is not None


def test_incidence_counts_and_loops():
    rng = random.Random(4021)
    for _ in range(15):
        g = Multigraph()
        nv = rng.randint(1, 6)
        for i in range(nv):
            g.add_vertex(str(i))
        ne = rng.randint(0, 10)
        for _ in range(ne):
            u = rng.randrange(nv)
            v = rng.randrange(nv)
            g.add_edge(u, v)
        ig = incidence_graph(g)
        nloops = sum(1 for e in g.edges if e.u == e.v)
        assert ig.graph.n_vertices == g.n_vertices + g.n_edges
        assert ig.graph.n_edges == 2 * g.n_edges - nloops
        assert ig.outside_theorems == (nloops > 0)
        assert ig.graph.fully_part_tagged()


def test_loop_edge_vertex_has_degree_one():
    g = Multigraph()
    g.add_vertex("a")
    g.add_edge(0, 0)
    ig = incidence_graph(g)
    assert ig.outside_theorems
    assert ig.graph.degree(ig.vertex_for_edge(0)) == 1


def test_lift_identity_and_shifts_injective():
    gg = build_phi(cyclic_group(6), [2, 3])
    ig = incidence_graph(gg.graph)
    lifted = set()
    for g in range(6):
        sh = shifts(gg)[g]
        aut = GraphAut(sh.vertex_map, sh.edge_map)
        lifted.add(lift_automorphism(gg.graph, aut, ig))
    assert len(lifted) == 6
    ident = GraphAut(tuple(range(5)), tuple(range(6)))
    assert lift_automorphism(gg.graph, ident, ig).is_identity()


def test_lift_image_is_part_stabilizing_subgroup():
    # I(K_3) = C_6 has 12 automorphisms; exactly the 6 lifts stabilize parts
    k3 = complete_graph(3)
    ig = incidence_graph(k3)
    lifts = {lift_automorphism(k3, a, ig) for a in all_automorphisms(k3)}
    assert len(lifts) == 6
    part_stab = []
    for aut in all_automorphisms(ig.graph):
        stabilizes = all(
            (aut.vertex_map[v] < 3) == (v < 3) for v in range(ig.graph.n_vertices)
        )
        if stabilizes:
            part_stab.append(aut)
    assert set(part_stab) == lifts


def test_lift_image_for_k4():
    # part-stabilizing automorphisms of I(K_4) are determined by the source
    # vertex permutation, so they are exactly the 24 lifts
    k4 = complete_graph(4)
    ig = incidence_graph(k4)
    lifts = {lift_automorphism(k4, a, ig) for a in all_automorphisms(k4)}
    assert len(lifts) == 24
    for a in all_automorphisms(k4):
        lifted = lift_automorphism(k4, a, ig)
        assert all((lifted.vertex_map[v] < 4) == (v < 4) for v in range(10))
        assert lifted in lifts


def test_part_swapping_automorphism_is_not_a_lift():
    k3 = complete_graph(3)
    ig = incidence_graph(k3)
    swapping = [
        aut
        for aut in all_automorphisms(ig.graph)
        if not all((aut.vertex_map[v] < 3) == (v < 3) for v in range(6))
    ]
    assert swapping  # C_6 is vertex-transitive, so part swaps exist
    lifts = {lift_automorphism(k3, a, ig) for a in all_automorphisms(k3)}
    assert not any(aut in lifts for aut in swapping)


def test_preimage_of_hexagon_is_triangle():
    grp = symmetric_group(3)
    gens = [parse_element(grp, "(1,2)"), parse_element(grp, "(2,3)")]
    gg = build_phi(grp, gens)
    assert isomorphic(gg.graph, cycle_graph(6)) is not None
    result = incidence_preimage(gg)
    assert isomorphic(result.preimage, complete_graph(3)) is not None


def test_preimage_of_k23_is_tripled_edge():
    grp = symmetric_group(3)
    gens = [parse_element(grp, "(1,2,3)"), parse_element(grp, "(1,2)")]
    gg = build_phi(grp, gens)
    result = incidence_preimage(gg)
    assert result.preimage.n_vertices == 2
    assert result.preimage.n_edges == 3
    assert result.preimage.multiplicity(0, 1) == 3


def preimage_zoo():
    c2 = cyclic_group(2)
    d4 = dihedral_group(4)
    s = next(x for x in d4.elements() if element_order(d4, x) == 4)
    t = next(
        x
        for x in d4.elements()
        if element_order(d4, x) == 2 and x not in cyclic_subgroup(d4, s)
    )
    s3 = symmetric_group(3)
    return [
        (cyclic_group(6), [2, 3]),
        (cyclic_group(10), [2, 5]),
        (cyclic_group(12), [4, 6]),
        (cyclic_group(14), [2, 7]),
        (cyclic_group(18), [2, 9]),
        (direct_product(c2, c2), [1, 2]),
        (direct_product(c2, cyclic_group(4)), [1, 4]),
        (direct_product(c2, cyclic_group(6)), [1, 6]),
        (s3, [parse_element(s3, "(1,2)"), parse_element(s3, "(2,3)")]),
        (s3, [parse_element(s3, "(1,2,3)"), parse_element(s3, "(1,2)")]),
        (d4, [s, t]),
    ]


def test_preimage_round_trip_zoo():
    for grp, gens in preimage_zoo():
        gg = build_phi(grp, gens)
        result = incidence_preimage(gg)  # verifies gg = I(preimage) internally
        assert result.preimage.n_vertices == len(level_vertices(gg, 0))
        assert result.preimage.n_edges == len(level_vertices(gg, 1))
        assert result.incidence.graph.n_edges == gg.graph.n_edges


def test_preimage_preconditions():
    with pytest.raises(PreconditionFailed):
        incidence_preimage(build_phi(cyclic_group(15), [3, 5]))  # no order 2
    with pytest.raises(PreconditionFailed):
        incidence_preimage(build_phi(cyclic_group(4), [1, 2]))  # not simple
    with pytest.raises(PreconditionFailed):
        incidence_preimage(build_psi(cyclic_group(6), [2, 3]))  # loops
    with pytest.raises(PreconditionFailed):
        incidence_preimage(build_phi(cyclic_group(6), [2]))  # one occurrence


def test_sufficient_witness_coordinate_swap():
    grp = direct_product(cyclic_group(2), cyclic_group(2))
    w = sufficient_bipartite_test(grp, 2, 1)
    assert w is not None
    assert (w.m, w.n) == (1, 1)
    assert w.f == (0, 2, 1, 3)
    assert w.involutive and w.fixes_identity and w.is_homomorphism
    assert w.to_json() == {"f": [0, 2, 1, 3], "involutive": True, "homomorphism": True}


def test_sufficient_witness_none_for_s3():
    grp = symmetric_group(3)
    s, t = parse_element(grp, "(1,2,3)"), parse_element(grp, "(1,2)")
    assert sufficient_bipartite_test(grp, s, t) is None


def test_sufficient_witness_none_for_z6():
    assert sufficient_bipartite_test(cyclic_group(6), 2, 3) is None


def test_word_extensions_are_homomorphisms():
    # sufficient_bipartite_test relies on this instead of an all-pairs check
    extended = 0
    for grp, (s, t) in preimage_zoo() + [(cyclic_group(2), [1, 1])]:
        for fs in cyclic_subgroup(grp, t):
            for ft in cyclic_subgroup(grp, s):
                f = _extend_by_words(grp, s, t, fs, ft)
                if f is not None:
                    extended += 1
                    assert _is_homomorphism(grp, f), (grp.name, fs, ft)
    assert extended > 0


def test_sufficient_witness_identity_map():
    w = sufficient_bipartite_test(cyclic_group(2), 1, 1)
    assert w is not None
    assert w.f == (0, 1)


def test_sufficient_requires_generation():
    with pytest.raises(PreconditionFailed):
        sufficient_bipartite_test(cyclic_group(4), 2, 2)


def test_necessary_witness_none_for_k23():
    gg = build_phi(cyclic_group(6), [2, 3])
    assert necessary_bipartite_witness(gg) is None


def test_necessary_witness_for_hexagon():
    grp = symmetric_group(3)
    gens = [parse_element(grp, "(1,2)"), parse_element(grp, "(2,3)")]
    gg = build_phi(grp, gens)
    w = necessary_bipartite_witness(gg)
    assert w is not None
    assert w.f[grp.identity] == grp.identity
    assert all(w.f[w.f[x]] == x for x in grp.elements())
    # displacement conditions, rechecked from scratch
    s, t = gens
    in_t = set(cyclic_subgroup(grp, t))
    in_s = set(cyclic_subgroup(grp, s))
    for x in grp.elements():
        assert int(grp.mul[w.f[grp.mul[s, x]], grp.inv[w.f[x]]]) in in_t
        assert int(grp.mul[w.f[grp.mul[t, x]], grp.inv[w.f[x]]]) in in_s
    # tau really is a level-swapping involution of the graph
    V0 = set(level_vertices(gg, 0))
    assert all(w.tau.vertex_map[v] not in V0 for v in V0)
    assert w.tau.compose(w.tau).is_identity()


def test_necessary_witness_for_square():
    grp = direct_product(cyclic_group(2), cyclic_group(2))
    gg = build_phi(grp, [1, 2])
    w = necessary_bipartite_witness(gg)
    assert w is not None
    hom = all(
        w.f[grp.mul[a, b]] == grp.mul[w.f[a], w.f[b]]
        for a in grp.elements()
        for b in grp.elements()
    )
    assert w.is_homomorphism == hom


def test_necessary_witness_preconditions_and_budget():
    with pytest.raises(PreconditionFailed):
        necessary_bipartite_witness(build_phi(cyclic_group(4), [2, 2]))
    grp = symmetric_group(3)
    gens = [parse_element(grp, "(1,2)"), parse_element(grp, "(2,3)")]
    with pytest.raises(BudgetExceeded) as info:
        necessary_bipartite_witness(build_phi(grp, gens), budget=0)
    assert info.value.nodes > 0


def test_sufficient_witness_feeds_recognition_of_incidence_graph():
    # when the sufficient test succeeds, I(Phi(G,{s,t})) is a G-graph;
    # the induced automorphism and a lifted shift witness this directly
    grp = direct_product(cyclic_group(2), cyclic_group(2))
    s, t = 2, 1
    gg = build_phi(grp, [s, t])
    w = sufficient_bipartite_test(grp, s, t)
    tau = witness_automorphism(gg, w)
    ds = shifts(gg)[s]
    ig = incidence_graph(gg.graph)
    lifted = [
        lift_automorphism(gg.graph, tau, ig),
        lift_automorphism(gg.graph, GraphAut(ds.vertex_map, ds.edge_map), ig),
    ]
    H = close_under_composition(ig.graph, lifted)
    edge_e = next(
        e.id for e in gg.graph.edges if int(gg.edge_glabel[e.id]) == grp.identity
    )
    C = [ig.vertex_for_edge(edge_e), gg.vertex_of(0, grp.identity)]
    report = check_simple(ig.graph, RecognitionWitness(H, C))
    assert report.ok, report.details
    result = reconstruct(ig.graph, RecognitionWitness(H, C))
    assert result.group.order == len(H)
