"""G-graph construction/verification tests.

The construction oracle below rebuilds Phi/Psi from raw set arithmetic
(frozensets of coset elements, no membership arrays, no id layout) and the
module output is compared against it as an abstract edge multiset.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from ggraphs import algebra as al
from ggraphs import ggraph as gg
from ggraphs import multigraph as mg
from ggraphs.errors import InternalAssertion, PreconditionFailed


# ---------------------------------------------------------------------------
# oracle


def oracle_coset(group, s, x):
    out, y = set(), x
    while y not in out:
        out.add(y)
        y = int(group.mul[s, y])
    return frozenset(out)


def oracle_edges(group, gens, with_loops):
    """Multiset of (i, coset_i, j, coset_j, label) plus loop records."""
    edges = Counter()
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            for x in group.elements():
                edges[
                    (
                        i,
                        oracle_coset(group, gens[i], x),
                        j,
                        oracle_coset(group, gens[j], x),
                        x,
                    )
                ] += 1
    if with_loops:
        for i, s in enumerate(gens):
            for x in group.elements():
                c = oracle_coset(group, s, x)
                edges[(i, c, i, c, x)] += 1
    return edges


def abstract_edges(graph: gg.GGraph):
    out = Counter()
    for e in graph.graph.edges:
        iu, iv = graph.vertex_level(e.u), graph.vertex_level(e.v)
        cu = frozenset(graph.vertex_coset(e.u).elems)
        cv = frozenset(graph.vertex_coset(e.v).elems)
        x = int(graph.edge_glabel[e.id])
        if (iu, cu) <= (iv, cv):
            out[(iu, cu, iv, cv, x)] += 1
        else:
            out[(iv, cv, iu, cu, x)] += 1
    return out


def s3_st():
    g = al.symmetric_group(3)
    return g, al.parse_element(g, "(1,2,3)"), al.parse_element(g, "(1,2)")


# ---------------------------------------------------------------------------
# construction


def test_phi_z6_example():
    grp = al.cyclic_group(6)
    x = gg.build_phi(grp, [2, 3])
    assert x.graph.n_vertices == 5
    assert [len(l.cosets) for l in x.levels] == [2, 3]
    assert x.graph.n_edges == 6
    assert x.is_simple()
    assert mg.is_complete_bipartite_multi(x.graph) == (2, 3, 1)
    assert abstract_edges(x) == oracle_edges(grp, [2, 3], False)


def test_psi_z6_loop_counts():
    grp = al.cyclic_group(6)
    x = gg.build_psi(grp, [2, 3])
    assert x.graph.n_edges == 18  # |G| * (C(2,2)+2) = 6*3
    for v in gg.level_vertices(x, 0):
        assert len(x.graph.loops_at(v)) == 3  # o(2)
    for v in gg.level_vertices(x, 1):
        assert len(x.graph.loops_at(v)) == 2  # o(3)
    assert abstract_edges(x) == oracle_edges(grp, [2, 3], True)


def test_psi_single_generator_z2():
    x = gg.build_psi(al.cyclic_group(2), [1])
    assert x.graph.n_vertices == 1
    assert x.graph.n_edges == 2
    assert len(x.graph.loops_at(0)) == 2


def test_repeated_generator_gives_parallel_edges():
    x = gg.build_phi(al.cyclic_group(2), [1, 1])
    assert x.graph.n_vertices == 2
    assert x.graph.n_edges == 2
    assert x.graph.multiplicity(0, 1) == 2
    assert not x.is_simple()
    # labels of the double edge = the shared coset {0,1}
    assert sorted(int(x.edge_glabel[e]) for e in x.graph.edges_between(0, 1)) == [0, 1]


def test_phi_s3_is_k23():
    grp, s, t = s3_st()
    x = gg.build_phi(grp, [s, t])
    assert x.graph.n_vertices == 5
    assert x.graph.n_edges == 6
    assert x.is_simple()  # <s> and <t> intersect trivially
    assert mg.is_complete_bipartite_multi(x.graph) == (2, 3, 1)
    assert abstract_edges(x) == oracle_edges(grp, [s, t], False)


def test_build_oracle_random_zoo():
    rng = random.Random(5)
    groups = [
        al.cyclic_group(8),
        al.parse_group("Z2xZ4"),
        al.symmetric_group(3),
        al.dihedral_group(4),
        al.quaternion_group(),
    ]
    for _ in range(12):
        grp = rng.choice(groups)
        k = rng.randrange(1, 4)
        gens = [rng.randrange(grp.order) for _ in range(k)]
        loops = rng.random() < 0.5
        x = gg._build(grp, gens, loops)
        assert abstract_edges(x) == oracle_edges(grp, gens, loops)


def test_build_rejects_bad_gens():
    with pytest.raises(PreconditionFailed):
        gg.build_phi(al.cyclic_group(4), [])
    with pytest.raises(PreconditionFailed):
        gg.build_phi(al.cyclic_group(4), [4])


# ---------------------------------------------------------------------------
# shifts and cliques


def test_shift_matches_coset_translation():
    grp, s, t = s3_st()
    x = gg.build_phi(grp, [s, t])
    rng = random.Random(1)
    all_shifts = gg.shifts(x)
    for _ in range(20):
        a = rng.randrange(grp.order)
        v = rng.randrange(x.graph.n_vertices)
        lvl = x.vertex_level(v)
        member = x.vertex_coset(v).elems[rng.randrange(len(x.vertex_coset(v).elems))]
        img = all_shifts[a].vertex_map[v]
        # delta_a(<s>y) must be <s>(y a) for EVERY member y
        want = set(oracle_coset(grp, x.levels[lvl].gen, int(grp.mul[member, a])))
        assert set(x.vertex_coset(img).elems) == want
        assert x.vertex_level(img) == lvl


def test_shift_identity_and_composition():
    grp = al.quaternion_group()
    x = gg.build_psi(grp, [2, 4])  # i and j
    sh = gg.shifts(x)
    nv = x.graph.n_vertices
    assert sh[0].vertex_map == tuple(range(nv))
    assert sh[0].edge_map == tuple(range(x.graph.n_edges))
    rng = random.Random(2)
    for _ in range(15):
        a, b = rng.randrange(8), rng.randrange(8)
        # delta_a . delta_b = delta_{ba}
        comp_v = tuple(sh[a].vertex_map[p] for p in sh[b].vertex_map)
        comp_e = tuple(sh[a].edge_map[p] for p in sh[b].edge_map)
        c = int(grp.mul[b, a])
        assert comp_v == sh[c].vertex_map
        assert comp_e == sh[c].edge_map


def test_shift_preserves_edges():
    grp, s, t = s3_st()
    x = gg.build_psi(grp, [s, t])
    for a in range(grp.order):
        sh = gg.shifts(x)[a]
        w = mg.IsoWitness(sh.vertex_map, sh.edge_map)
        assert mg.verify_iso_witness(x.graph, x.graph, w)


def test_colour_cliques_translate():
    grp = al.parse_group("Z2xZ4")
    x = gg.build_phi(grp, [al.parse_element(grp, "(1,0)"), al.parse_element(grp, "(0,1)"), al.parse_element(grp, "(1,2)")])
    sh = gg.shifts(x)
    for g_ in range(grp.order):
        cl = gg.colour_clique(x, g_)
        # pairwise adjacent
        for i in range(len(cl)):
            for j in range(i + 1, len(cl)):
                assert x.graph.multiplicity(cl[i], cl[j]) >= 1
        for gp in range(grp.order):
            moved = sorted(sh[gp].vertex_map[v] for v in cl)
            assert moved == sorted(gg.colour_clique(x, int(grp.mul[g_, gp])))


# ---------------------------------------------------------------------------
# verify_structure


ZOO = [
    ("Z6", ["2", "3"], False),
    ("Z6", ["1"], True),
    ("Z2", ["1", "1"], False),
    ("Z2", ["1", "1"], True),
    ("S3", ["(1,2,3)", "(1,2)"], False),
    ("S3", ["(1,2)", "(2,3)"], True),
    ("Z2xZ4", ["(1,0)", "(0,1)"], False),
    ("perm:4:(1 2 3 4),(2 4)", ["(1 2 3 4)", "(2 4)"], True),
]


@pytest.mark.parametrize("spec,gens,loops", ZOO)
def test_verify_structure_passes(spec, gens, loops):
    grp = al.parse_group(spec)
    elems = [al.parse_element(grp, t) for t in gens]
    x = gg._build(grp, elems, loops)
    rep = gg.verify_structure(x)
    assert rep.all_ok, rep.lines()


def test_verify_structure_detects_relabeled_edge():
    grp = al.cyclic_group(6)
    x = gg.build_phi(grp, [2, 3])
    old = int(x.edge_glabel[0])
    x.edge_glabel[0] = (old + 1) % 6
    rep = gg.verify_structure(x)
    item5 = rep.items[4]
    assert item5.number == 5 and not item5.ok
    assert not rep.all_ok


def test_verify_structure_quaternion_multiedge():
    grp = al.quaternion_group()
    i, j = 2, 4
    x = gg.build_phi(grp, [i, j])
    # <i> inter <j> = {1,-1}: every multi-edge is a double edge
    rep = gg.verify_structure(x)
    assert rep.all_ok
    mults = {
        x.graph.multiplicity(e.u, e.v) for e in x.graph.edges
    }
    assert mults == {2}


# ---------------------------------------------------------------------------
# components


def test_component_analysis_connected():
    grp, s, t = s3_st()
    x = gg.build_phi(grp, [s, t])
    rep = gg.component_analysis(x)
    assert rep.count == rep.expected_count == 1
    assert rep.all_isomorphic
    assert rep.cosets_partition(grp.order)


def test_component_analysis_two_copies():
    grp = al.cyclic_group(6)
    x = gg.build_phi(grp, [2, 2])
    rep = gg.component_analysis(x)
    assert rep.expected_count == 2
    assert rep.count == 2
    assert rep.all_isomorphic
    assert rep.cosets_partition(6)
    assert {c.coset for c in rep.components} == {(0, 2, 4), (1, 3, 5)}
    # each component is a triple edge on two vertices
    for c in rep.components:
        assert len(c.vertices) == 2


def test_component_analysis_isolated_vertices():
    grp = al.cyclic_group(4)
    x = gg.build_phi(grp, [2])
    rep = gg.component_analysis(x)
    assert rep.count == rep.expected_count == 2
    assert rep.all_isomorphic
    assert {c.coset for c in rep.components} == {(0, 2), (1, 3)}


def test_replicate_components():
    x = gg.build_phi(al.cyclic_group(2), [1, 1])
    big = gg.replicate_components(x, 3)
    assert big.group.order == 6
    rep = gg.component_analysis(big)
    assert rep.count == 3 and rep.all_isomorphic
    with pytest.raises(PreconditionFailed):
        gg.replicate_components(gg.build_phi(al.cyclic_group(4), [2]), 2)


# ---------------------------------------------------------------------------
# product closure and kmn


def test_is_pairwise_product_closed():
    grp, s, t = s3_st()
    assert gg.is_pairwise_product_closed(grp, s, t)
    q8 = al.quaternion_group()
    assert gg.is_pairwise_product_closed(q8, 2, 4)
    d4 = al.parse_group("perm:4:(1 2 3 4),(2 4)")
    a = al.parse_element(d4, "(2,4)")
    b = al.parse_element(d4, "(1,2)(3,4)")
    assert not gg.is_pairwise_product_closed(d4, a, b)


def test_kmn_plan_222_worked_example():
    p = gg.kmn_plan(2, 2, 2)
    assert p.split_i == (2,) and p.split_j == ()
    assert (p.l1, p.l2, p.d1, p.d2) == (2, 1, 1, 2)
    assert p.group_spec == "Z4xZ2"
    assert p.s_coords == (1, 0)
    assert p.t_coords == (1, 1)


def test_kmn_build_shapes():
    for (m, n, l) in [(2, 3, 1), (2, 2, 2), (1, 1, 4), (3, 2, 2), (1, 3, 2), (4, 4, 3)]:
        x, plan = gg.kmn_build(m, n, l)
        assert mg.is_complete_bipartite_multi(x.graph) == (m, n, l)
        assert x.group.order == m * n * l
        assert gg.verify_structure(x).all_ok


def test_kmn_rejects_bad_input():
    with pytest.raises(PreconditionFailed):
        gg.kmn_plan(0, 1, 1)
    with pytest.raises(PreconditionFailed):
        gg.kmn_build(100, 100, 9)


# ---------------------------------------------------------------------------
# serialization


def test_ggraph_json_reimports_as_multigraph():
    grp, s, t = s3_st()
    x = gg.build_psi(grp, [s, t])
    data = gg.export_ggraph_json(x)
    assert data["with_loops"] is True
    assert len(data["levels"]) == 2
    g2 = mg.import_json(data)
    w = mg.isomorphic(x.graph, g2)
    assert w is not None
    # ids are already dense, so the reimport is the identity
    assert w.vertex_map == tuple(range(x.graph.n_vertices))


def test_vertex_labels_and_lookup():
    grp = al.cyclic_group(6)
    x = gg.build_phi(grp, [2, 3])
    assert x.graph.vertices[0].label == "0:0"
    for v in range(x.graph.n_vertices):
        lvl = x.vertex_level(v)
        for member in x.vertex_coset(v).elems:
            assert x.vertex_of(lvl, member) == v
