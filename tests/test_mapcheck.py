"""The one isomorphism check and the one edge-map rule against the loops
they replaced.

The oracles below are the former implementations: recognition's
aut_defect, the per-edge loop of verify_iso_witness, and the edge-map loops
of lift_automorphism, incidence_preimage and necessary_bipartite_witness.
map_defect must give the same reason string, verify_iso_witness the same
boolean, and the incidence routines the same maps.
"""

import random

import numpy as np
import pytest

from ggraphs import algebra as al
from ggraphs.errors import WitnessInvalid
from ggraphs.ggraph import build_phi, build_psi, level_vertices, shifts
from ggraphs.incidence import (
    _is_homomorphism,
    incidence_graph,
    incidence_preimage,
    lift_automorphism,
    necessary_bipartite_witness,
    sufficient_bipartite_test,
    witness_automorphism,
)
from ggraphs.multigraph import (
    GraphAut,
    IsoWitness,
    Multigraph,
    connected_components,
    induced_edge_map,
    map_defect,
    verify_iso_witness,
)
from ggraphs.recognition import RecognitionWitness, check, shifts_of
from split_shifts import split_shifts


# ---------------------------------------------------------------------------
# oracles: the replaced implementations


def oracle_aut_defect(g1, a, g2=None):
    """aut_defect, with the images read in g2 (g1 when omitted)."""
    g2 = g1 if g2 is None else g2
    nv, ne = g1.n_vertices, g1.n_edges
    if len(a.vertex_map) != nv or sorted(a.vertex_map) != list(range(g2.n_vertices)):
        return "vertex map is not a permutation of the vertices"
    if len(a.edge_map) != ne or sorted(a.edge_map) != list(range(g2.n_edges)):
        return "edge map is not a permutation of the edges"
    for e in g1.edges:
        f = g2.edges[a.edge_map[e.id]]
        if {a.vertex_map[e.u], a.vertex_map[e.v]} != {f.u, f.v}:
            return "edge %d maps to edge %d with mismatched endpoints" % (e.id, f.id)
    return None


def oracle_first_defect(g1, pairs, g2=None):
    for a in pairs:
        reason = oracle_aut_defect(g1, a, g2)
        if reason is not None:
            return reason
    return None


def oracle_verify_iso_witness(g1, g2, w, *, respect_parts=True):
    n, m = g1.n_vertices, g1.n_edges
    if g2.n_vertices != n or g2.n_edges != m:
        return False
    if sorted(w.vertex_map) != list(range(n)) or sorted(w.edge_map) != list(range(m)):
        return False
    use_parts = respect_parts and g1.fully_part_tagged() and g2.fully_part_tagged()
    if use_parts and any(
        g1.vertices[v].part != g2.vertices[w.vertex_map[v]].part for v in range(n)
    ):
        return False
    for e in g1.edges:
        f = g2.edges[w.edge_map[e.id]]
        if {w.vertex_map[e.u], w.vertex_map[e.v]} != {f.u, f.v}:
            return False
    return True


def oracle_validate_maps(g, H):
    """The message _validate_maps raised for H, or None."""
    nv, ne = g.n_vertices, g.n_edges
    for a in H:
        if len(a.vertex_map) != nv or sorted(a.vertex_map) != list(range(nv)):
            return "an H element's vertex map is not a permutation"
        if len(a.edge_map) != ne or sorted(a.edge_map) != list(range(ne)):
            return "an H element's edge map is not a permutation"
    return None


def oracle_unique_image_edge_map(g1, g2, vmap):
    """lift_automorphism's and incidence_preimage's loop."""
    emap = []
    for e in g1.edges:
        cands = g2.edges_between(vmap[e.u], vmap[e.v])
        assert len(cands) == 1
        emap.append(cands[0])
    return tuple(emap)


def oracle_necessary_edge_map(gg, vmap):
    """necessary_bipartite_witness's loop over the level-0 x level-1 pairs."""
    graph = gg.graph
    emap = [0] * graph.n_edges
    for a in level_vertices(gg, 0):
        for b in level_vertices(gg, 1):
            ids = graph.edges_between(a, b)
            if not ids:
                continue
            img = graph.edges_between(vmap[a], vmap[b])
            if {vmap[a], vmap[b]} == {a, b}:
                for x in ids:
                    emap[x] = x
            else:
                for x, y in zip(ids, img):
                    emap[x] = y
    return tuple(emap)


def oracle_is_homomorphism(g, f):
    mul = g.mul
    return all(
        f[mul[a, b]] == mul[f[a], f[b]] for a in range(g.order) for b in range(g.order)
    )


# ---------------------------------------------------------------------------
# fixtures


def zoo():
    """Phi and Psi of S3 (twice), S4, Q8 and Z2xZ4."""
    s3, s4 = al.symmetric_group(3), al.symmetric_group(4)
    q8, z = al.quaternion_group(), al.parse_group("Z2xZ4")
    cases = [
        (s3, ["(1,2)", "(2,3)"]),
        (s3, ["(1,2,3)", "(1,2)"]),
        (s4, ["(1,2)", "(1,2,3,4)"]),
        (q8, ["i", "j", "k"]),
        (z, ["(1,0)", "(0,1)", "(1,2)"]),
    ]
    out = []
    for grp, names in cases:
        gens = [al.parse_element(grp, x) for x in names]
        out.append(build_phi(grp, gens))
        out.append(build_psi(grp, gens))
    return out


ZOO = zoo()


def swap_across(g, a, rng):
    """a with the images of two edges from different multi-edges swapped."""
    ends = [frozenset((e.u, e.v)) for e in g.edges]
    x = rng.randrange(g.n_edges)
    others = [y for y in range(g.n_edges) if ends[y] != ends[x]]
    y = rng.choice(others)
    em = list(a.edge_map)
    em[x], em[y] = em[y], em[x]
    return GraphAut(a.vertex_map, tuple(em))


def repeat_vertex(g, a, rng):
    i, j = rng.sample(range(g.n_vertices), 2)
    vm = list(a.vertex_map)
    vm[i] = vm[j]
    return GraphAut(tuple(vm), a.edge_map)


def repeat_edge(g, a, rng):
    i, j = rng.sample(range(g.n_edges), 2)
    em = list(a.edge_map)
    em[i] = em[j]
    return GraphAut(a.vertex_map, tuple(em))


MUTATIONS = (swap_across, repeat_vertex, repeat_edge)


def grown(g, extra_vertex):
    """A copy of g with one more vertex or one more edge."""
    h = Multigraph()
    for v in g.vertices:
        h.add_vertex(v.label, v.part)
    for e in g.edges:
        h.add_edge(e.u, e.v, e.label)
    if extra_vertex:
        h.add_vertex("extra", g.vertices[0].part)
    else:
        h.add_edge(g.edges[0].u, g.edges[0].v, "extra")
    return h


def verify_variants(g1, g2, a):
    for parts in (False, True):
        got = verify_iso_witness(g1, g2, a, respect_parts=parts)
        want = oracle_verify_iso_witness(g1, g2, a, respect_parts=parts)
        assert got == want, parts


# ---------------------------------------------------------------------------
# map_defect and verify_iso_witness


def test_aliases_name_one_type():
    assert IsoWitness is GraphAut
    a = GraphAut((1, 0), ())
    assert a < GraphAut((1, 1), ()) and hash(a) == hash(GraphAut((1, 0), ()))


@pytest.mark.parametrize("gg", ZOO, ids=lambda gg: "%s%d" % (gg.group.name, gg.with_loops))
def test_every_shift_agrees_with_oracle(gg):
    g = gg.graph
    for a in shifts(gg):
        assert oracle_aut_defect(g, a) is None
        assert map_defect(g, g, [a.vertex_map], [a.edge_map]) is None
        verify_variants(g, g, a)
    S_v, S_e = split_shifts(gg)
    assert S_v.dtype == np.int32 and S_e.dtype == np.int32
    assert map_defect(g, g, S_v, S_e) is None


@pytest.mark.parametrize("gg", ZOO, ids=lambda gg: "%s%d" % (gg.group.name, gg.with_loops))
def test_mutants_agree_with_oracle(gg):
    g = gg.graph
    rng = random.Random(gg.group.order * 7 + gg.n_levels)
    for a in shifts(gg):
        for mutate in MUTATIONS:
            b = mutate(g, a, rng)
            want = oracle_aut_defect(g, b)
            assert want is not None
            assert map_defect(g, g, [b.vertex_map], [b.edge_map]) == want
            verify_variants(g, g, b)
        for extra_vertex in (True, False):
            h = grown(g, extra_vertex)
            want = oracle_aut_defect(g, a, h)
            assert want is not None
            assert map_defect(g, h, [a.vertex_map], [a.edge_map]) == want
            verify_variants(g, h, a)
            verify_variants(h, g, GraphAut(a.vertex_map + (0,) * extra_vertex, a.edge_map))


@pytest.mark.parametrize("gg", ZOO, ids=lambda gg: "%s%d" % (gg.group.name, gg.with_loops))
def test_batches_report_the_first_failing_pair(gg):
    g = gg.graph
    rng = random.Random(gg.group.order)
    sh = shifts(gg)
    for _ in range(20):
        pairs = [rng.choice(sh) for _ in range(rng.randrange(1, 6))]
        for _ in range(rng.randrange(0, 3)):
            i = rng.randrange(len(pairs))
            pairs[i] = rng.choice(MUTATIONS)(g, pairs[i], rng)
        want = oracle_first_defect(g, pairs)
        vms = [a.vertex_map for a in pairs]
        ems = [a.edge_map for a in pairs]
        assert map_defect(g, g, vms, ems) == want
        assert map_defect(g, g, np.array(vms, dtype=np.int32), np.array(ems, dtype=np.int32)) == want


def test_wrong_lengths_and_out_of_range_entries():
    g = ZOO[0].graph
    a = shifts(ZOO[0])[1]
    cases = [
        GraphAut(a.vertex_map[:-1], a.edge_map),
        GraphAut(a.vertex_map, a.edge_map + (0,)),
        GraphAut((2**40,) + a.vertex_map[1:], a.edge_map),
        GraphAut(a.vertex_map, (-1,) + a.edge_map[1:]),
    ]
    for b in cases:
        assert map_defect(g, g, [b.vertex_map], [b.edge_map]) == oracle_aut_defect(g, b)
        assert verify_iso_witness(g, g, b) is False
    vms = [a.vertex_map, cases[0].vertex_map]
    assert map_defect(g, g, vms, [a.edge_map] * 2) == oracle_aut_defect(g, cases[0])
    assert map_defect(g, g, [], []) is None


def isolated(n):
    g = Multigraph()
    for _ in range(n):
        g.add_vertex()
    return g


# A graph with no edges gives an edge map width 0, where a map of the wrong
# length has an empty row: its validity comes from its length.


def test_an_edge_map_of_the_wrong_length_is_refused_at_width_0():
    g = isolated(2)
    assert map_defect(g, g, [(0, 1)], [(5,)]) == "edge map is not a permutation of the edges"
    assert map_defect(g, g, [(1, 0)], [()]) is None


def test_a_witness_of_the_wrong_length_is_refused_at_width_0():
    g = isolated(2)
    assert verify_iso_witness(g, g, GraphAut((0, 1), (5, 7))) is False
    assert verify_iso_witness(g, g, GraphAut((1, 0), ())) is True


def test_a_vertex_map_of_the_wrong_length_is_refused_at_width_0():
    g = Multigraph()
    assert map_defect(g, g, [(3,)], [()]) == "vertex map is not a permutation of the vertices"


def test_recognition_refuses_an_h_element_of_the_wrong_length():
    g = isolated(2)
    good = [GraphAut((0, 1), ()), GraphAut((1, 0), ())]
    assert check(g, RecognitionWitness(good, [0])).ok
    with pytest.raises(WitnessInvalid, match="edge map"):
        check(g, RecognitionWitness([good[0], GraphAut((1, 0), (3,))], [0]))


def test_lifting_a_map_of_the_wrong_length_raises_witness_invalid():
    with pytest.raises(WitnessInvalid, match="edge map is not a permutation"):
        lift_automorphism(isolated(1), GraphAut((0,), (5,)))


def test_level_swap_fails_only_with_parts_respected():
    grp = al.symmetric_group(3)
    gg = build_phi(grp, [al.parse_element(grp, "(1,2)"), al.parse_element(grp, "(2,3)")])
    tau = necessary_bipartite_witness(gg).tau
    assert map_defect(gg.graph, gg.graph, [tau.vertex_map], [tau.edge_map]) is None
    verify_variants(gg.graph, gg.graph, tau)
    assert not verify_iso_witness(gg.graph, gg.graph, tau)
    assert verify_iso_witness(gg.graph, gg.graph, tau, respect_parts=False)


# ---------------------------------------------------------------------------
# recognition's witness checks


@pytest.mark.parametrize("gg", ZOO[:6], ids=lambda gg: "%s%d" % (gg.group.name, gg.with_loops))
def test_h_defect_detail_names_the_oracle_edge(gg):
    g = gg.graph
    rng = random.Random(gg.group.order + 1)
    w = shifts_of(gg)
    for _ in range(5):
        H = list(w.H)
        for i in rng.sample(range(1, len(H)), 2):
            H[i] = swap_across(g, H[i], rng)
        report = check(g, RecognitionWitness(H, w.C))
        line = "H element is not an automorphism: " + oracle_first_defect(g, H)
        assert not report.witness_ok
        assert report.details[0] == line


@pytest.mark.parametrize("gg", ZOO[:4], ids=lambda gg: "%s%d" % (gg.group.name, gg.with_loops))
def test_invalid_h_raises_the_oracle_message(gg):
    g = gg.graph
    rng = random.Random(gg.group.order + 2)
    H = shifts_of(gg).H
    C = shifts_of(gg).C
    for _ in range(10):
        bad = list(H)
        # an element that is a permutation but no automorphism comes first
        bad[0] = swap_across(g, bad[0], rng)
        i = rng.randrange(1, len(bad))
        bad[i] = rng.choice((repeat_vertex, repeat_edge))(g, bad[i], rng)
        if rng.random() < 0.5:
            j = rng.randrange(1, len(bad))
            bad[j] = GraphAut(bad[j].vertex_map[:-1], bad[j].edge_map)
        want = oracle_validate_maps(g, bad)
        assert want is not None
        with pytest.raises(WitnessInvalid) as info:
            check(g, RecognitionWitness(bad, C))
        assert str(info.value) == want


# ---------------------------------------------------------------------------
# the induced edge map


def complete_graph(n):
    g = Multigraph()
    for i in range(n):
        g.add_vertex(str(i))
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(i, j)
    return g


def test_lift_matches_oracle():
    cases = []
    for n in (3, 4):
        g = complete_graph(n)
        rng = random.Random(n)
        for _ in range(10):
            vm = list(range(n))
            rng.shuffle(vm)
            cases.append((g, GraphAut(tuple(vm), oracle_unique_image_edge_map(g, g, vm))))
    z2 = al.parse_group("Z2xZ2")
    for gg in (build_phi(al.cyclic_group(6), [2, 3]), build_phi(z2, [2, 1])):
        cases.extend((gg.graph, a) for a in shifts(gg))
    gg = build_phi(z2, [2, 1])
    tau = witness_automorphism(gg, sufficient_bipartite_test(z2, 2, 1))
    cases.append((gg.graph, tau))
    for g, a in cases:
        ig = incidence_graph(g)
        lifted = lift_automorphism(g, a, ig)
        n = g.n_vertices
        assert lifted.vertex_map == a.vertex_map + tuple(n + x for x in a.edge_map)
        want = oracle_unique_image_edge_map(ig.graph, ig.graph, lifted.vertex_map)
        assert lifted.edge_map == want


def preimage_zoo():
    c2 = al.cyclic_group(2)
    s3 = al.symmetric_group(3)
    d4 = al.dihedral_group(4)
    s = next(x for x in d4.elements() if al.element_order(d4, x) == 4)
    t = next(
        x
        for x in d4.elements()
        if al.element_order(d4, x) == 2 and x not in al.cyclic_subgroup(d4, s)
    )
    return [
        (al.cyclic_group(6), [2, 3]),
        (al.cyclic_group(10), [2, 5]),
        (al.cyclic_group(12), [4, 6]),
        (al.direct_product(c2, c2), [1, 2]),
        (al.direct_product(c2, al.cyclic_group(4)), [1, 4]),
        (al.direct_product(c2, al.cyclic_group(6)), [1, 6]),
        (s3, [al.parse_element(s3, "(1,2)"), al.parse_element(s3, "(2,3)")]),
        (s3, [al.parse_element(s3, "(1,2,3)"), al.parse_element(s3, "(1,2)")]),
        (d4, [s, t]),
    ]


def test_preimage_matches_oracle():
    for grp, gens in preimage_zoo():
        gg = build_phi(grp, gens)
        result = incidence_preimage(gg)
        want = oracle_unique_image_edge_map(
            gg.graph, result.incidence.graph, result.iso.vertex_map
        )
        assert result.iso.edge_map == want


def test_necessary_tau_matches_oracle():
    # Z4 over {1, 1}: one self-paired multi-edge of multiplicity 4;
    # Z2xZ4 over {(0,1), (1,1)}: multiplicity 2, self-paired and not
    z24 = al.parse_group("Z2xZ4")
    multi = [
        (al.cyclic_group(4), [1, 1]),
        (z24, [al.parse_element(z24, "(0,1)"), al.parse_element(z24, "(1,1)")]),
        (al.parse_group("Z12xZ12"), [12, 1]),
    ]
    found = 0
    for grp, gens in preimage_zoo() + multi:
        gg = build_phi(grp, gens)
        if len(connected_components(gg.graph)) != 1:
            continue
        w = necessary_bipartite_witness(gg)
        if w is None:
            continue
        found += 1
        assert w.tau.edge_map == oracle_necessary_edge_map(gg, w.tau.vertex_map)
    assert found == 5


def test_induced_edge_map_multiplicity_mismatch_is_none():
    g = Multigraph()
    for _ in range(3):
        g.add_vertex()
    g.add_edge(0, 1)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(2, 2)
    assert induced_edge_map(g, g, [0, 1, 2]) == (0, 1, 2, 3)
    assert induced_edge_map(g, g, [2, 1, 0]) is None  # the double edge would land on (2, 1)
    h = Multigraph()
    for _ in range(3):
        h.add_vertex()
    h.add_edge(1, 2)
    h.add_edge(2, 1)
    h.add_edge(1, 0)
    h.add_edge(0, 0)
    # the k-th edge of a multi-edge goes to the k-th edge of its image
    assert induced_edge_map(g, h, [2, 1, 0]) == (0, 1, 2, 3)
    assert induced_edge_map(g, h, [1, 2, 0]) is None  # edge (1, 2) would land on (2, 0)


def test_is_homomorphism_matches_loop():
    rng = random.Random(5)
    for grp in (al.symmetric_group(3), al.quaternion_group(), al.parse_group("Z2xZ4")):
        n = grp.order
        maps = [list(range(n)), [grp.identity] * n, [int(grp.inv[x]) for x in range(n)]]
        for _ in range(20):
            f = list(range(n))
            rng.shuffle(f)
            maps.append(f)
        for f in maps:
            assert _is_homomorphism(grp, f) == oracle_is_homomorphism(grp, f)
