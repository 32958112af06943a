"""Recognition's stabiliser checks against the code they replaced.

The oracles below are the former implementations: _aut_order and
is_cyclic_subgroup, which composed GraphAut tuples until the identity,
reconstruct's choice of level generator (the first element of sorted H
whose order is |Stab|), and the orbit walk of acts_regularly_on_edges.  The
array code must take the same decisions, choose the same generators and
give the same reasons, except for which edge a "leaves the set" reason
names: now the smallest edge of the set that some stabiliser element maps
outside it.
"""

import random
import re

import numpy as np
import pytest

from ggraphs import algebra as al
from ggraphs.ggraph import build_phi, build_psi
from ggraphs.multigraph import GraphAut, Multigraph
from ggraphs.recognition import (
    RecognitionWitness,
    _cyclic_generator,
    acts_regularly_on_edges,
    check,
    edges_toward,
    reconstruct,
    shifts_of,
    stabilizer,
    vertex_orbits,
)

# ---------------------------------------------------------------------------
# oracles: the replaced implementations


def oracle_aut_order(a):
    k = 1
    b = a
    while not b.is_identity():
        b = b.compose(a)
        k += 1
    return k


def oracle_is_cyclic_subgroup(elems):
    n = len(elems)
    return any(oracle_aut_order(a) == n for a in elems)


def oracle_stabilizer(H, u):
    return [a for a in H if a.vertex_map[u] == u]


def oracle_generator(H, u):
    """reconstruct's level generator for u, or None."""
    stab = oracle_stabilizer(sorted(H), u)
    cands = [a for a in stab if oracle_aut_order(a) == len(stab)]
    return cands[0] if cands else None


def oracle_acts_regularly_on_edges(stab, edge_ids):
    edge_ids = list(edge_ids)
    if not edge_ids:
        return False, "empty edge set"
    if len(edge_ids) != len(stab):
        return False, "|edges| = %d but |Stab| = %d" % (len(edge_ids), len(stab))
    target = set(edge_ids)
    reached = {edge_ids[0]}
    stack = [edge_ids[0]]
    while stack:
        x = stack.pop()
        for a in stab:
            y = a.edge_map[x]
            if y not in target:
                return False, "edge %d leaves the set under the action" % x
            if y not in reached:
                reached.add(y)
                stack.append(y)
    if len(reached) != len(target):
        return False, "action is not transitive (%d of %d edges reached)" % (
            len(reached),
            len(target),
        )
    return True, ""


def oracle_stab_details(g, H, C, with_loops):
    """The details of the stabilizers_cyclic and regular_action checks."""
    orbs = vertex_orbits(g, [a.vertex_map for a in H])
    orbit_of = {v: i for i, orb in enumerate(orbs) for v in orb}
    out = []
    for u in C:
        if not oracle_is_cyclic_subgroup(oracle_stabilizer(H, u)):
            out.append("Stab_H %d is not cyclic" % u)
    for u in C:
        for i, orb in enumerate(orbs):
            if not with_loops and orbit_of[u] == i:
                continue
            ok, reason = oracle_acts_regularly_on_edges(
                oracle_stabilizer(H, u), edges_toward(g, u, orb)
            )
            if not ok:
                out.append(
                    "Stab_H %d is not regular on edges toward orbit of %d: %s"
                    % (u, orb[0], reason)
                )
    return out


LEAVES = re.compile(r"edge (\d+) leaves the set")


def masked(reason):
    """The reason without the edge a "leaves the set" reason names."""
    return LEAVES.sub("edge * leaves the set", reason)


def smallest_leaving_edge(edge_maps, edge_ids):
    return min(x for x in edge_ids if any(m[x] not in edge_ids for m in edge_maps))


# ---------------------------------------------------------------------------
# fixtures


def zoo():
    """Phi and Psi of S3, S4, Q8, Z2xZ4 and D5."""
    s3, s4 = al.symmetric_group(3), al.symmetric_group(4)
    q8, z = al.quaternion_group(), al.parse_group("Z2xZ4")
    d5 = al.dihedral_group(5)
    rot = next(x for x in d5.elements() if al.element_order(d5, x) == 5)
    refl = next(x for x in d5.elements() if al.element_order(d5, x) == 2)
    cases = [
        (s3, [al.parse_element(s3, "(1,2)"), al.parse_element(s3, "(2,3)")]),
        (s4, [al.parse_element(s4, "(1,2)"), al.parse_element(s4, "(1,2,3,4)")]),
        (q8, [al.parse_element(q8, x) for x in ("i", "j", "k")]),
        (z, [al.parse_element(z, x) for x in ("(1,0)", "(0,1)", "(1,2)")]),
        (d5, [rot, refl]),
    ]
    return [build(grp, gens) for grp, gens in cases for build in (build_phi, build_psi)]


ZOO = zoo()
IDS = ["%s-%s" % ("Psi" if gg.with_loops else "Phi", gg.group.name) for gg in ZOO]


def swap_two_edge_images(g, a, rng):
    """a with the images of two edges of different end-points swapped: a
    permutation pair that is no automorphism."""
    ends = [frozenset((e.u, e.v)) for e in g.edges]
    x = rng.randrange(g.n_edges)
    y = rng.choice([y for y in range(g.n_edges) if ends[y] != ends[x]])
    em = list(a.edge_map)
    em[x], em[y] = em[y], em[x]
    return GraphAut(a.vertex_map, tuple(em))


def delete_edge(g, eid):
    h = Multigraph()
    for v in g.vertices:
        h.add_vertex(v.label, v.part)
    for e in g.edges:
        if e.id != eid:
            h.add_edge(e.u, e.v, e.label)
    return h


def reroute(a, eid):
    """a on the graph without eid: its preimage goes to its image."""
    em = []
    for j, img in enumerate(a.edge_map):
        if j == eid:
            continue
        if img == eid:
            img = a.edge_map[eid]
        em.append(img if img < eid else img - 1)
    return GraphAut(a.vertex_map, tuple(em))


def mutants(gg):
    """(name, graph, H): the identity dropped, another element dropped, one
    element made a non-automorphism (so H is not closed), one edge
    deleted."""
    g, H = gg.graph, shifts_of(gg).H
    rng = random.Random(gg.group.order * 3 + gg.with_loops)
    dropped = list(H)
    del dropped[rng.randrange(1, len(H))]
    swapped = list(H)
    i = rng.randrange(1, len(H))
    swapped[i] = swap_two_edge_images(g, H[i], rng)
    eid = rng.randrange(g.n_edges)
    return [
        ("identity dropped", g, H[1:]),
        ("dropped", g, dropped),
        ("swapped", g, swapped),
        ("edge deleted", delete_edge(g, eid), [reroute(a, eid) for a in H]),
    ]


def assert_stabilisers_agree(g, H):
    """Every vertex's stabiliser, toward every orbit: same decisions, same
    generator, same reasons up to the edge a "leaves" reason names."""
    Hs = sorted(H)
    V = np.array([a.vertex_map for a in Hs], dtype=np.int32)
    E = np.array([a.edge_map for a in Hs], dtype=np.int32)
    rows = np.hstack((V, E + g.n_vertices))
    for u in range(g.n_vertices):
        stab = stabilizer(V, u)
        old = oracle_stabilizer(H, u)
        assert [Hs[x] for x in stab] == sorted(old)
        x = _cyclic_generator(rows, stab)
        assert (x is not None) == oracle_is_cyclic_subgroup(old)
        assert (None if x is None else Hs[x]) == oracle_generator(H, u)
        for orb in vertex_orbits(g, V):
            ids = edges_toward(g, u, orb)
            ok, reason = acts_regularly_on_edges(E[stab], ids)
            want_ok, want_reason = oracle_acts_regularly_on_edges(old, ids)
            assert (ok, masked(reason)) == (want_ok, masked(want_reason))
            named = LEAVES.search(reason)
            if named:
                assert int(named.group(1)) == smallest_leaving_edge(E[stab].tolist(), ids)


def assert_report_agrees(g, H, C):
    report = check(g, RecognitionWitness(H, C))
    got = [d for d in report.details if d.startswith("Stab_H")]
    want = oracle_stab_details(g, H, C, g.has_loops())
    assert [masked(d) for d in got] == [masked(d) for d in want]
    assert report.conditions["stabilizers_cyclic"] == (not any("cyclic" in d for d in want))
    assert report.conditions["regular_action"] == (not any("regular" in d for d in want))
    return report


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("gg", ZOO, ids=IDS)
def test_every_stabiliser_and_level_agrees_with_oracle(gg):
    w = shifts_of(gg)
    assert_stabilisers_agree(gg.graph, w.H)
    assert assert_report_agrees(gg.graph, w.H, w.C).ok
    Hs = sorted(w.H)
    gens = tuple(Hs.index(oracle_generator(w.H, u)) for u in w.C)
    result = reconstruct(gg.graph, w)
    assert result.gens == gens
    # the table and the generators follow sorted H whatever order H has
    shuffled = random.Random(gg.group.order).sample(Hs, len(Hs))
    again = reconstruct(gg.graph, RecognitionWitness(shuffled, w.C))
    assert again.gens == gens
    assert (again.group.mul == result.group.mul).all()


@pytest.mark.parametrize("gg", ZOO, ids=IDS)
def test_mutants_agree_with_oracle(gg):
    C = shifts_of(gg).C
    for name, g, H in mutants(gg):
        assert_stabilisers_agree(g, H)
        report = assert_report_agrees(g, H, C)
        assert not report.ok, name
        no_identity = not any(a.is_identity() for a in H)
        assert ("H does not contain the identity" in report.details) == no_identity


def test_leaving_edge_is_the_smallest_of_the_set():
    # the walk from edge 0 reaches edge 2 first, which leaves for 4; edge 1
    # leaves for 5 and is the smallest edge of the set that leaves
    stab = [(0, 1, 2, 3, 4, 5), (2, 5, 4, 3, 0, 1), (2, 5, 4, 3, 0, 1)]
    auts = [GraphAut((), m) for m in stab]
    assert oracle_acts_regularly_on_edges(auts, [0, 1, 2]) == (
        False,
        "edge 2 leaves the set under the action",
    )
    assert acts_regularly_on_edges(stab, [0, 1, 2]) == (
        False,
        "edge 1 leaves the set under the action",
    )


def test_orbit_inside_the_set_is_not_transitive_even_when_another_edge_leaves():
    # edge 2 leaves for 3, but the orbit {0, 1} of the first edge stays in
    # the set, so the reason is the missing transitivity, as before
    stab = [(0, 1, 2, 3), (1, 0, 3, 2), (1, 0, 3, 2)]
    want = (False, "action is not transitive (2 of 3 edges reached)")
    assert oracle_acts_regularly_on_edges([GraphAut((), m) for m in stab], [0, 1, 2]) == want
    assert acts_regularly_on_edges(stab, [0, 1, 2]) == want
