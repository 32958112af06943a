"""Characterisation checks and reconstruction round-trips."""

import random

import numpy as np
import pytest

from ggraphs.algebra import (
    cyclic_group,
    direct_product,
    dihedral_group,
    parse_element,
    quaternion_group,
    symmetric_group,
)
from ggraphs.errors import CapExceeded, ParseError, PreconditionFailed, WitnessInvalid
from ggraphs.ggraph import build_phi, build_psi, level_vertices
from ggraphs.multigraph import GraphAutRows, Multigraph, isomorphic
from ggraphs.recognition import (
    GraphAut,
    RecognitionWitness,
    _run_checks,
    acts_regularly_on_edges,
    check,
    check_simple,
    check_with_loops,
    close_under_composition,
    edges_toward,
    reconstruct,
    shifts_of,
    stabilizer,
    vertex_orbits,
    witness_from_json,
    witness_to_json,
)


def cycle_graph(n):
    g = Multigraph()
    for i in range(n):
        g.add_vertex(str(i))
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def cycle_aut(n, vmap):
    """Lift a vertex permutation of the n-cycle to a GraphAut."""
    em = []
    for i in range(n):
        ends = {vmap[i], vmap[(i + 1) % n]}
        (j,) = [j for j in range(n) if {j, (j + 1) % n} == ends]
        em.append(j)
    return GraphAut(tuple(vmap), tuple(em))


def delete_edge(g, eid):
    g2 = Multigraph()
    for v in g.vertices:
        g2.add_vertex(v.label, v.part)
    for e in g.edges:
        if e.id != eid:
            g2.add_edge(e.u, e.v, e.label)
    return g2


def reroute_aut(a, eid):
    """Drop eid from the edge action, bridging its preimage to its image."""
    em = []
    for j, img in enumerate(a.edge_map):
        if j == eid:
            continue
        if img == eid:
            img = a.edge_map[eid]
        em.append(img if img < eid else img - 1)
    return GraphAut(a.vertex_map, tuple(em))


def test_graph_aut_compose_inverse():
    r = cycle_aut(4, [1, 2, 3, 0])
    s = cycle_aut(4, [0, 3, 2, 1])
    # right-to-left: (r.compose(s))(v) = r(s(v))
    assert r.compose(s).vertex_map == (1, 0, 3, 2)
    # r has order 4: r^3 is its inverse
    r3 = r.compose(r).compose(r)
    assert not r3.is_identity()
    assert r.compose(r3) == r3.compose(r) == GraphAut(tuple(range(4)), tuple(range(4)))
    assert r.compose(r3).is_identity()


def test_closure_generates_dihedral():
    g = cycle_graph(6)
    r = cycle_aut(6, [(i + 1) % 6 for i in range(6)])
    s = cycle_aut(6, [(-i) % 6 for i in range(6)])
    H = close_under_composition(g, [r, s])
    assert len(H) == 12
    assert H[0].is_identity()
    assert sorted(H) == H


def test_shifts_of_phi_z6():
    grp = cyclic_group(6)
    gg = build_phi(grp, [2, 3])
    w = shifts_of(gg)
    assert len(w.H) == 6
    assert w.C == [gg.vertex_of(0, 0), gg.vertex_of(1, 0)]
    orbits = vertex_orbits(gg.graph, [a.vertex_map for a in w.H])
    assert orbits == [level_vertices(gg, 0), level_vertices(gg, 1)]


def test_check_with_loops_psi_z6():
    gg = build_psi(cyclic_group(6), [2, 3])
    report = check_with_loops(gg.graph, shifts_of(gg))
    assert report.ok
    assert report.witness_ok
    assert list(report.conditions) == [
        "clique_meets_orbits",
        "stabilizers_cyclic",
        "regular_action",
    ]


def test_check_with_loops_missing_level_fails():
    gg = build_psi(cyclic_group(6), [2, 3])
    w = shifts_of(gg)
    w.C.pop()
    report = check_with_loops(gg.graph, w)
    assert not report.ok
    assert not report.conditions["clique_meets_orbits"]


def test_check_with_loops_psi_s3():
    grp = symmetric_group(3)
    gens = [parse_element(grp, "(1,2,3)"), parse_element(grp, "(1,2)")]
    gg = build_psi(grp, gens)
    report = check_with_loops(gg.graph, shifts_of(gg))
    assert report.ok


def test_check_simple_phi_z6():
    gg = build_phi(cyclic_group(6), [2, 3])
    report = check_simple(gg.graph, shifts_of(gg))
    assert report.ok
    assert list(report.conditions) == [
        "orbits_stable",
        "clique_meets_orbits",
        "stabilizers_cyclic",
        "regular_action",
    ]


def test_check_simple_rejects_loops():
    gg = build_psi(cyclic_group(4), [1])
    with pytest.raises(PreconditionFailed):
        check_simple(gg.graph, shifts_of(gg))


def test_cycle6_part_preserving_subgroup_passes():
    # C_6 carries a G-graph structure over a nonabelian group of order 6:
    # H generated by the rotation by 2 and the reflection fixing vertex 0.
    g = cycle_graph(6)
    r2 = cycle_aut(6, [(i + 2) % 6 for i in range(6)])
    s = cycle_aut(6, [(-i) % 6 for i in range(6)])
    H = close_under_composition(g, [r2, s])
    assert len(H) == 6
    w = RecognitionWitness(H, [0, 1])
    assert check_simple(g, w).ok
    result = reconstruct(g, w)
    assert result.group.order == 6
    assert not result.group.is_abelian()
    assert result.rebuilt.graph.n_edges == 6


def test_cycle6_rotation_only_fails_regularity():
    g = cycle_graph(6)
    r2 = cycle_aut(6, [(i + 2) % 6 for i in range(6)])
    H = close_under_composition(g, [r2])
    assert len(H) == 3
    report = check_simple(g, RecognitionWitness(H, [0, 1]))
    assert not report.ok
    assert report.conditions["orbits_stable"]
    assert report.conditions["clique_meets_orbits"]
    assert report.conditions["stabilizers_cyclic"]
    assert not report.conditions["regular_action"]


def test_cycle4_full_rotations_fail_stability():
    g = cycle_graph(4)
    r = cycle_aut(4, [1, 2, 3, 0])
    H = close_under_composition(g, [r])
    report = check_simple(g, RecognitionWitness(H, [0]))
    assert not report.conditions["orbits_stable"]


def test_complete_graph_trivial_group_passes():
    # K_3 with the trivial group: singleton orbits, C = all vertices.
    g = cycle_graph(3)
    w = RecognitionWitness([GraphAut(tuple(range(3)), tuple(range(3)))], [0, 1, 2])
    assert check_simple(g, w).ok
    result = reconstruct(g, w)
    assert result.group.order == 1
    assert result.gens == (0, 0, 0)
    assert result.rebuilt.graph.n_vertices == 3
    assert result.rebuilt.graph.n_edges == 3


def test_reconstruct_phi_z6_round_trip():
    gg = build_phi(cyclic_group(6), [2, 3])
    result = reconstruct(gg.graph, shifts_of(gg))
    assert result.group.order == 6
    # generator orders come back as {3, 2} = {o(2), o(3)} in Z/6
    from ggraphs.algebra import element_order

    assert sorted(element_order(result.group, s) for s in result.gens) == [2, 3]
    assert isomorphic(result.rebuilt.graph, gg.graph) is not None


def test_reconstruct_repeated_generator():
    gg = build_phi(cyclic_group(2), [1, 1])
    result = reconstruct(gg.graph, shifts_of(gg))
    assert result.group.order == 2
    assert result.gens[0] == result.gens[1]


def test_reconstruct_psi_q8():
    grp = quaternion_group()
    i, j = grp.name_index()["i"], grp.name_index()["j"]
    gg = build_psi(grp, [i, j])
    result = reconstruct(gg.graph, shifts_of(gg))
    assert result.group.order == 8
    assert not result.group.is_abelian()


def test_reconstruct_collapsed_shifts():
    # Phi(Z/4, {2}) has no edges, so distinct elements give equal shifts;
    # recognition works with the deduplicated automorphism set.
    gg = build_phi(cyclic_group(4), [2])
    w = shifts_of(gg)
    assert len(w.H) == 2
    result = reconstruct(gg.graph, w)
    assert result.group.order == 2
    assert result.rebuilt.graph.n_vertices == 2
    assert result.rebuilt.graph.n_edges == 0


def test_reconstruct_single_vertex_psi():
    gg = build_psi(cyclic_group(2), [1])
    result = reconstruct(gg.graph, shifts_of(gg))
    assert result.group.order == 2
    assert result.rebuilt.graph.n_edges == 2


def test_stab_regular_on_every_vertex_and_level():
    # the stabilizer property holds at every vertex, not only on C_e
    for gg in (
        build_psi(cyclic_group(6), [2, 3]),
        build_psi(symmetric_group(3), [1, 2]),
    ):
        w = shifts_of(gg)
        for u in range(gg.graph.n_vertices):
            stab = stabilizer([a.vertex_map for a in w.H], u)
            for i in range(gg.n_levels):
                ids = edges_toward(gg.graph, u, level_vertices(gg, i))
                ok, reason = acts_regularly_on_edges([w.H[x].edge_map for x in stab], ids)
                assert ok, reason


def test_random_zoo_round_trips():
    rng = random.Random(20135)
    groups = [
        cyclic_group(6),
        cyclic_group(8),
        direct_product(cyclic_group(2), cyclic_group(4)),
        symmetric_group(3),
        dihedral_group(4),
        quaternion_group(),
    ]
    for trial in range(12):
        grp = rng.choice(groups)
        size = rng.randint(1, 3)
        gens = [rng.randrange(grp.order) for _ in range(size)]
        with_loops = rng.random() < 0.5
        gg = (build_psi if with_loops else build_phi)(grp, gens)
        w = shifts_of(gg)
        report = check(gg.graph, w)
        assert report.ok, (grp.name, gens, with_loops, report.details)
        result = reconstruct(gg.graph, w)
        assert result.group.order == len(w.H)


def test_mutation_deleted_edge_breaks_regularity():
    gg = build_phi(cyclic_group(6), [2, 3])
    w = shifts_of(gg)
    g2 = delete_edge(gg.graph, 0)
    H2 = [reroute_aut(a, 0) for a in w.H]
    report = check_simple(g2, RecognitionWitness(H2, list(w.C)))
    assert not report.ok
    assert not report.conditions["regular_action"]


def test_mutation_shrunk_clique_misses_orbit():
    gg = build_phi(cyclic_group(6), [2, 3])
    w = shifts_of(gg)
    report = check_simple(gg.graph, RecognitionWitness(w.H, w.C[:1]))
    assert not report.conditions["clique_meets_orbits"]
    with pytest.raises(WitnessInvalid):
        reconstruct(gg.graph, RecognitionWitness(w.H, w.C[:1]))


def test_empty_clique_is_refused():
    gg = build_phi(cyclic_group(6), [2, 3])
    w = shifts_of(gg)
    with pytest.raises(WitnessInvalid, match="C is empty"):
        check(gg.graph, RecognitionWitness(w.H, []))


SHIFTS = "the shifts"  # H of shifts_of


@pytest.mark.parametrize(
    "C, H, error",
    [
        ([0, 7], SHIFTS, "C contains an unknown vertex id 7"),
        ([0, 0], SHIFTS, "C contains repeated vertices"),
        ([0], [], "H is empty"),
        ([0.5, 7], SHIFTS, "a C entry must be an integer, got 0.5"),
        ([True, 7], SHIFTS, "C contains an unknown vertex id 7"),
        (["0", 7], SHIFTS, "a C entry must be an integer, got '0'"),
        (None, SHIFTS, "a witness needs both H and C"),
        ([0], None, "a witness needs both H and C"),
        ([0], [1, 2], "an H element is not a GraphAut"),
    ],
    ids=[
        "unknown-vertex", "repeated-vertex", "empty-H", "fractional-entry", "bool-entry",
        "string-entry", "no-C", "no-H", "int-H-entries",
    ],
)
def test_malformed_witness_is_refused(C, H, error):
    gg = build_phi(cyclic_group(6), [2, 3])
    w = shifts_of(gg)
    with pytest.raises(WitnessInvalid, match=error):
        check(gg.graph, RecognitionWitness(w.H if H == SHIFTS else H, C))


def test_clique_entries_are_read_as_vertex_ids():
    """An entry that operator.index reads, a bool or a numpy int, is the
    vertex id it gives, in check and in reconstruct.  [1, 2] is C_3."""
    gg = build_phi(cyclic_group(6), [2, 3])
    w = shifts_of(gg)
    want = reconstruct(gg.graph, RecognitionWitness(w.H, [1, 2]))
    for C in ([True, 2], [np.int64(1), np.int32(2)]):
        got = reconstruct(gg.graph, RecognitionWitness(w.H, C))
        assert got.report.lines() == want.report.lines() and got.iso == want.iso


def test_with_loops_clique_vertex_without_a_loop_fails():
    g = Multigraph()
    g.add_vertex()
    g.add_vertex()
    g.add_edge(0, 0)
    identity = GraphAut((0, 1), (0,))
    report = check_with_loops(g, RecognitionWitness([identity], [1]))
    assert not report.witness_ok
    assert "C vertex 1 carries no loop" in report.details


def test_repeated_h_element_is_refused():
    """A repeated element that fixes no vertex of C passes every condition,
    so the witness check must refuse it, not the table of H."""
    gg = build_phi(cyclic_group(6), [2, 3])
    w = shifts_of(gg)
    for x in (w.H[0], w.H[-1]):
        with pytest.raises(WitnessInvalid, match="H contains repeated elements"):
            check(gg.graph, RecognitionWitness(w.H + [x], w.C))
        with pytest.raises(WitnessInvalid, match="H contains repeated elements"):
            reconstruct(gg.graph, RecognitionWitness(w.H + [x], w.C))


def test_witness_json_inferred_edge_maps():
    gg = build_phi(cyclic_group(6), [2, 3])
    w = shifts_of(gg)
    data = witness_to_json(gg.graph, w)
    assert "H_generator_edge_maps" not in data
    w2 = witness_from_json(gg.graph, data)
    assert sorted(w2.H) == sorted(w.H)
    assert w2.C == w.C
    assert check_simple(gg.graph, w2).ok


def test_witness_json_explicit_edge_maps():
    gg = build_phi(cyclic_group(2), [1, 1])
    w = shifts_of(gg)
    data = witness_to_json(gg.graph, w)
    assert "H_generator_edge_maps" in data
    w2 = witness_from_json(gg.graph, data)
    assert sorted(w2.H) == sorted(w.H)
    # dropping the explicit maps makes the double edge ambiguous
    del data["H_generator_edge_maps"]
    with pytest.raises(WitnessInvalid):
        witness_from_json(gg.graph, data)


def test_witness_json_rejects_malformed():
    gg = build_phi(cyclic_group(6), [2, 3])
    with pytest.raises(Exception):
        witness_from_json(gg.graph, "not json {")
    with pytest.raises(Exception):
        witness_from_json(gg.graph, {"C": [0]})


@pytest.mark.parametrize(
    "data",
    [
        {"H_generators": ["120"], "C": "0"},
        {"H_generators": [[1, 2, 0]], "C": "0"},
        {"H_generators": "120", "C": [0]},
        {"H_generators": [[1, 2, 0]], "C": [False]},
        {"H_generators": [[True, 2, 0]], "C": [0]},
    ],
)
def test_witness_json_rejects_strings_and_bools(data):
    """Iterating a string row would read "120" as the generator (1, 2, 0)."""
    with pytest.raises(ParseError):
        witness_from_json(cycle_graph(3), data)


@pytest.mark.parametrize(
    "edge_maps,error",
    [
        ([[0, "a"], None], ParseError),
        ([5, None], ParseError),
        ([None], ParseError),
        (3, ParseError),
        ([[0, 9], None], WitnessInvalid),
        ([[0, 0], None], WitnessInvalid),
        (["10", None], ParseError),
    ],
)
def test_witness_json_rejects_bad_edge_maps(edge_maps, error):
    gg = build_phi(cyclic_group(2), [1, 1])
    data = witness_to_json(gg.graph, shifts_of(gg))
    data["H_generator_edge_maps"] = edge_maps
    with pytest.raises(error):
        witness_from_json(gg.graph, data)


def test_witness_closure_above_the_table_cap_is_refused():
    """S7 x Z2 acting on 9 isolated vertices has 10080 > 8192 elements: its
    closure is refused before any check, as reconstruct's table would be."""
    g = Multigraph()
    for _ in range(9):
        g.add_vertex()
    gens = [[1, 0, 2, 3, 4, 5, 6, 7, 8], [1, 2, 3, 4, 5, 6, 0, 7, 8],
            [0, 1, 2, 3, 4, 5, 6, 8, 7]]
    with pytest.raises(CapExceeded, match="automorphism closure exceeds cap 8192"):
        witness_from_json(g, {"H_generators": gens, "C": [0]})
    # S7 alone (5040 elements) still closes
    w = witness_from_json(g, {"H_generators": gens[:2], "C": [0]})
    assert len(w.H) == 5040


def test_a_sorted_h_is_checked_without_a_copy():
    """shifts_of gives H sorted, and _run_checks reads its rows as they
    are; a shuffled H is read through a sorted copy."""
    g = symmetric_group(4)
    gg = build_phi(g, [parse_element(g, "(1,2)"), parse_element(g, "(1,2,3,4)")])
    w = shifts_of(gg)
    rows = _run_checks(gg.graph, w, False)[1]
    assert np.shares_memory(rows, w.H.rows)
    shuffle = np.random.default_rng(1).permutation(len(w.H))
    shuffled = GraphAutRows(w.H.rows[shuffle], w.H.n_vertices)
    rows = _run_checks(gg.graph, RecognitionWitness(shuffled, w.C), False)[1]
    assert not np.shares_memory(rows, shuffled.rows)
    assert (rows == w.H.rows).all()
