"""Acceptance suite: eight go/no-go criteria, one test (and one printed
pass/fail line) per criterion.

Each test asserts both the substance and its runtime budget, so a pass line
doubles as a performance attestation.  Shared fixtures are cached at module
level because later criteria reuse earlier criteria's artifacts (the zoo of
structure-verified graphs, the set of discovered certificates).
"""

import io
import itertools
import json
import math
import random
import time

from ggraphs.algebra import (
    Perm,
    cyclic_group,
    cyclic_subgroup,
    dihedral_group,
    direct_product,
    element_order,
    parse_element,
    parse_group,
    quaternion_group,
    symmetric_group,
)
from ggraphs.cli import run
from ggraphs.errors import WitnessInvalid
from ggraphs.ggraph import (
    build_phi,
    is_complete_bipartite_multi,
    kmn_build,
    verify_structure,
)
from ggraphs.ikn import (
    build_and_verify,
    conjugate_tau,
    obstructions,
    orbit_structure,
    pi_map,
    search_tau,
    verify_tau,
)
from ggraphs.incidence import incidence_graph, incidence_preimage
from ggraphs.multigraph import (
    Multigraph,
    export_json,
    isomorphic,
    verify_iso_witness,
)
from ggraphs.recognition import (
    acts_regularly_on_edges,
    check,
    edges_toward,
    reconstruct,
    shifts_of,
    stabilizer,
    vertex_orbits,
    witness_from_json,
    witness_to_json,
)

# the full certificate table for the n with I(K_n) a G-graph, n <= 19
KNOWN_TAUS = {
    2: "(1,2)",
    3: "(1)(2,3)",
    4: "(1,2)(3,4)",
    5: "(1)(2,3)(4,5)",
    7: "(2)(1,5)(3,4)(6,7)",
    8: "(1,3)(2,6)(4,5)(7,8)",
    9: "(4)(1,2)(3,6)(5,7)(8,9)",
    11: "(1)(2,4)(3,6)(5,9)(7,8)(10,11)",
    13: "(1)(2,10)(3,4)(5,8)(6,11)(7,9)(12,13)",
    16: "(1,12)(3,4)(11,14),(2,9)(6,8)(7,13)(5,10)(15,16)",
    17: "(14)(2,8)(1,13)(3,12)(4,15)(5,6)(7,10)(9,11)(16,17)",
    19: "(1)(9,17)(3,15)(2,7)(4,11)(14,16)(5,8)(6,10)(12,13)(18,19)",
}

NO_CERTIFICATE = (6, 10, 12, 14, 15, 18)
SEARCHABLE = (2, 3, 4, 5, 7, 8, 9, 11, 13)
LARGE = (16, 17, 19)


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def report(number, budget, elapsed, detail):
    print(
        "criterion %d: PASS — %s (%.2fs, budget %ds)"
        % (number, detail, elapsed, budget)
    )


# ---------------------------------------------------------------------------
# zoo shared by criteria 4 and 6: six groups of order <= 8, seeded multisets


def _zoo_graphs():
    groups = [
        cyclic_group(6),
        cyclic_group(8),
        direct_product(cyclic_group(2), cyclic_group(4)),
        symmetric_group(3),
        dihedral_group(4),
        quaternion_group(),
    ]
    rng = random.Random(4021)
    out = []
    for grp in groups:
        elems = [x for x in range(grp.order) if x != grp.identity]
        # sizes 2 and 3 only: a single occurrence yields an edgeless graph
        # whose shift image is a proper quotient of G, so the shift-group
        # item is false there by construction
        pool = sorted(
            set(
                itertools.chain(
                    itertools.combinations_with_replacement(elems, 2),
                    itertools.combinations_with_replacement(elems, 3),
                )
            )
        )
        for S in rng.sample(pool, 9):
            out.append(build_phi(grp, list(S)))
    return out


_ZOO_CACHE = []


def zoo_graphs():
    if not _ZOO_CACHE:
        _ZOO_CACHE.extend(_zoo_graphs())
    return _ZOO_CACHE


def _all_certificates_small():
    """Every certificate (not just one) for each searchable n <= 13."""
    out = {}
    for n in SEARCHABLE:
        out[n] = search_tau(n, "all").certificates
    return out


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_certificate_table_verifies():
    t0 = time.perf_counter()
    for n, text in KNOWN_TAUS.items():
        rep = verify_tau(n, Perm.parse(text, n))
        assert rep.ok, (n, rep.failures)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, 1, elapsed, "all %d known (n, tau) pairs accepted" % len(KNOWN_TAUS))


def test_criterion_2_nonexistence_set_decided():
    required_kind = {6: "Mod6", 12: "Mod6", 18: "Mod6",
                     10: "Mod4", 14: "Mod4", 15: "Mod24"}
    t_total = 0.0
    worst = 0.0
    for n in NO_CERTIFICATE:
        t0 = time.perf_counter()
        # arithmetic decision
        decided = search_tau(n)
        assert not decided.certificates
        kinds = [o.kind for o in decided.obstructions]
        assert required_kind[n] in kinds, (n, kinds)
        assert [o.kind for o in obstructions(n)] == kinds
        # independent exhaustive confirmation (required for n <= 14,
        # cheap enough to run for all six)
        exhausted = search_tau(n, "all", short_circuit=False)
        assert exhausted.certificates == ()
        assert exhausted.complete
        assert "ExhaustiveSearch" in [o.kind for o in exhausted.obstructions]
        assert exhausted.nodes > 0
        dt = time.perf_counter() - t0
        assert dt < 60.0, n
        worst = max(worst, dt)
        t_total += dt
    report(2, 60, t_total,
           "6 impossibilities decided twice over (worst case %.2fs)" % worst)


def test_criterion_3_search_recovers_certificates():
    t_total = 0.0
    for n in SEARCHABLE:
        t0 = time.perf_counter()
        code, out, _ = cli("ikn", "search", str(n))
        assert code == 0, n
        tau_line = next(l for l in out.splitlines() if l.startswith("tau: "))
        tau = Perm.parse(tau_line.removeprefix("tau: "), n)
        assert verify_tau(n, tau).ok, n
        dt = time.perf_counter() - t0
        assert dt < 60.0, n
        t_total += dt
    # larger sizes: verification of the known tau is mandatory, and the
    # full search also completes (well under its one-hour allowance)
    for n in LARGE:
        code, out, _ = cli("ikn", "verify", str(n), "--tau", KNOWN_TAUS[n])
        assert code == 0, n
        assert "valid certificate" in out
        t0 = time.perf_counter()
        found = search_tau(n)
        assert found.certificates, n
        dt = time.perf_counter() - t0
        assert dt < 3600.0, n
        t_total += dt
    report(3, 60, t_total,
           "certificates recovered for n in %s and verified+searched for %s"
           % (list(SEARCHABLE), list(LARGE)))


def test_criterion_4_structure_suite_over_zoo():
    t0 = time.perf_counter()
    graphs = zoo_graphs()
    assert len(graphs) >= 50
    for gg in graphs:
        rep = verify_structure(gg)
        assert rep.all_ok, (gg.group.name, gg.gens, rep.lines())
        assert len(rep.items) == 5
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(4, 30, elapsed, "5/5 structure items on %d graphs" % len(graphs))


def test_criterion_5_kmn_grid():
    t0 = time.perf_counter()
    cases = 0
    for m in range(1, 7):
        for n in range(1, 7):
            for l in range(1, 5):
                gg, _plan = kmn_build(m, n, l)
                assert is_complete_bipartite_multi(gg.graph) == (m, n, l)
                t_level, s_level = gg.levels
                assert len(t_level.cosets) == m
                assert len(s_level.cosets) == n
                assert element_order(gg.group, s_level.gen) == m * l
                assert element_order(gg.group, t_level.gen) == n * l
                cases += 1
    elapsed = time.perf_counter() - t0
    assert cases == 144
    assert elapsed < 60.0
    report(5, 60, elapsed, "all 144 complete bipartite cases built and checked")


def test_criterion_6_recognition_round_trip_and_mutations():
    t0 = time.perf_counter()
    for gg in zoo_graphs():
        res = reconstruct(gg.graph, shifts_of(gg))
        assert res.report.ok
        assert res.group.order == gg.group.order
        assert verify_iso_witness(
            res.rebuilt.graph, gg.graph, res.iso,
            respect_parts=False,
        )
    # the same round trip through the command line on one representative
    gg = build_phi(cyclic_group(6), [2, 3])
    w = shifts_of(gg)
    code, out, _ = cli(
        "recognize",
        "--graph", json.dumps(export_json(gg.graph)),
        "--witness", json.dumps(witness_to_json(gg.graph, w)),
        "--reconstruct",
    )
    assert code == 0
    assert "isomorphism verified: yes" in out

    # mutation 1: deleting one edge breaks the regular edge action.  At the
    # primitive level the stabilizer can no longer be regular on the smaller
    # edge set; end to end, the shift family cannot even be realized as
    # automorphisms of the mutated graph.
    orbits = vertex_orbits(gg.graph, [a.vertex_map for a in w.H])
    u = w.C[0]
    other = next(o for o in orbits if u not in o)
    full = edges_toward(gg.graph, u, other)
    stab = [w.H[x].edge_map for x in stabilizer([a.vertex_map for a in w.H], u)]
    assert acts_regularly_on_edges(stab, full)[0]
    regular, reason = acts_regularly_on_edges(stab, full[1:])
    assert not regular and "|Stab|" in reason
    mutated = Multigraph()
    for v in gg.graph.vertices:
        mutated.add_vertex(v.label, v.part)
    for e in gg.graph.edges:
        if e.id != full[0]:
            mutated.add_edge(e.u, e.v, e.label)
    try:
        witness_from_json(mutated, witness_to_json(gg.graph, w))
        assert False, "shift family survived an edge deletion"
    except WitnessInvalid:
        pass

    # mutation 2: relabeling one edge breaks the label-coset structure item
    gg2 = build_phi(cyclic_group(6), [2, 3])
    gg2.edge_glabel[0] = int(gg2.edge_glabel[0] + 1) % 6
    rep = verify_structure(gg2)
    assert not rep.items[4].ok
    assert not rep.all_ok

    # mutation 3: shrinking the clique C leaves an orbit unmet
    w3 = shifts_of(gg)
    w3.C = w3.C[:-1]
    rep3 = check(gg.graph, w3)
    assert rep3.conditions["clique_meets_orbits"] is False
    assert not rep3.ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(6, 120, elapsed,
           "round trip on %d graphs; 3 mutations each rejected at the"
           " matching condition" % len(zoo_graphs()))


def test_criterion_7_incidence_suite():
    t0 = time.perf_counter()
    # the incidence graph of the triangle is the hexagon
    k3 = Multigraph()
    for i in range(3):
        k3.add_vertex(str(i))
    for i in range(3):
        for j in range(i + 1, 3):
            k3.add_edge(i, j)
    c6 = Multigraph()
    for i in range(6):
        c6.add_vertex(str(i))
    for i in range(6):
        c6.add_edge(i, (i + 1) % 6)
    assert isomorphic(incidence_graph(k3).graph, c6) is not None

    # preimage then incidence is the identity up to isomorphism
    c2 = cyclic_group(2)
    d4 = dihedral_group(4)
    s4 = next(x for x in d4.elements() if element_order(d4, x) == 4)
    t2 = next(
        x for x in d4.elements()
        if element_order(d4, x) == 2 and x not in cyclic_subgroup(d4, s4)
    )
    s3 = symmetric_group(3)
    zoo = [
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
        (d4, [s4, t2]),
    ]
    assert len(zoo) >= 10
    for grp, gens in zoo:
        gg = build_phi(grp, gens)
        res = incidence_preimage(gg)
        rebuilt = incidence_graph(res.preimage)
        assert rebuilt.graph.n_vertices == gg.graph.n_vertices
        assert verify_iso_witness(
            gg.graph, res.incidence.graph, res.iso,
            respect_parts=False,
        )

    # every certificate with n <= 13 builds a graph with the structural
    # footprint of the incidence graph of K_n, over a group of order n(n-1)
    built = 0
    for n, certs in _all_certificates_small().items():
        for cert in certs:
            rep = build_and_verify(n, cert.tau)
            assert rep.ok, (n, cert.cycles, rep.lines())
            assert rep.group.order == n * (n - 1)
            built += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(7, 120, elapsed,
           "hexagon identity, %d preimage round trips, %d certificate builds"
           % (len(zoo), built))


def test_criterion_8_certificate_arithmetic_properties():
    t0 = time.perf_counter()
    taus = {(n, Perm.parse(text, n)) for n, text in KNOWN_TAUS.items()}
    for n, certs in _all_certificates_small().items():
        for cert in certs:
            taus.add((n, cert.tau))
    for n in LARGE:
        for cert in search_tau(n).certificates:
            taus.add((n, cert.tau))
    conjugates = 0
    for n, tau in sorted(taus, key=lambda p: (p[0], p[1].img)):
        assert orbit_structure(n, tau).conforms, (n, tau.cycle_string())
        pi = pi_map(n, tau)
        assert pi.injective and pi.conforms, (n, tau.cycle_string())
        m = n - 1
        for a in range(1, max(m, 2)):
            if m > 1 and math.gcd(a, m) != 1:
                continue
            assert verify_tau(n, conjugate_tau(n, tau, a)).ok
            conjugates += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(8, 30, elapsed,
           "%d certificates conform; %d conjugates re-verified"
           % (len(taus), conjugates))
