"""The permutation-group core against the loops it replaced.

The oracles below are the former implementations, kept verbatim in spirit:
perm_group's |G|^2 table of Perm products, recognition's tuple-based
closure, its all-pairs closure check and its table of H.  The core must
reproduce their element orders, names and tables exactly, and reject the
same non-closed automorphism sets.
"""

import numpy as np
import pytest

from ggraphs import algebra as al
from ggraphs.ggraph import build_phi, build_psi, level_vertices
from ggraphs.ikn import make_rho_sigma
from ggraphs.recognition import (
    GraphAut,
    RecognitionWitness,
    check,
    close_under_composition,
    infer_edge_map,
    reconstruct,
    shifts_of,
)

# one certificate for every n <= 25 with I(K_n) a G-graph
CERTIFICATES = {
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
    23: "(1,3)(2,18)(4,17)(5,20)(6,11)(7,8)(9,19)(10,14)(12,15)(13,21)(16)(22,23)",
    25: "(1,5)(2,3)(4,20)(6,12)(7,9)(8,19)(10,15)(11,21)(13,22)(14,17)(16,23)(18)(24,25)",
}


# ---------------------------------------------------------------------------
# oracles: the replaced implementations


def oracle_perm_group(degree, gens):
    """Breadth-first closure of Perm objects and the table of all products."""
    ident = al.Perm.identity(degree)
    elems, index, queue = [ident], {ident: 0}, [ident]
    while queue:
        x = queue.pop(0)
        for gen in gens:
            y = x * gen
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
                queue.append(y)
    n = len(elems)
    mul = np.empty((n, n), dtype=np.int32)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            mul[i, j] = index[p * q]
    return elems, mul


def oracle_close(g, gens):
    """Frontier closure of GraphAut tuples under left multiplication."""
    ident = GraphAut(tuple(range(g.n_vertices)), tuple(range(g.n_edges)))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for b in gens:
                c = b.compose(a)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return sorted(seen)


def oracle_closed(H):
    members = set(H)
    return all(a.compose(b) in members for a in H for b in H)


def oracle_group_of(H):
    index = {a: i for i, a in enumerate(H)}
    mul = np.zeros((len(H), len(H)), dtype=np.int32)
    for i, a in enumerate(H):
        for j, b in enumerate(H):
            mul[i, j] = index[a.compose(b)]
    return mul


# ---------------------------------------------------------------------------
# perm_group


def _named_cases():
    cases = []
    for n in range(1, 7):
        gens = [al.Perm.from_cycles([[1, 2]], n)] if n >= 2 else []
        if n >= 3:
            gens.append(al.Perm.from_cycles([list(range(1, n + 1))], n))
        cases.append(pytest.param(al.symmetric_group(n), n, gens, id="S%d" % n))
    for n in (5, 6):
        rot = al.Perm.from_cycles([list(range(1, n + 1))], n)
        refl = al.Perm(tuple((n + 1 - k) % n + 1 for k in range(1, n + 1)))
        cases.append(pytest.param(al.dihedral_group(n), n, [rot, refl], id="D%d" % n))
    return cases


@pytest.mark.parametrize("grp,degree,gens", _named_cases())
def test_named_groups_match_oracle(grp, degree, gens):
    elems, mul = oracle_perm_group(degree, gens)
    assert grp.perms == tuple(elems)
    assert grp.elem_names == tuple(p.cycle_string() for p in elems)
    assert (grp.mul == mul).all()


@pytest.mark.parametrize("n", sorted(CERTIFICATES))
def test_certificate_groups_match_oracle(n):
    sigma = make_rho_sigma(n).sigma
    tau = al.Perm.parse(CERTIFICATES[n], n)
    grp = al.perm_group(n, [sigma, tau])
    elems, mul = oracle_perm_group(n, [sigma, tau])
    assert grp.order == n * (n - 1)
    assert grp.perms == tuple(elems)
    assert grp.elem_names == tuple(p.cycle_string() for p in elems)
    assert (grp.mul == mul).all()


# ---------------------------------------------------------------------------
# recognition


def _s_pair(n):
    grp = al.symmetric_group(n)
    cyc = "(%s)" % ",".join(str(k) for k in range(1, n + 1))
    return grp, [al.parse_element(grp, "(1,2)"), al.parse_element(grp, cyc)]


def _ik17():
    sigma = make_rho_sigma(17).sigma
    tau = al.Perm.parse(CERTIFICATES[17], 17)
    grp = al.perm_group(17, [sigma, tau])
    return build_phi(grp, [grp.perms.index(sigma), grp.perms.index(tau)])


def _swap_two_loops(gg):
    """An automorphism outside the shift group: it fixes every vertex and
    exchanges two loops at one vertex."""
    g = gg.graph
    v = gg.levels[0].offset
    a, b = g.loops_at(v)[:2]
    em = list(range(g.n_edges))
    em[a], em[b] = b, a
    return GraphAut(tuple(range(g.n_vertices)), tuple(em))


def _swap_two_points(gg):
    """An automorphism of I(K_17) outside the shift group: a transposition
    of two points of K_17, acting on the 2-subsets.  A nonidentity shift
    fixes at most one point."""
    g = gg.graph
    points = level_vertices(gg, 0)
    vmap = list(range(g.n_vertices))
    vmap[points[0]], vmap[points[1]] = points[1], points[0]
    adj = g.adj()
    pair_vertex = {frozenset(w for _, w in adj[v]): v for v in level_vertices(gg, 1)}
    for pair, v in pair_vertex.items():
        vmap[v] = pair_vertex[frozenset(vmap[w] for w in pair)]
    return GraphAut(tuple(vmap), infer_edge_map(g, vmap))


def _recognition_cases():
    cases = []
    for n in (4, 5):
        grp, gens = _s_pair(n)
        cases.append(pytest.param(build_phi(grp, gens), None, id="Phi(S%d)" % n))
        cases.append(pytest.param(build_psi(grp, gens), _swap_two_loops, id="Psi(S%d)" % n))
    cases.append(pytest.param(_ik17(), _swap_two_points, id="I(K_17)"))
    return cases


@pytest.mark.parametrize("gg,outsider", _recognition_cases())
def test_h_tables_match_oracle(gg, outsider):
    w = shifts_of(gg)
    H = sorted(w.H)
    assert (reconstruct(gg.graph, w).group.mul == oracle_group_of(H)).all()
    gens = [H[1], H[-1]]
    assert close_under_composition(gg.graph, gens) == oracle_close(gg.graph, gens)


@pytest.mark.parametrize("gg,outsider", _recognition_cases())
def test_non_closed_h_rejected_like_oracle(gg, outsider):
    w = shifts_of(gg)
    mutants = [w.H[:-1]]
    if outsider is not None:
        extra = outsider(gg)
        assert extra not in w.H
        mutants.append(w.H[:-1] + [extra])
    for H in mutants:
        assert not oracle_closed(H)
        report = check(gg.graph, RecognitionWitness(H, list(w.C)))
        assert not report.witness_ok
        assert "H is not closed under composition" in report.details
        assert not any("not an automorphism" in d for d in report.details)
