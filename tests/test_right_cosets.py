"""Right cosets through algebra.right_cosets, and the G-graph layer built on it.

right_cosets is checked against cosets computed element by element.  The
element-by-element G-graph construction and shift arrays (one Python coset
loop per element, the edge ids of each level pair and loop kept in tables)
stay below as oracles: the G-graph layer must give the same vertex and edge
ids, labels, shift arrays and reports as they do.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from ggraphs import algebra as al
from ggraphs import ggraph as gg
from ggraphs import multigraph as mg
from ggraphs.incidence import (
    necessary_bipartite_witness,
    sufficient_bipartite_test,
    witness_automorphism,
)
from split_shifts import split_shifts

# ---------------------------------------------------------------------------
# right_cosets against brute force


def brute_cosets(group, K):
    """Rows sorted by minimum, each ascending; membership by search."""
    cosets = {tuple(sorted({int(group.mul[k, x]) for k in K})) for x in group.elements()}
    rows = sorted(cosets)
    membership = [next(i for i, r in enumerate(rows) if x in r) for x in group.elements()]
    return rows, membership


def constructor_groups():
    return [
        al.cyclic_group(1),
        al.cyclic_group(12),
        al.direct_product(al.cyclic_group(4), al.cyclic_group(6)),
        al.symmetric_group(4),
        al.dihedral_group(5),
        al.quaternion_group(),
        al.perm_group(5, [al.Perm.parse("(1 2 3 4 5)", 5), al.Perm.parse("(2 3 5 4)", 5)]),
    ]


def subgroups(group):
    """<s> for every s, <s> inter <t> for every pair, a generated
    subgroup, {e} and G."""
    cyc = [al.cyclic_subgroup(group, s) for s in group.elements()]
    out = list(cyc)
    out += [tuple(sorted(set(a) & set(b))) for a, b in combinations(cyc, 2)]
    out.append(al.generated_subgroup(group, [group.order - 1, group.order // 2]))
    out += [(group.identity,), tuple(group.elements())]
    return out


@pytest.mark.parametrize("group", constructor_groups(), ids=lambda g: g.name)
def test_right_cosets_match_brute_force(group):
    for K in subgroups(group):
        elems, membership = al.right_cosets(group, K)
        rows, member = brute_cosets(group, K)
        assert elems.tolist() == [list(r) for r in rows], K
        assert membership.tolist() == member, K
        assert membership.dtype == np.int32


def test_right_coset_reads_the_primitive():
    group = al.symmetric_group(4)
    for s in group.elements():
        rows, member = brute_cosets(group, al.cyclic_subgroup(group, s))
        for x in group.elements():
            c = al.right_coset(group, s, x)
            assert c.elems == rows[member[x]] and c.rep == min(c.elems)


# ---------------------------------------------------------------------------
# the element-by-element construction, kept as an oracle


def former_build(group, gens, with_loops):
    """(GGraph, cross_base, loop_id): cross_base[(i, j)] is the first edge of
    the level pair (i, j), loop_id[i, x] the loop labelled x on level i."""
    gens = tuple(gens)
    n = group.order
    graph = mg.Multigraph()
    levels = []
    occ_count = {}
    for i, s in enumerate(gens):
        occ = occ_count.get(s, 0)
        occ_count[s] = occ + 1
        membership = np.full(n, -1, dtype=np.int32)
        cosets = []
        offset = graph.n_vertices
        sub = list(al.cyclic_subgroup(group, s))
        for x in range(n):
            if membership[x] >= 0:
                continue
            elems = sorted(group.mul[sub, x].tolist())
            membership[elems] = len(cosets)
            cosets.append(elems)
        for row in cosets:
            graph.add_vertex(label="%d:%d" % (i, row[0]), part=i)
        levels.append(gg.Level(i, s, occ, offset, np.array(cosets, dtype=np.int32), membership))
    cross_base = {}
    glabels = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            cross_base[(i, j)] = graph.n_edges
            li, lj = levels[i], levels[j]
            for x in range(n):
                graph.add_edge(
                    li.offset + int(li.membership[x]),
                    lj.offset + int(lj.membership[x]),
                    label=group.elem_name(x),
                )
                glabels.append(x)
    loop_id = None
    if with_loops:
        loop_id = np.full((len(gens), n), -1, dtype=np.int64)
        for lvl in levels:
            for ci, row in enumerate(lvl.cosets.tolist()):
                v = lvl.offset + ci
                for x in row:
                    loop_id[lvl.index, x] = graph.add_edge(v, v, label=group.elem_name(x))
                    glabels.append(x)
    out = gg.GGraph(group, gens, with_loops, graph, tuple(levels),
                    np.array(glabels, dtype=np.int64))
    return out, cross_base, loop_id


def former_shift_arrays(x, cross_base, loop_id):
    grp = x.group
    n = grp.order
    nv, ne = x.graph.n_vertices, x.graph.n_edges
    S_v = np.empty((n, nv), dtype=np.int32)
    for lvl in x.levels:
        reps = np.array([row[0] for row in lvl.cosets.tolist()], dtype=np.int64)
        img = lvl.membership[grp.mul[reps[None, :], np.arange(n)[:, None]]]
        S_v[:, lvl.offset : lvl.offset + len(reps)] = lvl.offset + img
    S_e = np.empty((n, ne), dtype=np.int32)
    labels_g = grp.mul[x.edge_glabel[None, :], np.arange(n)[:, None]]
    for base in cross_base.values():
        S_e[:, base : base + n] = base + labels_g[:, base : base + n]
    if x.with_loops:
        for a in range(len(cross_base) * n, ne):
            i = x.vertex_level(x.graph.edges[a].u)
            S_e[:, a] = loop_id[i][grp.mul[int(x.edge_glabel[a]), :]]
    return S_v, S_e


def former_edge_of(x):
    """The edge labelled g, per group element g, read off edge_glabel."""
    return {int(g): e for e, g in enumerate(x.edge_glabel.tolist())}


CASES = [
    ("S4", ["(1,2)", "(1,2,3,4)"]),
    ("S4", ["(1,2,3,4)", "(1,3,2,4)"]),
    ("S4", ["(1,2)", "(2,3)", "(1,2)"]),
    ("S5", ["(1,2)", "(1,2,3,4,5)"]),
    ("S5", ["(2,3,4,5)", "(1,3,4,5)"]),
    ("D6", ["(2,6)(3,5)", "(1,2)(3,6)(4,5)"]),
    ("D6", ["(1,2,3,4,5,6)", "(2,6)(3,5)", "(1,2,3,4,5,6)"]),
    ("Q8", ["i", "j"]),
    ("Q8", ["i", "j", "k"]),
    ("Z4xZ6", ["(1,1)", "(1,2)"]),
    ("Z4xZ6", ["(2,0)", "(0,3)", "(2,0)"]),
]


def make_group(spec):
    if spec == "D6":
        return al.dihedral_group(6)
    if spec == "Q8":
        return al.quaternion_group()
    return al.parse_group(spec)


def case_ids(cases):
    return ["%s-%s" % (spec, "-".join(gens)) for spec, gens in cases]


PAIRS = [c for c in CASES if len(c[1]) == 2]


def expected_lines(x):
    n = x.group.order
    m = len(x.graph.multi_edges())
    e = x.graph.n_edges
    return [
        "item 1 [PASS] shift group: automorphisms=True distinct=%d/%d composition=True" % (n, n),
        "item 2 [PASS] levels stable: checked all |G| shifts",
        "item 3 [PASS] colour cliques: permutation law and cliqueness over all %d colours" % n,
        "item 4 [PASS] edge counts: total %d (expected %d)" % (e, e),
        "item 5 [PASS] label cosets: %d multi-edges checked" % m,
    ]


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
@pytest.mark.parametrize("spec,gens", CASES, ids=case_ids(CASES))
def test_build_and_shifts_match_former(spec, gens, loops):
    group = make_group(spec)
    elems = [al.parse_element(group, t) for t in gens]
    new = gg._build(group, elems, loops)
    old, cross_base, loop_id = former_build(group, elems, loops)

    for a, b in zip(new.levels, old.levels):
        assert (a.index, a.gen, a.occurrence, a.offset, a.cosets.tolist()) == (
            b.index, b.gen, b.occurrence, b.offset, b.cosets.tolist())
        assert a.cosets.dtype == b.cosets.dtype == np.int32
        assert a.membership.tolist() == b.membership.tolist()
    assert new.edge_glabel.dtype == old.edge_glabel.dtype
    assert new.edge_glabel.tolist() == old.edge_glabel.tolist()
    assert gg.export_ggraph_json(new) == gg.export_ggraph_json(old)

    S_v, S_e = split_shifts(new)
    W_v, W_e = former_shift_arrays(old, cross_base, loop_id)
    assert S_v.dtype == S_e.dtype == np.int32
    assert np.array_equal(S_v, W_v) and np.array_equal(S_e, W_e)

    assert gg.verify_structure(new).lines() == expected_lines(old)


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
def test_shift_arrays_match_former_on_a_relabelled_edge(loops):
    # a corrupted label must reach the shift arrays as it did before
    group = al.symmetric_group(4)
    elems = [al.parse_element(group, t) for t in ("(1,2)", "(1,2,3,4)")]
    new = gg._build(group, elems, loops)
    old, cross_base, loop_id = former_build(group, elems, loops)
    for x in (new, old):
        x.edge_glabel[0] = 5
        x.edge_glabel[-1] = 7
    S_v, S_e = split_shifts(new)
    W_v, W_e = former_shift_arrays(old, cross_base, loop_id)
    assert np.array_equal(S_v, W_v) and np.array_equal(S_e, W_e)
    assert not gg.verify_structure(new).all_ok


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
@pytest.mark.parametrize("spec,gens", CASES, ids=case_ids(CASES))
def test_component_analysis_matches_former(spec, gens, loops):
    group = make_group(spec)
    elems = [al.parse_element(group, t) for t in gens]
    new = gg._build(group, elems, loops)
    old, _, _ = former_build(group, elems, loops)
    report = gg.component_analysis(new)

    sub = al.generated_subgroup(group, set(elems))
    sub_group, pos = al.subgroup_group(group, sub, name="<S>")
    ref, _, _ = former_build(sub_group, [pos[s] for s in elems], loops)
    comps = mg.connected_components(old.graph)
    assert [c.vertices for c in report.components] == comps
    for info, comp in zip(report.components, comps):
        sg, _, emap = mg.induced_subgraph_with_maps(old.graph, comp)
        labels = sorted(int(old.edge_glabel[e]) for e in emap) or sorted(
            old.vertex_coset(comp[0]).elems)
        expect = sorted(int(group.mul[w, labels[0]]) for w in sub)
        assert info.coset == tuple(expect)
        assert info.iso == mg.isomorphic(sg, ref.graph)
    assert report.cosets_partition(group.order)


@pytest.mark.parametrize("spec,gens", PAIRS, ids=case_ids(PAIRS))
def test_incidence_maps_match_former(spec, gens):
    group = make_group(spec)
    s, t = (al.parse_element(group, g) for g in gens)
    x = gg.build_phi(group, [s, t])
    edge_of = former_edge_of(x)
    w = necessary_bipartite_witness(x)
    if w is not None:
        emap = w.tau.edge_map
        assert w.f == tuple(int(x.edge_glabel[emap[edge_of[g]]]) for g in group.elements())
    found = [w, sufficient_bipartite_test(group, s, t)]
    for witness in filter(None, found):
        aut = witness_automorphism(x, witness)
        f = witness.f
        assert aut.edge_map == tuple(edge_of[f[g]] for g in x.edge_glabel.tolist())
    # a transposition and a long cycle give levels of different sizes
    assert all(found) if gens[0] != "(1,2)" else not any(found)
