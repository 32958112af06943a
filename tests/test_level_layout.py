"""A G-graph vertex's level and coset come from the level layout, never from
its part tag.

reconstruct, witness_automorphism, incidence_preimage and the necessary
bipartite test read each level's coset representatives as one array.  Their
former code, which asked for each vertex's level and coset one at a time by
its part tag, is kept below as the oracle: on clean G-graphs the two must
agree.  With the per-vertex accessors made to raise, the readers and the
I(K_n) audit must still run.  A retagged vertex must leave every answer as
it is on the clean graph, and a graph with more or fewer vertices than the
layout must fail verify_structure's item 2, not raise.  A level's cosets
are the rows right_cosets returns: with algebra.Coset and ggraph.Coset made
to raise, every G-graph path must still give the same answers.
"""

from __future__ import annotations

import dataclasses

import pytest
from test_generator_checks import CASES, build, case_ids, make_group

from ggraphs import algebra as al
from ggraphs import ggraph as gg
from ggraphs import ikn
from ggraphs import incidence as inc
from ggraphs import recognition as rec
from ggraphs.multigraph import GraphAut, Multigraph, export_json, induced_edge_map

# ---------------------------------------------------------------------------
# the former per-vertex code, each vertex's level from its part tag


def former_coset(x, v):
    lvl = x.levels[x.graph.vertices[v].part]
    return lvl.cosets[v - lvl.offset].tolist()


def former_vertex_of(x, level, el):
    lvl = x.levels[level]
    return lvl.offset + int(lvl.membership[el])


def former_reconstruct_iso(g, w):
    """reconstruct's vertex and edge images, one vertex and one edge at a
    time, the chosen edge looked up by the level pair of the edge's ends."""
    with_loops = g.has_loops()
    _, rows, closure, gens = rec._run_checks(g, w, with_loops)
    grp = rec._group_of(closure, rows)
    rebuilt = (gg.build_psi if with_loops else gg.build_phi)(grp, gens)
    C = list(w.C)
    x0 = {}
    for i in range(len(C)):
        for j in range(i + 1, len(C)):
            x0[(i, j)] = g.edges_between(C[i], C[j])[0]
        if with_loops:
            x0[(i, i)] = g.loops_at(C[i])[0]
    part = [v.part for v in rebuilt.graph.vertices]
    nv, inv = g.n_vertices, grp.inv
    vimg = [
        int(rows[inv[former_coset(rebuilt, v)[0]], C[part[v]]])
        for v in range(rebuilt.graph.n_vertices)
    ]
    eimg = []
    for e in rebuilt.graph.edges:
        x = int(rebuilt.edge_glabel[e.id])
        pair = tuple(sorted((part[e.u], part[e.v])))
        eimg.append(int(rows[inv[x], nv + x0[pair]]) - nv)
    return GraphAut(tuple(vimg), tuple(eimg))


def former_witness_automorphism(x, f):
    vmap = [0] * x.graph.n_vertices
    for src, dst in ((0, 1), (1, 0)):
        for v in gg.level_vertices(x, src):
            vmap[v] = former_vertex_of(x, dst, f[former_coset(x, v)[0]])
    return GraphAut(tuple(vmap), tuple(f[y] for y in x.edge_glabel.tolist()))


def former_preimage(x):
    """(preimage JSON, incidence graph JSON, iso) by the former code."""
    orders = [al.element_order(x.group, s) for s in x.gens]
    t_level = 1 if orders[1] == 2 else 0
    s_level = 1 - t_level
    t = x.gens[t_level]
    sverts = gg.level_vertices(x, s_level)
    tverts = gg.level_vertices(x, t_level)
    pos = {v: i for i, v in enumerate(sverts)}
    pre = Multigraph()
    for v in sverts:
        pre.add_vertex(x.graph.vertices[v].label)
    for v in tverts:
        r = former_coset(x, v)[0]
        a = pos[former_vertex_of(x, s_level, r)]
        b = pos[former_vertex_of(x, s_level, int(x.group.mul[t, r]))]
        pre.add_edge(a, b, x.graph.vertices[v].label)
    ig = inc.incidence_graph(pre)
    vmap = [0] * x.graph.n_vertices
    for v in sverts:
        vmap[v] = pos[v]
    for k, v in enumerate(tverts):
        vmap[v] = ig.vertex_for_edge(k)
    iso = GraphAut(tuple(vmap), induced_edge_map(x.graph, ig.graph, vmap))
    return export_json(pre), export_json(ig.graph), iso


def former_necessary_colors(x):
    n = x.graph.n_vertices
    level = [x.graph.vertices[v].part for v in range(n)]
    colors = level + [1 - c for c in level]
    u0 = former_vertex_of(x, 0, x.group.identity)
    u1 = former_vertex_of(x, 1, x.group.identity)
    colors[u0] = colors[n + u1] = 2
    colors[u1] = colors[n + u0] = 3
    return colors


def preimage_of(x):
    out = inc.incidence_preimage(x)
    return export_json(out.preimage), export_json(out.incidence.graph), out.iso


def colors_seen(x, monkeypatch):
    """The colours that necessary_bipartite_witness hands to _first_map, and
    its result."""
    seen = []

    def spy(g1, g2, colors, **kw):
        seen.append(list(colors))
        return first_map(g1, g2, colors, **kw)

    first_map = inc._first_map
    monkeypatch.setattr(inc, "_first_map", spy)
    out = inc.necessary_bipartite_witness(x)
    monkeypatch.setattr(inc, "_first_map", first_map)
    return seen, out


def two_level_witnesses(x):
    """The f of each incidence test that finds one on a two-level Phi."""
    out = [inc.necessary_bipartite_witness(x)]
    if al.generated_subgroup(x.group, x.gens) == tuple(range(x.group.order)):
        out.append(inc.sufficient_bipartite_test(x.group, *x.gens))
    return [w for w in out if w is not None]


# ---------------------------------------------------------------------------
# the readers against the former code


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
@pytest.mark.parametrize("spec,gens", CASES, ids=case_ids(CASES))
def test_reconstruct_matches_the_per_vertex_oracle(spec, gens, loops):
    x = build(spec, gens, loops)
    w = rec.shifts_of(x)
    assert rec.reconstruct(x.graph, w).iso == former_reconstruct_iso(x.graph, w)


@pytest.mark.parametrize("x", [
    gg.build_phi(al.cyclic_group(4), [2]),  # collapsed shifts, no edges
    gg.build_psi(al.cyclic_group(2), [1]),  # a single vertex
    gg.build_psi(al.cyclic_group(6), [2, 3, 2]),  # a repeated generator
], ids=["collapsed", "single-vertex", "repeated"])
def test_reconstruct_matches_the_oracle_on_small_cases(x):
    w = rec.shifts_of(x)
    assert rec.reconstruct(x.graph, w).iso == former_reconstruct_iso(x.graph, w)


TWO_LEVEL = [c for c in CASES if len(c[1]) == 2]


@pytest.mark.parametrize("spec,gens", TWO_LEVEL, ids=case_ids(TWO_LEVEL))
def test_incidence_readers_match_the_per_vertex_oracle(spec, gens, monkeypatch):
    x = build(spec, gens, False)
    seen, _ = colors_seen(x, monkeypatch)
    # levels of different sizes are refused before any colouring
    same_size = len(x.levels[0].cosets) == len(x.levels[1].cosets)
    assert seen == ([former_necessary_colors(x)] if same_size else [])
    for w in two_level_witnesses(x):
        assert inc.witness_automorphism(x, w) == former_witness_automorphism(x, w.f)
    if x.is_simple() and 2 in [al.element_order(x.group, s) for s in x.gens]:
        assert preimage_of(x) == former_preimage(x)


def test_every_incidence_reader_has_a_case():
    """The two-level cases above include a witness and a preimage."""
    xs = [build(spec, gens, False) for spec, gens in TWO_LEVEL]
    assert sum(len(two_level_witnesses(x)) for x in xs) >= 6
    assert sum(1 for x in xs if _has_preimage(x)) >= 3


def _has_preimage(x):
    try:
        inc.incidence_preimage(x)
    except inc.PreconditionFailed:
        return False
    return True


# ---------------------------------------------------------------------------
# no per-vertex accessor calls


def _refuse(*args, **kwargs):
    raise AssertionError("a per-vertex accessor was called")


def test_the_readers_call_no_per_vertex_accessor(monkeypatch):
    d6 = build("D6", ["(2,6)(3,5)", "(1,2)(3,6)(4,5)"], False)
    s5 = build("S5", ["(1,2)", "(1,2,3,4,5)"], False)
    psi = build("Z4xZ6", ["(2,0)", "(0,3)", "(2,0)"], True)
    tau = ikn.search_tau(5).certificates[0].tau
    w_d6 = two_level_witnesses(d6)
    want = {
        "reconstruct": [former_reconstruct_iso(x.graph, rec.shifts_of(x)) for x in (d6, psi)],
        "witness": [former_witness_automorphism(d6, w.f) for w in w_d6],
        "preimage": [former_preimage(x) for x in (d6, s5)],
        "colors": [former_necessary_colors(d6)],
        "audit": ikn.build_and_verify(5, tau).lines(),
        "structure": [gg.verify_structure(x).lines() for x in (d6, psi)],
    }
    for name in ("vertex_level", "vertex_coset", "vertex_of"):
        monkeypatch.setattr(gg.GGraph, name, _refuse)
    seen, nec = colors_seen(d6, monkeypatch)
    got = {
        "reconstruct": [rec.reconstruct(x.graph, rec.shifts_of(x)).iso for x in (d6, psi)],
        "witness": [inc.witness_automorphism(d6, w) for w in w_d6],
        "preimage": [preimage_of(x) for x in (d6, s5)],
        "colors": seen,
        "audit": ikn.build_and_verify(5, tau).lines(),
        "structure": [gg.verify_structure(x).lines() for x in (d6, psi)],
    }
    assert got == want
    assert nec is not None and len(w_d6) == 2


# ---------------------------------------------------------------------------
# a retagged vertex


def retagged(x, v, part):
    """x with vertex v's part tag set to part; ids, labels and edges kept."""
    g = Multigraph()
    for u in x.graph.vertices:
        g.add_vertex(u.label, part if u.id == v else u.part)
    for e in x.graph.edges:
        g.add_edge(e.u, e.v)
    return dataclasses.replace(x, graph=g)


def phi(spec, gens):
    group = al.parse_group(spec)
    return gg.build_phi(group, [al.parse_element(group, s) for s in gens])


def test_a_retagged_vertex_keeps_its_layout_coset_and_witness_map():
    x = phi("Z4xZ4", ["(1,0)", "(0,1)"])
    bad = retagged(x, 4, 0)
    assert bad.vertex_coset(4) == x.vertex_coset(4)
    w = inc.sufficient_bipartite_test(x.group, *x.gens)
    assert inc.witness_automorphism(bad, w) == inc.witness_automorphism(x, w)
    assert bad.vertex_level(4) == 1


def test_a_retagged_vertex_keeps_the_incidence_preimage():
    x = phi("S3", ["(1,2,3)", "(1,2)"])
    assert preimage_of(retagged(x, 3, 0)) == preimage_of(x)


# ---------------------------------------------------------------------------
# a level's cosets are the rows right_cosets returns


def _no_coset(*args, **kwargs):
    raise AssertionError("a Coset was built")


def every_path(spec, gens, loops):
    """Every G-graph path on one case, built by build_phi or build_psi, with
    each answer in a form that compares."""
    group = make_group(spec)
    x = (gg.build_psi if loops else gg.build_phi)(group, [al.parse_element(group, t) for t in gens])
    report = gg.component_analysis(x)
    out = {
        "shifts": gg.shifts(x).rows.tolist(),
        "structure": gg.verify_structure(x).lines(),
        "reconstruct": rec.reconstruct(x.graph, rec.shifts_of(x)).iso,
        "components": [(c.vertices, c.coset, c.iso) for c in report.components],
        "partition": report.cosets_partition(group.order),
        "export": gg.export_ggraph_json(x),
    }
    if not loops and x.n_levels == 2:
        out["witness"] = [inc.witness_automorphism(x, w) for w in two_level_witnesses(x)]
        out["preimage"] = preimage_of(x) if _has_preimage(x) else None
    return out


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
@pytest.mark.parametrize("spec,gens", CASES, ids=case_ids(CASES))
def test_no_g_graph_path_builds_a_coset(spec, gens, loops, monkeypatch):
    want = every_path(spec, gens, loops)
    for module in (al, gg):
        monkeypatch.setattr(module, "Coset", _no_coset)
    assert every_path(spec, gens, loops) == want
    # the two one-coset readers still build one, on demand
    with pytest.raises(AssertionError, match="a Coset was built"):
        al.right_coset(make_group(spec), 0, 0)
    with pytest.raises(AssertionError, match="a Coset was built"):
        gg.build_phi(make_group(spec), [0]).vertex_coset(0)


def test_lone_vertex_components_read_their_coset_from_the_level(monkeypatch):
    for module in (al, gg):
        monkeypatch.setattr(module, "Coset", _no_coset)
    report = gg.component_analysis(gg.build_phi(al.cyclic_group(6), [2]))
    assert [c.vertices for c in report.components] == [[0], [1]]
    assert [c.coset for c in report.components] == [(0, 2, 4), (1, 3, 5)]
    assert report.all_isomorphic and report.cosets_partition(6)


# ---------------------------------------------------------------------------
# a graph with more or fewer vertices than the layout


def test_verify_structure_reports_a_vertex_count_that_differs_from_the_layout():
    x = phi("S4", ["(1,2)", "(1,2,3,4)"])
    n_v = x.graph.n_vertices
    extra = Multigraph()
    for v in x.graph.vertices:
        extra.add_vertex(v.label, v.part)
    extra.add_vertex("extra", 0)
    fewer = Multigraph()
    for v in x.graph.vertices[:-1]:
        fewer.add_vertex(v.label, v.part)
    for e in x.graph.edges:
        extra.add_edge(e.u, e.v)
        if n_v - 1 not in (e.u, e.v):
            fewer.add_edge(e.u, e.v)
    assert gg.verify_structure(x).all_ok
    for g in (extra, fewer):
        items = gg.verify_structure(dataclasses.replace(x, graph=g)).items
        assert [it.number for it in items] == [1, 2, 3, 4, 5]
        assert not items[1].ok



def test_separately_built_levels_compare_by_value():
    """Level equality compares the coset and membership arrays entry by
    entry, so two equal builds give equal levels instead of raising."""
    x = gg.build_phi(al.cyclic_group(6), [2, 3])
    y = gg.build_phi(al.cyclic_group(6), [2, 3])
    assert x.levels[0] == y.levels[0]
    assert x.levels == y.levels
    assert x.levels[0] != y.levels[1]
    moved = dataclasses.replace(y.levels[0], membership=y.levels[0].membership[::-1].copy())
    assert x.levels[0] != moved
    assert x.levels[0] != dataclasses.replace(y.levels[0], offset=1)
