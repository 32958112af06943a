"""The array-based Multigraph against the object-based one it replaced.

tests/former_multigraph.py keeps the former layer as the reference: one
Vertex and one Edge object per element, adj() and multi_edges() built edge
by edge, and the former incidence_graph and ikn._audit_graph that read
those objects.  Every reader must give what it gave, on Phi and Psi of
every CASES entry and on seeded random multigraphs with loops, multi-edges,
isolated vertices, untagged vertices and a part tag above 2^63.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import random
import tracemalloc

import numpy as np
import pytest

import former_multigraph as former
from ggraphs import algebra as al
from ggraphs import ggraph as gg
from ggraphs import ikn
from ggraphs import incidence
from ggraphs import multigraph as mg
from ggraphs.errors import PreconditionFailed
from ggraphs.recognition import shifts_of
from test_generator_checks import CASES, build, case_ids

BIG = 2**64 + 5  # a part tag no int64 holds


def both(vertices, edges):
    """The new and the former graph, each built by add_vertex / add_edge
    from (label, part) per vertex and (u, v, label) per edge."""
    out = []
    for kind in (mg.Multigraph, former.Multigraph):
        g = kind()
        for label, part in vertices:
            g.add_vertex(label, part)
        for u, v, label in edges:
            g.add_edge(u, v, label)
        out.append(g)
    return out


def former_build(x):
    """The graph of G-graph x as the former _build wrote it: one add_vertex
    per coset, then one add_edge per edge of each block, from the layout."""
    r = former.Multigraph()
    for i, lvl in enumerate(x.levels):
        for row in lvl.cosets.tolist():
            r.add_vertex(label="%d:%d" % (i, row[0]), part=i)
    for i, j in gg._blocks(x.n_levels, x.with_loops):
        for k in gg._block_labels(x.levels, i, j, x.group.order).tolist():
            a, b = (lvl.offset + int(lvl.membership[k]) for lvl in (x.levels[i], x.levels[j]))
            r.add_edge(a, b)
    return r


def random_spec(rng):
    """A random multigraph: loops and repeated pairs are likely, some
    vertices are isolated, and part tags mix None, small ints and BIG."""
    n = rng.randrange(1, 9)
    tags = rng.choice([[0, 1], [None, 0, 1], [None, 3, BIG], [BIG, 0]])
    vertices = [(rng.choice(["", "x", "v%d" % k]), rng.choice(tags)) for k in range(n)]
    pool = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(1, 5))]
    edges = [(*rng.choice(pool), rng.choice(["", "a", "b"])) for _ in range(rng.randrange(0, 2 * n + 3))]
    return vertices, edges


RANDOM = [random_spec(random.Random(seed)) for seed in range(80)]


def test_the_random_graphs_have_every_feature():
    loops = multi = isolated = untagged = big = 0
    for vertices, edges in RANDOM:
        pairs = [tuple(sorted((u, v))) for u, v, _ in edges]
        loops += any(u == v for u, v in pairs)
        multi += len(set(pairs)) < len(pairs)
        isolated += len({x for p in pairs for x in p}) < len(vertices)
        untagged += any(part is None for _, part in vertices)
        big += any(part == BIG for _, part in vertices)
    assert min(loops, multi, isolated, untagged, big) >= 5


def assert_same(g, r):
    """Every structural reader of g gives what the former one gives on r."""
    text = json.dumps(mg.export_json(g))
    assert text == json.dumps(former.export_json(r))
    assert mg.export_dot(g) == former.export_dot(r)
    assert json.dumps(mg.export_json(mg.import_json(text))) == json.dumps(
        former.export_json(former.import_json(text))
    )
    assert list(g.vertices) == [(v.id, v.label, v.part) for v in r.vertices]
    assert list(g.edges) == [(e.id, e.u, e.v, e.label) for e in r.edges]
    n = g.n_vertices
    adj, index = g.adj(), g.multi_edges()
    assert [adj[v].tolist() for v in range(n)] == [[list(x) for x in row] for row in r.adj()]
    assert len(index) == len(r.multi_edges())
    assert [(uv, ids.tolist()) for uv, ids in index.items()] == list(r.multi_edges().items())
    assert [g.degree(v) for v in range(n)] == [r.degree(v) for v in range(n)]
    assert g.degrees().tolist() == [r.degree(v) for v in range(n)]
    assert [g.loops_at(v) for v in range(n)] == [r.loops_at(v) for v in range(n)]
    pairs = [(u, v) for u in range(n) for v in range(n)]
    if len(pairs) > 400:
        pairs = random.Random(n).sample(pairs, 400)
    assert [g.edges_between(u, v) for u, v in pairs] == [r.edges_between(u, v) for u, v in pairs]
    assert [g.multiplicity(u, v) for u, v in pairs] == [r.multiplicity(u, v) for u, v in pairs]
    assert g.first_multiple_edge() == r.first_multiple_edge()
    assert (g.has_loops(), g.fully_part_tagged()) == (r.has_loops(), r.fully_part_tagged())
    assert mg.connected_components(g) == former.connected_components(r)
    assert mg.is_bipartite(g) == former.is_bipartite(r)
    assert mg.is_complete_bipartite_multi(g) == former.is_complete_bipartite_multi(r)
    ig, rig = incidence.incidence_graph(g), former.incidence_graph(r)
    assert mg.export_json(ig.graph) == former.export_json(rig.graph)
    assert (ig.n_source_vertices, ig.n_source_edges, ig.outside_theorems) == (
        rig.n_source_vertices, rig.n_source_edges, rig.outside_theorems
    )


def maps_of(rng, g, count):
    """count (vertex map, edge map) pairs of g onto itself: random
    permutations with their induced edge maps, some of those with two edge
    images swapped, and a few rows that are no permutation."""
    n, m = g.n_vertices, g.n_edges
    V, E = [], []
    for k in range(count):
        vmap = rng.sample(range(n), n)
        emap = list(mg.induced_edge_map(g, g, vmap) or rng.sample(range(m), m))
        if m > 1 and k % 3 == 1:
            a, b = rng.sample(range(m), 2)
            emap[a], emap[b] = emap[b], emap[a]
        if k % 17 == 16:
            (vmap if k % 2 else emap).append(0)
        V.append(vmap)
        E.append(emap)
    return V, E


def assert_same_maps(g, r, rng, relabel):
    """induced_edge_map, map_defect, isomorphic and the induced subgraph
    agree with the former layer; relabel(perm) gives the new and the
    former graph with vertex v renamed perm[v] and the edges shuffled."""
    n = g.n_vertices
    V, E = maps_of(rng, g, 8)
    for vmap in V:
        if len(vmap) == n:
            assert mg.induced_edge_map(g, g, vmap) == former.induced_edge_map(r, r, vmap)
    for k in range(len(V)):
        assert mg.map_defect(g, g, V[k:], E[k:]) == former.map_defect(r, r, V[k:], E[k:])
    h, rh = relabel(rng.sample(range(n), n))
    w = mg.isomorphic(g, h)
    assert w == former.isomorphic(r, rh)
    assert w is not None and mg.verify_iso_witness(g, h, w)
    keep = rng.sample(range(n), rng.randrange(n + 1))
    sub, vmap, emap = mg.induced_subgraph_with_maps(g, keep)
    rsub, rvmap, remap = former.induced_subgraph_with_maps(r, keep)
    assert (mg.export_json(sub), vmap, emap) == (former.export_json(rsub), rvmap, remap)


def relabeller(rng, vertices, edges):
    def relabel(perm):
        order = sorted(range(len(vertices)), key=perm.__getitem__)
        shuffled = rng.sample(edges, len(edges))
        return both([vertices[v] for v in order], [(perm[u], perm[v], x) for u, v, x in shuffled])

    return relabel


@pytest.mark.parametrize("seed", range(len(RANDOM)))
def test_random_graphs_read_as_before(seed):
    vertices, edges = RANDOM[seed]
    g, r = both(vertices, edges)
    assert_same(g, r)
    rng = random.Random(seed)
    assert_same_maps(g, r, rng, relabeller(rng, vertices, edges))


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
@pytest.mark.parametrize("spec,gens", CASES, ids=case_ids(CASES))
def test_ggraphs_read_as_before(spec, gens, loops):
    x = build(spec, gens, loops)
    r = former_build(x)
    assert_same(x.graph, r)
    vertices = [(v.label, v.part) for v in r.vertices]
    edges = [(e.u, e.v, e.label) for e in r.edges]
    rng = random.Random(spec + str(loops))
    assert_same_maps(x.graph, r, rng, relabeller(rng, vertices, edges))
    # more pairs than two blocks of rows: the shifts, repeated, with one
    # edge pair swapped in row 100 and row 130 no permutation
    rows, nv = gg.shifts(x).rows, x.graph.n_vertices
    V = [row[:nv] for _ in range(-(-140 // len(rows))) for row in rows.tolist()]
    E = [[y - nv for y in row[nv:]] for _ in range(-(-140 // len(rows))) for row in rows.tolist()]
    if x.graph.n_edges > 1:
        E[100][0], E[100][1] = E[100][1], E[100][0]
    V[130] = V[130][:-1]
    for k in (0, 99, 101, 129):
        assert mg.map_defect(x.graph, x.graph, V[k:], E[k:]) == former.map_defect(r, r, V[k:], E[k:])


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9])
def test_ikn_audit_reads_as_before(n):
    """build_and_verify's items 2-5 on I(K_n), and on copies with random
    edge ends moved, against the former per-edge audit."""
    x = ikn.build_and_verify(n, ikn.search_tau(n).certificates[0].tau).graph
    rng = random.Random(n)
    ends = [(e.u, e.v) for e in x.graph.edges]
    for moved in range(6):
        edges = list(ends)
        for k in rng.sample(range(len(edges)), moved):
            edges[k] = (edges[k][0], rng.randrange(x.graph.n_vertices))
        g, r = both([(v.label, v.part) for v in x.graph.vertices], [(u, v, "") for u, v in edges])
        new = ikn._audit_graph(n, dataclasses.replace(x, graph=g))
        old = former._audit_graph(n, dataclasses.replace(x, graph=r))
        assert [dataclasses.astuple(it) for it in new] == [dataclasses.astuple(it) for it in old]


def test_the_record_views_are_read_only_and_follow_the_graph():
    g, _ = both([("a", 0), ("b", None)], [(0, 1, "x")])
    vertices, edges = g.vertices, g.edges
    with pytest.raises(AttributeError):
        vertices[0].label = "z"
    with pytest.raises(TypeError):
        edges[0] = (0, 1, 1, "y")
    g.add_edge(1, 1, "loop")
    assert list(edges) == [(0, 0, 1, "x"), (1, 1, 1, "loop")]
    assert edges[-1].label == "loop" and vertices[:1] == [(0, "a", 0)]
    with pytest.raises(IndexError):
        edges[2]


# ---------------------------------------------------------------------------
# the build writes its edges in bulk


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
def test_builds_never_call_add_edge(monkeypatch, loops):
    def refuse(*args, **kwargs):
        raise AssertionError("a G-graph was built edge by edge")

    monkeypatch.setattr(mg.Multigraph, "add_edge", refuse)
    for spec, gens in CASES:
        x = build(spec, gens, loops)
        assert x.graph.n_edges == len(x.edge_glabel)
        assert gg.named_graph(x).n_edges == x.graph.n_edges


@pytest.mark.parametrize(
    "ends",
    [[[0, 1], [0, 2]], [[0, 1], [-1, 0]], [[0.0, 1.0]], [0, 1]],
    ids=["beyond", "negative", "float", "flat"],
)
def test_bulk_edges_are_checked_before_any_is_added(ends):
    g = mg.Multigraph()
    g.add_vertices(["", ""], [None, None])
    with pytest.raises(PreconditionFailed):
        g.add_edges(np.array(ends))
    assert g.n_edges == 0 and g.ends().shape == (0, 2)


# ---------------------------------------------------------------------------
# a part tag above 2^63


def test_a_big_part_tag_round_trips_through_json():
    g, _ = both([("a", BIG), ("b", None), ("c", -BIG)], [(0, 1, "x"), (2, 2, "")])
    text = json.dumps(mg.export_json(g))
    back = mg.import_json(text)
    assert back.parts == [BIG, None, -BIG]
    assert mg.export_json(back) == mg.export_json(g)
    w = mg.isomorphic(g, back)
    assert w is not None and mg.verify_iso_witness(g, back, w)


# ---------------------------------------------------------------------------
# map_defect compares _BLOCK pairs at a time


def test_map_defect_peak_stays_under_4_mib():
    """On the shifts of Phi(S6, {(1,2), (1,...,6)}), 3.3 MiB as one array,
    map_defect held four |H| x |E| end arrays at once (a 9.5 MiB peak under
    tracemalloc); compared a block of rows at a time it peaks under 4 MiB."""
    group = al.parse_group("S6")
    x = gg.build_phi(group, [al.parse_element(group, s) for s in ("(1,2)", "(1,2,3,4,5,6)")])
    rows, nv = shifts_of(x).H.rows, x.graph.n_vertices
    V, E = rows[:, :nv], rows[:, nv:] - nv
    assert mg.map_defect(x.graph, x.graph, V, E) is None
    gc.collect()
    tracemalloc.start()
    try:
        assert mg.map_defect(x.graph, x.graph, V, E) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.nbytes > 3 * 2**20
    assert peak < 4 * 2**20
