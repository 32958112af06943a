"""Multigraph layer tests; isomorphism decisions are cross-checked against a
brute-force oracle over all vertex bijections (small graphs only)."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import numpy as np
import pytest

from ggraphs import multigraph as mg
from ggraphs.errors import CapExceeded, InternalAssertion, ParseError


def build(n, edges, parts=None, labels=None):
    g = mg.Multigraph()
    for v in range(n):
        g.add_vertex(part=None if parts is None else parts[v])
    for i, (u, v) in enumerate(edges):
        g.add_edge(u, v, "" if labels is None else labels[i])
    return g


def cycle(n):
    return build(n, [(i, (i + 1) % n) for i in range(n)])


def mult_map(g):
    c = Counter()
    for e in g.edges:
        c[(min(e.u, e.v), max(e.u, e.v))] += 1
    return c


def oracle_isomorphic(g1, g2):
    """Existence only, by exhaustion; ignores labels, respects parts when
    both graphs are fully tagged."""
    if g1.n_vertices != g2.n_vertices or g1.n_edges != g2.n_edges:
        return False
    m1, m2 = mult_map(g1), mult_map(g2)
    use_parts = g1.fully_part_tagged() and g2.fully_part_tagged()
    n = g1.n_vertices
    for perm in itertools.permutations(range(n)):
        if use_parts and any(
            g1.vertices[v].part != g2.vertices[perm[v]].part for v in range(n)
        ):
            continue
        if all(
            m2.get((min(perm[a], perm[b]), max(perm[a], perm[b])), 0) == m
            for (a, b), m in m1.items()
        ):
            return True
    return False


# ---------------------------------------------------------------------------


def test_degree_counts_loops_twice():
    g = build(2, [(0, 1), (0, 0)])
    assert g.degree(0) == 3
    assert g.degree(1) == 1
    assert g.multiplicity(0, 0) == 1
    assert g.edges_between(0, 1) == [0]


def index_dict(g):
    """The multi-edge index as {end pair: edge ids}."""
    return {uv: ids.tolist() for uv, ids in g.multi_edges().items()}


def test_multi_edge_index_follows_later_additions():
    g = build(2, [(0, 1)])
    assert index_dict(g) == {(0, 1): [0]}
    assert g.multi_edges() is g.multi_edges()  # built once between changes
    g.add_edge(1, 1)
    assert g.loops_at(1) == [1] and g.multiplicity(1, 1) == 1
    v = g.add_vertex()
    assert g.multiplicity(v, 0) == 0
    g.add_edge(v, 0)
    assert index_dict(g) == {(0, 1): [0], (1, 1): [1], (0, 2): [2]}
    assert g.edges_between(2, 0) == [2] and g.multiplicity(0, 2) == 1


def test_edge_id_lists_handed_out_are_copies():
    g = build(2, [(0, 1), (0, 1), (1, 1)])
    g.edges_between(1, 0).append(7)
    g.loops_at(1).clear()
    assert index_dict(g) == {(0, 1): [0, 1], (1, 1): [2]}
    assert g.multiplicity(0, 1) == 2 and g.loops_at(1) == [2]


def test_connected_components_order():
    g = build(6, [(4, 5), (0, 2), (2, 3)])
    assert mg.connected_components(g) == [[0, 2, 3], [1], [4, 5]]


def test_bipartite_detection():
    ok, color = mg.is_bipartite(cycle(6))
    assert ok and color[0] == 0
    assert [color[i] != color[(i + 1) % 6] for i in range(6)] == [True] * 6
    ok, _ = mg.is_bipartite(cycle(5))
    assert not ok
    ok, _ = mg.is_bipartite(build(1, [(0, 0)]))
    assert not ok  # loop


def test_complete_bipartite_recognition():
    k23 = build(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
    assert mg.is_complete_bipartite_multi(k23) == (2, 3, 1)
    # doubled edges: K^2_{1,3}
    k2_13 = build(4, [(0, v) for v in (1, 2, 3)] * 2)
    assert mg.is_complete_bipartite_multi(k2_13) == (1, 3, 2)
    # missing one edge
    near = build(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])
    assert mg.is_complete_bipartite_multi(near) is None
    assert mg.is_complete_bipartite_multi(cycle(5)) is None
    # with part tags the tag order wins even when sizes are (3,2)
    tagged = build(
        5,
        [(u, v) for u in (0, 1, 2) for v in (3, 4)],
        parts=[0, 0, 0, 1, 1],
    )
    assert mg.is_complete_bipartite_multi(tagged) == (3, 2, 1)


def test_induced_subgraph_keeps_labels_and_reindexes():
    g = mg.Multigraph()
    for label in ("", "", "mid", ""):
        g.add_vertex(label)
    for (u, v), label in zip([(0, 1), (1, 2), (2, 3)], ["a", "b", "c"]):
        g.add_edge(u, v, label)
    sub = mg.induced_subgraph_with_maps(g, [1, 2, 3])[0]
    assert sub.n_vertices == 3 and sub.n_edges == 2
    assert sub.vertices[1].label == "mid"
    assert [e.label for e in sub.edges] == ["b", "c"]


# ---------------------------------------------------------------------------
# isomorphism


def test_iso_cycle_relabelled():
    g1 = cycle(6)
    g2 = build(6, [(i, (i + 2) % 6) for i in range(6)])  # another 6-cycle? no
    # (i, i+2) steps produce two triangles; use a genuine relabeling instead
    perm = [3, 0, 4, 1, 5, 2]
    g3 = build(6, [(perm[i], perm[(i + 1) % 6]) for i in range(6)])
    w = mg.isomorphic(g1, g3)
    assert w is not None
    assert mg.verify_iso_witness(g1, g3, w)
    assert oracle_isomorphic(g1, g3)
    # C6 vs two triangles: same degree sequence, not isomorphic
    assert mg.isomorphic(g1, g2) is None
    assert not oracle_isomorphic(g1, g2)


def test_iso_respects_multiplicities():
    g1 = build(3, [(0, 1), (0, 1), (1, 2)])
    g2 = build(3, [(0, 1), (1, 2), (1, 2)])
    w = mg.isomorphic(g1, g2)
    assert w is not None and mg.verify_iso_witness(g1, g2, w)
    g3 = build(3, [(0, 1), (0, 1), (0, 1)])
    assert mg.isomorphic(g1, g3) is None


def test_iso_loops_matter():
    g1 = build(2, [(0, 1), (0, 0)])
    g2 = build(2, [(0, 1), (1, 1)])
    w = mg.isomorphic(g1, g2)
    assert w is not None and w.vertex_map == (1, 0)
    g3 = build(2, [(0, 1), (0, 1)])
    assert mg.isomorphic(g1, g3) is None


def test_iso_part_tags_only_when_both_tagged():
    c6_plain = cycle(6)
    c6_tagged = build(
        6, [(i, (i + 1) % 6) for i in range(6)], parts=[i % 2 for i in range(6)]
    )
    # one tagged, one not: tags ignored
    assert mg.isomorphic(c6_plain, c6_tagged) is not None
    # both tagged, incompatible tags: no witness
    c6_other = build(
        6, [(i, (i + 1) % 6) for i in range(6)], parts=[0] * 6
    )
    assert mg.isomorphic(c6_tagged, c6_other) is None
    assert mg.isomorphic(c6_plain, c6_other) is not None


def test_iso_cap():
    # 2 x 1001 vertices exceed ISO_SIZE_CAP
    g = cycle(1001)
    with pytest.raises(CapExceeded):
        mg.isomorphic(g, g)


def test_iso_random_relabelings_verify():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(2, 8)
        g1 = mg.Multigraph()
        for _ in range(n):
            g1.add_vertex()
        for _ in range(rng.randrange(1, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            g1.add_edge(u, v)
        perm = list(range(n))
        rng.shuffle(perm)
        g2 = mg.Multigraph()
        for _ in range(n):
            g2.add_vertex()
        es = [(perm[e.u], perm[e.v]) for e in g1.edges]
        rng.shuffle(es)
        for u, v in es:
            g2.add_edge(u, v)
        w = mg.isomorphic(g1, g2)
        assert w is not None
        assert mg.verify_iso_witness(g1, g2, w)


def test_iso_agrees_with_oracle_on_random_pairs():
    rng = random.Random(23)
    agree_pos = agree_neg = 0
    for _ in range(40):
        def rand_graph(n, m):
            g = mg.Multigraph()
            for _ in range(n):
                g.add_vertex()
            for _ in range(m):
                g.add_edge(rng.randrange(n), rng.randrange(n))
            return g

        n = rng.randrange(2, 6)
        m = rng.randrange(1, 7)
        g1, g2 = rand_graph(n, m), rand_graph(n, m)
        got = mg.isomorphic(g1, g2) is not None
        want = oracle_isomorphic(g1, g2)
        assert got == want
        agree_pos += got
        agree_neg += not got
    # the sample must exercise both outcomes
    assert agree_pos > 0 and agree_neg > 0


def oracle_first_iso(g1, g2):
    """isomorphic's former search, kept as its oracle: backtracking over the
    vertices of g1 in ascending order, each tried against the vertices of g2
    in ascending order, with the multiplicities to every vertex already
    mapped checked pairwise.  Its colour
    refinement, which only pruned, is left out: candidates share the
    initial colour.  Returns the lex-first vertex map, or None."""
    if g1.n_vertices != g2.n_vertices or g1.n_edges != g2.n_edges:
        return None
    use_parts = g1.fully_part_tagged() and g2.fully_part_tagged()

    def initial_colors(g):
        # the former multigraph._initial_colors
        mult = {key: len(ids) for key, ids in g.multi_edges().items()}
        keys = []
        for v in range(g.n_vertices):
            nonloop = sorted(
                m for (a, b), m in mult.items() if a != b and v in (a, b)
            )
            keys.append((
                g.vertices[v].part if use_parts else 0,
                g.degree(v),
                len(g.loops_at(v)),
                tuple(nonloop),
            ))
        return keys, mult

    k1, mult1 = initial_colors(g1)
    k2, mult2 = initial_colors(g2)
    n = g1.n_vertices
    fwd = [-1] * n
    used = [False] * n

    def key(a, b):
        return (a, b) if a <= b else (b, a)

    def feasible(v, w):
        if k1[v] != k2[w]:
            return False
        for u in range(n):
            fu = fwd[u]
            if fu < 0 or u == v:
                continue
            if mult1.get(key(v, u), 0) != mult2.get(key(w, fu), 0):
                return False
        return True

    def search(i):
        if i == n:
            return True
        for w in range(n):
            if not used[w] and feasible(i, w):
                fwd[i], used[w] = w, True
                if search(i + 1):
                    return True
                fwd[i], used[w] = -1, False
        return False

    return tuple(fwd) if search(0) else None


def random_multigraph(rng, n, m, tagged, labels):
    g = mg.Multigraph()
    for _ in range(n):
        g.add_vertex(part=rng.randrange(2) if tagged else None)
    for _ in range(m):
        g.add_edge(rng.randrange(n), rng.randrange(n), rng.choice(labels))
    return g


def relabelled(rng, g):
    """g with its vertices permuted and its edges shuffled."""
    perm = list(range(g.n_vertices))
    rng.shuffle(perm)
    h = mg.Multigraph()
    for v in sorted(range(g.n_vertices), key=perm.__getitem__):
        h.add_vertex(part=g.vertices[v].part)
    edges = list(g.edges)
    rng.shuffle(edges)
    for e in edges:
        h.add_edge(perm[e.u], perm[e.v], e.label)
    return h


def test_iso_witness_is_the_former_searchs():
    """Loops, multi-edges, part tags and labels: the same lex-first witness
    as the former search, or None from both, with the edge map that
    induced_edge_map gives that witness."""
    rng = random.Random(7)
    outcomes = Counter()
    for _ in range(300):
        n = rng.randrange(1, 8)
        tagged = rng.random() < 0.3
        labels = rng.choice([[""], ["a", "b"]])
        g1 = random_multigraph(rng, n, rng.randrange(0, 2 * n + 2), tagged, labels)
        if rng.random() < 0.5:
            g2 = relabelled(rng, g1)
        else:
            g2 = random_multigraph(rng, n, g1.n_edges, tagged, labels)
        want = oracle_first_iso(g1, g2)
        w = mg.isomorphic(g1, g2)
        assert (None if w is None else w.vertex_map) == want
        if w is not None:
            assert w.edge_map == mg.induced_edge_map(g1, g2, w.vertex_map)
        outcomes[want is not None] += 1
    assert len(outcomes) == 2  # both decisions


def test_iso_witness_on_regular_graphs_is_the_former_searchs():
    """Regular graphs give refinement nothing, so individualisation does the
    work: 3-regular graphs on 10 vertices, relabelled and independent."""
    rng = random.Random(5)

    def cubic(n):
        while True:
            ends = [v for v in range(n) for _ in range(3)]
            rng.shuffle(ends)
            pairs = {tuple(sorted(ends[i : i + 2])) for i in range(0, len(ends), 2)}
            if len(pairs) == len(ends) // 2 and all(a != b for a, b in pairs):
                return build(n, sorted(pairs))

    decided = Counter()
    for _ in range(12):
        g1 = cubic(10)
        for g2 in (relabelled(rng, g1), cubic(10)):
            want = oracle_first_iso(g1, g2)
            w = mg.isomorphic(g1, g2)
            assert (None if w is None else w.vertex_map) == want
            decided[want is not None] += 1
    assert decided[True] and decided[False]


def test_iso_search_does_not_recurse_per_vertex(shallow_stack):
    # 40 disjoint triangles: depth 80 in the individualisation tree, while
    # the stack has room for 40 frames
    rng = random.Random(3)
    g1 = build(120, [(3 * i + a, 3 * i + b) for i in range(40) for a, b in ((0, 1), (1, 2), (2, 0))])
    g2 = relabelled(rng, g1)
    with shallow_stack(40):
        w = mg.isomorphic(g1, g2)
        assert w is not None and mg.verify_iso_witness(g1, g2, w)


# ---------------------------------------------------------------------------
# serialization


def test_json_roundtrip_dense():
    g = mg.Multigraph()
    for label, part in zip(["v0", "", ""], [0, 1, None]):
        g.add_vertex(label, part)
    for (u, v), label in zip([(0, 1), (1, 2), (2, 2)], ["a", "", "c"]):
        g.add_edge(u, v, label)
    data = mg.export_json(g)
    assert data["format"] == 1
    g2 = mg.import_json(data)
    assert mg.export_json(g2) == data


def test_json_import_remaps_sparse_ids():
    data = {
        "vertices": [{"id": 10}, {"id": 3}, {"id": 7}],
        "edges": [{"id": 5, "u": 10, "v": 3, "label": "z"}],
        "extra_key": {"ignored": True},
    }
    g = mg.import_json(data)
    assert g.n_vertices == 3
    # sorted old ids 3,7,10 -> 0,1,2
    assert (g.edges[0].u, g.edges[0].v) == (2, 0)
    assert g.edges[0].label == "z"


def test_json_import_rejects_malformed():
    with pytest.raises(ParseError):
        mg.import_json("not json at all {")
    with pytest.raises(ParseError):
        mg.import_json({"edges": []})
    with pytest.raises(ParseError):
        mg.import_json({"vertices": [{"id": 1}, {"id": 1}], "edges": []})
    with pytest.raises(ParseError):
        mg.import_json({"vertices": [{"id": 1}], "edges": [{"u": 1, "v": 2}]})


@pytest.mark.parametrize(
    "data",
    [
        {"vertices": [{"id": "x"}]},
        {"vertices": [{"id": [0]}]},
        {"vertices": [{"id": 0, "part": "p"}]},
        {"vertices": [{"id": 0}], "edges": [{"id": "e", "u": 0, "v": 0}]},
        {"vertices": [{"id": 0}], "edges": [{"u": "a", "v": 0}]},
        {"vertices": [{"id": 0}], "edges": [{"u": 0, "v": None}]},
        {"vertices": [{"id": 0}], "edges": [[0, 0]]},
    ],
)
def test_json_import_rejects_non_integer_fields(data):
    with pytest.raises(ParseError):
        mg.import_json(data)


def test_dot_format():
    g = build(3, [(0, 1)], labels=["g2"])
    g.add_vertex()  # isolated
    assert mg.export_dot(g) == (
        "graph {\n"
        "  2;\n"
        "  3;\n"
        '  0 -- 1 [label="g2"];\n'
        "}\n"
    )


def test_dot_escapes_quotes_and_backslashes_in_labels():
    g = mg.import_json({
        "vertices": [{"id": 0}, {"id": 1}],
        "edges": [{"u": 0, "v": 1, "label": 'a"b\\c'}],
    })
    assert g.edges[0].label == 'a"b\\c'
    assert mg.export_dot(g) == 'graph {\n  0 -- 1 [label="a\\"b\\\\c"];\n}\n'


def per_row_map_rows(maps, width):
    """_map_rows one row at a time: -1s, and False, for a row that fails."""
    rows = np.full((len(maps), width), -1, dtype=np.int32)
    fits = [False] * len(maps)
    for i, row in enumerate(maps):
        if len(row) == width:
            try:
                rows[i] = row
                fits[i] = True
            except (OverflowError, TypeError, ValueError):
                pass
    return rows, fits


@pytest.mark.parametrize(
    "maps",
    [
        [[0, 1, 2], [2, 0, 1]],
        [(0, 1, 2), (2, 0, 1)],
        [],
        [[0, 1, 2], [0, 1]],  # a short row
        [[0, 1, 2], [0, 1, 2, 3]],  # a long row
        [[0, 1, 2], [0, 2**40, 1]],  # beyond int32
        [[0, 1, 2], [0, None, 1]],
        [[0, 1, 2], [0, "a", 1]],
        [[0, 1, 2], [0, [1], 2]],
        [[0, 1.5, 2], ["2", 0, 1]],  # converted as a row assignment converts them
        [np.array([2, 1, 0]), [0, 1, 2]],
    ],
)
def test_map_rows_match_the_per_row_conversion(maps):
    got, fits = mg._map_rows(maps, 3)
    want, want_fits = per_row_map_rows(maps, 3)
    assert got.dtype == np.int32
    assert got.tolist() == want.tolist()
    assert fits.tolist() == want_fits


def rotated_map(g1, g2, colors, **kwargs):
    """A stand-in for _first_map that returns a bijection that is no
    isomorphism of the graphs below: vertex v goes to v + 1 mod n."""
    n = g1.n_vertices
    return [(v + 1) % n for v in range(n)]


@pytest.mark.parametrize(
    "g",
    [
        build(3, [(0, 1), (1, 2)]),  # the path: an edge goes to a non-edge
        build(2, [(0, 1)], parts=[0, 1]),  # K2 tagged: the parts swap
    ],
    ids=["edges", "parts"],
)
def test_isomorphic_raises_when_the_refined_map_fails_its_check(monkeypatch, g):
    """The refined map is an isomorphism by construction; a map that fails
    its check is an internal fault, never a "not isomorphic"."""
    assert mg.isomorphic(g, g) is not None
    monkeypatch.setattr(mg, "_first_map", rotated_map)
    with pytest.raises(InternalAssertion):
        mg.isomorphic(g, g)


def oracle_complete_bipartite(g):
    """is_complete_bipartite_multi by one multiplicity lookup per pair."""
    if g.n_vertices == 0 or g.has_loops():
        return None
    if g.fully_part_tagged():
        parts = sorted({v.part for v in g.vertices})
        if len(parts) != 2:
            return None
        a = [v.id for v in g.vertices if v.part == parts[0]]
        b = [v.id for v in g.vertices if v.part == parts[1]]
    else:
        ok, color = mg.is_bipartite(g)
        if not ok:
            return None
        a = [v for v in range(g.n_vertices) if color[v] == 0]
        b = [v for v in range(g.n_vertices) if color[v] == 1]
    if not a or not b:
        return None
    mults = {len(g.edges_between(u, v)) for u in a for v in b}
    inside = any((e.u in a) == (e.v in a) for e in g.edges)
    if inside or len(mults) != 1 or 0 in mults:
        return None
    m, n = len(a), len(b)
    return (m, n, mults.pop()) if g.fully_part_tagged() else (min(m, n), max(m, n), mults.pop())


def test_complete_bipartite_from_the_multi_edge_index_matches_the_pairwise_oracle():
    rng = random.Random(20)
    seen = Counter()
    for _ in range(600):
        m, n, l = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        edges = [(u, m + v) for u in range(m) for v in range(n) for _ in range(l)]
        rng.shuffle(edges)
        kind = rng.randrange(5)
        if kind == 1 and edges:
            edges.pop()  # one multiplicity lower
        elif kind == 2:
            edges.append((0, m + n - 1))  # one multiplicity higher
        elif kind == 3 and m > 1:
            edges.append((0, 1))  # an edge inside a class
        tagged = rng.random() < 0.5
        parts = [0] * m + [1] * n if tagged else None
        g = build(m + n, edges, parts=parts)
        want = oracle_complete_bipartite(g)
        assert mg.is_complete_bipartite_multi(g) == want, (m, n, l, kind, edges)
        seen[want is None] += 1
    assert seen[True] and seen[False]


def test_per_edge_records_stay_small():
    """A graph keeps its edges as arrays and lists, with no object per
    edge: Phi(Z6) over 150 copies of 1, with 67,050 edges, retains at most
    32 bytes per edge once built, and at most 64 with its adjacency and
    multi-edge index built."""
    import gc
    import tracemalloc

    from ggraphs.algebra import cyclic_group
    from ggraphs.ggraph import build_phi

    z6 = cyclic_group(6)
    build_phi(z6, [1, 1]).graph.multi_edges()  # first-call allocations outside the count
    gc.collect()
    tracemalloc.start()
    try:
        gg = build_phi(z6, [1] * 150)
        gc.collect()
        built = tracemalloc.get_traced_memory()[0]
        gg.graph.adj()
        gg.graph.multi_edges()
        gc.collect()
        indexed = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert gg.graph.n_edges == 67050
    assert built / gg.graph.n_edges <= 32
    assert indexed / gg.graph.n_edges <= 64
