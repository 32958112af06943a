"""Multigraph layer tests; isomorphism decisions are cross-checked against a
brute-force oracle over all vertex bijections (small graphs only)."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from ggraphs import multigraph as mg
from ggraphs.errors import CapExceeded, ParseError


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
    g = build(4, [(0, 1), (1, 2), (2, 3)], labels=["a", "b", "c"])
    g.vertices[2].label = "mid"
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


def test_iso_strict_labels():
    g1 = build(2, [(0, 1), (0, 1)], labels=["x", "y"])
    g2 = build(2, [(0, 1), (0, 1)], labels=["y", "x"])
    g3 = build(2, [(0, 1), (0, 1)], labels=["x", "x"])
    w = mg.isomorphic(g1, g2, strict_labels=True)
    assert w is not None
    assert mg.verify_iso_witness(g1, g2, w, strict_labels=True)
    # strict pairing must send x to x
    assert g2.edges[w.edge_map[0]].label == "x"
    assert mg.isomorphic(g1, g3, strict_labels=True) is None
    assert mg.isomorphic(g1, g3) is not None


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
    g = cycle(3)
    with pytest.raises(CapExceeded):
        mg.isomorphic(g, g, cap=5)


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


# ---------------------------------------------------------------------------
# serialization


def test_json_roundtrip_dense():
    g = build(3, [(0, 1), (1, 2), (2, 2)], parts=[0, 1, None], labels=["a", "", "c"])
    g.vertices[0].label = "v0"
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
