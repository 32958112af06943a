"""verify_structure on malformed G-graphs: it reports FAIL or raises a
GGraphError, never a bare Python exception.

Each input below is a well-formed Phi or Psi with one fault put in: an
edge with no label, labels missing, extra or outside G, a vertex with no
part tag, an edge end moved, a vertex added or dropped.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from ggraphs import algebra as al
from ggraphs import ggraph as gg
from ggraphs.errors import GGraphError, PreconditionFailed
from ggraphs.multigraph import Multigraph


def s4_phi():
    group = al.parse_group("S4")
    return gg.build_phi(group, [al.parse_element(group, s) for s in ("(1,2)", "(1,2,3,4)")])


def test_an_unlabelled_edge_fails_item_5_at_its_multi_edge():
    x = s4_phi()
    x.graph.add_edge(0, 12)  # edge_glabel is not extended
    assert x.graph.n_edges == len(x.edge_glabel) + 1
    assert gg.verify_structure(x).lines() == [
        "item 1 [FAIL] shift group: automorphisms=False distinct=24/24 composition=True",
        "item 2 [PASS] levels stable: checked all |G| shifts",
        "item 3 [PASS] colour cliques: permutation law and cliqueness over all 24 colours",
        "item 4 [FAIL] edge counts: total 25 (expected 24)",
        "item 5 [FAIL] label cosets: 24 multi-edges checked first failure at multi-edge (0,12)",
    ]


def _copy(x, parts=None, edges=None, extra_parts=()):
    g = Multigraph()
    for v in x.graph.vertices:
        g.add_vertex(v.label, v.part if parts is None else parts[v.id])
    for p in extra_parts:
        g.add_vertex("extra", p)
    for u, v in edges if edges is not None else [(e.u, e.v) for e in x.graph.edges]:
        g.add_edge(u, v)
    return dataclasses.replace(x, graph=g)


def _relabelled(x, labels):
    return dataclasses.replace(x, edge_glabel=np.asarray(labels, dtype=np.int64))


def _malformed(x, rng):
    """(name, G-graph, whether verify_structure refuses it) triples."""
    n, nv = x.group.order, x.graph.n_vertices
    ends = [(e.u, e.v) for e in x.graph.edges]
    L = x.edge_glabel
    parts = [v.part for v in x.graph.vertices]
    yield "unlabelled edge", _copy(x, edges=ends + [(0, nv - 1)]), False
    yield "unlabelled loop", _copy(x, edges=ends + [(0, 0)]), False
    yield "edge dropped", _copy(x, edges=ends[:-1]), False
    yield "untagged vertex", _copy(x, parts=[None] + parts[1:]), False
    yield "retagged vertex", _copy(x, parts=[99] + parts[1:]), False
    yield "extra vertex", _copy(x, extra_parts=[0]), False
    yield "extra untagged vertex", _copy(x, extra_parts=[None]), False
    fewer = Multigraph()
    for p in parts[:-1]:
        fewer.add_vertex("", p)
    yield "vertex dropped", dataclasses.replace(x, graph=fewer), False
    for k in rng.sample(range(len(ends)), 3):
        moved = list(ends)
        moved[k] = (ends[k][0], (ends[k][1] + 1 + rng.randrange(nv - 1)) % nv)
        yield "end of edge %d moved" % k, _copy(x, edges=moved), False
    yield "extra label", _relabelled(x, np.append(L, L[0])), False
    yield "last label missing", _relabelled(x, L[:-1]), True
    yield "no labels", _relabelled(x, L[:0]), True
    yield "edge and label dropped", _relabelled(_copy(x, edges=ends[1:]), L[1:]), True
    for bad in (n, -1, 2**40):
        yield "label %d" % bad, _relabelled(x, np.where(np.arange(len(L)) == 1, bad, L)), True


def _inputs():
    cases = []
    for spec, gens in (("S3", ["(1,2)", "(1,2,3)"]), ("S4", ["(1,2)", "(1,2,3,4)"]),
                       ("Q8", ["i", "j"]), ("Z6", ["2", "3"])):
        group = al.quaternion_group() if spec == "Q8" else al.parse_group(spec)
        elems = [al.parse_element(group, t) for t in gens]
        for loops in (False, True):
            x = gg._build(group, elems, loops)
            for name, bad, refused in _malformed(x, random.Random(spec)):
                cases.append(pytest.param(
                    bad, refused, id="%s-%s-%s" % ("psi" if loops else "phi", spec, name)))
    return cases


@pytest.mark.parametrize("x,refused", _inputs())
def test_a_malformed_ggraph_fails_or_is_refused(x, refused):
    if refused:
        with pytest.raises(PreconditionFailed, match="edge_glabel does not label"):
            gg.verify_structure(x)
        return
    try:
        report = gg.verify_structure(x)
    except GGraphError:
        return
    assert not report.all_ok
