"""verify_structure on malformed G-graphs: it reports FAIL or raises a
GGraphError, never a bare Python exception.

Each input below is a well-formed Phi or Psi with one fault put in: an
edge with no label, labels missing, extra or outside G, a vertex with no
part tag, an edge end moved, a vertex added or dropped, labels that are
not integers, or a level layout with no level, whose offset, cosets or
membership is wrong, or whose arrays are not integers.  verify_structure
and shifts_of refuse a G-graph whose shift arrays are not defined.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from ggraphs import algebra as al
from ggraphs import ggraph as gg
from ggraphs import recognition as rec
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


def _with_level(x, **changes):
    """x with its last level's fields changed."""
    *rest, last = x.levels
    return dataclasses.replace(x, levels=(*rest, dataclasses.replace(last, **changes)))


def _malformed(x, rng):
    """(name, G-graph, the message verify_structure refuses it with, or
    None when it must fail the report) triples."""
    n, nv = x.group.order, x.graph.n_vertices
    ends = [(e.u, e.v) for e in x.graph.edges]
    L = x.edge_glabel
    parts = [v.part for v in x.graph.vertices]
    yield "unlabelled edge", _copy(x, edges=ends + [(0, nv - 1)]), None
    yield "unlabelled loop", _copy(x, edges=ends + [(0, 0)]), None
    yield "edge dropped", _copy(x, edges=ends[:-1]), None
    yield "untagged vertex", _copy(x, parts=[None] + parts[1:]), None
    yield "retagged vertex", _copy(x, parts=[99] + parts[1:]), None
    yield "extra vertex", _copy(x, extra_parts=[0]), None
    yield "extra untagged vertex", _copy(x, extra_parts=[None]), None
    fewer = Multigraph()
    for p in parts[:-1]:
        fewer.add_vertex("", p)
    yield "vertex dropped", dataclasses.replace(x, graph=fewer), None
    for k in rng.sample(range(len(ends)), 3):
        moved = list(ends)
        moved[k] = (ends[k][0], (ends[k][1] + 1 + rng.randrange(nv - 1)) % nv)
        yield "end of edge %d moved" % k, _copy(x, edges=moved), None
    yield "extra label", _relabelled(x, np.append(L, L[0])), None
    unlabelled = "edge_glabel does not label"
    yield "last label missing", _relabelled(x, L[:-1]), unlabelled
    yield "no labels", _relabelled(x, L[:0]), unlabelled
    yield "edge and label dropped", _relabelled(_copy(x, edges=ends[1:]), L[1:]), unlabelled
    for bad in (n, -1, 2**40):
        yield "label %d" % bad, _relabelled(x, np.where(np.arange(len(L)) == 1, bad, L)), unlabelled
    yield "float labels", dataclasses.replace(x, edge_glabel=L.astype(float)), unlabelled
    yield "no level", dataclasses.replace(x, levels=()), "level 0 of the layout is malformed"
    # the last level's layout; its last coset row holds its last element
    malformed = "level %d of the layout is malformed" % (x.n_levels - 1)
    last = x.levels[-1]
    cosets, membership = last.cosets, last.membership
    y = cosets[-1, -1]
    yield "level offset", _with_level(x, offset=last.offset + 1), malformed
    yield "membership cut short", _with_level(x, membership=membership[:-1]), malformed
    past = membership.copy()
    past[y] = len(cosets)
    yield "membership past the cosets", _with_level(x, membership=past), malformed
    yield "coset row dropped", _with_level(x, cosets=cosets[:-1]), malformed
    yield "float cosets", _with_level(x, cosets=cosets.astype(float)), malformed
    yield "float membership", _with_level(x, membership=membership.astype(float)), malformed
    for bad, name in ((n, "outside G"), (cosets[0, 0], "repeated")):
        entries = cosets.copy()
        entries[-1, -1] = bad
        yield "coset entry %s" % name, _with_level(x, cosets=entries), malformed


def _inputs():
    cases = []
    for spec, gens in (("S3", ["(1,2)", "(1,2,3)"]), ("S4", ["(1,2)", "(1,2,3,4)"]),
                       ("Q8", ["i", "j"]), ("Z6", ["2", "3"])):
        group = al.quaternion_group() if spec == "Q8" else al.parse_group(spec)
        elems = [al.parse_element(group, t) for t in gens]
        for loops in (False, True):
            x = gg._build(group, elems, loops)
            for name, bad, refusal in _malformed(x, random.Random(spec)):
                cases.append(pytest.param(
                    bad, refusal, id="%s-%s-%s" % ("psi" if loops else "phi", spec, name)))
    return cases


@pytest.mark.parametrize("x,refusal", _inputs())
def test_a_malformed_ggraph_fails_or_is_refused(x, refusal):
    if refusal is not None:
        for read in (gg.verify_structure, rec.shifts_of):
            with pytest.raises(PreconditionFailed, match=refusal):
                read(x)
        return
    try:
        report = gg.verify_structure(x)
    except GGraphError:
        return
    assert not report.all_ok
