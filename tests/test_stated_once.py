"""The rules stated once: the edge-block layout of a G-graph
(``ggraph._blocks``, ``ggraph._block_labels``), the inferred edge map of a
witness (``recognition.infer_edge_map``) and the modular obstructions of
``ikn``.  Each is compared with the code it replaced, kept here as the
oracle, together with the sufficient bipartite test's former double loop
and the graphs with a vertex beyond the level layout."""

import dataclasses
import itertools
import random

import numpy as np
import pytest

from ggraphs import algebra as al
from ggraphs import ggraph as gg
from ggraphs import ikn
from ggraphs import incidence as inc
from ggraphs.algebra import Perm, _powers, generated_subgroup
from ggraphs.errors import WitnessInvalid
from ggraphs.multigraph import Multigraph
from ggraphs.recognition import infer_edge_map, witness_from_json, witness_to_json
from split_shifts import split_shifts
from test_generator_checks import CASES, case_ids, make_group

# ---------------------------------------------------------------------------
# edge blocks


def levels_of(spec, gens, n_levels):
    """The group of spec and the first n_levels entries of gens, repeated."""
    group = make_group(spec)
    elems = [al.parse_element(group, t) for t in gens]
    return group, list(itertools.islice(itertools.cycle(elems), n_levels))


@pytest.mark.parametrize("n_levels", [1, 2, 3, 4])
@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
@pytest.mark.parametrize("spec,gens", CASES, ids=case_ids(CASES))
def test_every_built_edge_lies_in_its_block_with_its_label(spec, gens, loops, n_levels):
    group, elems = levels_of(spec, gens, n_levels)
    x = gg._build(group, elems, loops)
    n = group.order
    blocks = gg._blocks(n_levels, loops)
    assert x.graph.n_edges == len(x.edge_glabel) == len(blocks) * n
    labels = [gg._block_labels(x.levels, i, j, n).tolist() for i, j in blocks]
    for e in x.graph.edges:
        b, k = divmod(e.id, n)
        i, j = blocks[b]
        label = labels[b][k]
        assert int(x.edge_glabel[e.id]) == label
        assert sorted((x.level_of[e.u], x.level_of[e.v])) == [i, j]
        # the ends are the cosets of the label on the block's levels
        assert {e.u, e.v} == {x.vertex_of(i, label), x.vertex_of(j, label)}


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
@pytest.mark.parametrize("spec,gens", CASES, ids=case_ids(CASES))
def test_block_order_and_labels_follow_the_stated_rule(spec, gens, loops):
    group, elems = levels_of(spec, gens, 3)
    x = gg._build(group, elems, loops)
    n = group.order
    pairs = [(0, 1), (0, 2), (1, 2)]
    assert gg._blocks(3, loops) == pairs + ([(0, 0), (1, 1), (2, 2)] if loops else [])
    for i, j in pairs:
        assert gg._block_labels(x.levels, i, j, n).tolist() == list(range(n))
    for i, lvl in enumerate(x.levels):
        want = [y for row in lvl.cosets.tolist() for y in sorted(row)]
        assert gg._block_labels(x.levels, i, i, n).tolist() == want


# ---------------------------------------------------------------------------
# edge-map inference


def former_infer_edge_map(g, vmap):
    """The former rule: each edge goes to the one edge joining the images
    of its ends."""
    em = []
    for e in g.edges:
        cands = g.edges_between(vmap[e.u], vmap[e.v])
        if len(cands) != 1:
            raise WitnessInvalid("%d candidates" % len(cands))
        em.append(cands[0])
    return tuple(em)


def vertex_maps(x, rng, k=20):
    """The shifts' vertex maps of x, then k random vertex permutations."""
    S_v, _ = split_shifts(x)
    out = [tuple(row) for row in S_v.tolist()]
    ids = list(range(x.graph.n_vertices))
    for _ in range(k):
        rng.shuffle(ids)
        out.append(tuple(ids))
    return out


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
@pytest.mark.parametrize("spec,gens", CASES, ids=case_ids(CASES))
def test_infer_edge_map_agrees_with_the_former_rule(spec, gens, loops):
    group = make_group(spec)
    x = gg._build(group, [al.parse_element(group, t) for t in gens], loops)
    g = x.graph
    inferred = 0
    for vmap in vertex_maps(x, random.Random(spec + "".join(gens))):
        try:
            want = former_infer_edge_map(g, vmap)
        except WitnessInvalid:
            want = None
        if want is not None and sorted(want) == list(range(g.n_edges)):
            assert infer_edge_map(g, vmap) == want
            inferred += 1
        else:  # the former raised, or its map is no permutation
            with pytest.raises(WitnessInvalid):
                infer_edge_map(g, vmap)
    # every shift of a simple G-graph has its edge map inferred
    if x.is_simple():
        assert inferred >= group.order


def test_a_multi_edge_is_refused_and_names_itself():
    group = al.parse_group("Z6")
    x = gg.build_phi(group, [2, 2])  # each multi-edge holds <2>, 3 edges
    g = x.graph
    identity = tuple(range(g.n_vertices))
    with pytest.raises(WitnessInvalid, match=r"multi-edge \(0, 2\) has 3 edges"):
        infer_edge_map(g, identity)
    data = {"H_generators": [list(identity)], "C": [0, 2]}
    with pytest.raises(WitnessInvalid, match="supply H_generator_edge_maps"):
        witness_from_json(g, data)
    # the writer supplies the edge maps exactly where inference refuses
    w = witness_from_json(g, {**data, "H_generator_edge_maps": [list(range(g.n_edges))]})
    assert "H_generator_edge_maps" in witness_to_json(g, w)
    simple = gg.build_phi(group, [2, 3]).graph
    w = witness_from_json(simple, {"H_generators": [list(range(5))], "C": [0, 2]})
    assert "H_generator_edge_maps" not in witness_to_json(simple, w)


def test_a_vertex_map_that_is_no_automorphism_is_refused():
    group = al.parse_group("Z6")
    g = gg.build_phi(group, [2, 3]).graph  # K_{2,3}
    with pytest.raises(WitnessInvalid, match="no automorphism"):
        infer_edge_map(g, (0, 2, 1, 3, 4))


# ---------------------------------------------------------------------------
# modular obstructions


def former_obstruction_kinds(n):
    out = []
    if n > 2 and n % 4 == 2:
        out.append("Mod4")
    if n % 6 == 0:
        out.append("Mod6")
    if n % 24 in (15, 21):
        out.append("Mod24")
    return out


def former_describe(kind, n):
    if kind == "Mod4":
        return "n = %d > 2 and n = 2 (mod 4): sigma is even but tau is odd" % n
    if kind == "Mod6":
        return "6 divides n = %d: no <rho,tau> orbit partition fits" % n
    if kind == "Mod24":
        return "n = %d is 15 or 21 (mod 24): the residue map parity count fails" % n
    return "exhaustive search for n = %d found no certificate" % n


def test_the_obstruction_table_matches_the_former_if_chain():
    assert ikn.OBSTRUCTION_KINDS == ("Mod4", "Mod6", "Mod24", "ExhaustiveSearch")
    for n in range(2, 2001):
        found = ikn.obstructions(n)
        assert [o.kind for o in found] == former_obstruction_kinds(n)
        for o in found:
            assert o.describe() == former_describe(o.kind, n)
        for kind in ikn.OBSTRUCTION_KINDS:
            assert ikn.Obstruction(n, kind).describe() == former_describe(kind, n)


# ---------------------------------------------------------------------------
# the sufficient bipartite test


def former_sufficient(g, s, t):
    """The former double loop over every (m, n): (m, n, f) or None."""
    s_powers = _powers(g, s)
    for m, fs in enumerate(_powers(g, t)):
        for n, ft in enumerate(s_powers):
            f = inc._extend_by_words(g, s, t, fs, ft)
            if f is None or f[f[s]] != s or f[f[t]] != t:
                continue
            return m, n, tuple(f)
    return None


SUFFICIENT_GROUPS = {
    "S4": lambda: al.parse_group("S4"),
    "Z4xZ6": lambda: al.parse_group("Z4xZ6"),
    "Z12": lambda: al.parse_group("Z12"),
    "Z2xZ2": lambda: al.parse_group("Z2xZ2"),
    "Z6": lambda: al.parse_group("Z6"),
    "Z3xZ3": lambda: al.parse_group("Z3xZ3"),
    "D6": lambda: al.dihedral_group(6),
    "D8": lambda: al.dihedral_group(8),
    "Z3wrZ3": lambda: al.parse_group("perm:9:(1,2,3),(1,4,7)(2,5,8)(3,6,9)"),
    "Q8": al.quaternion_group,
    "S5": lambda: al.parse_group("S5"),
}


@pytest.mark.parametrize("name", list(SUFFICIENT_GROUPS))
def test_sufficient_test_matches_the_former_double_loop(name):
    g = SUFFICIENT_GROUPS[name]()
    pairs = list(itertools.product(range(g.order), repeat=2))
    if name == "S5":
        pairs = pairs[::5]
    everything = tuple(range(g.order))
    for s, t in pairs:
        if generated_subgroup(g, [s, t]) != everything:
            continue
        w = inc.sufficient_bipartite_test(g, s, t)
        assert (None if w is None else (w.m, w.n, w.f)) == former_sufficient(g, s, t)


# ---------------------------------------------------------------------------
# a vertex beyond the level layout


def with_extra_vertex(x, part, glabel=None):
    """x with one more vertex, tagged part and joined to vertex 0; the new
    edge gets the element glabel when one is given."""
    g = Multigraph()
    for v in x.graph.vertices:
        g.add_vertex(v.label, v.part)
    for e in x.graph.edges:
        g.add_edge(e.u, e.v)
    g.add_edge(g.add_vertex("extra", part), 0)
    labels = x.edge_glabel if glabel is None else np.append(x.edge_glabel, glabel)
    return dataclasses.replace(x, graph=g, edge_glabel=labels)


def test_verify_structure_fails_item_5_at_an_end_beyond_the_layout():
    group = al.parse_group("S4")
    x = gg.build_phi(group, [al.parse_element(group, s) for s in ("(1,2)", "(1,2,3,4)")])
    n_v = x.graph.n_vertices
    lines = gg.verify_structure(with_extra_vertex(x, 0, glabel=0)).lines()
    assert lines[4] == (
        "item 5 [FAIL] label cosets: %d multi-edges checked"
        " first failure at multi-edge (0,%d)" % (len(x.graph.multi_edges()) + 1, n_v)
    )


def test_ikn_audit_fails_item_2_at_an_end_beyond_the_layout():
    x = ikn.build_and_verify(5, Perm.parse("(1)(2,3)(4,5)", 5)).graph
    items = {it.number: it for it in ikn._audit_graph(5, with_extra_vertex(x, 0))}
    assert not items[2].ok
