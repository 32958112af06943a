"""verify_structure reads every shift only in item 1's composition law on
a table that is not checked, one slab of columns at a time; on a checked
table the law reads the generator columns alone.

Once the law holds, items 1 and 2 read delta_e and the generator shifts,
the kernel is counted among the rows that agree with delta_e in column 0,
item 3's cliqueness reads the colour C_e, and item 4 counts edges from the
multi-edge index.  The former code, which read every shift, every colour
and every edge, is kept below as the oracle: every report line must match
it, on clean and on corrupted inputs.  Each generator-cost read also has an
input where it must fail.
"""

from __future__ import annotations

import dataclasses
import signal
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from itertools import combinations
from math import comb

import numpy as np
import pytest

from ggraphs import algebra as al
from ggraphs import ggraph as gg
from ggraphs import multigraph as mg
from ggraphs.errors import NotAGroup
from split_shifts import split_shifts

# ---------------------------------------------------------------------------
# the former all-rows report


def former_report(x):
    """verify_structure's five lines as the former code computed them: every
    shift for items 1 and 2, every colour for item 3, every edge for item 4,
    and item 5 from Python sets, with each vertex's level by the layout."""
    grp, n, g = x.group, x.group.order, x.graph
    S_v, S_e = split_shifts(x)
    gens = al.generating_set(grp.mul)
    comp_ok = all(
        (S[a][S] == S[grp.mul[:, a]]).all() for a in gens for S in (S_v, S_e)
    )
    aut_ok = mg.map_defect(g, g, S_v, S_e) is None
    distinct = len({(S_v[i].tobytes(), S_e[i].tobytes()) for i in range(n)})
    parts = np.array([v.part for v in g.vertices], dtype=np.int64)
    ok2 = bool((parts[S_v] == parts).all())
    C = np.array([gg.colour_clique(x, c) for c in range(n)]).reshape(n, x.n_levels)
    ok3 = (
        comp_ok
        and all((S_v[t][C] == C[grp.mul[:, t]]).all() for t in gens)
        and all(g.multiplicity(int(a), int(b)) > 0 for row in C for a, b in combinations(row, 2))
    )
    L = x.n_levels
    want = Counter({(i, j, False): n for i in range(L) for j in range(i + 1, L)})
    if x.with_loops:
        want.update({(i, i, True): n for i in range(L)})
    got = Counter(
        (*sorted((int(parts[e.u]), int(parts[e.v]))), e.u == e.v) for e in g.edges
    )
    level = [(lvl.index, set(row)) for lvl in x.levels for row in lvl.cosets.tolist()]
    subs = [set(al.cyclic_subgroup(grp, lvl.gen)) for lvl in x.levels]
    by_pair = g.multi_edges()
    bad = ""
    for (u, v), ids in by_pair.items():
        (i, cu), (j, cv) = level[u], level[v]
        common = cu & cv
        labels = sorted(int(y) for y in x.edge_glabel[ids])
        # the right coset (<s> inter <t>) * min of the common elements
        coset = {int(grp.mul[k, min(common)]) for k in subs[i] & subs[j]} if common else None
        if not common or labels != sorted(common) or common != coset:
            bad = " first failure at multi-edge (%d,%d)" % (u, v)
            break
    return gg.StructureReport([
        gg.ItemReport(
            1, "shift group", aut_ok and distinct == n and comp_ok,
            "automorphisms=%s distinct=%d/%d composition=%s" % (aut_ok, distinct, n, comp_ok),
        ),
        gg.ItemReport(2, "levels stable", ok2, "checked all |G| shifts"),
        gg.ItemReport(
            3, "colour cliques", ok3, "permutation law and cliqueness over all %d colours" % n
        ),
        gg.ItemReport(
            4, "edge counts", got == want,
            "total %d (expected %d)" % (g.n_edges, sum(want.values())),
        ),
        gg.ItemReport(
            5, "label cosets", not bad, "%d multi-edges checked%s" % (len(by_pair), bad)
        ),
    ]).lines()


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError after seconds, so that a walk that never ends
    fails the test instead of growing its list until memory runs out."""

    def stop(signum, frame):
        raise TimeoutError("still running after %g s" % seconds)

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def outcome(report, x):
    """report(x), or the text of the NotAGroup it raises: a changed table
    can leave a power walk that never returns to the identity."""
    try:
        return report(x)
    except NotAGroup as exc:
        return str(exc)


def assert_matches_oracle(x):
    with time_limit(10):
        lines = outcome(lambda y: gg.verify_structure(y).lines(), x)
        assert lines == outcome(former_report, x)
    return lines


# ---------------------------------------------------------------------------
# inputs


def make_group(spec):
    if spec == "D6":
        return al.dihedral_group(6)
    if spec == "Q8":
        return al.quaternion_group()
    return al.parse_group(spec)


CASES = [
    ("S4", ["(1,2)", "(1,2,3,4)"]),
    ("S4", ["(1,2)", "(2,3)", "(1,2)"]),
    ("S4", ["(1,2)(3,4)"]),  # one level, no edges: the shifts are not faithful
    ("S5", ["(1,2)", "(1,2,3,4,5)"]),
    ("S5", ["(2,3,4,5)", "(1,3,4,5)"]),
    ("D6", ["(2,6)(3,5)", "(1,2)(3,6)(4,5)"]),
    ("D6", ["(1,2,3,4,5,6)"]),
    ("Q8", ["i", "j"]),
    ("Q8", ["-1"]),
    ("Z4xZ6", ["(1,1)", "(1,2)"]),
    ("Z4xZ6", ["(2,0)", "(0,3)", "(2,0)"]),
    ("Z4xZ6", ["(2,3)"]),
]


def case_ids(cases):
    return ["%s-%s" % (spec, "-".join(gens)) for spec, gens in cases]


def build(spec, gens, loops=False):
    group = make_group(spec)
    return gg._build(group, [al.parse_element(group, t) for t in gens], loops)


def swapped_entries(x, a, b, c):
    """x with the entries (a, b) and (a, c) of its group table swapped."""
    mul = x.group.mul.copy()
    mul[a, b], mul[a, c] = mul[a, c], mul[a, b]
    return dataclasses.replace(x, group=dataclasses.replace(x.group, mul=mul))


def rebuilt(x, *, part=None, move=None, extra=None):
    """x with its graph copied: vertex v retagged (part = (v, tag)), edge id
    move's second end moved to the next vertex of its level, or one more
    edge (extra = (u, v, element))."""
    g = mg.Multigraph()
    for v in x.graph.vertices:
        g.add_vertex(v.label, part[1] if part and v.id == part[0] else v.part)
    for e in x.graph.edges:
        v = e.v
        if e.id == move:
            lvl = next(l for l in reversed(x.levels) if l.offset <= v)
            v = lvl.offset + (v - lvl.offset + 1) % len(lvl.cosets)
        g.add_edge(e.u, v)
    glabel = x.edge_glabel
    if extra:
        g.add_edge(extra[0], extra[1])
        glabel = np.append(glabel, extra[2])
    return dataclasses.replace(x, graph=g, edge_glabel=glabel)


def relabelled(x, eid):
    glabel = x.edge_glabel.copy()
    glabel[eid] = (glabel[eid] + 1) % x.group.order
    return dataclasses.replace(x, edge_glabel=glabel)


def variants(x):
    """x clean, with a swapped table entry, with one end of each of three
    edges moved, and with one edge relabelled."""
    n, m = x.group.order, x.graph.n_edges
    yield x
    yield swapped_entries(x, 1, 2, n - 1)
    for eid in sorted({0, m // 2, m - 1}) if m else ():
        yield rebuilt(x, move=eid)
    if m:
        yield relabelled(x, 0)


# ---------------------------------------------------------------------------
# the same report as the former code


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
@pytest.mark.parametrize("spec,gens", CASES, ids=case_ids(CASES))
def test_every_line_matches_the_all_rows_oracle(spec, gens, loops):
    x = build(spec, gens, loops)
    lines = [assert_matches_oracle(y) for y in variants(x)]
    assert "composition=True" in lines[0][0]  # the generator-cost path


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
@pytest.mark.parametrize("spec,gens", CASES[:4], ids=case_ids(CASES[:4]))
def test_a_retagged_vertex_matches_the_oracle(spec, gens, loops):
    lines = assert_matches_oracle(rebuilt(build(spec, gens, loops), part=(0, 1)))
    assert lines[1].startswith("item 2 [FAIL]")


def test_an_extra_edge_matches_the_oracle():
    x = build(*CASES[0])
    assert_matches_oracle(rebuilt(x, extra=(0, x.levels[1].offset, 0)))


# ---------------------------------------------------------------------------
# what is read once the law holds


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
@pytest.mark.parametrize("spec,gens", CASES[:2] + CASES[3:5], ids=case_ids(CASES[:2] + CASES[3:5]))
def test_each_slab_is_built_once(monkeypatch, spec, gens, loops):
    """verify_structure never calls shifts.  On a checked table the law
    reads the generator columns and builds no strip of a slab; on an
    unchecked copy of the table, the law's strips tile the rows of each
    slab once.  Either way, past the law, shift entries are
    built only at the rows of delta_e and the generators and at the rows
    that agree with delta_e in column 0, and the cliqueness check asks the
    multi-edge index about one colour's pairs only."""
    x = build(spec, gens, loops)
    grp, e = x.group, x.group.identity
    S_v, _ = split_shifts(x)
    near = set(np.flatnonzero(S_v[:, 0] == S_v[e, 0]).tolist())

    def refused(_):
        raise AssertionError("a full shift array was built")

    monkeypatch.setattr(gg, "shifts", refused)
    strips, rows = Counter(), []
    real_entries = gg._slab_entries

    def entries(mul, slab, at):
        if isinstance(at, slice):
            strips[id(slab), at.start, at.stop] += 1
        else:
            rows.extend(np.ravel(at).tolist())
        return real_entries(mul, slab, at)

    monkeypatch.setattr(gg, "_slab_entries", entries)
    asked = []

    class Index(mg.MultiEdges):
        def find(self, u, v):
            asked.extend(zip(np.ravel(u).tolist(), np.ravel(v).tolist()))
            return super().find(u, v)

    real = x.graph.multi_edges()
    index = Index(real.keys, real.offsets, real.rows)
    monkeypatch.setattr(x.graph, "multi_edges", lambda: index)
    unchecked = dataclasses.replace(x, group=dataclasses.replace(grp, mul=grp.mul.copy()))
    assert grp.table_checked and not unchecked.group.table_checked

    for y in (x, unchecked):
        strips.clear()
        rows.clear()
        asked.clear()
        assert gg.verify_structure(y).all_ok
        assert rows and set(rows) <= {e, *al.generating_set(grp.mul)} | near
        assert len(asked) == comb(x.n_levels, 2)
        if y is x:
            assert not strips

    n_slabs = x.n_levels + len(gg._blocks(x.n_levels, loops))
    tiles = [(s.start, s.stop) for s in gg._strips(grp.order)]
    assert len(strips) == n_slabs * len(tiles)
    assert set(strips.values()) == {1}
    assert sorted({key[1:] for key in strips}) == tiles


def test_verify_structure_holds_one_slab_at_a_time():
    """Psi(S6) has slabs of 360, 120 and three times 720 columns; the traced
    peak stays under one 720 x 720 int32 slab and one strip of whole rows,
    where all 720 x 2640 shift entries at once take 7.6 MB."""
    s6 = al.symmetric_group(6)
    x = gg.build_psi(s6, [al.parse_element(s6, t) for t in ("(1,2)", "(1,2,3,4,5,6)")])
    assert gg.verify_structure(x).all_ok  # warm the code paths
    slab = 720 * 720 * 4
    strip = gg._BLOCK * (x.graph.n_vertices + x.graph.n_edges) * 4
    tracemalloc.start()
    try:
        report = gg.verify_structure(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_ok
    assert peak <= slab + strip + (1 << 18), peak


# ---------------------------------------------------------------------------
# one failing input per generator-cost read


def test_a_retagged_vertex_fails_item_2():
    # vertex 0 is <(1,2)>, which the generator (1,2,3,4) moves; its tag
    # reads as the second level, and vertex 0 is no coset of that level, so
    # the report must come from the layout, not from the tag
    x = build("S4", ["(1,2)", "(1,2,3,4)"])
    bad = rebuilt(x, part=(0, 1))
    lines = gg.verify_structure(bad).lines()
    assert "composition=True" in lines[0]
    assert lines[1] == "item 2 [FAIL] levels stable: checked all |G| shifts"


def test_a_retagged_vertex_of_the_second_level_fails_item_2():
    x = build("S5", ["(1,2)", "(1,2,3,4,5)"], loops=True)
    v = x.levels[1].offset + 3
    lines = gg.verify_structure(rebuilt(x, part=(v, 0))).lines()
    assert "composition=True" in lines[0]
    assert lines[1].startswith("item 2 [FAIL]")


def test_a_removed_clique_edge_fails_item_3():
    # <(1,2)> and <(1,2,3,4)> meet in {e}: the edge labelled g is the only
    # edge of C_g.  Moving one of its ends leaves C_g without an edge, while
    # C_e keeps its own, and every level pair keeps |G| edges.
    x = build("S4", ["(1,2)", "(1,2,3,4)"])
    g = 5
    assert x.edge_glabel[g] == g and x.graph.edges_between(*gg.colour_clique(x, g)) == [g]
    bad = rebuilt(x, move=g)
    assert bad.graph.multiplicity(*gg.colour_clique(bad, g)) == 0
    assert bad.graph.multiplicity(*gg.colour_clique(bad, 0)) == 1
    lines = gg.verify_structure(bad).lines()
    assert "composition=True" in lines[0]
    assert lines[2].startswith("item 3 [FAIL]")
    assert lines[3].startswith("item 4 [PASS]")


def test_an_extra_edge_between_two_levels_fails_item_4():
    # the shift arrays follow the layout, so the graph's extra edge leaves
    # no column of them unwritten
    x = build("S4", ["(1,2)", "(1,2,3,4)"])
    bad = rebuilt(x, extra=(0, x.levels[1].offset + 1, 0))
    lines = gg.verify_structure(bad).lines()
    assert "composition=True" in lines[0]
    assert lines[3] == "item 4 [FAIL] edge counts: total 25 (expected 24)"


# ---------------------------------------------------------------------------
# a table changed after its check


def test_a_power_walk_that_never_returns_raises_not_a_group():
    # with (-1)i = i, the powers of i run i, -1, i, -1, ... and never reach 1
    x = swapped_entries(build("Q8", ["i", "j"]), 1, 2, 3)
    i = al.parse_element(x.group, "i")
    with time_limit(10):
        with pytest.raises(NotAGroup):
            al.cyclic_subgroup(x.group, i)
        with pytest.raises(NotAGroup):
            gg.verify_structure(x)
        with pytest.raises(NotAGroup):
            former_report(x)
