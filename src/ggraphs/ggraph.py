"""G-graphs of finite groups.

Given a group G and a nonempty multiset S of generators, the graph Phi(G, S)
has one level per occurrence s in S holding the right cosets <s>x, and one
edge labeled g between two cosets on distinct levels for every element g they
share. Psi(G, S) additionally keeps o(s) labeled loops on every vertex of the
level of s (one per coset element). Repeated occurrences of the same
generator produce distinct levels.

Vertex ids are laid out level block by level block, cosets ordered by
ascending representative (minimal element). Cross edges come first, ordered
by (level pair, group element); Psi loops follow, grouped by vertex id and
labeled ascending. Everything downstream relies on this determinism.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .algebra import (
    Coset,
    FiniteGroup,
    cyclic_group,
    cyclic_subgroup,
    direct_product,
    element_order,
    factorize,
    generated_subgroup,
    generating_set,
    right_coset,
    subgroup_group,
)
from .errors import InternalAssertion, PreconditionFailed
from .multigraph import (
    GraphAut,
    IsoWitness,
    Multigraph,
    connected_components,
    induced_subgraph_with_maps,
    is_complete_bipartite_multi,
    isomorphic,
    map_defect,
)


@dataclass
class Level:
    """One occurrence of a generator and its coset row."""

    index: int
    gen: int
    occurrence: int
    offset: int
    cosets: tuple[Coset, ...]
    membership: np.ndarray  # element -> coset position within this level


@dataclass
class GGraph:
    group: FiniteGroup
    gens: tuple[int, ...]
    with_loops: bool
    graph: Multigraph
    levels: tuple[Level, ...]
    edge_glabel: np.ndarray  # edge id -> group element
    _cross_base: dict
    _loop_id: np.ndarray | None  # (n_levels, order) -> loop edge id

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def vertex_level(self, v: int) -> int:
        return self.graph.vertices[v].part

    def vertex_coset(self, v: int) -> Coset:
        lvl = self.levels[self.vertex_level(v)]
        return lvl.cosets[v - lvl.offset]

    def vertex_of(self, level: int, x: int) -> int:
        """The vertex <s_level> x."""
        lvl = self.levels[level]
        return lvl.offset + int(lvl.membership[x])

    def is_simple(self) -> bool:
        return not self.with_loops and all(
            len(ids) == 1 for ids in self.graph.multi_edges().values()
        )


def _check_gens(group: FiniteGroup, gens) -> tuple[int, ...]:
    out = tuple(int(s) for s in gens)
    if not out:
        raise PreconditionFailed("generator multiset must be nonempty")
    for s in out:
        if not 0 <= s < group.order:
            raise PreconditionFailed("generator %d out of range" % s)
    return out


def _build(group: FiniteGroup, gens, with_loops: bool) -> GGraph:
    gens = _check_gens(group, gens)
    n = group.order
    graph = Multigraph()
    levels = []
    occ_count: dict[int, int] = {}
    for i, s in enumerate(gens):
        occ = occ_count.get(s, 0)
        occ_count[s] = occ + 1
        membership = np.full(n, -1, dtype=np.int32)
        cosets = []
        offset = graph.n_vertices
        for x in range(n):
            if membership[x] >= 0:
                continue
            c = right_coset(group, s, x)
            membership[list(c.elems)] = len(cosets)
            cosets.append(c)
        for c in cosets:
            graph.add_vertex(label="%d:%d" % (i, c.rep), part=i)
        levels.append(
            Level(i, s, occ, offset, tuple(cosets), membership)
        )
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
            for ci, c in enumerate(lvl.cosets):
                v = lvl.offset + ci
                for x in c.elems:
                    loop_id[lvl.index, x] = graph.add_edge(
                        v, v, label=group.elem_name(x)
                    )
                    glabels.append(x)
    return GGraph(
        group=group,
        gens=gens,
        with_loops=with_loops,
        graph=graph,
        levels=tuple(levels),
        edge_glabel=np.array(glabels, dtype=np.int64),
        _cross_base=cross_base,
        _loop_id=loop_id,
    )


def build_phi(group: FiniteGroup, gens) -> GGraph:
    """The loop-free G-graph Phi(G, S)."""
    return _build(group, gens, with_loops=False)


def build_psi(group: FiniteGroup, gens) -> GGraph:
    """The G-graph with loops Psi(G, S)."""
    return _build(group, gens, with_loops=True)


# ---------------------------------------------------------------------------
# shifts


def _shift_arrays(gg: GGraph):
    """(S_v, S_e): vertex and edge maps of delta_g for all g, as int32
    matrices; row g is delta_g: <s>x -> <s>xg with its edge action."""
    grp = gg.group
    n = grp.order
    nv, ne = gg.graph.n_vertices, gg.graph.n_edges
    S_v = np.empty((n, nv), dtype=np.int32)
    for lvl in gg.levels:
        reps = np.array([c.rep for c in lvl.cosets], dtype=np.int64)
        # delta_g(<s>x) = <s>(x g); row g, columns = cosets of this level
        img = lvl.membership[grp.mul[reps[None, :], np.arange(n)[:, None]]]
        S_v[:, lvl.offset : lvl.offset + len(reps)] = lvl.offset + img
    S_e = np.empty((n, ne), dtype=np.int32)
    labels_g = gg.group.mul[gg.edge_glabel[None, :], np.arange(n)[:, None]]
    for (i, j), base in gg._cross_base.items():
        # cross edge with label x maps to the edge labeled x*g of the same pair
        S_e[:, base : base + n] = base + labels_g[:, base : base + n]
    if gg.with_loops:
        start = len(gg._cross_base) * n
        lv = gg.graph.edges
        for a in range(start, ne):
            x = int(gg.edge_glabel[a])
            i = gg.vertex_level(lv[a].u)
            S_e[:, a] = gg._loop_id[i][gg.group.mul[x, :]]
    return S_v, S_e


def shifts(gg: GGraph) -> list[GraphAut]:
    """All |G| shifts; entry g is delta_g."""
    S_v, S_e = _shift_arrays(gg)
    return [GraphAut(tuple(v), tuple(e)) for v, e in zip(S_v.tolist(), S_e.tolist())]


def colour_clique(gg: GGraph, x: int) -> list[int]:
    """C_x: the vertex <s_i>x of every level."""
    if not 0 <= x < gg.group.order:
        raise PreconditionFailed("element out of range")
    return [gg.vertex_of(i, x) for i in range(gg.n_levels)]


def level_vertices(gg: GGraph, i: int) -> list[int]:
    lvl = gg.levels[i]
    return list(range(lvl.offset, lvl.offset + len(lvl.cosets)))


# ---------------------------------------------------------------------------
# structure verification


@dataclass
class ItemReport:
    number: int
    name: str
    ok: bool
    detail: str


@dataclass
class StructureReport:
    items: list[ItemReport]

    @property
    def all_ok(self) -> bool:
        return all(it.ok for it in self.items)

    def lines(self) -> list[str]:
        return [
            "item %d [%s] %s: %s"
            % (it.number, "PASS" if it.ok else "FAIL", it.name, it.detail)
            for it in self.items
        ]


def verify_structure(gg: GGraph) -> StructureReport:
    """Check the five structural properties every G-graph must satisfy."""
    grp = gg.group
    n = grp.order
    g = gg.graph
    S_v, S_e = _shift_arrays(gg)
    items = []

    # 1. shifts are automorphisms forming a group isomorphic to G
    aut_ok = map_defect(g, g, S_v, S_e) is None
    distinct = len({(S_v[x].tobytes(), S_e[x].tobytes()) for x in range(n)})
    # Both shift laws below are checked for a generating set only: an a that
    # satisfies a law for every b is closed under products, and every
    # element is a product of generators.
    gens = generating_set(grp.mul, grp.identity)
    comp_ok = True
    for a in gens:
        # delta_a . delta_b = delta_{ba}
        if not (S_v[a][S_v] == S_v[grp.mul[:, a]]).all() or not (
            S_e[a][S_e] == S_e[grp.mul[:, a]]
        ).all():
            comp_ok = False
            break
    ok1 = aut_ok and distinct == n and comp_ok
    items.append(
        ItemReport(
            1,
            "shift group",
            ok1,
            "automorphisms=%s distinct=%d/%d composition=%s"
            % (aut_ok, distinct, n, comp_ok),
        )
    )

    # 2. every level is stabilized setwise by every shift
    parts = np.array([v.part for v in g.vertices], dtype=np.int64)
    ok2 = bool((parts[S_v] == parts[None, :]).all())
    items.append(ItemReport(2, "levels stable", ok2, "checked all |G| shifts"))

    # 3. shifts permute colour cliques: delta_g'(C_g) = C_{g g'}
    C = np.empty((n, gg.n_levels), dtype=np.int64)
    for i, lvl in enumerate(gg.levels):
        C[:, i] = lvl.offset + lvl.membership.astype(np.int64)
    # the reduction to generators uses the composition law of item 1
    ok3 = comp_ok
    for gp in gens:
        if not (S_v[gp][C] == C[grp.mul[:, gp]]).all():
            ok3 = False
            break
    adjacent = g.multi_edges()
    clique_ok = all(
        (min(a, b), max(a, b)) in adjacent
        for row in C.tolist() for i, a in enumerate(row) for b in row[i + 1:]
    )
    ok3 = ok3 and clique_ok
    items.append(
        ItemReport(
            3, "colour cliques", ok3,
            "permutation law and cliqueness over all %d colours" % n,
        )
    )

    # 4. |G| edges between each pair of levels (and |G| loops per level),
    # and no others; keys are (level, level, is a loop)
    L = gg.n_levels
    want = Counter({(i, j, False): n for i in range(L) for j in range(i + 1, L)})
    if gg.with_loops:
        want.update({(i, i, True): n for i in range(L)})
    got = Counter(
        (*sorted((int(parts[e.u]), int(parts[e.v]))), e.u == e.v) for e in g.edges
    )
    expected = sum(want.values())
    ok4 = got == want
    items.append(
        ItemReport(
            4, "edge counts", ok4,
            "total %d (expected %d)" % (g.n_edges, expected),
        )
    )

    # 5. the label set of each multi-edge is a right coset of <s> inter <t>
    by_pair = g.multi_edges()
    ok5 = True
    bad = ""
    for (u, v), ids in by_pair.items():
        labels = gg.edge_glabel[ids].tolist()
        su = gg.levels[int(parts[u])].gen
        sv = gg.levels[int(parts[v])].gen
        inter = sorted(
            set(cyclic_subgroup(grp, su)) & set(cyclic_subgroup(grp, sv))
        )
        # labels must be exactly the coset intersection, which in turn must
        # be the right coset (<s> inter <t>) * min
        cosets_meet = sorted(
            set(gg.vertex_coset(u).elems) & set(gg.vertex_coset(v).elems)
        )
        expect = sorted(int(grp.mul[w, cosets_meet[0]]) for w in inter)
        if sorted(labels) != cosets_meet or cosets_meet != expect:
            ok5 = False
            bad = " first failure at multi-edge (%d,%d)" % (u, v)
            break
    items.append(
        ItemReport(
            5, "label cosets", ok5,
            "%d multi-edges checked%s" % (len(by_pair), bad),
        )
    )
    return StructureReport(items)


# ---------------------------------------------------------------------------
# components


@dataclass
class ComponentInfo:
    vertices: list[int]
    coset: tuple[int, ...]
    iso: IsoWitness | None


@dataclass
class ComponentReport:
    subgroup: tuple[int, ...]
    expected_count: int
    components: list[ComponentInfo]
    reference: GGraph

    @property
    def count(self) -> int:
        return len(self.components)

    @property
    def all_isomorphic(self) -> bool:
        return all(c.iso is not None for c in self.components)

    def cosets_partition(self, order: int) -> bool:
        """The component cosets must tile G."""
        seen: list[int] = []
        for c in self.components:
            seen.extend(c.coset)
        return sorted(seen) == list(range(order))


def component_analysis(gg: GGraph) -> ComponentReport:
    """Components are pairwise isomorphic copies of the G-graph of <S>, in
    bijection with the right cosets of <S>."""
    grp = gg.group
    sub_elems = generated_subgroup(grp, set(gg.gens))
    sub, pos = subgroup_group(grp, sub_elems, name="<S>")
    ref = _build(sub, [pos[s] for s in gg.gens], gg.with_loops)
    comps = connected_components(gg.graph)
    infos = []
    for comp in comps:
        sg, vmap, emap = induced_subgraph_with_maps(gg.graph, comp)
        if emap:
            labels = sorted(int(gg.edge_glabel[e]) for e in emap)
        else:
            # a single-vertex component IS its coset
            labels = sorted(gg.vertex_coset(comp[0]).elems)
        h = labels[0]
        expect = sorted(int(grp.mul[w, h]) for w in sub_elems)
        coset_ok = sorted(set(labels)) == expect
        w = isomorphic(sg, ref.graph)
        infos.append(
            ComponentInfo(
                vertices=comp,
                coset=tuple(expect) if coset_ok else (),
                iso=w,
            )
        )
    return ComponentReport(
        subgroup=sub_elems,
        expected_count=grp.order // len(sub_elems),
        components=infos,
        reference=ref,
    )


def replicate_components(gg: GGraph, k: int) -> GGraph:
    """Extend a connected G-graph to G x Z/kZ, yielding k isomorphic copies."""
    if k < 1:
        raise PreconditionFailed("k must be >= 1")
    if len(connected_components(gg.graph)) != 1:
        raise PreconditionFailed("replicate_components needs a connected input")
    big = direct_product(gg.group, cyclic_group(k))
    new_gens = [s * k for s in gg.gens]  # (s, 0) in the product encoding
    out = _build(big, new_gens, gg.with_loops)
    report = component_analysis(out)
    if report.count != k or not report.all_isomorphic:
        raise InternalAssertion("replication produced a wrong component set")
    if isomorphic(report.reference.graph, gg.graph) is None:
        raise InternalAssertion("replicated component differs from the input")
    return out


# ---------------------------------------------------------------------------
# complete multipartite realizations


def is_pairwise_product_closed(g: FiniteGroup, s: int, t: int) -> bool:
    """True iff every element of <s, t> factors as s^m t^n; equivalent to the
    level pair (V_s, V_t) inducing a complete bipartite multigraph."""
    prods = {
        int(g.mul[a, b])
        for a in cyclic_subgroup(g, s)
        for b in cyclic_subgroup(g, t)
    }
    return prods == set(generated_subgroup(g, [s, t]))


@dataclass
class KmnPlan:
    """Data realizing K^l_{m,n} as an abelian G-graph."""

    m: int
    n: int
    l: int
    split_i: tuple[int, ...]  # primes p with v_p(m) >= v_p(n)
    split_j: tuple[int, ...]
    l1: int
    l2: int
    d1: int
    d2: int
    group_spec: str
    s_coords: tuple[int, int]
    t_coords: tuple[int, int]

    def to_json(self) -> dict:
        return {
            "format": 1,
            "m": self.m,
            "n": self.n,
            "l": self.l,
            "I": list(self.split_i),
            "J": list(self.split_j),
            "l1": self.l1,
            "l2": self.l2,
            "d1": self.d1,
            "d2": self.d2,
            "group": self.group_spec,
            "s": list(self.s_coords),
            "t": list(self.t_coords),
        }


def kmn_plan(m: int, n: int, l: int) -> KmnPlan:
    """Split l's primes by valuation comparison and derive the realization."""
    if m < 1 or n < 1 or l < 1:
        raise PreconditionFailed("m, n, l must all be >= 1")
    fl = factorize(l)
    fm = factorize(m)
    fn = factorize(n)
    split_i = tuple(sorted(p for p in fl if fm.get(p, 0) >= fn.get(p, 0)))
    split_j = tuple(sorted(p for p in fl if p not in split_i))
    l1 = math.prod(p ** fl[p] for p in split_i)
    l2 = math.prod(p ** fl[p] for p in split_j)
    # d1 | n and d2 | m: for p in J we have v_p(m) < v_p(n), and conversely
    d1 = math.prod(p ** fm.get(p, 0) for p in split_j)
    d2 = math.prod(p ** fn.get(p, 0) for p in split_i)
    o1, o2 = m * l1, n * l2
    return KmnPlan(
        m=m,
        n=n,
        l=l,
        split_i=split_i,
        split_j=split_j,
        l1=l1,
        l2=l2,
        d1=d1,
        d2=d2,
        group_spec="Z%dxZ%d" % (o1, o2),
        s_coords=(1 % o1, (n // d1) % o2),
        t_coords=((m // d2) % o1, 1 % o2),
    )


def kmn_build(m: int, n: int, l: int):
    """Build K^l_{m,n} as a G-graph; returns (ggraph, plan).

    Every property the construction promises is asserted: generator orders
    m*l and n*l, intersection size l, level sizes (m, n), and the final
    complete-bipartite shape.
    """
    plan = kmn_plan(m, n, l)
    if m * n * l > 3000:
        raise PreconditionFailed("m*n*l too large to build a dense table")
    o1, o2 = m * plan.l1, n * plan.l2
    grp = direct_product(cyclic_group(o1), cyclic_group(o2))
    s = plan.s_coords[0] * o2 + plan.s_coords[1]
    t = plan.t_coords[0] * o2 + plan.t_coords[1]
    if element_order(grp, s) != m * l or element_order(grp, t) != n * l:
        raise InternalAssertion("kmn generator orders are wrong")
    inter = set(cyclic_subgroup(grp, s)) & set(cyclic_subgroup(grp, t))
    if len(inter) != l:
        raise InternalAssertion("kmn intersection size != l")
    if not is_pairwise_product_closed(grp, s, t):
        raise InternalAssertion("kmn levels are not product-closed")
    if set(generated_subgroup(grp, [s, t])) != set(grp.elements()):
        raise InternalAssertion("kmn generators do not generate")
    # level order [t, s] puts the m-sized level first
    gg = build_phi(grp, [t, s])
    if len(gg.levels[0].cosets) != m or len(gg.levels[1].cosets) != n:
        raise InternalAssertion("kmn level sizes are wrong")
    shape = is_complete_bipartite_multi(gg.graph)
    if shape != (m, n, l):
        raise InternalAssertion("kmn result is not K^%d_{%d,%d}: %r" % (l, m, n, shape))
    return gg, plan


# ---------------------------------------------------------------------------
# serialization


def export_ggraph_json(gg: GGraph) -> dict:
    """Multigraph JSON extended with levels and group labels; re-imports
    through the plain multigraph reader (extra keys are ignored there)."""
    data = {
        "format": 1,
        "group": gg.group.name,
        "with_loops": gg.with_loops,
        "levels": [
            {
                "gen": gg.group.elem_name(lvl.gen),
                "occurrence": lvl.occurrence,
                "cosets": [list(c.elems) for c in lvl.cosets],
            }
            for lvl in gg.levels
        ],
        "vertices": [
            {"id": v.id, "label": v.label, "part": v.part}
            for v in gg.graph.vertices
        ],
        "edges": [
            {
                "id": e.id,
                "u": e.u,
                "v": e.v,
                "label": e.label,
                "glabel": int(gg.edge_glabel[e.id]),
            }
            for e in gg.graph.edges
        ],
    }
    return data
