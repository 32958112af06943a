"""Incidence (Levi) graphs and the bipartite incidence tests.

Covers the construction of I(Gamma), the canonical injection of Aut(Gamma)
into the part-stabilizing automorphisms of I(Gamma), the preimage
construction for simple bipartite G-graphs with an order-2 generator, and
both directions of the bipartite incidence theorem.  The two directions are
deliberately separate operations: the sufficient test looks for an
involutive homomorphism witness, while the necessary test searches for a
level-swapping graph automorphism and certifies an obstruction when none
exists.  Absence of a witness in one direction never decides the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    FiniteGroup,
    cyclic_subgroup,
    element_order,
    generated_subgroup,
    power,
)
from .errors import (
    BudgetExceeded,
    InternalAssertion,
    PreconditionFailed,
    WitnessInvalid,
)
from ._tauengine import resolve_budget
from .ggraph import GGraph, level_vertices
from .multigraph import (
    GraphAut,
    IsoWitness,
    Multigraph,
    connected_components,
    induced_edge_map,
    map_defect,
    verify_iso_witness,
)


@dataclass
class IncidenceGraph:
    """I(Gamma): part 0 = original vertices, part 1 = original edges.

    Vertex k < n_source_vertices corresponds to source vertex k, and vertex
    n_source_vertices + j to source edge j.  A source loop contributes a
    single incidence edge and marks the result as outside the scope of the
    incidence theorems.
    """

    graph: Multigraph
    n_source_vertices: int
    n_source_edges: int
    outside_theorems: bool

    def vertex_for_edge(self, k: int) -> int:
        return self.n_source_vertices + k


def incidence_graph(g: Multigraph) -> IncidenceGraph:
    ig = Multigraph()
    for v in g.vertices:
        ig.add_vertex(v.label, part=0)
    for e in g.edges:
        ig.add_vertex(e.label if e.label else "e%d" % e.id, part=1)
    n = g.n_vertices
    has_loop = False
    for e in g.edges:
        ig.add_edge(e.u, n + e.id)
        if e.v != e.u:
            ig.add_edge(e.v, n + e.id)
        else:
            has_loop = True
    out = IncidenceGraph(ig, n, g.n_edges, has_loop)
    for e in g.edges:
        want = 1 if e.u == e.v else 2
        if ig.degree(n + e.id) != want:
            raise InternalAssertion("edge vertex %d has wrong degree" % e.id)
    return out


def lift_automorphism(
    g: Multigraph, f: GraphAut, ig: IncidenceGraph | None = None
) -> GraphAut:
    """The canonical lift of f to I(g), acting as f on part 0 and f# on part 1."""
    reason = map_defect(g, g, [f.vertex_map], [f.edge_map])
    if reason is not None:
        raise WitnessInvalid("not an automorphism of the source graph: " + reason)
    if ig is None:
        ig = incidence_graph(g)
    n = ig.n_source_vertices
    vmap = tuple(f.vertex_map) + tuple(n + x for x in f.edge_map)
    emap = induced_edge_map(ig.graph, ig.graph, vmap)
    if emap is None:
        raise InternalAssertion("incidence image edge is not unique")
    if map_defect(ig.graph, ig.graph, [vmap], [emap]) is not None:
        raise InternalAssertion("lifted map failed automorphism verification")
    return GraphAut(vmap, emap)


# ---------------------------------------------------------------------------
# preimage of a simple bipartite G-graph with an order-2 generator


@dataclass
class PreimageResult:
    preimage: Multigraph
    incidence: IncidenceGraph
    iso: IsoWitness  # source G-graph -> incidence.graph


def incidence_preimage(gg: GGraph) -> PreimageResult:
    """Rebuild Gamma' with gg = I(Gamma'), for simple gg over {s,t}, o(t)=2.

    Vertices of Gamma' are the s-level cosets; each t-level coset <t>x
    becomes the edge {<s>x, <s>tx}.  Either generator may play the role of
    t; the second occurrence is preferred when both have order 2.
    """
    if gg.with_loops or len(gg.gens) != 2:
        raise PreconditionFailed("need a loop-free G-graph over two occurrences")
    if not gg.is_simple():
        raise PreconditionFailed("G-graph is not simple")
    orders = [element_order(gg.group, s) for s in gg.gens]
    if orders[1] == 2:
        t_level = 1
    elif orders[0] == 2:
        t_level = 0
    else:
        raise PreconditionFailed("neither generator has order 2")
    s_level = 1 - t_level
    grp = gg.group
    t = gg.gens[t_level]

    sverts = level_vertices(gg, s_level)
    tverts = level_vertices(gg, t_level)
    pos = {v: i for i, v in enumerate(sverts)}
    pre = Multigraph()
    for v in sverts:
        pre.add_vertex(gg.graph.vertices[v].label)
    for v in tverts:
        r = gg.vertex_coset(v).rep
        a = pos[gg.vertex_of(s_level, r)]
        b = pos[gg.vertex_of(s_level, int(grp.mul[t, r]))]
        pre.add_edge(a, b, gg.graph.vertices[v].label)

    ig = incidence_graph(pre)
    vmap = [0] * gg.graph.n_vertices
    for v in sverts:
        vmap[v] = pos[v]
    for k, v in enumerate(tverts):
        vmap[v] = ig.vertex_for_edge(k)
    emap = induced_edge_map(gg.graph, ig.graph, vmap)
    if emap is None:
        raise InternalAssertion("incidence image edge is not unique")
    iso = IsoWitness(tuple(vmap), emap)
    if not verify_iso_witness(gg.graph, ig.graph, iso, respect_parts=False):
        raise InternalAssertion("preimage isomorphism failed verification")
    return PreimageResult(pre, ig, iso)


# ---------------------------------------------------------------------------
# the two directions of the bipartite incidence theorem


@dataclass
class IncidenceWitnessMap:
    """An element map f on <s,t> with its verified properties."""

    f: tuple[int, ...]
    involutive: bool
    fixes_identity: bool
    is_homomorphism: bool
    m: int | None = None
    n: int | None = None
    tau: GraphAut | None = None

    def to_json(self) -> dict:
        return {
            "f": list(self.f),
            "involutive": self.involutive,
            "homomorphism": self.is_homomorphism,
        }


def _is_homomorphism(g: FiniteGroup, f) -> bool:
    mul = g.mul
    return bool((np.asarray(f)[mul] == mul[np.ix_(f, f)]).all())


def sufficient_bipartite_test(
    g: FiniteGroup, s: int, t: int
) -> IncidenceWitnessMap | None:
    """Search for an involutive endomorphism f with f(s) in <t>, f(t) in <s>.

    For a homomorphism with f(e) = e, the displacement conditions
    f(sx) in <t>f(x), f(tx) in <s>f(x) reduce to the generator conditions,
    so candidates are the pairs (f(s), f(t)) = (t^m, s^n) in (m, n) order;
    each is extended over G by word evaluation and kept only when the
    extension is consistent, which makes it a homomorphism, and involutive.
    Finding a witness proves that I(Phi(G, {s,t})) is a G-graph; absence
    proves nothing.
    """
    if generated_subgroup(g, [s, t]) != tuple(range(g.order)):
        raise PreconditionFailed("s and t do not generate the group")
    for m in range(element_order(g, t)):
        fs = power(g, t, m)
        for n in range(element_order(g, s)):
            ft = power(g, s, n)
            f = _extend_by_words(g, s, t, fs, ft)
            if f is None:
                continue
            if any(f[f[x]] != x for x in range(g.order)):
                continue
            return IncidenceWitnessMap(
                f=tuple(f),
                involutive=True,
                fixes_identity=True,
                is_homomorphism=True,
                m=m,
                n=n,
            )
    return None


def _extend_by_words(g: FiniteGroup, s: int, t: int, fs: int, ft: int):
    """Spread f over G from generator images; None on any inconsistency.

    A returned f satisfies f(gx) = f(g)f(x) for g in {s, t} and every x.
    Every element is a word in s and t, so by induction on word length f is
    a homomorphism of G.
    """
    mul = g.mul
    f = [-1] * g.order
    f[g.identity] = g.identity
    queue = [g.identity]
    while queue:
        x = queue.pop()
        for gen, img in ((s, fs), (t, ft)):
            y = int(mul[gen, x])
            cand = int(mul[img, f[x]])
            if f[y] < 0:
                f[y] = cand
                queue.append(y)
            elif f[y] != cand:
                return None
    if min(f) < 0:
        return None
    return f


DEFAULT_NECESSARY_BUDGET = 10_000_000


def necessary_bipartite_witness(
    gg: GGraph, budget: int | None = None
) -> IncidenceWitnessMap | None:
    """Search for the f forced by the theorem when I(gg) is a G-graph.

    Backtracks over involutive level-swapping vertex bijections tau that
    preserve multiplicities and swap the end-points of the multi-edge
    containing the label e.  Any such tau extends to a graph automorphism
    (the edge action pairs multi-edges ascending, identity on self-paired
    ones), and reading f off the edge labels then satisfies f(e) = e,
    involutivity, and both displacement conditions, which are re-verified
    exhaustively.  Returning None certifies that I(gg) is not a G-graph.
    """
    if gg.with_loops or len(gg.gens) != 2:
        raise PreconditionFailed("need a loop-free G-graph over two occurrences")
    if len(connected_components(gg.graph)) != 1:
        raise PreconditionFailed("G-graph is not connected")
    budget = resolve_budget(budget, DEFAULT_NECESSARY_BUDGET)
    grp = gg.group
    graph = gg.graph
    V0, V1 = level_vertices(gg, 0), level_vertices(gg, 1)
    if len(V0) != len(V1):
        return None
    k = len(V0)
    u0 = gg.vertex_of(0, grp.identity)
    u1 = gg.vertex_of(1, grp.identity)

    # tau restricted to level 0 determines the involution; the seed pairs
    # the identity-coset vertices so that f will fix the label e.
    partner: dict[int, int] = {}
    nodes = 0

    def compatible(a: int, b: int) -> bool:
        for a2, b2 in partner.items():
            if graph.multiplicity(a, b2) != graph.multiplicity(b, a2):
                return False
        return True

    def search(i: int):
        nonlocal nodes
        if i == k:
            return dict(partner)
        a = V0[i]
        if a == u0:
            choices = [u1] if u1 not in partner.values() else []
        else:
            choices = [b for b in V1 if b != u1 and b not in partner.values()]
        for b in choices:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(
                    "automorphism search exceeded %d nodes" % budget,
                    nodes=nodes,
                )
            if graph.multiplicity(a, b) != graph.multiplicity(b, a):
                continue
            if not compatible(a, b):
                continue
            partner[a] = b
            found = search(i + 1)
            if found is not None:
                return found
            del partner[a]
        return None

    match = search(0)
    if match is None:
        return None

    vmap = list(range(graph.n_vertices))
    for a, b in match.items():
        vmap[a], vmap[b] = b, a
    emap = induced_edge_map(graph, graph, vmap)
    if emap is None or map_defect(graph, graph, [vmap], [emap]) is not None:
        raise InternalAssertion("matched map is not an automorphism")
    tau = GraphAut(tuple(vmap), emap)
    if not tau.compose(tau).is_identity():
        raise InternalAssertion("matched automorphism is not an involution")

    edge_of = [-1] * grp.order
    for e in graph.edges:
        x = int(gg.edge_glabel[e.id])
        if edge_of[x] >= 0:
            raise InternalAssertion("edge labels are not unique")
        edge_of[x] = e.id
    f = [int(gg.edge_glabel[emap[edge_of[x]]]) for x in range(grp.order)]

    if f[grp.identity] != grp.identity:
        raise InternalAssertion("f does not fix the identity")
    if any(f[f[x]] != x for x in range(grp.order)):
        raise InternalAssertion("f is not involutive")
    s, t = gg.gens
    in_t = set(cyclic_subgroup(grp, t))
    in_s = set(cyclic_subgroup(grp, s))
    mul, inv = grp.mul, grp.inv
    for x in range(grp.order):
        if int(mul[f[mul[s, x]], inv[f[x]]]) not in in_t:
            raise InternalAssertion("s-displacement fails at %d" % x)
        if int(mul[f[mul[t, x]], inv[f[x]]]) not in in_s:
            raise InternalAssertion("t-displacement fails at %d" % x)
    return IncidenceWitnessMap(
        f=tuple(f),
        involutive=True,
        fixes_identity=True,
        is_homomorphism=_is_homomorphism(grp, f),
        tau=tau,
    )


def witness_automorphism(gg: GGraph, w: IncidenceWitnessMap) -> GraphAut:
    """The level-swapping automorphism <s>x -> <t>f(x), <t>x -> <s>f(x).

    Well-defined whenever f comes from either incidence test; used to hand
    the sufficient witness to the recognition machinery on I(gg).
    """
    if len(gg.gens) != 2 or gg.with_loops:
        raise PreconditionFailed("need a loop-free G-graph over two occurrences")
    f = w.f
    if sorted(f) != list(range(gg.group.order)):
        raise WitnessInvalid("f is not a permutation of the group")
    vmap = [0] * gg.graph.n_vertices
    for v in level_vertices(gg, 0):
        vmap[v] = gg.vertex_of(1, f[gg.vertex_coset(v).rep])
    for v in level_vertices(gg, 1):
        vmap[v] = gg.vertex_of(0, f[gg.vertex_coset(v).rep])
    edge_of = {}
    for e in gg.graph.edges:
        edge_of[int(gg.edge_glabel[e.id])] = e.id
    emap = [edge_of[f[int(gg.edge_glabel[e.id])]] for e in gg.graph.edges]
    out = GraphAut(tuple(vmap), tuple(emap))
    if map_defect(gg.graph, gg.graph, [vmap], [emap]) is not None:
        raise WitnessInvalid("witness map does not induce an automorphism")
    return out
