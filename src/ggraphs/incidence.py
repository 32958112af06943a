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

import math
import operator
from dataclasses import dataclass

import numpy as np

from .algebra import (
    FiniteGroup,
    _powers,
    cyclic_subgroup,
    element_order,
    generated_subgroup,
    generating_set,
)
from .errors import (
    InternalAssertion,
    PreconditionFailed,
    WitnessInvalid,
    resolve_budget,
)
from .ggraph import GGraph, colour_clique, level_vertices
from .multigraph import (
    GraphAut,
    IsoWitness,
    Multigraph,
    _first_map,
    _incidences,
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
    n, m = g.n_vertices, g.n_edges
    names = np.array(g.edge_labels, dtype=object)
    unnamed = np.flatnonzero(names == "")
    names[unnamed] = list(map("e{}".format, unnamed.tolist()))
    ig = Multigraph()
    ig.add_vertices(g.vertex_labels + names.tolist(), [0] * n + [1] * m)
    ends = g.ends()
    ig.add_edges(_incidences(ends) + [0, n])  # edge e's ends, each joined to vertex n + e
    loop = ends[:, 0] == ends[:, 1]
    wrong = np.flatnonzero(ig.degrees()[n:] != np.where(loop, 1, 2))
    if len(wrong):
        raise InternalAssertion("edge vertex %d has wrong degree" % wrong[0])
    return IncidenceGraph(ig, n, m, bool(loop.any()))


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
    # s-level vertex v is preimage vertex v - offset, the position of its
    # coset in the level
    member = gg.levels[s_level].membership
    reps = gg.levels[t_level].reps
    labels = gg.graph.vertex_labels
    pre = Multigraph()
    pre.add_vertices([labels[v] for v in sverts], [None] * len(sverts))
    pre.add_edges(
        np.column_stack((member[reps], member[grp.mul[t, reps]])), [labels[v] for v in tverts]
    )

    ig = incidence_graph(pre)
    vmap = np.zeros(gg.graph.n_vertices, dtype=np.int64)
    vmap[sverts] = np.arange(len(sverts))
    vmap[tverts] = ig.vertex_for_edge(np.arange(len(tverts)))
    emap = induced_edge_map(gg.graph, ig.graph, vmap)
    if emap is None:
        raise InternalAssertion("incidence image edge is not unique")
    iso = IsoWitness(tuple(vmap.tolist()), emap)
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
    """Whether f(xy) = f(x)f(y) for all x, y, checked on generators only:
    f(e) = e and f(xt) = f(x)f(t) for every x and each t of a generating
    set.  Every y is a product of generators (``generating_set``), and
    induction on its length gives the rest: f(xe) = f(x)f(e), and if
    f(xy) = f(x)f(y) for all x, then f(xyt) = f(xy)f(t) = f(x)f(y)f(t) =
    f(x)f(yt).  Conversely a homomorphism fixes e, as f(e) = f(e)f(e)."""
    mul, f = g.mul, np.asarray(f)
    if f[g.identity] != g.identity:
        return False
    gens = list(generating_set(mul))
    return bool((f[mul[:, gens]] == mul[np.ix_(f, f[gens])]).all())


def sufficient_bipartite_test(
    g: FiniteGroup, s: int, t: int
) -> IncidenceWitnessMap | None:
    """Search for an involutive endomorphism f with f(s) in <t>, f(t) in <s>.

    For a homomorphism with f(e) = e, the displacement conditions
    f(sx) in <t>f(x), f(tx) in <s>f(x) reduce to the generator conditions,
    so candidates are the pairs (f(s), f(t)) = (t^m, s^n) in (m, n) order.
    For such a homomorphism f.f sends s to s^(mn) and t to t^(mn), so it is
    an involution exactly when mn = 1 (mod L), L = lcm(o(s), o(t)).  Each m
    prime to L has one such n below L, n = m^-1 (mod L), and it is a
    candidate when n < o(s); no other n for that m can give an involution.
    That one n is extended over G by word evaluation and kept only when the
    extension is consistent, which makes it a homomorphism, and involutive,
    which is checked again on s and t.
    Finding a witness proves that I(Phi(G, {s,t})) is a G-graph; absence
    proves nothing.
    """
    if generated_subgroup(g, [s, t]) != tuple(range(g.order)):
        raise PreconditionFailed("s and t do not generate the group")
    s_powers, t_powers = _powers(g, s), _powers(g, t)
    L = math.lcm(len(s_powers), len(t_powers))
    for m, fs in enumerate(t_powers):
        if math.gcd(m, L) != 1 or (n := pow(m, -1, L)) >= len(s_powers):
            continue
        f = _extend_by_words(g, s, t, fs, s_powers[n])
        if f is not None and f[f[s]] == s and f[f[t]] == t:
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


def necessary_bipartite_witness(
    gg: GGraph, budget: int | None = None
) -> IncidenceWitnessMap | None:
    """Search for the f forced by the theorem when I(gg) is a G-graph.

    Searches, by individualise and refine, for the lex-first involutive
    level-swapping vertex bijection tau that preserves multiplicities and
    swaps the end-points of the multi-edge containing the label e; a node
    is one individualised pair, the seed pair included.  Any such tau
    extends to a graph automorphism (the edge action pairs multi-edges
    ascending, identity on self-paired ones), and reading f off the edge
    labels then satisfies f(e) = e, involutivity, and both displacement
    conditions, which are re-verified exhaustively.  Returning None
    certifies that I(gg) is not a G-graph.
    """
    if gg.with_loops or len(gg.gens) != 2:
        raise PreconditionFailed("need a loop-free G-graph over two occurrences")
    if len(connected_components(gg.graph)) != 1:
        raise PreconditionFailed("G-graph is not connected")
    budget = resolve_budget(budget)
    grp = gg.group
    graph = gg.graph
    if len(level_vertices(gg, 0)) != len(level_vertices(gg, 1)):
        return None
    u0, u1 = colour_clique(gg, grp.identity)

    # the first copy of the graph colours each vertex by its level and the
    # second by the other level, so every colour-preserving map swaps the
    # levels; the seed pairs the identity-coset vertices so that f will fix
    # the label e.
    n = graph.n_vertices
    level = gg.level_of
    colors = level + [1 - c for c in level]
    colors[u0] = colors[n + u1] = 2
    colors[u1] = colors[n + u0] = 3
    vmap = _first_map(graph, graph, colors, involution=True, budget=budget)
    if vmap is None:
        return None

    emap = induced_edge_map(graph, graph, vmap)
    if emap is None or map_defect(graph, graph, [vmap], [emap]) is not None:
        raise InternalAssertion("matched map is not an automorphism")
    tau = GraphAut(tuple(vmap), emap)
    if not tau.compose(tau).is_identity():
        raise InternalAssertion("matched automorphism is not an involution")

    # edge x is labelled x: block (0, 1) of a two-level Phi (_block_labels)
    f = gg.edge_glabel[list(emap[: grp.order])]

    if f[grp.identity] != grp.identity:
        raise InternalAssertion("f does not fix the identity")
    if (f[f] != np.arange(grp.order)).any():
        raise InternalAssertion("f is not involutive")
    # f(gen x) f(x)^-1 lies in the other generator's subgroup for every x
    for name, gen, other in (("s", *gg.gens), ("t", *gg.gens[::-1])):
        fails = ~np.isin(grp.mul[f[grp.mul[gen]], grp.inv[f]], cyclic_subgroup(grp, other))
        if fails.any():
            raise InternalAssertion("%s-displacement fails at %d" % (name, fails.argmax()))
    return IncidenceWitnessMap(
        f=tuple(f.tolist()),
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
    try:  # a float or any other non-integer entry is refused, not truncated
        f = [operator.index(y) for y in w.f]
    except TypeError:
        f = None
    if f is None or sorted(f) != list(range(gg.group.order)):
        raise WitnessInvalid("f is not a permutation of the group")
    # level i's vertex <s_i>x goes to the other level's <s_j>f(x)
    f = np.asarray(f)
    vmap = np.concatenate([
        other.offset + other.membership[f[lvl.reps]]
        for lvl, other in zip(gg.levels, gg.levels[::-1])
    ])
    # edge x is labelled x: block (0, 1) of a two-level Phi (_block_labels)
    emap = f[gg.edge_glabel]
    if map_defect(gg.graph, gg.graph, vmap[None], emap[None]) is not None:
        raise WitnessInvalid("witness map does not induce an automorphism")
    return GraphAut(tuple(vmap.tolist()), tuple(emap.tolist()))
