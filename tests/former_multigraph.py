"""The object-based multigraph layer that the array-based one replaced, kept
as the reference that tests/test_multigraph_arrays.py compares it against:
one Vertex and one Edge object per element, adj() as lists of tuples and
multi_edges() as a dict of lists, each built edge by edge.  Copied from
ggraphs.multigraph as it was before the change, with the relative imports
made absolute and GraphAut taken from ggraphs.multigraph (unchanged).
Also here: incidence.incidence_graph and ikn._audit_graph as they read
those objects.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from ggraphs.errors import BudgetExceeded, CapExceeded, InternalAssertion, ParseError, _index, _json_int
from ggraphs.incidence import IncidenceGraph
from ggraphs.multigraph import GraphAut

ISO_SIZE_CAP = 2000


@dataclass(slots=True)
class Vertex:
    id: int
    label: str = ""
    part: int | None = None


@dataclass(slots=True)
class Edge:
    id: int
    u: int
    v: int
    label: str = ""


class Multigraph:
    """Mutable while building; treat as frozen once handed to algorithms."""

    def __init__(self):
        self.vertices: list[Vertex] = []
        self.edges: list[Edge] = []
        self._adj = None
        self._multi = None

    # -- construction -----------------------------------------------------

    def add_vertex(self, label: str = "", part: int | None = None) -> int:
        vid = len(self.vertices)
        self.vertices.append(Vertex(vid, label, part))
        self._adj = self._multi = None
        return vid

    def add_edge(self, u: int, v: int, label: str = "") -> int:
        n = len(self.vertices)
        u, v = _index(u, "edge endpoint", n), _index(v, "edge endpoint", n)
        eid = len(self.edges)
        self.edges.append(Edge(eid, u, v, label))
        self._adj = self._multi = None
        return eid

    # -- views ------------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def adj(self) -> list[list[tuple[int, int]]]:
        """Per vertex: (edge id, other endpoint); a loop appears once."""
        if self._adj is None:
            out = [[] for _ in self.vertices]
            for e in self.edges:
                out[e.u].append((e.id, e.v))
                if e.v != e.u:
                    out[e.v].append((e.id, e.u))
            self._adj = out
        return self._adj

    def degree(self, v: int) -> int:
        d = 0
        for eid, w in self.adj()[v]:
            d += 2 if w == v else 1
        return d

    def loops_at(self, v: int) -> list[int]:
        return self.edges_between(v, v)

    def multiplicity(self, u: int, v: int) -> int:
        return len(self.multi_edges().get(_pair_key(u, v), ()))

    def edges_between(self, u: int, v: int) -> list[int]:
        """Edge ids of the multi-edge (u, v), ascending, as a new list."""
        return list(self.multi_edges().get(_pair_key(u, v), ()))

    def multi_edges(self) -> dict[tuple[int, int], list[int]]:
        """Edge ids of each multi-edge, ascending, keyed by its end pair
        (smaller end first).  The dict is built once and kept until the next
        add_vertex or add_edge; it is shared, so callers must not change it
        or its lists."""
        if self._multi is None:
            out: dict = {}
            for e in self.edges:
                out.setdefault(_pair_key(e.u, e.v), []).append(e.id)
            self._multi = out
        return self._multi

    def first_multiple_edge(self) -> tuple[int, int] | None:
        """The end pair of the first multi-edge with more than one edge, or
        None when every multi-edge has one."""
        return next((uv for uv, ids in self.multi_edges().items() if len(ids) > 1), None)

    def has_loops(self) -> bool:
        return any(e.u == e.v for e in self.edges)

    def fully_part_tagged(self) -> bool:
        return all(v.part is not None for v in self.vertices)


# ---------------------------------------------------------------------------
# basic structure


def connected_components(g: Multigraph) -> list[list[int]]:
    """Vertex sets of components, each sorted, ordered by minimal vertex."""
    seen = [False] * g.n_vertices
    comps = []
    for start in range(g.n_vertices):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for _, w in g.adj()[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_bipartite(g: Multigraph):
    """(True, coloring) with component roots colored 0, else (False, None)."""
    color = [-1] * g.n_vertices
    for start in range(g.n_vertices):
        if color[start] >= 0:
            continue
        color[start] = 0
        q = deque([start])
        while q:
            v = q.popleft()
            for _, w in g.adj()[v]:
                if w == v:
                    return False, None  # loop
                if color[w] < 0:
                    color[w] = 1 - color[v]
                    q.append(w)
                elif color[w] == color[v]:
                    return False, None
    return True, color


def is_complete_bipartite_multi(g: Multigraph):
    """(m, n, l) if g is K_{m,n} with uniform multiplicity l, else None.

    With full part tags the classes are the tags and (m, n) follows tag
    order; otherwise the bipartition is derived and (m, n) is sorted.
    Decided on the multi-edge index: m·n multi-edges, none inside a class
    (a loop is one), so every pair across is one, and all of one
    multiplicity.
    """
    tagged = g.fully_part_tagged()
    if tagged:
        tags = [v.part for v in g.vertices]
    else:
        ok, tags = is_bipartite(g)
        if not ok:
            return None
    classes = sorted(set(tags))
    if len(classes) != 2:
        return None
    first = [c == classes[0] for c in tags]
    m = sum(first)
    n = len(first) - m
    multi = g.multi_edges()
    ls = {len(ids) for ids in multi.values()}
    if len(multi) != m * n or len(ls) != 1 or any(first[u] == first[v] for u, v in multi):
        return None
    if not tagged:
        m, n = min(m, n), max(m, n)
    return m, n, ls.pop()


def induced_subgraph_with_maps(g: Multigraph, vertex_set):
    """(subgraph, vertex id map old->new, edge id map old->new)."""
    keep = sorted({_index(v, "vertex", g.n_vertices) for v in vertex_set})
    sub = Multigraph()
    vmap = {}
    for v in keep:
        vmap[v] = sub.add_vertex(g.vertices[v].label, g.vertices[v].part)
    emap = {}
    for e in g.edges:
        if e.u in vmap and e.v in vmap:
            emap[e.id] = sub.add_edge(vmap[e.u], vmap[e.v], e.label)
    return sub, vmap, emap


# ---------------------------------------------------------------------------
# isomorphism


def _map_rows(maps, width: int) -> tuple[np.ndarray, np.ndarray]:
    """k maps as a (k, width) int32 array, and which of them fit it: a map
    of another length, or with an entry that is no int32, does not, and its
    row is left as -1s.  An array of width columns passes through."""
    if isinstance(maps, np.ndarray) and maps.shape[1:] == (width,):
        return maps, np.ones(len(maps), dtype=bool)
    try:
        rows = np.array(maps, dtype=np.int32)
        if rows.shape == (len(maps), width):
            return rows, np.ones(len(maps), dtype=bool)
    except (OverflowError, TypeError, ValueError):
        pass  # some row is malformed: convert row by row
    rows = np.full((len(maps), width), -1, dtype=np.int32)
    fits = np.zeros(len(maps), dtype=bool)
    for i, row in enumerate(maps):
        if len(row) == width:
            try:
                rows[i] = row
                fits[i] = True
            except (OverflowError, TypeError, ValueError):
                pass
    return rows, fits


def _permutation_rows(maps, width: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The k maps as _map_rows gives them, and which of them are
    permutations of 0..n-1.  A map's validity is read from its length, so a
    map of the wrong length is none even at width 0, where its row is
    empty."""
    rows, fits = _map_rows(maps, width)
    if width != n:
        return rows, np.zeros(len(rows), dtype=bool)
    return rows, fits & (np.sort(rows, axis=1) == np.arange(n)).all(axis=1)


def map_defect(g1: Multigraph, g2: Multigraph, vertex_maps, edge_maps) -> str | None:
    """None when every pair (vertex_maps[i], edge_maps[i]) is an isomorphism
    g1 -> g2, else the reason the first pair that is not fails.

    The maps are k rows each, as sequences or as (k, n) arrays.  A pair is
    an isomorphism when both rows are bijections and every edge's image
    joins the images of its ends; a reason of the second kind names the
    first edge whose image does not.
    """
    V, v_ok = _permutation_rows(vertex_maps, g1.n_vertices, g2.n_vertices)
    E, e_ok = _permutation_rows(edge_maps, g1.n_edges, g2.n_edges)
    bad = np.flatnonzero(~(v_ok & e_ok))
    k = int(bad[0]) if len(bad) else len(V)
    # end-points only for the pairs before the first that is no bijection
    ends1, ends2 = (
        np.array([(e.u, e.v) for e in g.edges], dtype=np.int32).reshape(-1, 2)
        for g in (g1, g2)
    )
    a, b = V[:k, ends1[:, 0]], V[:k, ends1[:, 1]]
    c, d = ends2[E[:k], 0], ends2[E[:k], 1]
    joined = ((a == c) & (b == d)) | ((a == d) & (b == c))
    broken = np.flatnonzero(~joined.all(axis=1))
    if len(broken):
        i = int(broken[0])
        e = int(np.argmin(joined[i]))
        return "edge %d maps to edge %d with mismatched endpoints" % (e, int(E[i, e]))
    if k == len(V):
        return None
    if not v_ok[k]:
        return "vertex map is not a permutation of the vertices"
    return "edge map is not a permutation of the edges"


def verify_iso_witness(
    g1: Multigraph,
    g2: Multigraph,
    w: GraphAut,
    *,
    respect_parts: bool = True,
) -> bool:
    """Independent validation of an isomorphism witness."""
    if map_defect(g1, g2, [w.vertex_map], [w.edge_map]) is not None:
        return False
    use_parts = respect_parts and g1.fully_part_tagged() and g2.fully_part_tagged()
    return not use_parts or all(
        v.part == g2.vertices[w.vertex_map[v.id]].part for v in g1.vertices
    )


def induced_edge_map(g1: Multigraph, g2: Multigraph, vmap) -> tuple[int, ...] | None:
    """The edge map that the vertex map vmap (g1 -> g2) induces: the k-th
    edge of each multi-edge, in ascending id order, goes to the k-th edge of
    its image.  None when a multi-edge and its image differ in multiplicity."""
    emap = [0] * g1.n_edges
    images = g2.multi_edges()
    for (a, b), ids in g1.multi_edges().items():
        img = images.get(_pair_key(vmap[a], vmap[b]), [])
        if len(img) != len(ids):
            return None
        for x, y in zip(ids, img):
            emap[x] = y
    return tuple(emap)


def _pair_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


def _refine(c, nb):
    """Colour refinement rounds on a colouring c of the disjoint union of two
    graphs of n vertices each, the first graph's colours then the second's,
    until no class splits; None when the two halves' colour histograms
    differ.  A vertex's next colour is its colour with the sorted (colour,
    multiplicity) pairs of its neighbours, renumbered, so the colours
    returned are 0..k-1 for k classes."""
    n = len(c) // 2
    while True:
        size = Counter(c[:n])
        if size != Counter(c[n:]):
            return None
        new = [(x, tuple(sorted([(c[w], m) for w, m in row]))) for x, row in zip(c, nb)]
        table = {k: i for i, k in enumerate(sorted(set(new)))}
        refined = [table[k] for k in new]
        if len(table) == len(size):  # no class split: the same partition
            return refined
        c = refined


def _first_map(g1, g2, colors, *, involution=False, budget=None):
    """The lex-first colour-preserving isomorphism g1 -> g2 as a vertex list,
    or None, by individualise and refine (McKay & Piperno, "Practical Graph
    Isomorphism, II", J. Symbolic Comput. 60, 2014).

    One colouring covers the disjoint union of g1 and g2, with vertex w of
    g2 at index n + w.  The search branches on the smallest vertex v of g1
    whose colour class is not a single vertex per graph and tries the
    vertices w of g2 in that class in ascending order: v and w get one
    fresh colour and the colouring is refined.  A histogram mismatch kills
    the branch; a colouring whose classes are single vertices is the
    answer.  Refinement drops only maps that no answer has, so the answer
    is the lex-first one.  With involution=True (g1 is g2, and the two
    halves of the colouring correspond under an involution of the colours)
    (w -> v) is individualised along with (v -> w); the refined colouring
    keeps that correspondence, so every map found is an involution.  Every
    colouring refined is a node, the caller's own included; more than
    budget nodes raise BudgetExceeded.
    """
    n = g1.n_vertices
    nb = [[] for _ in range(2 * n)]  # (other end, multiplicity) per non-loop multi-edge
    for at, g in ((0, g1), (n, g2)):
        for (a, b), ids in g.multi_edges().items():
            if a != b:
                nb[at + a].append((at + b, len(ids)))
                nb[at + b].append((at + a, len(ids)))
    nodes = 0
    frames = []  # per depth: (colours, branch vertex, candidates left)
    todo = colors
    while True:
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceeded("automorphism search exceeded %d nodes" % budget, nodes=nodes)
        c = _refine(todo, nb)
        if c is not None:
            size = Counter(c[:n])
            v = next((x for x in range(n) if size[c[x]] > 1), None)
            if v is None:
                at = {c[n + w]: w for w in range(n)}
                return [at[x] for x in c[:n]]
            frames.append((c, v, iter([w for w in range(n) if c[n + w] == c[v]])))
        while frames and (w := next(frames[-1][2], None)) is None:
            frames.pop()
        if not frames:
            return None
        c, v, _ = frames[-1]
        # refined colours are below 2n, so 2n and 2n + 1 are fresh
        todo = list(c)
        todo[v] = todo[n + w] = 2 * n
        if involution:
            todo[w] = todo[n + v] = 2 * n + 1


def isomorphic(g1: Multigraph, g2: Multigraph) -> GraphAut | None:
    """Isomorphism by colour refinement and individualisation.

    Part tags participate only when both graphs are fully tagged. The
    witness is the lex-first vertex map, so it is deterministic, with the
    edge map that induced_edge_map gives it.  Raises CapExceeded when the
    two graphs have more than ISO_SIZE_CAP vertices together.

    A refined discrete colouring preserves parts, loops and multiplicities,
    so the map found is an isomorphism; when its check says otherwise, that
    is a bug, and it raises InternalAssertion rather than answer "no".
    """
    if g1.n_vertices + g2.n_vertices > ISO_SIZE_CAP:
        raise CapExceeded(
            "combined vertex count %d exceeds cap %d"
            % (g1.n_vertices + g2.n_vertices, ISO_SIZE_CAP)
        )
    if g1.n_vertices != g2.n_vertices or g1.n_edges != g2.n_edges:
        return None
    use_parts = g1.fully_part_tagged() and g2.fully_part_tagged()
    # refinement derives degrees and neighbour multiplicities, not parts or loops
    seeds = [
        (v.part if use_parts else 0, g.multiplicity(v.id, v.id))
        for g in (g1, g2)
        for v in g.vertices
    ]
    table = {k: i for i, k in enumerate(dict.fromkeys(seeds))}
    fwd = _first_map(g1, g2, [table[k] for k in seeds])
    if fwd is None:
        return None
    emap = induced_edge_map(g1, g2, fwd)
    w = None if emap is None else GraphAut(tuple(fwd), emap)
    if w is None or not verify_iso_witness(g1, g2, w):
        raise InternalAssertion("the refined map is not an isomorphism")
    return w


# ---------------------------------------------------------------------------
# serialization


def export_json(g: Multigraph) -> dict:
    return {
        "format": 1,
        "vertices": [
            {"id": v.id, "label": v.label, "part": v.part} for v in g.vertices
        ],
        "edges": [
            {"id": e.id, "u": e.u, "v": e.v, "label": e.label} for e in g.edges
        ],
    }


def import_json(data) -> Multigraph:
    """Accepts a dict or a JSON string; unknown keys are ignored, arbitrary
    distinct integer ids are remapped to dense ids in sorted order."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except ValueError as exc:  # JSONDecodeError, or an over-long integer
            raise ParseError("bad JSON: %s" % exc) from None
    if not isinstance(data, dict):
        raise ParseError("graph JSON must be an object")
    vspecs, especs = data.get("vertices"), data.get("edges", [])
    if not isinstance(vspecs, (list, tuple)):
        raise ParseError("graph JSON needs a 'vertices' array")
    if not isinstance(especs, (list, tuple)):
        raise ParseError("graph JSON 'edges' must be an array")
    g = Multigraph()
    ids = []
    for it in vspecs:
        if not isinstance(it, dict) or "id" not in it:
            raise ParseError("vertex entries need an 'id'")
        ids.append(_json_int(it["id"], "vertex id"))
    if len(set(ids)) != len(ids):
        raise ParseError("duplicate vertex ids")
    remap = {old: new for new, old in enumerate(sorted(ids))}
    for _, it in sorted(zip(ids, vspecs), key=lambda pair: pair[0]):
        part = it.get("part")
        g.add_vertex(
            str(it.get("label", "")),
            None if part is None else _json_int(part, "vertex part"),
        )
    if not all(isinstance(it, dict) for it in especs):
        raise ParseError("edge entries must be objects")
    especs = sorted(especs, key=lambda it: _json_int(it.get("id", 0), "edge id"))
    eids = [_json_int(it.get("id", i), "edge id") for i, it in enumerate(especs)]
    if len(set(eids)) != len(eids):
        raise ParseError("duplicate edge ids")
    for it in especs:
        if "u" not in it or "v" not in it:
            raise ParseError("edge entries need 'u' and 'v'")
        try:
            u = remap[_json_int(it["u"], "edge end")]
            v = remap[_json_int(it["v"], "edge end")]
        except KeyError:
            raise ParseError("edge references unknown vertex") from None
        g.add_edge(u, v, str(it.get("label", "")))
    return g


def export_dot(g: Multigraph) -> str:
    """graph { u -- v [label="x"]; } with one line per edge, plus bare id
    lines for isolated vertices so they survive the round trip."""
    lines = ["graph {"]
    for v in range(g.n_vertices):
        if not g.adj()[v]:
            lines.append("  %d;" % v)
    for e in g.edges:
        if e.label:
            lines.append('  %d -- %d [label="%s"];' % (e.u, e.v, e.label))
        else:
            lines.append("  %d -- %d;" % (e.u, e.v))
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# readers of the objects in other layers


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


def _audit_graph(n: int, gg):
    """Items 2-5 of the audit that a two-level G-graph is I(K_n): every edge
    joins the two levels, the first level has n vertices of degree n-1, the
    second n(n-1)/2 vertices of degree 2, and the neighbour pairs of the
    second level are distinct, so they enumerate every 2-subset of the
    first (equivalently: the graph is simple with no 4-cycle)."""
    from ggraphs.ggraph import ItemReport, level_vertices

    expected = n * (n - 1)
    part0 = level_vertices(gg, 0)
    part1 = level_vertices(gg, 1)
    level = gg.level_of
    # an end beyond the layout lies on neither level
    crossing = all(max(e.u, e.v) < len(level) and level[e.u] != level[e.v]
                   for e in gg.graph.edges)
    items = [ItemReport(2, "edges join the two levels", crossing, "")]
    deg0 = [gg.graph.degree(v) for v in part0]
    items.append(
        ItemReport(
            3,
            "sigma level: n vertices of degree n-1",
            len(part0) == n and all(d == n - 1 for d in deg0),
            "%d vertices, degrees %s" % (len(part0), sorted(set(deg0))),
        )
    )
    deg1 = [gg.graph.degree(v) for v in part1]
    items.append(
        ItemReport(
            4,
            "tau level: n(n-1)/2 vertices of degree 2",
            len(part1) == expected // 2 and all(d == 2 for d in deg1),
            "%d vertices, degrees %s" % (len(part1), sorted(set(deg1))),
        )
    )
    adj = gg.graph.adj()
    pairs = [frozenset(w for _, w in adj[v]) for v in part1]  # ends, not (edge id, end) pairs
    bijection = all(len(p) == 2 for p in pairs) and len(set(pairs)) == (
        n * (n - 1) // 2
    )
    items.append(
        ItemReport(
            5,
            "degree-2 vertices enumerate all 2-subsets of the sigma level",
            bijection,
            "%d distinct neighbour pairs" % len(set(pairs)),
        )
    )
    return items
