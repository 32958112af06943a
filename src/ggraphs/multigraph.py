"""Finite undirected multigraphs with loops, labels, and optional part tags.

Vertex ids and edge ids are dense (0..n-1 / 0..m-1) in construction order;
every deterministic tie-break in the package leans on that.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, ParseError, PreconditionFailed

ISO_SIZE_CAP = 2000


@dataclass
class Vertex:
    id: int
    label: str = ""
    part: int | None = None


@dataclass
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

    # -- construction -----------------------------------------------------

    def add_vertex(self, label: str = "", part: int | None = None) -> int:
        vid = len(self.vertices)
        self.vertices.append(Vertex(vid, label, part))
        self._adj = None
        return vid

    def add_edge(self, u: int, v: int, label: str = "") -> int:
        n = len(self.vertices)
        if not (0 <= u < n and 0 <= v < n):
            raise PreconditionFailed("edge endpoint out of range")
        eid = len(self.edges)
        self.edges.append(Edge(eid, u, v, label))
        self._adj = None
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
        return [eid for eid, w in self.adj()[v] if w == v]

    def multiplicity(self, u: int, v: int) -> int:
        if u == v:
            return len(self.loops_at(u))
        return sum(1 for _, w in self.adj()[u] if w == v)

    def edges_between(self, u: int, v: int) -> list[int]:
        """Edge ids of the multi-edge (u, v), ascending."""
        if u == v:
            return self.loops_at(u)
        return sorted(eid for eid, w in self.adj()[u] if w == v)

    def multi_edges(self) -> dict[tuple[int, int], list[int]]:
        """Edge ids of each multi-edge, ascending, keyed by its end pair
        (smaller end first)."""
        out: dict = {}
        for e in self.edges:
            out.setdefault(_pair_key(e.u, e.v), []).append(e.id)
        return out

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
    """
    if g.n_vertices == 0 or g.has_loops():
        return None
    if g.fully_part_tagged():
        parts = sorted({v.part for v in g.vertices})
        if len(parts) != 2:
            return None
        a = [v.id for v in g.vertices if v.part == parts[0]]
        b = [v.id for v in g.vertices if v.part == parts[1]]
    else:
        ok, color = is_bipartite(g)
        if not ok:
            return None
        a = [v for v in range(g.n_vertices) if color[v] == 0]
        b = [v for v in range(g.n_vertices) if color[v] == 1]
    if not a or not b:
        return None
    mult = {key: len(ids) for key, ids in g.multi_edges().items()}
    sa = set(a)
    ls = set()
    for u in a:
        for v in b:
            key = (u, v) if u <= v else (v, u)
            ls.add(mult.get(key, 0))
    # any within-class edge breaks it
    for e in g.edges:
        if (e.u in sa) == (e.v in sa):
            return None
    if len(ls) != 1:
        return None
    l = ls.pop()
    if l < 1:
        return None
    m, n = len(a), len(b)
    if not g.fully_part_tagged():
        m, n = min(m, n), max(m, n)
    return m, n, l


def induced_subgraph_with_maps(g: Multigraph, vertex_set):
    """(subgraph, vertex id map old->new, edge id map old->new)."""
    keep = sorted(set(int(v) for v in vertex_set))
    if keep and not (0 <= keep[0] and keep[-1] < g.n_vertices):
        raise PreconditionFailed("vertex set out of range")
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


@dataclass(frozen=True, order=True)
class GraphAut:
    """A (vertex map, edge map) pair, g1 id -> g2 id: an isomorphism witness,
    or an automorphism when g1 = g2.

    For multigraphs the vertex map alone does not determine the edge map,
    so both are carried explicitly.  Composition is right-to-left:
    (a.compose(b))(x) = a(b(x)).
    """

    vertex_map: tuple[int, ...]
    edge_map: tuple[int, ...]

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.vertex_map)) and all(
            i == x for i, x in enumerate(self.edge_map)
        )

    def compose(self, other: "GraphAut") -> "GraphAut":
        return GraphAut(
            tuple(self.vertex_map[x] for x in other.vertex_map),
            tuple(self.edge_map[x] for x in other.edge_map),
        )

    def inverse(self) -> "GraphAut":
        vm = [0] * len(self.vertex_map)
        em = [0] * len(self.edge_map)
        for i, x in enumerate(self.vertex_map):
            vm[x] = i
        for i, x in enumerate(self.edge_map):
            em[x] = i
        return GraphAut(tuple(vm), tuple(em))


IsoWitness = GraphAut


def _map_rows(maps, width: int) -> np.ndarray:
    """k maps as a (k, width) int32 array; an array passes through.  A map of
    another length, or with an entry that is no int32, becomes a row of -1s,
    which is no permutation."""
    if isinstance(maps, np.ndarray) and maps.shape[1:] == (width,):
        return maps
    rows = np.full((len(maps), width), -1, dtype=np.int32)
    for i, row in enumerate(maps):
        if len(row) == width:
            try:
                rows[i] = row
            except (OverflowError, TypeError, ValueError):
                pass
    return rows


def _permutation_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Which rows of a (k, width) array are permutations of 0..n-1."""
    if rows.shape[1] != n:
        return np.zeros(len(rows), dtype=bool)
    return (np.sort(rows, axis=1) == np.arange(n)).all(axis=1)


def map_defect(g1: Multigraph, g2: Multigraph, vertex_maps, edge_maps) -> str | None:
    """None when every pair (vertex_maps[i], edge_maps[i]) is an isomorphism
    g1 -> g2, else the reason the first pair that is not fails.

    The maps are k rows each, as sequences or as (k, n) arrays.  A pair is
    an isomorphism when both rows are bijections and every edge's image
    joins the images of its ends; a reason of the second kind names the
    first edge whose image does not.
    """
    V = _map_rows(vertex_maps, g1.n_vertices)
    E = _map_rows(edge_maps, g1.n_edges)
    v_ok = _permutation_rows(V, g2.n_vertices)
    e_ok = _permutation_rows(E, g2.n_edges)
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
    strict_labels: bool = False,
    respect_parts: bool = True,
) -> bool:
    """Independent validation of an isomorphism witness."""
    if map_defect(g1, g2, [w.vertex_map], [w.edge_map]) is not None:
        return False
    use_parts = respect_parts and g1.fully_part_tagged() and g2.fully_part_tagged()
    if use_parts and any(
        v.part != g2.vertices[w.vertex_map[v.id]].part for v in g1.vertices
    ):
        return False
    return not strict_labels or all(
        e.label == g2.edges[w.edge_map[e.id]].label for e in g1.edges
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


def _initial_colors(g: Multigraph, use_parts: bool, strict: bool):
    mult = {key: len(ids) for key, ids in g.multi_edges().items()}
    keys = []
    for v in range(g.n_vertices):
        nonloop = sorted(
            m for (a, b), m in mult.items() if a != b and v in (a, b)
        )
        key = (
            g.vertices[v].part if use_parts else 0,
            g.degree(v),
            len(g.loops_at(v)),
            tuple(nonloop),
        )
        if strict:
            key = key + (
                tuple(sorted(e.label for e in g.edges if v in (e.u, e.v))),
            )
        keys.append(key)
    return keys, mult


def _refine(colors1, colors2, g1, g2, mult1, mult2):
    """Color refinement rounds; returns None on histogram mismatch."""
    def neighbors(g, mult):
        out = [[] for _ in range(g.n_vertices)]
        for (a, b), m in mult.items():
            if a != b:
                out[a].append((b, m))
                out[b].append((a, m))
        return out

    nb1, nb2 = neighbors(g1, mult1), neighbors(g2, mult2)
    c1, c2 = list(colors1), list(colors2)
    while True:
        if Counter(c1) != Counter(c2):
            return None
        new1 = [
            (c1[v], tuple(sorted((c1[w], m) for w, m in nb1[v])))
            for v in range(g1.n_vertices)
        ]
        new2 = [
            (c2[v], tuple(sorted((c2[w], m) for w, m in nb2[v])))
            for v in range(g2.n_vertices)
        ]
        # canonical renumbering shared across both graphs
        table = {k: i for i, k in enumerate(sorted(set(new1) | set(new2)))}
        r1 = [table[k] for k in new1]
        r2 = [table[k] for k in new2]
        if r1 == c1 and r2 == c2:
            return c1, c2
        c1, c2 = r1, r2


def isomorphic(
    g1: Multigraph,
    g2: Multigraph,
    *,
    strict_labels: bool = False,
    cap: int = ISO_SIZE_CAP,
) -> GraphAut | None:
    """Backtracking isomorphism with color refinement.

    Part tags participate only when both graphs are fully tagged. Candidate
    vertices are tried in ascending id order, so the returned witness is
    deterministic.
    """
    if g1.n_vertices + g2.n_vertices > cap:
        raise CapExceeded(
            "combined vertex count %d exceeds cap %d"
            % (g1.n_vertices + g2.n_vertices, cap)
        )
    if g1.n_vertices != g2.n_vertices or g1.n_edges != g2.n_edges:
        return None
    use_parts = g1.fully_part_tagged() and g2.fully_part_tagged()
    k1, mult1 = _initial_colors(g1, use_parts, strict_labels)
    k2, mult2 = _initial_colors(g2, use_parts, strict_labels)
    table = {k: i for i, k in enumerate(sorted(set(k1) | set(k2)))}
    refined = _refine([table[k] for k in k1], [table[k] for k in k2],
                      g1, g2, mult1, mult2)
    if refined is None:
        return None
    c1, c2 = refined

    if strict_labels:
        lab1, lab2 = (
            {k: sorted(g.edges[i].label for i in ids) for k, ids in g.multi_edges().items()}
            for g in (g1, g2)
        )

    n = g1.n_vertices
    fwd = [-1] * n  # g1 -> g2
    used = [False] * n
    order = list(range(n))  # ascending id assignment order

    def feasible(v, w):
        if c1[v] != c2[w]:
            return False
        for u in order:
            fu = fwd[u]
            if fu < 0 or u == v:
                continue
            if mult1.get(_pair_key(v, u), 0) != mult2.get(_pair_key(w, fu), 0):
                return False
            if strict_labels and lab1.get(_pair_key(v, u), []) != lab2.get(
                _pair_key(w, fu), []
            ):
                return False
        return True

    def search(i):
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if not used[w] and feasible(v, w):
                fwd[v] = w
                used[w] = True
                if search(i + 1):
                    return True
                fwd[v] = -1
                used[w] = False
        return False

    if not search(0):
        return None

    # pair off edges inside each multi-edge; labels align under strict mode
    emap = [-1] * g1.n_edges
    for (a, b) in mult1:
        e1 = g1.edges_between(a, b)
        e2 = g2.edges_between(fwd[a], fwd[b])
        if strict_labels:
            e1 = sorted(e1, key=lambda i: (g1.edges[i].label, i))
            e2 = sorted(e2, key=lambda i: (g2.edges[i].label, i))
        for x, y in zip(e1, e2):
            emap[x] = y
    w = GraphAut(tuple(fwd), tuple(emap))
    if not verify_iso_witness(g1, g2, w, strict_labels=strict_labels):
        return None
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
    try:
        vspecs = list(data["vertices"])
        especs = list(data.get("edges", []))
    except (KeyError, TypeError):
        raise ParseError("graph JSON needs a 'vertices' array") from None
    g = Multigraph()
    ids = []
    for it in vspecs:
        if not isinstance(it, dict) or "id" not in it:
            raise ParseError("vertex entries need an 'id'")
        ids.append(_json_int(it["id"], "vertex id"))
    if len(set(ids)) != len(ids):
        raise ParseError("duplicate vertex ids")
    remap = {old: new for new, old in enumerate(sorted(ids))}
    for it in sorted(vspecs, key=lambda it: int(it["id"])):
        part = it.get("part")
        g.add_vertex(
            str(it.get("label", "")),
            None if part is None else _json_int(part, "vertex part"),
        )
    if not all(isinstance(it, dict) for it in especs):
        raise ParseError("edge entries must be objects")
    especs = sorted(especs, key=lambda it: _json_int(it.get("id", 0), "edge id"))
    eids = [int(it.get("id", i)) for i, it in enumerate(especs)]
    if len(set(eids)) != len(eids):
        raise ParseError("duplicate edge ids")
    for it in especs:
        try:
            u, v = remap[int(it["u"])], remap[int(it["v"])]
        except KeyError:
            raise ParseError("edge references unknown vertex") from None
        except (TypeError, ValueError, OverflowError):
            raise ParseError("edge ends must be vertex ids") from None
        g.add_edge(u, v, str(it.get("label", "")))
    return g


def _json_int(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: int(inf)
        raise ParseError("%s must be an integer, got %r" % (what, value)) from None


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
