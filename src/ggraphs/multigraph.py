"""Finite undirected multigraphs with loops, labels, and optional part tags.

Vertex ids and edge ids are dense (0..n-1 / 0..m-1) in construction order;
every deterministic tie-break in the package leans on that.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass

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
    mult = Counter()
    for e in g.edges:
        key = (e.u, e.v) if e.u <= e.v else (e.v, e.u)
        mult[key] += 1
    sa, sb = set(a), set(b)
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


def induced_subgraph(g: Multigraph, vertex_set) -> Multigraph:
    sub, _, _ = induced_subgraph_with_maps(g, vertex_set)
    return sub


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


@dataclass(frozen=True)
class IsoWitness:
    """Maps are g1 id -> g2 id."""

    vertex_map: tuple[int, ...]
    edge_map: tuple[int, ...]


def verify_iso_witness(
    g1: Multigraph,
    g2: Multigraph,
    w: IsoWitness,
    *,
    strict_labels: bool = False,
    respect_parts: bool = True,
) -> bool:
    """Independent validation of an isomorphism witness."""
    n, m = g1.n_vertices, g1.n_edges
    if g2.n_vertices != n or g2.n_edges != m:
        return False
    if sorted(w.vertex_map) != list(range(n)) or sorted(w.edge_map) != list(range(m)):
        return False
    use_parts = respect_parts and g1.fully_part_tagged() and g2.fully_part_tagged()
    if use_parts and any(
        g1.vertices[v].part != g2.vertices[w.vertex_map[v]].part for v in range(n)
    ):
        return False
    for e in g1.edges:
        f = g2.edges[w.edge_map[e.id]]
        if {w.vertex_map[e.u], w.vertex_map[e.v]} != {f.u, f.v}:
            return False
        if strict_labels and e.label != f.label:
            return False
    return True


def _pair_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


def _initial_colors(g: Multigraph, use_parts: bool, strict: bool):
    mult = Counter()
    for e in g.edges:
        mult[_pair_key(e.u, e.v)] += 1
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
) -> IsoWitness | None:
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
        def pair_labels(g):
            d = {}
            for e in g.edges:
                d.setdefault(_pair_key(e.u, e.v), []).append(e.label)
            return {k: sorted(v) for k, v in d.items()}

        lab1, lab2 = pair_labels(g1), pair_labels(g2)

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
    w = IsoWitness(tuple(fwd), tuple(emap))
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
        except json.JSONDecodeError as exc:
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
        except (TypeError, ValueError):
            raise ParseError("edge ends must be vertex ids") from None
        g.add_edge(u, v, str(it.get("label", "")))
    return g


def _json_int(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
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
