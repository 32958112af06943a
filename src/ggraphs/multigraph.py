"""Finite undirected multigraphs with loops, labels, and optional part tags.

Vertex ids and edge ids are dense (0..n-1 / 0..m-1) in construction order;
every deterministic tie-break in the package leans on that.

A graph keeps columns, not one object per vertex or edge: the edge ends as
two int32 arrays (each edge's u, each edge's v), and the vertex labels,
part tags and edge labels as lists.  ``g.vertices`` and ``g.edges`` are
read-only sequences that build a record only when one is read.  The
adjacency (``adj``) and the multi-edge index (``multi_edges``) are arrays,
built on first use and kept until the graph changes.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter, deque, namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count, pairwise

import numpy as np

from .errors import (BudgetExceeded, CapExceeded, InternalAssertion, ParseError,
                     PreconditionFailed, _index, _json_int)

ISO_SIZE_CAP = 2000

# rows of a (k, n) map array compared at a time, so that no temporary is
# k by n; ggraph fills and compares its shift arrays in strips of as many
_BLOCK = 64

VertexRecord = namedtuple("VertexRecord", "id label part")
EdgeRecord = namedtuple("EdgeRecord", "id u v label")


class _Records(Sequence):
    """A read-only sequence of records over columns of equal length: record
    k is make(k, *(column[k] for column in columns)), built when read."""

    __slots__ = ("_make", "_columns")

    def __init__(self, make, *columns):
        self._make, self._columns = make, columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        k = range(len(self))[i]
        return self._make(k, *(column[k] for column in self._columns))

    def __iter__(self):
        return map(self._make, count(), *self._columns)


class _Groups:
    """Rows in groups: group i is rows[offsets[i]:offsets[i + 1]], and
    groups[i] is that slice."""

    __slots__ = ("offsets", "rows")

    def __init__(self, offsets: np.ndarray, rows: np.ndarray):
        self.offsets, self.rows = offsets, rows

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i) -> np.ndarray:
        return self.rows[self.offsets[i] : self.offsets[i + 1]]


def _pair_keys(u, v) -> np.ndarray:
    """The key of each end pair: its smaller end times 2^32 plus its larger
    end, as int64, so that keys sort as the pairs do."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    return (np.minimum(u, v) << 32) + np.maximum(u, v)


def _incidences(ends: np.ndarray) -> np.ndarray:
    """One (end, edge id) row per end of each edge, u then v, by edge id; a
    loop's end once."""
    keep = np.ones(2 * len(ends), dtype=bool)
    keep[1::2] = ends[:, 0] != ends[:, 1]
    return np.column_stack((ends.ravel(), np.arange(2 * len(ends)) >> 1))[keep]


class MultiEdges(_Groups):
    """The multi-edge index, one stable sort of the edges by end pair: group
    i holds the edge ids of multi-edge i, ascending, and keys[i] is its end
    pair (u, v), u <= v, as _pair_keys gives it; keys ascend."""

    __slots__ = ("keys",)

    def __init__(self, keys: np.ndarray, offsets: np.ndarray, ids: np.ndarray):
        super().__init__(offsets, ids)
        self.keys = keys

    def pairs(self) -> np.ndarray:
        """One (u, v) row per multi-edge."""
        return np.column_stack(np.divmod(self.keys, 1 << 32))

    def find(self, u, v) -> np.ndarray:
        """The position of multi-edge (u, v), for ints or int arrays u and
        v; -1 where there is none."""
        key = _pair_keys(u, v)
        if not len(self.keys):
            return np.full(key.shape, -1)
        at = np.minimum(np.searchsorted(self.keys, key), len(self.keys) - 1)
        return np.where(self.keys[at] == key, at, -1)

    def items(self):
        """((u, v), edge ids) for each multi-edge, in the order of their
        first edges."""
        pairs = self.pairs().tolist()
        for i in np.argsort(self.rows[self.offsets[:-1]]).tolist():
            yield tuple(pairs[i]), self[i]


class Multigraph:
    """Mutable while building; treat as frozen once handed to algorithms.

    vertex_labels and parts (one entry per vertex) and edge_labels (one per
    edge) are the graph's own lists: read them, but change the graph only
    through the add_ methods.  ends() gives the edge ends."""

    def __init__(self):
        self.vertex_labels: list[str] = []
        self.parts: list[int | None] = []
        self.edge_labels: list[str] = []
        self._u, self._v = array("i"), array("i")  # the ends of each edge
        self._adj = self._multi = None

    # -- construction -----------------------------------------------------

    def add_vertex(self, label: str = "", part: int | None = None) -> int:
        self.add_vertices([label], [part])
        return self.n_vertices - 1

    def add_vertices(self, labels, parts) -> None:
        """One vertex per label, with the part tag at the same position."""
        if len(labels) != len(parts):
            raise PreconditionFailed(
                "%d vertex labels but %d part tags" % (len(labels), len(parts))
            )
        self.vertex_labels.extend(labels)
        self.parts.extend(parts)
        self._adj = self._multi = None

    def add_edge(self, u: int, v: int, label: str = "") -> int:
        n = self.n_vertices
        u, v = _index(u, "edge endpoint", n), _index(v, "edge endpoint", n)
        self._u.append(u)
        self._v.append(v)
        self.edge_labels.append(label)
        self._adj = self._multi = None
        return self.n_edges - 1

    def add_edges(self, ends, labels=None) -> None:
        """One edge per row (u, v) of ends, an integer array of shape (k, 2),
        labelled by the k strings of labels, or "" when labels is None.
        Every end is checked as add_edge checks it, before any is added."""
        ends = np.asarray(ends)
        if ends.dtype.kind not in "iu" or ends.ndim != 2 or ends.shape[1] != 2:
            raise PreconditionFailed("edge ends must be integer (u, v) rows")
        bad = ends[(ends < 0) | (ends >= self.n_vertices)]
        if len(bad):
            _index(int(bad[0]), "edge endpoint", self.n_vertices)
        labels = [""] * len(ends) if labels is None else labels
        if len(labels) != len(ends):
            raise PreconditionFailed("%d edges but %d labels" % (len(ends), len(labels)))
        self._u.frombytes(ends[:, 0].astype(np.int32).tobytes())
        self._v.frombytes(ends[:, 1].astype(np.int32).tobytes())
        self.edge_labels.extend(labels)
        self._adj = self._multi = None

    # -- views ------------------------------------------------------------

    @property
    def vertices(self) -> Sequence[VertexRecord]:
        return _Records(VertexRecord, self.vertex_labels, self.parts)

    @property
    def edges(self) -> Sequence[EdgeRecord]:
        return _Records(EdgeRecord, self._u, self._v, self.edge_labels)

    @property
    def n_vertices(self) -> int:
        return len(self.parts)

    @property
    def n_edges(self) -> int:
        return len(self.edge_labels)

    def ends(self) -> np.ndarray:
        """The edge ends as a new (n_edges, 2) int32 array: row e is (u, v)."""
        return np.column_stack([np.frombuffer(x, dtype=np.int32) for x in (self._u, self._v)])

    def adj(self) -> _Groups:
        """Per vertex: one (edge id, other end) row per edge at it, by
        ascending edge id; a loop appears once.  Built once and kept until
        the next add_; it is shared, so callers must not change it."""
        if self._adj is None:
            ends = self.ends()
            at, eid = _incidences(ends).T
            order = np.argsort(at, kind="stable")
            rows = np.column_stack((eid, ends[eid].sum(axis=1) - at))[order].astype(np.int32)
            offsets = np.searchsorted(at[order], np.arange(self.n_vertices + 1)).astype(np.int32)
            self._adj = _Groups(offsets, rows)
        return self._adj

    def degrees(self) -> np.ndarray:
        """Per vertex: its degree, a loop counted twice."""
        return np.bincount(self.ends().ravel(), minlength=self.n_vertices)

    def degree(self, v: int) -> int:
        rows = self.adj()[v]  # a loop is one row, and counts twice
        return len(rows) + int((rows[:, 1] == v).sum())

    def loops_at(self, v: int) -> list[int]:
        return self.edges_between(v, v)

    def multiplicity(self, u: int, v: int) -> int:
        return len(self.edges_between(u, v))

    def edges_between(self, u: int, v: int) -> list[int]:
        """Edge ids of the multi-edge (u, v), ascending, as a new list."""
        index = self.multi_edges()
        i = int(index.find(u, v))
        return [] if i < 0 else index[i].tolist()

    def multi_edges(self) -> MultiEdges:
        """The multi-edge index, built once and kept until the next add_; it
        is shared, so callers must not change it."""
        if self._multi is None:
            ends = self.ends()
            keys = _pair_keys(ends[:, 0], ends[:, 1])
            ids = np.argsort(keys, kind="stable").astype(np.int32)
            keys = keys[ids]
            first = np.flatnonzero(np.diff(keys, prepend=-1))
            offsets = np.append(first, len(keys)).astype(np.int32)
            self._multi = MultiEdges(keys[first], offsets, ids)
        return self._multi

    def first_multiple_edge(self) -> tuple[int, int] | None:
        """The end pair of the first multi-edge (by its first edge) with
        more than one edge, or None when every multi-edge has one."""
        index = self.multi_edges()
        many = np.flatnonzero(np.diff(index.offsets) > 1)
        if not len(many):
            return None
        return divmod(int(index.keys[many[index.rows[index.offsets[many]].argmin()]]), 1 << 32)

    def has_loops(self) -> bool:
        return bool((np.frombuffer(self._u, np.int32) == np.frombuffer(self._v, np.int32)).any())

    def fully_part_tagged(self) -> bool:
        return None not in self.parts


# ---------------------------------------------------------------------------
# basic structure


def _search(g: Multigraph) -> tuple[list[int], list[int]]:
    """Per vertex, by a breadth-first search from the smallest vertex of
    each component: that vertex, and the parity of the distance from it."""
    adj = g.adj()
    other = adj.rows[:, 1].tolist()
    nb = [other[a:b] for a, b in pairwise(adj.offsets.tolist())]
    root, parity = [-1] * g.n_vertices, [0] * g.n_vertices
    for start in range(g.n_vertices):
        if root[start] >= 0:
            continue
        root[start] = start
        q = deque([start])
        while q:
            v = q.popleft()
            for w in nb[v]:
                if root[w] < 0:
                    root[w], parity[w] = start, 1 - parity[v]
                    q.append(w)
    return root, parity


def connected_components(g: Multigraph) -> list[list[int]]:
    """Vertex sets of components, each sorted, ordered by minimal vertex."""
    comps: dict[int, list[int]] = {}
    for v, r in enumerate(_search(g)[0]):
        comps.setdefault(r, []).append(v)
    return list(comps.values())


def is_bipartite(g: Multigraph):
    """(True, coloring) with component roots colored 0, else (False, None):
    color each vertex by the parity of its distance from the root, and look
    for an edge (a loop is one) whose ends have one color."""
    color = _search(g)[1]
    ends = np.array(color, dtype=np.int8)[g.ends()]
    return (False, None) if (ends[:, 0] == ends[:, 1]).any() else (True, color)


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
        tags = g.parts
    else:
        ok, tags = is_bipartite(g)
        if not ok:
            return None
    classes = sorted(set(tags))
    if len(classes) != 2:
        return None
    first = np.array([c == classes[0] for c in tags])
    m = int(first.sum())
    n = len(first) - m
    index = g.multi_edges()
    ls = np.diff(index.offsets)
    inside = first[index.pairs()]
    if len(index) != m * n or (ls != ls[0]).any() or (inside[:, 0] == inside[:, 1]).any():
        return None
    if not tagged:
        m, n = min(m, n), max(m, n)
    return m, n, int(ls[0])


def induced_subgraph_with_maps(g: Multigraph, vertex_set):
    """(subgraph, vertex id map old->new, edge id map old->new)."""
    keep = sorted({_index(v, "vertex", g.n_vertices) for v in vertex_set})
    new = np.full(g.n_vertices, -1)
    new[keep] = np.arange(len(keep))
    ends = new[g.ends()]
    inside = np.flatnonzero((ends >= 0).all(axis=1))
    sub = Multigraph()
    sub.add_vertices([g.vertex_labels[v] for v in keep], [g.parts[v] for v in keep])
    sub.add_edges(ends[inside], np.array(g.edge_labels, dtype=object)[inside].tolist())
    return sub, dict(zip(keep, range(len(keep)))), dict(zip(inside.tolist(), range(len(inside))))


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


IsoWitness = GraphAut


class GraphAutRows(Sequence):
    """A read-only sequence of GraphAut held as one int32 array: row i is
    element i as one permutation of V and E taken together, its vertex map
    followed by its edge map offset by n_vertices.  Indexing gives a
    GraphAut, slicing gives a GraphAutRows, and + gives a list."""

    __slots__ = ("rows", "n_vertices")

    def __init__(self, rows: np.ndarray, n_vertices: int):
        self.rows = rows.view()
        self.rows.flags.writeable = False
        self.n_vertices = n_vertices

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return GraphAutRows(self.rows[i], self.n_vertices)
        return self._aut(self.rows[i].tolist())

    def __iter__(self):
        return map(self._aut, self.rows.tolist())

    def _aut(self, row: list) -> GraphAut:
        nv = self.n_vertices
        return GraphAut(tuple(row[:nv]), tuple(x - nv for x in row[nv:]))

    def __add__(self, other) -> list:
        return list(self) + list(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, GraphAutRows)):
            return NotImplemented
        return list(self) == list(other)


def _row_order(rows: np.ndarray) -> np.ndarray:
    """The stable order that sorts the rows of a non-negative int array as
    tuples compare: each row's big-endian int32 bytes compare as one
    string."""
    if rows.shape[1] == 0:
        return np.arange(len(rows))
    keys = np.ascontiguousarray(rows, dtype=">i4").view(np.dtype((np.void, 4 * rows.shape[1])))
    return np.argsort(keys.ravel(), kind="stable")


def _repeats(sorted_rows: np.ndarray) -> np.ndarray:
    """Which rows of a sorted array equal the row before them."""
    out = np.zeros(len(sorted_rows), dtype=bool)
    out[1:] = (sorted_rows[1:] == sorted_rows[:-1]).all(axis=1)
    return out


def _map_rows(maps, width: int) -> tuple[np.ndarray, np.ndarray]:
    """k maps as a (k, width) int32 array, and which of them fit it: a map
    of another length, or with an entry that is no int32, does not, and its
    row is left as -1s.  An array of width columns passes through; other
    maps are converted row by row (converting the whole list at once is
    no faster)."""
    if isinstance(maps, np.ndarray) and maps.shape[1:] == (width,):
        return maps, np.ones(len(maps), dtype=bool)
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
    first edge whose image does not.  The ends are compared _BLOCK pairs at
    a time, in order.
    """
    V, v_ok = _permutation_rows(vertex_maps, g1.n_vertices, g2.n_vertices)
    E, e_ok = _permutation_rows(edge_maps, g1.n_edges, g2.n_edges)
    bad = np.flatnonzero(~(v_ok & e_ok))
    k = int(bad[0]) if len(bad) else len(V)
    # end-points only for the pairs before the first that is no bijection
    (u1, v1), ends2 = g1.ends().T, g2.ends()
    for r0 in range(0, k, _BLOCK):
        Vb, Eb = V[r0 : min(r0 + _BLOCK, k)], E[r0 : min(r0 + _BLOCK, k)]
        a, b = Vb[:, u1], Vb[:, v1]
        c, d = ends2[Eb, 0], ends2[Eb, 1]
        joined = ((a == c) & (b == d)) | ((a == d) & (b == c))
        broken = np.flatnonzero(~joined.all(axis=1))
        if len(broken):
            i = int(broken[0])
            e = int(np.argmin(joined[i]))
            return "edge %d maps to edge %d with mismatched endpoints" % (e, int(Eb[i, e]))
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
    return not use_parts or list(map(g2.parts.__getitem__, w.vertex_map)) == g1.parts


def induced_edge_map(g1: Multigraph, g2: Multigraph, vmap) -> tuple[int, ...] | None:
    """The edge map that the vertex map vmap (g1 -> g2) induces: the k-th
    edge of each multi-edge, in ascending id order, goes to the k-th edge of
    its image.  None when a multi-edge and its image differ in multiplicity."""
    one, two = g1.multi_edges(), g2.multi_edges()
    ends = np.asarray(vmap, dtype=np.int64)[one.pairs()]
    img = two.find(ends[:, 0], ends[:, 1])
    k = np.diff(one.offsets)
    if (img < 0).any() or (np.diff(two.offsets)[img] != k).any():
        return None
    # edge j of multi-edge i is rows[offsets[i] + j] in either index
    rank = np.arange(len(one.rows)) - np.repeat(one.offsets[:-1], k)
    emap = np.empty(g1.n_edges, dtype=np.int64)
    emap[one.rows] = two.rows[np.repeat(two.offsets[img], k) + rank]
    return tuple(emap.tolist())


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
    # per vertex of the union: (other end, multiplicity) per non-loop multi-edge
    index = [g.multi_edges() for g in (g1, g2)]
    ends = np.concatenate([index[0].pairs(), index[1].pairs() + n])
    mult = np.concatenate([np.diff(x.offsets) for x in index])
    apart = ends[:, 0] != ends[:, 1]
    (src, dst), mult = np.concatenate((ends[apart], ends[apart, ::-1])).T, np.tile(mult[apart], 2)
    order = np.argsort(src, kind="stable")
    rows = list(zip(dst[order].tolist(), mult[order].tolist()))
    cuts = np.searchsorted(src[order], np.arange(2 * n + 1)).tolist()
    nb = [rows[lo:hi] for lo, hi in pairwise(cuts)]
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
    seeds = []
    for g in (g1, g2):
        ends = g.ends()
        loops = np.bincount(ends[ends[:, 0] == ends[:, 1], 0], minlength=g.n_vertices)
        seeds += zip(g.parts if use_parts else [0] * g.n_vertices, loops.tolist())
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
        "vertices": [v._asdict() for v in g.vertices],
        "edges": [e._asdict() for e in g.edges],
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
    vspecs = [it for _, it in sorted(zip(ids, vspecs), key=lambda pair: pair[0])]
    g.add_vertices([str(it.get("label", "")) for it in vspecs], [
        None if it.get("part") is None else _json_int(it["part"], "vertex part") for it in vspecs
    ])
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
    lines for isolated vertices so they survive the round trip.  A label's
    backslashes and double quotes are escaped."""
    lines = ["graph {"]
    lines += ["  %d;" % v for v in np.flatnonzero(g.degrees() == 0).tolist()]
    for e in g.edges:
        if e.label:
            label = e.label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append('  %d -- %d [label="%s"];' % (e.u, e.v, label))
        else:
            lines.append("  %d -- %d;" % (e.u, e.v))
    lines.append("}")
    return "\n".join(lines) + "\n"
