"""G-graphs of finite groups.

Given a group G and a nonempty multiset S of generators, the graph Phi(G, S)
has one level per occurrence s in S holding the right cosets <s>x, and one
edge labeled g between two cosets on distinct levels for every element g they
share. Psi(G, S) additionally keeps o(s) labeled loops on every vertex of the
level of s (one per coset element). Repeated occurrences of the same
generator produce distinct levels.

Vertex ids are laid out level block by level block, cosets ordered by
ascending representative (minimal element). Edge ids come in blocks of |G|,
one per entry of ``_blocks(L, with_loops)``: the level pairs (i, j) with
i < j in lexicographic order, then in Psi (i, i) for the loops of each level
i.  Edge b*|G| + k is labelled ``_block_labels(levels, i, j, |G|)[k]`` for
block b = (i, j), and joins the cosets of its label on levels i and j.
Everything downstream relies on this rule.

The edges of ``gg.graph`` carry no label string: ``gg.edge_glabel[e]`` is
the element of edge e.  Names are computed only when written out:
``named_graph(gg)`` is the graph with each edge labelled by its element's
name, and the writers (``export_ggraph_json``, the CLI's Graphviz output
and its incidence graph) read that.  ``incidence_graph(gg.graph)`` called
directly therefore labels its edge vertices ``e<id>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .algebra import (
    Coset,
    FiniteGroup,
    cyclic_group,
    cyclic_subgroup,
    direct_product,
    factorize,
    generated_subgroup,
    generating_set,
    right_cosets,
    subgroup_group,
)
from .errors import CapExceeded, InternalAssertion, PreconditionFailed, _index
from .multigraph import (
    _BLOCK,
    GraphAutRows,
    IsoWitness,
    Multigraph,
    connected_components,
    export_json,
    induced_subgraph_with_maps,
    is_complete_bipartite_multi,
    isomorphic,
    map_defect,
)


@dataclass(eq=False)
class Level:
    """One occurrence of a generator and its cosets, held as one int32
    array, the one right_cosets returns: row c is the coset of vertex
    offset + c, in ascending order, and rows are sorted by their minimum.
    Two levels are equal when their fields are, the arrays compared
    entry by entry."""

    index: int
    gen: int
    occurrence: int
    offset: int
    cosets: np.ndarray  # (number of cosets, o(gen)), int32
    membership: np.ndarray  # element -> coset position within this level

    @property
    def reps(self) -> np.ndarray:
        """The coset representatives, one per vertex of the level."""
        return self.cosets[:, 0]

    def __eq__(self, other):
        if not isinstance(other, Level):
            return NotImplemented
        return (
            (self.index, self.gen, self.occurrence, self.offset)
            == (other.index, other.gen, other.occurrence, other.offset)
            and np.array_equal(self.cosets, other.cosets)
            and np.array_equal(self.membership, other.membership)
        )


@dataclass
class GGraph:
    """A G-graph and its level layout.  A vertex's level and coset are
    read from the layout (``level_of``, the level offsets); the part tags
    of ``graph`` are output data, which verify_structure checks."""

    group: FiniteGroup
    gens: tuple[int, ...]
    with_loops: bool
    graph: Multigraph
    levels: tuple[Level, ...]
    edge_glabel: np.ndarray  # edge id -> group element
    # vertex id -> its level by the layout rule
    level_of: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.level_of = [i for i, lvl in enumerate(self.levels) for _ in range(len(lvl.cosets))]

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def vertex_level(self, v: int) -> int:
        return self.level_of[_index(v, "vertex", len(self.level_of))]

    def vertex_coset(self, v: int) -> Coset:
        lvl = self.levels[self.vertex_level(v)]
        row = lvl.cosets[v - lvl.offset].tolist()
        return Coset(gen=lvl.gen, rep=row[0], elems=tuple(row))

    def vertex_of(self, level: int, x: int) -> int:
        """The vertex <s_level> x."""
        lvl = self.levels[_index(level, "level", self.n_levels)]
        return lvl.offset + int(lvl.membership[_index(x, "element", self.group.order)])

    def is_simple(self) -> bool:
        return not self.with_loops and self.graph.first_multiple_edge() is None


def _check_gens(group: FiniteGroup, gens) -> tuple[int, ...]:
    out = tuple(_index(s, "generator", group.order) for s in gens)
    if not out:
        raise PreconditionFailed("generator multiset must be nonempty")
    return out


# size caps, each checked before its allocation: the edges of one G-graph,
# and the entries of all its shifts (1 GiB as int32), which only shifts
# holds at once.  verify_structure holds at most a _BLOCK-row strip of V+E
# columns (E <= EDGE_CAP), or on an unchecked table one slab of at most
# |G|^2 entries
EDGE_CAP = 1 << 20
SHIFT_CAP = 1 << 28


def _blocks(n_levels: int, with_loops: bool) -> list[tuple[int, int]]:
    """The edge blocks in layout order: each level pair (i, j) with i < j,
    lexicographically, then (i, i) for the loops of each level in Psi."""
    pairs = list(combinations(range(n_levels), 2))
    return pairs + ([(i, i) for i in range(n_levels)] if with_loops else [])


def _block_labels(levels, i: int, j: int, n: int) -> np.ndarray:
    """The labels of block (i, j), edge k of the block first: k itself for
    a level pair; for the loops of level i, its cosets in turn, each in
    ascending order."""
    return np.arange(n) if i != j else levels[i].cosets.ravel()


def _build(group: FiniteGroup, gens, with_loops: bool) -> GGraph:
    """Phi or Psi of (group, gens).  Its |G| edges per block of _blocks
    are counted before the first vertex is added: above EDGE_CAP = 2^20 it
    raises CapExceeded."""
    gens = _check_gens(group, gens)
    n = group.order
    blocks = _blocks(len(gens), with_loops)
    n_edges = len(blocks) * n
    if n_edges > EDGE_CAP:
        raise CapExceeded("G-graph with %d edges exceeds cap %d" % (n_edges, EDGE_CAP))
    graph = Multigraph()
    levels = []
    for i, s in enumerate(gens):
        cosets, membership = right_cosets(group, cyclic_subgroup(group, s))
        levels.append(
            Level(i, s, gens[:i].count(s), graph.n_vertices, cosets, membership)
        )
        graph.add_vertices(["%d:%d" % (i, r) for r in cosets[:, 0].tolist()], [i] * len(cosets))
    # edge k of block (i, j) joins the cosets of its label on levels i and j
    labels = [_block_labels(levels, i, j, n) for i, j in blocks]
    ends = [
        np.column_stack([lvl.offset + lvl.membership[x] for lvl in (levels[i], levels[j])])
        for (i, j), x in zip(blocks, labels)
    ]
    graph.add_edges(np.concatenate([np.zeros((0, 2), dtype=np.int64), *ends]))
    return GGraph(
        group=group,
        gens=gens,
        with_loops=with_loops,
        graph=graph,
        levels=tuple(levels),
        edge_glabel=np.concatenate([np.zeros(0, dtype=np.int64), *labels]),
    )


def build_phi(group: FiniteGroup, gens) -> GGraph:
    """The loop-free G-graph Phi(G, S)."""
    return _build(group, gens, with_loops=False)


def build_psi(group: FiniteGroup, gens) -> GGraph:
    """The G-graph with loops Psi(G, S)."""
    return _build(group, gens, with_loops=True)


# ---------------------------------------------------------------------------
# shifts


def _integer_array(a, ndim: int) -> bool:
    """Whether a is an ndim-dimensional numpy array of integers."""
    return isinstance(a, np.ndarray) and a.ndim == ndim and a.dtype.kind in "iu"


def _check_layout(gg: GGraph) -> None:
    """Raise PreconditionFailed unless there is a level, each level's
    offset is the vertex count of the levels before it, its cosets (a 2-D
    integer array) hold each element of G exactly once, and membership (a
    1-D integer array) gives each element the row that holds it: |G|
    entries with membership[cosets[c]] == c for every row c."""
    n, offset = gg.group.order, 0
    for i, lvl in enumerate(gg.levels or [None]):  # no level: level 0 is missing
        cosets, membership = (None, None) if lvl is None else (lvl.cosets, lvl.membership)
        if not (
            _integer_array(cosets, 2)
            and _integer_array(membership, 1)
            and lvl.offset == offset
            and np.array_equal(np.sort(cosets, axis=None), np.arange(n))
            and len(membership) == n
            and (membership[cosets] == np.arange(len(cosets))[:, None]).all()
        ):
            raise PreconditionFailed(
                "level %d of the layout is malformed: its offset, cosets or membership" % i
            )
        offset += len(cosets)


def _shift_slabs(gg: GGraph):
    """The column slabs of the shifts in layout order, and the vertex count:
    one slab per level, over its vertices, then one per block of _blocks,
    over its |G| edges.  Every shift maps each slab into itself.

    A slab is a triple (start, x, pos): its columns are start, start + 1,
    ... of a row of shifts(gg), one per entry of x, so an edge slab starts
    at the vertex count plus its first edge id, and delta_g maps column c
    to start + pos[x[c] g].  For a level, x is its coset representatives
    and pos its membership: delta_g(<s>x) = <s>xg.  For an edge block, x is
    its labels, read from gg.edge_glabel, and delta_g maps the edge
    labelled x to the edge labelled xg of the same block: for a level pair
    pos is None, since there the edge of label y is the block's edge y, and
    for the loops of a level pos[y] is where the label y sits in
    _block_labels.

    The columns are the vertices and edges that the layout rule gives the
    levels, not those of gg.graph.  The checks come first: a malformed
    level layout (_check_layout) raises PreconditionFailed, and so does a
    gg.edge_glabel that does not give every edge of the layout an element
    of G, so that the edge slabs are not defined."""
    _check_layout(gg)
    n = gg.group.order
    blocks = _blocks(gg.n_levels, gg.with_loops)
    n_v, n_e = sum(len(lvl.cosets) for lvl in gg.levels), len(blocks) * n
    labels = gg.edge_glabel
    if not (_integer_array(labels, 1) and len(labels) >= n_e) or (
        (labels[:n_e] < 0) | (labels[:n_e] >= n)
    ).any():
        raise PreconditionFailed(
            "edge_glabel does not label the %d edges of the layout with elements of G" % n_e
        )
    slabs = [(lvl.offset, lvl.reps, lvl.membership) for lvl in gg.levels]
    for b, (i, j) in enumerate(blocks):
        pos = None
        if i == j:  # int32 gathers faster
            pos = np.empty(n, dtype=np.int32)
            pos[_block_labels(gg.levels, i, j, n)] = np.arange(n)
        slabs.append((n_v + b * n, labels[b * n : b * n + n], pos))
    return slabs, n_v


def _slab_entries(mul: np.ndarray, slab, rows) -> np.ndarray:
    """The entries of the shifts rows (a slice or an index array) on slab,
    as positions within it: row k is delta_{rows[k]} on the slab's columns,
    less their start.  Callers pass at most _BLOCK rows, so the gather is
    one strip; a slice reads mul[x, r0:r1], a column slice of the table."""
    _, x, pos = slab
    img = (mul[x, rows] if isinstance(rows, slice) else mul[x[:, None], rows]).T
    return img if pos is None else pos[img]


def _shift_rows(mul: np.ndarray, slabs, rows, out: np.ndarray) -> None:
    """Write the shifts rows (a slice or an index array, at most _BLOCK
    rows) into out, as the rows of shifts(gg) hold them."""
    for slab in slabs:
        start = slab[0]
        np.add(_slab_entries(mul, slab, rows), start, out=out[:, start : start + len(slab[1])])


def _strips(n: int) -> list[slice]:
    """Rows 0..n-1 as slices of _BLOCK rows."""
    return [slice(r0, min(r0 + _BLOCK, n)) for r0 in range(0, n, _BLOCK)]


def shifts(gg: GGraph) -> GraphAutRows:
    """All |G| shifts as one int32 array over the layout's vertices and
    edges, the edge columns after the vertex columns and their ids offset
    by the vertex count; row g is delta_g: <s>x -> <s>xg with its edge
    action.  After the checks of _shift_slabs, above SHIFT_CAP entries it
    raises CapExceeded before any row is allocated.  The array is filled
    one _BLOCK-row strip at a time, so a temporary holds at most _BLOCK
    rows of a slab, and every entry is written once, from the table entry
    that defines it."""
    slabs, n_v = _shift_slabs(gg)
    mul = gg.group.mul
    n = len(mul)
    width = sum(len(x) for _, x, _ in slabs)
    if n * width > SHIFT_CAP:
        raise CapExceeded("shift arrays of %d entries exceed cap %d" % (n * width, SHIFT_CAP))
    rows = np.empty((n, width), dtype=np.int32)
    for r in _strips(n):
        _shift_rows(mul, slabs, r, rows[r])
    return GraphAutRows(rows, n_v)


def colour_clique(gg: GGraph, x: int) -> list[int]:
    """C_x: the vertex <s_i>x of every level."""
    x = _index(x, "element", gg.group.order)
    return [lvl.offset + int(lvl.membership[x]) for lvl in gg.levels]


def level_vertices(gg: GGraph, i: int) -> list[int]:
    lvl = gg.levels[_index(i, "level", len(gg.levels))]
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


def _law_holds(mul: np.ndarray, slab, gens) -> bool:
    """Whether delta_a . delta_b = delta_{ba} on slab for every b and each
    a of gens.  The slab's |G| rows are built in _BLOCK-row strips, then
    compared _BLOCK rows of b at a time; no other slab is held meanwhile."""
    strips = _strips(len(mul))
    T = np.empty((len(mul), len(slab[1])), dtype=np.int32)
    for rows in strips:
        T[rows] = _slab_entries(mul, slab, rows)
    return all((T[a][T[b]] == T[mul[b, a]]).all() for a in gens for b in strips)


def _action_law_holds(cols: np.ndarray, slab) -> bool:
    """_law_holds on an associative table, from the generator columns
    cols[y, k] = y gens[k] alone: whether P[x[P[y]] a] == P[y a] for every
    y and each generator a, P the slab's pos (the identity when it is
    None).  |G| reads per generator; verify_structure gives the proof."""
    _, x, pos = slab
    if pos is None:
        return bool((cols[x] == cols).all())
    return bool((pos[cols[x[pos]]] == pos[cols]).all())


def verify_structure(gg: GGraph) -> StructureReport:
    """Check the five structural properties every G-graph must satisfy.

    Row x of the shifts is delta_x.  Item 1's composition law delta_a .
    delta_b = delta_{ba} is checked for every b and each a of a generating
    set: the a that satisfy it for all b are closed under products, and
    every element is a product of generators.  Every shift maps each slab
    of _shift_slabs into itself, so the law holds exactly when it holds on
    each slab (start, x, P), on which delta_g maps column c to P[x_c g]
    (P the identity for a level pair).

    On a checked table (grp.table_checked), which is associative, the law
    on a slab needs only the generator columns of the table.  Write T[g,
    c] = P[x_c g].  Then delta_a . delta_b = delta_{ba} there says T[a,
    T[b, c]] = T[ba, c] for every b and c, that is

        P[x[P[x_c b]] a] = P[(x_c b) a]   for every b and every column c.

    For a fixed c, y = x_c b runs over all of G as b does, so this is
    P[x[P[y]] a] = P[y a] for every y, whichever c.  A slab has at least
    one column, so the law on it holds exactly when that does
    (_action_law_holds: |G| reads per generator, and no shift is built).
    For a level, x[P[y]] is the representative of y's coset, and this
    says right multiplication by a maps each coset into one coset.  For a
    level pair, P is the identity and it says x[y] a = y a, that is x[y] =
    y: the block's labels are 0..|G|-1 in order.  On a table that is not
    checked, associativity is not known, and the law is read off the
    shifts (_law_holds), every shift of one slab at a time.

    Once the law holds, delta_{xt} = delta_t . delta_x for every x and
    every generator t, so each shift is delta_e followed by generator
    shifts, and the other steps read less, building only the rows they
    read:

    - automorphisms (item 1) and levels (item 2): delta_e and the generator
      shifts, since a composition of automorphisms that keep every vertex's
      level is one;
    - the kernel {x : delta_x = delta_e}: x -> delta_x maps G onto a group
      of maps, so delta_x = delta_y exactly when x y^-1 lies in the kernel,
      and there are |G| / |kernel| distinct shifts.  A kernel row agrees
      with delta_e in column 0, which one table row gives, so only the rows
      that do are built in full: the o(s) rows of <s> when vertex 0 is the
      coset <s>;
    - cliqueness (item 3): once the permutation law delta_t(C_x) = C_{xt}
      holds for the generators t, C_{t_1...t_k} = delta_{t_k} ...
      delta_{t_1}(C_e).  When the generator shifts are also automorphisms,
      each C_g is an automorphic image of C_e, and a clique when C_e is.

    Where a premise fails, that item reads every shift or colour, _BLOCK
    rows at a time, so the report is the same either way.  Item 4 counts
    the edges of each block of _blocks by the part tags of their ends, and
    fails unless gg.edge_glabel holds one label per edge of gg.graph.  Item
    5 takes each vertex's level and coset from the layout rule, not from
    its part tag, which items 2 and 4 check."""
    grp = gg.group
    n, mul = grp.order, grp.mul
    g = gg.graph
    slabs, n_v = _shift_slabs(gg)
    width = sum(len(x) for _, x, _ in slabs)

    def shift_rows(rows):
        """The shifts rows as in shifts(gg), and their vertex and edge
        maps: the vertex columns, and the edge columns less n_v."""
        k = len(range(n)[rows]) if isinstance(rows, slice) else len(rows)
        R = np.empty((k, width), dtype=np.int32)
        _shift_rows(mul, slabs, rows, R)
        R[:, n_v:] -= n_v
        return R, R[:, :n_v], R[:, n_v:]

    items = []

    # 1. shifts are automorphisms forming a group isomorphic to G
    gens = generating_set(mul)
    if grp.table_checked:
        cols = mul[:, list(gens)]
        comp_ok = all(_action_law_holds(cols, slab) for slab in slabs)
    else:
        comp_ok = all(_law_holds(mul, slab, gens) for slab in slabs)
    e = grp.identity
    parts = np.array([-1 if p is None else p for p in g.parts], dtype=np.int64)
    # a graph with more or fewer vertices than the layout fails item 2
    ok2 = len(parts) == n_v
    if comp_ok:
        # the rows that item 1's automorphism check and items 2 and 3 read
        D, V, E = shift_rows(np.array([e, *gens]))
        aut_ok = map_defect(g, g, V, E) is None
        ok2 = ok2 and bool((parts[V] == parts).all())
        lvl = gg.levels[0]  # vertex 0 is its first coset
        col0 = lvl.membership[mul[lvl.reps[0]]]
        near = np.flatnonzero(col0 == col0[e])  # holds the kernel
        kernel = 0
        for r in np.split(near, range(_BLOCK, len(near), _BLOCK)):
            kernel += int((shift_rows(r)[0] == D[0]).all(axis=1).sum())
        distinct = n // kernel
    else:
        aut_ok, seen = True, set()
        for rows in _strips(n):
            R, Vr, Er = shift_rows(rows)
            aut_ok = aut_ok and map_defect(g, g, Vr, Er) is None
            ok2 = ok2 and bool((parts[Vr] == parts).all())
            seen.update(map(bytes, R))
        distinct = len(seen)
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
    items.append(ItemReport(2, "levels stable", ok2, "checked all |G| shifts"))

    # 3. shifts permute colour cliques: delta_g'(C_g) = C_{g g'}
    C = np.column_stack([lvl.offset + lvl.membership.astype(np.int64) for lvl in gg.levels])
    by_pair = g.multi_edges()
    i, j = np.triu_indices(gg.n_levels, 1)
    read_C = C[[e]] if aut_ok else C
    ok3 = (
        comp_ok
        and all((V[k][C] == C[mul[:, t]]).all() for k, t in enumerate(gens, 1))
        and bool((by_pair.find(read_C[:, i], read_C[:, j]) >= 0).all())
    )
    items.append(
        ItemReport(
            3, "colour cliques", ok3,
            "permutation law and cliqueness over all %d colours" % n,
        )
    )

    # 4. |G| edges in each block of _blocks, and no others, each with one
    # label: the keys (level, level, is a loop) of the edges, as numbers,
    # are those of the blocks, |G| times each; L stands for a tag that
    # names no level
    L = gg.n_levels
    ends = g.ends()
    lo, hi = np.sort(np.where((parts >= 0) & (parts < L), parts, L)[ends], axis=1).T
    got = ((lo * (L + 1) + hi) << 1) + (ends[:, 0] == ends[:, 1])
    want = [((i * (L + 1) + j) << 1) + (i == j) for i, j in _blocks(L, gg.with_loops)] * n
    expected = len(want)
    ok4 = len(gg.edge_glabel) == g.n_edges and np.array_equal(np.sort(got), np.sort(want))
    items.append(
        ItemReport(
            4, "edge counts", ok4,
            "total %d (expected %d)" % (g.n_edges, expected),
        )
    )

    # 5. the label set of each multi-edge is a right coset of <s> inter <t>
    bad = _first_bad_multi_edge(gg, by_pair, C)
    items.append(
        ItemReport(
            5, "label cosets", bad is None,
            "%d multi-edges checked%s"
            % (len(by_pair), "" if bad is None else " first failure at multi-edge (%d,%d)" % bad),
        )
    )
    return StructureReport(items)


def _first_bad_multi_edge(gg: GGraph, by_pair, C: np.ndarray) -> tuple[int, int] | None:
    """The end pair (u, v), u <= v, of the first multi-edge (by its first
    edge) whose labels are not exactly the elements that the cosets of u
    and v share, or whose shared elements are not the right coset K m of K
    = <s> inter <t>, m their least; None when there is none.  C is the
    colour array of verify_structure: C[x, i] is the vertex <s_i>x.

    One array pass over the edges, grouped by multi-edge as by_pair holds
    them.  The labels of (u, v), on levels i and j, equal the shared set
    exactly when each label y lies in both cosets (C[y, i] == u and C[y,
    j] == v), no label repeats, and there are as many as the coset of u
    has elements x with C[x, j] == v.  When they do, the products k m for
    k in K must lie in the set and take as many distinct values.  An end
    beyond the layout has no coset, and an edge with no label or one
    outside G fails its multi-edge."""
    grp, n = gg.group, gg.group.order
    subs = [set(cyclic_subgroup(grp, lvl.gen)) for lvl in gg.levels]
    level = np.repeat(np.arange(gg.n_levels), [len(lvl.cosets) for lvl in gg.levels])
    pairs = by_pair.pairs()
    u, v = pairs.T
    ok = v < len(level)
    u, v = np.where(ok, u, 0), np.where(ok, v, 0)
    i, j = level[u], level[v]
    # per edge, grouped: its multi-edge and its label, -1 when it has none
    # in G; then the labels in ascending order within each multi-edge
    ids, starts = by_pair.rows, by_pair.offsets[:-1]
    size = np.diff(by_pair.offsets)
    of = np.repeat(np.arange(len(size)), size)
    y = np.full(len(ids), -1, dtype=np.int64)
    has = ids < len(gg.edge_glabel)
    y[has] = gg.edge_glabel[ids[has]]
    y[(y < 0) | (y >= n)] = -1
    y = y[np.lexsort((y, of))]
    shared = (y >= 0) & (C[y, i[of]] == u[of]) & (C[y, j[of]] == v[of])
    repeat = np.zeros(len(y), dtype=bool)
    repeat[1:] = (y[1:] == y[:-1]) & (of[1:] == of[:-1])
    ok[of[~shared | repeat]] = False
    for k, lvl in enumerate(gg.levels):  # the count of the shared set
        at = np.flatnonzero(ok & (i == k))
        rows = lvl.cosets[u[at] - lvl.offset]
        ok[at] = (C[rows, j[at, None]] == v[at, None]).sum(axis=1) == size[at]
    least = y[starts]
    for a, b in set(zip(i[ok].tolist(), j[ok].tolist())):
        at = np.flatnonzero(ok & (i == a) & (j == b))
        coset = grp.mul[np.array(sorted(subs[a] & subs[b]))[None, :], least[at, None]]
        inside = (C[coset, a] == u[at, None]) & (C[coset, b] == v[at, None])
        values = np.sort(coset, axis=1)
        distinct = 1 + (values[:, 1:] != values[:, :-1]).sum(axis=1)
        ok[at] = inside.all(axis=1) & (distinct == size[at])
    failed = np.flatnonzero(~ok)
    if not len(failed):
        return None
    return tuple(pairs[failed[np.argmin(ids[starts[failed]])]].tolist())


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
    rows, membership = right_cosets(grp, sub_elems)
    infos = []
    for comp in connected_components(gg.graph):
        sg, _, emap = induced_subgraph_with_maps(gg.graph, comp)
        # the component's edge labels; a single-vertex component IS its coset
        if emap:
            labels = sorted(set(gg.edge_glabel[list(emap)].tolist()))
        else:
            lvl = gg.levels[gg.vertex_level(comp[0])]
            labels = lvl.cosets[comp[0] - lvl.offset].tolist()
        expect = rows[membership[labels[0]]].tolist()
        coset = tuple(expect) if labels == expect else ()
        infos.append(ComponentInfo(comp, coset, isomorphic(sg, ref.graph)))
    return ComponentReport(
        subgroup=sub_elems,
        expected_count=grp.order // len(sub_elems),
        components=infos,
        reference=ref,
    )


def replicate_components(gg: GGraph, k: int) -> GGraph:
    """Extend a connected G-graph to G x Z/kZ, yielding k isomorphic copies."""
    k = _index(k, "k")
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
    level pair (V_s, V_t) inducing a complete bipartite multigraph.  Sizes
    decide it: <s><t> lies in <s, t>, and ab = a'b' exactly when a'^-1 a =
    b' b^-1 lies in <s> & <t>, so <s><t> has |<s>||<t>| / |<s> & <t>| elements."""
    S, T = set(cyclic_subgroup(g, s)), set(cyclic_subgroup(g, t))
    return len(S) * len(T) == len(generated_subgroup(g, [s, t])) * len(S & T)


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


def _check_mnl(m, n, l) -> tuple[int, int, int]:
    m, n, l = (_index(x, what) for x, what in ((m, "m"), (n, "n"), (l, "l")))
    if m < 1 or n < 1 or l < 1:
        raise PreconditionFailed("m, n, l must all be >= 1")
    return m, n, l


def kmn_plan(m: int, n: int, l: int) -> KmnPlan:
    """Split l's primes by valuation comparison and derive the realization."""
    m, n, l = _check_mnl(m, n, l)
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
    complete-bipartite shape.  Above m*n*l = 3000 it raises CapExceeded
    before kmn_plan factorises.
    """
    m, n, l = _check_mnl(m, n, l)
    if m * n * l > 3000:
        raise CapExceeded("m*n*l = %d exceeds cap 3000" % (m * n * l))
    plan = kmn_plan(m, n, l)
    o1, o2 = m * plan.l1, n * plan.l2
    grp = direct_product(cyclic_group(o1), cyclic_group(o2))
    s = plan.s_coords[0] * o2 + plan.s_coords[1]
    t = plan.t_coords[0] * o2 + plan.t_coords[1]
    S, T = set(cyclic_subgroup(grp, s)), set(cyclic_subgroup(grp, t))
    if (len(S), len(T), len(S & T)) != (m * l, n * l, l):
        raise InternalAssertion("kmn generator orders or intersection size are wrong")
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


def named_graph(gg: GGraph) -> Multigraph:
    """A copy of gg.graph with each edge labelled by its element's name,
    for the writers that show edge labels."""
    g, out = gg.graph, Multigraph()
    out.add_vertices(g.vertex_labels, g.parts)
    out.add_edges(g.ends(), np.array(gg.group.elem_names, dtype=object)[gg.edge_glabel].tolist())
    return out


def export_ggraph_json(gg: GGraph) -> dict:
    """Multigraph JSON of named_graph(gg), extended with levels and group
    labels; re-imports through the plain multigraph reader (extra keys are
    ignored there)."""
    graph = export_json(named_graph(gg))
    for e, x in zip(graph["edges"], gg.edge_glabel.tolist()):
        e["glabel"] = x
    return {
        "format": 1,
        "group": gg.group.name,
        "with_loops": gg.with_loops,
        "levels": [
            {
                "gen": gg.group.elem_name(lvl.gen),
                "occurrence": lvl.occurrence,
                "cosets": lvl.cosets.tolist(),
            }
            for lvl in gg.levels
        ],
        "vertices": graph["vertices"],
        "edges": graph["edges"],
    }
