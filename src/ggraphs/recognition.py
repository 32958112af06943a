"""Recognition of G-graphs from automorphism data.

Given a multigraph, a subgroup H of its automorphisms, and a candidate
clique C, these routines check the characterisation conditions (in the
with-loops and loop-free variants) and, when they hold, rebuild a group
from H, extract the generator multiset S, and produce an independently
verified isomorphism between the input and Phi/Psi(H, S).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_CLOSURE_CAP,
    FiniteGroup,
    PermClosure,
    _wrap_table,
    orbits,
    perm_closure,
    row_closure,
)
from .errors import (
    CapExceeded,
    InternalAssertion,
    ParseError,
    PreconditionFailed,
    WitnessInvalid,
    _index,
    _json_int,
)
from .ggraph import GGraph, _blocks, build_phi, build_psi, colour_clique, shifts
from .multigraph import (
    GraphAut,
    GraphAutRows,
    IsoWitness,
    Multigraph,
    _permutation_rows,
    _repeats,
    _row_order,
    induced_edge_map,
    map_defect,
    verify_iso_witness,
)


def close_under_composition(g: Multigraph, gens) -> GraphAutRows:
    """The subgroup generated by gens, sorted with the identity first.

    Each automorphism acts as one permutation of V and E taken together:
    the vertex map, then the edge map offset by n_vertices, which is also
    the row of the GraphAutRows returned.  Sorting is by (vertex_map,
    edge_map); the identity is lexicographically minimal so it always lands
    at index 0.  Above DEFAULT_CLOSURE_CAP elements, the cap on every group
    table, it raises CapExceeded.
    """
    nv = g.n_vertices
    rows = [a.vertex_map + tuple(nv + x for x in a.edge_map) for a in gens]
    try:
        closure = perm_closure(rows, nv + g.n_edges)
    except CapExceeded:
        raise CapExceeded("automorphism closure exceeds cap %d" % DEFAULT_CLOSURE_CAP) from None
    return GraphAutRows(closure.elems[_row_order(closure.elems)], nv)


@dataclass
class RecognitionWitness:
    """H: automorphisms closed under composition, a GraphAutRows or any
    sequence of GraphAut; C: candidate clique."""

    H: Sequence[GraphAut]
    C: list[int]


def shifts_of(gg: GGraph) -> RecognitionWitness:
    """H = the distinct shifts in sorted order, C = the colour clique of the
    identity."""
    H = shifts(gg)
    n_vertices = H.n_vertices
    rows = H.rows[_row_order(H.rows)]
    del H  # the unsorted rows go before any other copy is made
    repeats = _repeats(rows)
    if repeats.any():
        rows = rows[~repeats]
    H = GraphAutRows(rows, n_vertices)
    return RecognitionWitness(H, colour_clique(gg, gg.group.identity))


# ---------------------------------------------------------------------------
# characterisation checks


def vertex_orbits(g: Multigraph, vertex_maps) -> list[list[int]]:
    """Orbits of H, given by its vertex maps (k rows), on vertices, each
    ascending, ordered by minimum."""
    return [orb.tolist() for orb in orbits(vertex_maps, g.n_vertices)]


def stabilizer(vertex_maps, u: int) -> np.ndarray:
    """The indices of the rows of vertex_maps (a (k, n_vertices) array or
    k sequences) that fix u."""
    return np.flatnonzero(np.asarray(vertex_maps)[:, u] == u)


def _cyclic_generator(rows: np.ndarray, stab) -> int | None:
    """The first of the rows indexed by stab whose order is len(stab), or
    None.  When the rows form a group, the stabiliser is cyclic exactly when
    such an element exists, and that element generates it."""
    k = len(stab)
    for i in stab:
        try:
            if len(perm_closure(rows[i : i + 1], rows.shape[1], k).elems) == k:
                return int(i)
        except CapExceeded:  # its order exceeds k
            pass
    return None


def edges_toward(g: Multigraph, u: int, orbit) -> list[int]:
    """Edges adjacent to u whose other end-point lies in the orbit.

    A loop at u counts (once) exactly when u itself is in the orbit.
    """
    rows = g.adj()[u]
    return rows[np.isin(rows[:, 1], orbit), 0].tolist()


def acts_regularly_on_edges(edge_maps, edge_ids) -> tuple[bool, str]:
    """Whether a stabiliser, given by its edge maps (k rows), acts regularly
    (transitively and freely) on the edge set edge_ids.

    Regular means k edges and one orbit: the orbit of the first edge under
    the maps is the whole set.  When that orbit leaves the set, the detail
    names the smallest edge of the set that some map sends outside it.
    """
    edge_ids = list(edge_ids)
    if not edge_ids:
        return False, "empty edge set"
    if len(edge_ids) != len(edge_maps):
        return False, "|edges| = %d but |Stab| = %d" % (len(edge_ids), len(edge_maps))
    edge_maps = np.asarray(edge_maps)
    inside = np.zeros(edge_maps.shape[1], dtype=bool)
    inside[edge_ids] = True
    orbit = orbits(edge_maps, len(inside), edge_ids[:1])[0]
    if not inside[orbit].all():
        leaves = ~inside[edge_maps[:, edge_ids]].all(axis=0)
        x = int(np.asarray(edge_ids)[leaves].min())
        return False, "edge %d leaves the set under the action" % x
    if len(orbit) != len(edge_ids):
        return False, "action is not transitive (%d of %d edges reached)" % (
            len(orbit),
            len(edge_ids),
        )
    # transitive with |set| == |group| forces freeness (orbit-stabilizer)
    return True, ""


@dataclass
class RecognitionReport:
    with_loops: bool
    witness_ok: bool
    conditions: dict
    details: list[str]

    @property
    def ok(self) -> bool:
        return self.witness_ok and all(self.conditions.values())

    def lines(self) -> list[str]:
        out = ["witness: %s" % ("ok" if self.witness_ok else "FAIL")]
        for name, passed in self.conditions.items():
            out.append("%s: %s" % (name, "pass" if passed else "FAIL"))
        out.extend("  " + d for d in self.details)
        return out


def _validate_maps(g: Multigraph, w: RecognitionWitness):
    """Hard structural validation; errors here make the checks meaningless.
    Returns H as one int32 array in the order of w.H, each row a
    permutation of V and E taken together (the vertex map, then the edge
    map offset by n_vertices), the same rows in sorted-H order (the array
    itself when it is sorted already, as an H from shifts_of is, else one
    sorted copy), and C as a list of ints, each entry read once through
    errors._index.

    An int32 GraphAutRows over g's vertices and edges is validated and
    returned as it is; any other sequence of GraphAut is converted here,
    once."""
    nv, ne = g.n_vertices, g.n_edges
    H = w.H
    if H is None or w.C is None:
        raise WitnessInvalid("a witness needs both H and C")
    if isinstance(H, GraphAutRows) and H.rows.dtype == np.int32 and (
        H.n_vertices == nv and H.rows.shape[1] == nv + ne
    ):
        rows = H.rows
        v_ok, e_ok = (
            (np.sort(rows[:, lo:hi], axis=1) == np.arange(lo, hi)).all(axis=1)
            for lo, hi in ((0, nv), (nv, nv + ne))
        )
    else:
        if not all(isinstance(a, GraphAut) for a in H):
            raise WitnessInvalid("an H element is not a GraphAut")
        V, v_ok = _permutation_rows([a.vertex_map for a in H], nv, nv)
        E, e_ok = _permutation_rows([a.edge_map for a in H], ne, ne)
        rows = None
    bad = np.flatnonzero(~(v_ok & e_ok))
    if len(bad):
        what = "edge" if v_ok[bad[0]] else "vertex"
        raise WitnessInvalid("an H element's %s map is not a permutation" % what)
    if rows is None:
        rows = np.hstack((V, E + nv))
    order = _row_order(rows)
    ranked = rows if (order == np.arange(len(order))).all() else rows[order]
    if _repeats(ranked).any():
        raise WitnessInvalid("H contains repeated elements")
    try:
        C = [_index(u, "a C entry") for u in w.C]
    except PreconditionFailed as exc:
        raise WitnessInvalid(str(exc)) from None
    for u in C:
        if not 0 <= u < nv:
            raise WitnessInvalid("C contains an unknown vertex id %r" % (u,))
    if len(set(C)) != len(C):
        raise WitnessInvalid("C contains repeated vertices")
    if not w.H:
        raise WitnessInvalid("H is empty")
    if not C:
        raise WitnessInvalid("C is empty")
    return rows, ranked, C


def _run_checks(g: Multigraph, w: RecognitionWitness, with_loops: bool):
    """The report, and what reconstruct builds on: H as one int32 array in
    sorted-H order, each row a permutation of V and E taken together (the
    vertex map, then the edge map offset by n_vertices); the closure of H
    over those rows (algebra.row_closure), None when H is not closed; and
    per vertex of C the first element of its stabiliser whose order is
    |Stab|, None when there is none.

    A closed H is the group its closure's generators generate, and a
    product of automorphisms is an automorphism, so when H is closed and
    its generators are automorphisms, every element is one.  Otherwise
    every element is tested, in the order given, so that the detail names
    the first offending element; an error from the validation does too."""
    given, rows, C = _validate_maps(g, w)
    nv = g.n_vertices
    closure = row_closure(rows)

    def defect(R):
        return map_defect(g, g, R[:, :nv], R[:, nv:] - nv)

    reason = None
    if closure is None or defect(closure.gens) is not None:
        reason = defect(given)
    details = []
    if reason is not None:
        details.append("H element is not an automorphism: " + reason)
    V = rows[:, :nv]
    if not (rows[0] == np.arange(rows.shape[1])).all():
        details.append("H does not contain the identity")
    if closure is None:
        details.append("H is not closed under composition")
    for i, u in enumerate(C):
        for v in C[i + 1 :]:
            if g.multiplicity(u, v) == 0:
                details.append("C is not a clique: %d and %d not adjacent" % (u, v))
    if with_loops:
        for u in C:
            if not g.loops_at(u):
                details.append("C vertex %d carries no loop" % u)
    witness_ok = not details
    orbits = vertex_orbits(g, V)
    orbit_of = np.empty(nv, dtype=np.intp)
    for i, orb in enumerate(orbits):
        orbit_of[orb] = i
    conditions = {}

    if not with_loops:
        ends = g.ends()
        inside = np.flatnonzero(orbit_of[ends[:, 0]] == orbit_of[ends[:, 1]])
        if len(inside):
            e = int(inside[0])
            details.append("orbit of vertex %d is not stable (edge %d)" % (ends[e, 0], e))
        conditions["orbits_stable"] = not len(inside)

    met = np.zeros(len(orbits), dtype=bool)
    met[orbit_of[C]] = True
    if not met.all():
        details.append("orbit of vertex %d misses C" % orbits[int(met.argmin())][0])
    conditions["clique_meets_orbits"] = bool(met.all())

    stabs = [stabilizer(V, u) for u in C]
    gens = [_cyclic_generator(rows, stab) for stab in stabs]
    for u, x in zip(C, gens):
        if x is None:
            details.append("Stab_H %d is not cyclic" % u)
    conditions["stabilizers_cyclic"] = None not in gens

    ok = True
    for u, stab in zip(C, stabs):
        for i, orb in enumerate(orbits):
            if not with_loops and orbit_of[u] == i:
                continue
            regular, reason = acts_regularly_on_edges(
                rows[stab, nv:] - nv, edges_toward(g, u, orb)
            )
            if not regular:
                details.append(
                    "Stab_H %d is not regular on edges toward orbit of %d: %s"
                    % (u, orb[0], reason)
                )
                ok = False
    conditions["regular_action"] = ok

    report = RecognitionReport(with_loops, witness_ok, conditions, details)
    return report, rows, closure, gens


def check_with_loops(g: Multigraph, w: RecognitionWitness) -> RecognitionReport:
    """The three conditions of the with-loops characterisation."""
    return _run_checks(g, w, with_loops=True)[0]


def check_simple(g: Multigraph, w: RecognitionWitness) -> RecognitionReport:
    """The four conditions of the loop-free characterisation."""
    if g.has_loops():
        raise PreconditionFailed("graph has loops; use check_with_loops")
    return _run_checks(g, w, with_loops=False)[0]


def check(g: Multigraph, w: RecognitionWitness) -> RecognitionReport:
    if g.has_loops():
        return check_with_loops(g, w)
    return check_simple(g, w)


# ---------------------------------------------------------------------------
# reconstruction


@dataclass
class ReconstructionResult:
    group: FiniteGroup
    gens: tuple[int, ...]
    rebuilt: GGraph
    iso: IsoWitness  # rebuilt -> input graph
    report: RecognitionReport


def _group_of(closure: PermClosure, rows: np.ndarray) -> FiniteGroup:
    """The multiplication table of the closed set of rows, indexed in their
    order, which must be the closure's elements (algebra.row_closure).
    PermClosure.table checks it at generator cost, and an exact table is a
    group table, so no axiom check runs."""
    if closure.elems is not rows:
        raise InternalAssertion("H is not its closure's elements")
    mul = closure.table()
    return _wrap_table(mul, closure.inverses(mul), "H")


def reconstruct(g: Multigraph, w: RecognitionWitness) -> ReconstructionResult:
    """Rebuild (H, S) and a verified isomorphism g = Phi/Psi(H, S).

    Follows the constructive direction of the characterisation: the vertex
    <sigma_u> h maps to h^{-1}(u), and the edge labeled h'' in the
    multi-edge between the u and v levels maps to the h''-inverse image of
    a fixed chosen edge between u and v (the minimal edge id).
    """
    with_loops = g.has_loops()
    report, rows, closure, gens = _run_checks(g, w, with_loops)
    if not report.ok:
        raise WitnessInvalid(
            "characterisation conditions fail: " + "; ".join(report.details)
        )
    grp = _group_of(closure, rows)
    C = [int(u) for u in w.C]  # the ints that _validate_maps read
    builder = build_psi if with_loops else build_phi
    rebuilt = builder(grp, gens)

    if rebuilt.graph.n_vertices != g.n_vertices:
        raise InternalAssertion("vertex counts differ after reconstruction")

    # one chosen edge x0 per edge block of rebuilt: the first between C[i]
    # and C[j], a loop when i = j
    x0 = [g.edges_between(C[i], C[j])[0] for i, j in _blocks(len(C), with_loops)]

    # group element x is row x of H; level i holds the cosets of its reps,
    # and edge block b holds the labels that map x0[b]
    nv, inv = g.n_vertices, grp.inv
    vimg = np.concatenate(
        [rows[inv[lvl.reps], C[i]] for i, lvl in enumerate(rebuilt.levels)]
    )
    col = nv + np.repeat(np.array(x0, dtype=np.intp), grp.order)
    eimg = rows[inv[rebuilt.edge_glabel], col] - nv
    iso = IsoWitness(tuple(vimg.tolist()), tuple(eimg.tolist()))
    if not verify_iso_witness(rebuilt.graph, g, iso, respect_parts=False):
        raise InternalAssertion("reconstruction isomorphism failed verification")
    return ReconstructionResult(grp, tuple(gens), rebuilt, iso, report)


# ---------------------------------------------------------------------------
# witness JSON


def infer_edge_map(g: Multigraph, vmap) -> tuple[int, ...]:
    """The edge map that vmap induces (multigraph.induced_edge_map), when
    every multi-edge of g has multiplicity one."""
    uv = g.first_multiple_edge()
    if uv is not None:
        raise WitnessInvalid("edge map is not inferable: multi-edge %r has %d edges;"
                             " supply H_generator_edge_maps" % (uv, g.multiplicity(*uv)))
    em = induced_edge_map(g, g, vmap)
    if em is None:
        raise WitnessInvalid("edge map is not inferable: the vertex map is no automorphism")
    return em


def witness_to_json(g: Multigraph, w: RecognitionWitness) -> dict:
    data = {
        "H_generators": [list(a.vertex_map) for a in w.H],
        "C": list(w.C),
    }
    if g.first_multiple_edge() is not None:
        data["H_generator_edge_maps"] = [list(a.edge_map) for a in w.H]
    return data


def _int_row(row, what: str) -> tuple:
    """A JSON array of integers, each read by errors._json_int.  A
    string is refused: "120" would iterate as the row (1, 2, 0)."""
    if not isinstance(row, list):
        raise ParseError("%s is not an integer array" % what)
    return tuple(_json_int(x, what) for x in row)


def witness_from_json(g: Multigraph, data) -> RecognitionWitness:
    """Parse the witness format and close the generators into H.

    Edge maps are inferred per generator when every multi-edge has
    multiplicity one, and must be supplied under "H_generator_edge_maps"
    otherwise (entries may be null where inference suffices).
    """
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except ValueError as exc:  # JSONDecodeError, or an over-long integer
            raise ParseError("witness is not valid JSON: %s" % exc) from exc
    if not isinstance(data, dict):
        raise ParseError("witness JSON must be an object")
    if not isinstance(data.get("H_generators"), list) or "C" not in data:
        raise ParseError("witness JSON needs H_generators and C arrays")
    vmaps = [
        _int_row(row, "H_generators entry %d" % i)
        for i, row in enumerate(data["H_generators"])
    ]
    C = list(_int_row(data["C"], "C"))
    emaps = data.get("H_generator_edge_maps")
    if emaps is not None and (
        not isinstance(emaps, (list, tuple)) or len(emaps) != len(vmaps)
    ):
        raise ParseError("H_generator_edge_maps length mismatch")
    gens = []
    for i, vmap in enumerate(vmaps):
        if sorted(vmap) != list(range(g.n_vertices)):
            raise WitnessInvalid("generator %d is not a vertex permutation" % i)
        row = emaps[i] if emaps is not None else None
        if row is None:
            em = infer_edge_map(g, vmap)
        else:
            em = _int_row(row, "H_generator_edge_maps entry %d" % i)
        if sorted(em) != list(range(g.n_edges)):
            raise WitnessInvalid("an H element's edge map is not a permutation")
        gens.append(GraphAut(tuple(vmap), em))
    return RecognitionWitness(close_under_composition(g, gens), C)
