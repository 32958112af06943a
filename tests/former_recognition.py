"""The closure test and group table that recognition's _run_checks and
_group_of used before H was closed over its own rows, kept as the
reference that tests/test_h_closure.py compares them against.
_closure_of re-closes H with perm_closure each time it adds a greedy
generator, _run_checks reads every element with map_defect, and _group_of
relabels the closure's table into H's order.  Copied from
ggraphs.recognition as they were before the change; the helpers they call
are taken from ggraphs.recognition, where they are unchanged, except that
_validate_maps now returns H's rows sorted, not the order that sorts them.
"""

from __future__ import annotations

import numpy as np

from ggraphs.algebra import FiniteGroup, PermClosure, _wrap_table, perm_closure
from ggraphs.errors import CapExceeded, InternalAssertion
from ggraphs.multigraph import Multigraph, map_defect
from ggraphs.recognition import (
    RecognitionReport,
    RecognitionWitness,
    _cyclic_generator,
    _validate_maps,
    acts_regularly_on_edges,
    edges_toward,
    stabilizer,
    vertex_orbits,
)


def _closure_of(rows: np.ndarray) -> PermClosure | None:
    """The group generated by generators picked greedily from the rows
    (which are distinct), or None when it has more elements than there are
    rows.  Each row not yet generated joins the generators, so the group
    contains every row, and it equals the rows exactly when they are closed
    under composition."""
    cap = len(rows)
    gens: list[np.ndarray] = []
    closure = perm_closure(gens, rows.shape[1])
    for row in rows:
        if closure.index.find(row[None])[0] >= 0:
            continue
        gens.append(row)
        try:
            closure = perm_closure(gens, rows.shape[1], cap)
        except CapExceeded:
            return None
    return closure


def _run_checks(g: Multigraph, w: RecognitionWitness, with_loops: bool):
    """The report, and what reconstruct builds on: H as one int32 array in
    sorted-H order, each row a permutation of V and E taken together (the
    vertex map, then the edge map offset by n_vertices); the closure of H,
    None when H is not closed; and per vertex of C the first element of its
    stabiliser whose order is |Stab|, None when there is none.

    H is validated and tested for automorphisms in the order given, so that
    the error or the detail names the first offending element."""
    given, rows, C = _validate_maps(g, w)
    nv = g.n_vertices
    details = []
    reason = map_defect(g, g, given[:, :nv], given[:, nv:] - nv)
    if reason is not None:
        details.append("H element is not an automorphism: " + reason)
    V = rows[:, :nv]
    if not (rows == np.arange(rows.shape[1])).all(axis=1).any():
        details.append("H does not contain the identity")
    closure = _closure_of(rows)
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


def _group_of(closure: PermClosure, rows: np.ndarray) -> FiniteGroup:
    """The multiplication table of the closed set of rows, indexed in the
    order of the rows, which must be the closure's elements once each with
    the identity first.  Relabelling the closure's checked table
    (PermClosure.table) keeps it a group table, so no axiom check runs."""
    at = np.array(closure.indices(rows), dtype=np.intp)
    n = len(closure.elems)
    if len(at) != n or at[0] != 0:
        raise InternalAssertion("H is not its closure with the identity first")
    pos = np.empty(n, dtype=np.int32)
    pos[at] = np.arange(n)
    table = closure.table()
    mul = table[np.ix_(at, at)]
    np.take(pos, mul, out=mul)
    return _wrap_table(mul, pos[closure.inverses(table)[at]], "H")
