"""Recognition closes H over its own rows and reads only its generators
with map_defect once H is closed; the answers must not change.

The former closure test and group table (tests/former_recognition.py,
which re-closes H with perm_closure and reads every element) are the
oracle.  On Phi and Psi of every case of test_generator_checks, with H the
shifts and with five mutants of it, the closed/not-closed outcome, every
check line, and reconstruct's group, generators and isomorphism (or its
refusal) must be identical.  The H-order closure must also be able to
fail: each single tampered entry of its right or left multiplication,
a product that matches a row on the key columns only, and an H of more
elements than the group-order cap.
"""

from __future__ import annotations

import former_recognition as former
import numpy as np
import pytest
from test_generator_checks import CASES, build, case_ids

from ggraphs import algebra as al
from ggraphs import recognition as rec
from ggraphs.errors import CapExceeded, InternalAssertion, PreconditionFailed, WitnessInvalid
from ggraphs.ggraph import build_phi
from ggraphs.multigraph import GraphAutRows, Multigraph, map_defect


def outcome(g, w):
    """Whether H is closed, the check lines, and reconstruct's group
    table, inverses, generators and isomorphism, or its refusal."""
    closure = rec._run_checks(g, w, g.has_loops())[2]
    lines = rec.check(g, w).lines()
    try:
        r = rec.reconstruct(g, w)
    except WitnessInvalid as exc:
        return closure is not None, lines, str(exc)
    return closure is not None, lines, (r.group.mul.tolist(), r.group.inv.tolist(), r.gens, r.iso)


def defect(g, rows):
    nv = g.n_vertices
    return map_defect(g, g, rows[:, :nv], rows[:, nv:] - nv)


def transpositions(nv, degree):
    """Each swap of two vertices or of two edges, as a permutation of V
    and E taken together."""
    for lo, hi in ((0, nv), (nv, degree)):
        for a in range(lo, hi):
            for b in range(a + 1, hi):
                p = np.arange(degree, dtype=np.int32)
                p[[a, b]] = b, a
                yield p


def mutants(g, H: GraphAutRows) -> dict:
    """H (sorted, identity first) less its last row; with its last row
    replaced by a permutation outside H; without the identity; trivial; and
    conjugated by the first vertex or edge swap that is no automorphism
    and leaves some element no automorphism."""
    rows, nv = H.rows, H.n_vertices
    out = {"H[:-1]": H[:-1], "no identity": H[1:], "trivial": H[:1]}
    members = {row.tobytes() for row in rows}
    for p in transpositions(nv, rows.shape[1]):
        other = rows[-1][p]
        if other.tobytes() not in members:
            out["non-member"] = GraphAutRows(np.vstack((rows[:-1], other)), nv)
            break
    for p in transpositions(nv, rows.shape[1]):
        conj = p[rows[:, p]]  # p h p^-1, p an involution
        if defect(g, p[None]) is not None and defect(g, conj) is not None:
            out["conjugated"] = GraphAutRows(conj, nv)
            break
    return out


def with_former(monkeypatch, f):
    with monkeypatch.context() as m:
        m.setattr(rec, "_run_checks", former._run_checks)
        m.setattr(rec, "_group_of", former._group_of)
        return f()


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
@pytest.mark.parametrize("spec,gens", CASES, ids=case_ids(CASES))
def test_h_closure_matches_the_former_closure(spec, gens, loops, monkeypatch):
    x = build(spec, gens, loops)
    w = rec.shifts_of(x)
    witnesses = {"shifts": w}
    for name, H in mutants(x.graph, w.H).items():
        witnesses[name] = rec.RecognitionWitness(H, w.C)
    got = {name: outcome(x.graph, v) for name, v in witnesses.items()}
    want = with_former(monkeypatch, lambda: {name: outcome(x.graph, v) for name, v in witnesses.items()})
    assert got == want
    assert got["shifts"][0] and got["trivial"][0]
    assert not got["no identity"][0] or len(w.H) == 1
    assert not got["H[:-1]"][0] or len(w.H) <= 2
    assert not got.get("non-member", (False,))[0]
    if "conjugated" in got:
        closed, lines, refusal = got["conjugated"]
        assert closed and isinstance(refusal, str)
        assert any(line.startswith("  H element is not an automorphism: ") for line in lines)


def test_every_case_with_an_edge_has_a_conjugated_mutant():
    """The conjugated mutant, closed but no automorphism group, exists
    for every case with an edge: with none, every vertex swap is an
    automorphism."""
    for spec, gens in CASES:
        for loops in (False, True):
            x = build(spec, gens, loops)
            found = "conjugated" in mutants(x.graph, rec.shifts_of(x).H)
            assert found == (x.graph.n_edges > 0), (spec, gens, loops)


def s4_phi():
    grp = al.symmetric_group(4)
    return build_phi(grp, [al.parse_element(grp, "(1,2)"), al.parse_element(grp, "(1,2,3,4)")])


def test_a_closed_automorphism_group_is_read_at_generator_cost(monkeypatch):
    """map_defect reads only the generators of a closed H, and no
    perm_closure runs on more than one row (the stabilisers' cyclic test
    closes one row each)."""
    x = s4_phi()
    w = rec.shifts_of(x)
    read, closed = [], []
    real_defect, real_closure = rec.map_defect, rec.perm_closure
    monkeypatch.setattr(rec, "map_defect", lambda g1, g2, V, E: read.append(len(V)) or real_defect(g1, g2, V, E))
    monkeypatch.setattr(rec, "perm_closure", lambda gens, *a: closed.append(len(gens)) or real_closure(gens, *a))
    assert rec.check(x.graph, w).ok
    assert read == [2] and set(closed) == {1}
    read.clear()
    assert not rec.check(x.graph, rec.RecognitionWitness(w.H[:-1], w.C)).ok
    assert read == [23]  # not closed: every element, in the order given


def s4_closure():
    return al.row_closure(rec.shifts_of(s4_phi()).H.rows)


def test_the_h_order_closure_holds_h_in_its_own_order():
    closure = s4_closure()
    rows = closure.elems
    n, k = closure.rmul.shape
    assert (n, k) == (24, 2)
    for s, h in enumerate(closure.rmul[0]):
        for x in range(n):
            assert (rows[x][rows[h]] == rows[closure.rmul[x, s]]).all()
            assert (rows[h][rows[x]] == rows[closure.lmul[s, x]]).all()
    for j in closure.found[1:]:
        assert closure.found.index(closure.parent[j]) < closure.found.index(j)
    mul = closure.table()
    assert (al.check_group_axioms(mul) == closure.inverses(mul)).all()


def test_every_single_entry_tamper_of_the_h_order_closure_is_refused():
    """Each entry of the H-order rmul and lmul, changed to another element,
    makes the table refuse; so does an lmul entry that is a lookup's -1."""
    n, k = s4_closure().rmul.shape
    for name in ("rmul", "lmul"):
        for s in range(k):
            for j in range(n):
                for to in ("next", "miss") if name == "lmul" else ("next",):
                    bad = s4_closure()
                    arr = getattr(bad, name)
                    at = (j, s) if name == "rmul" else (s, j)
                    arr[at] = (arr[at] + 1) % n if to == "next" else -1
                    with pytest.raises(InternalAssertion):
                        bad.table()


def test_a_product_matching_a_row_on_the_key_columns_only_is_not_closed():
    """H with one row r replaced by r2, which differs from r by swapping
    its last two edge images: r is still a product of two rows, and r2
    agrees with it on every other column, but the whole row does not
    match."""
    x = s4_phi()
    w = rec.shifts_of(x)
    rows, nv = w.H.rows, w.H.n_vertices
    a, b = rows.shape[1] - 2, rows.shape[1] - 1
    r = rows[5]
    r2 = r.copy()
    r2[[a, b]] = r[[b, a]]
    mutant = rows.copy()
    mutant[5] = r2
    index = al.RowIndex(mutant)
    assert (r != r2).sum() == 2
    assert index.find(r[None]).tolist() == [-1]
    assert index.find(r2[None]).tolist() == [5]
    assert al.row_closure(mutant) is None
    lines = rec.check(x.graph, rec.RecognitionWitness(GraphAutRows(mutant, nv), w.C)).lines()
    assert "  H is not closed under composition" in lines


def test_an_h_above_the_cap_is_refused_before_any_table(monkeypatch):
    """An H of 9312 > 8192 elements that passes every condition: the affine
    group x -> ax + b of Z_97 acting on 97 isolated vertices, one orbit
    whose point stabilisers are cyclic of order 96.  reconstruct raises
    CapExceeded before any left multiplication or table is built."""
    p = 97
    g = Multigraph()
    g.add_vertices([""] * p, [None] * p)
    a, b, x = np.ogrid[1:p, 0:p, 0:p]
    H = GraphAutRows(((a * x + b) % p).reshape(-1, p).astype(np.int32), p)
    w = rec.RecognitionWitness(H, [0])
    assert len(H) == 9312 and rec.check(g, w).ok
    monkeypatch.setattr(al.PermClosure, "lmul", property(lambda self: pytest.fail("lmul built")))
    with pytest.raises(CapExceeded, match="group order 9312 exceeds cap 8192"):
        rec.reconstruct(g, w)


def test_group_of_refuses_rows_that_are_not_its_closures_elements():
    closure = s4_closure()
    rec._group_of(closure, closure.elems)
    with pytest.raises(InternalAssertion):
        rec._group_of(closure, closure.elems.copy())


def test_a_row_index_refuses_repeated_rows():
    rows = np.array([[0, 1, 2], [1, 0, 2], [0, 1, 2]], dtype=np.int32)
    with pytest.raises(PreconditionFailed):
        al.RowIndex(rows)
