"""Recognition keeps H as one int32 array (multigraph.GraphAutRows) from
shifts_of to reconstruct.

The former shifts_of, which built every shift as a GraphAut and sorted the
distinct ones as tuples, is kept below as an oracle; check and reconstruct
must answer the same whether H is that list or the array-backed sequence,
in sorted or shuffled order.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from ggraphs import algebra as al
from ggraphs import ggraph as gg
from ggraphs.errors import WitnessInvalid
from ggraphs.multigraph import GraphAut, GraphAutRows, _repeats, _row_order
from ggraphs.recognition import (
    RecognitionWitness,
    check,
    close_under_composition,
    reconstruct,
    shifts_of,
    witness_from_json,
    witness_to_json,
)
from split_shifts import split_shifts
from test_generator_checks import CASES, build, case_ids


def former_shifts(x):
    S_v, S_e = split_shifts(x)
    return [GraphAut(tuple(v), tuple(e)) for v, e in zip(S_v.tolist(), S_e.tolist())]


def former_shifts_of_h(x):
    return sorted(set(former_shifts(x)))


def s4(loops):
    group = al.parse_group("S4")
    return gg._build(group, [al.parse_element(group, t) for t in ("(1,2)", "(1,2,3,4)")], loops)


# ---------------------------------------------------------------------------
# the producers


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
@pytest.mark.parametrize("spec,gens", CASES, ids=case_ids(CASES))
def test_shifts_of_matches_the_former_sorted_set(spec, gens, loops):
    x = build(spec, gens, loops)
    H = shifts_of(x).H
    assert isinstance(H, GraphAutRows)
    assert list(H) == former_shifts_of_h(x)
    assert list(gg.shifts(x)) == former_shifts(x)


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
def test_close_under_composition_matches_sorted_tuples(loops):
    x = s4(loops)
    H = shifts_of(x).H
    closed = close_under_composition(x.graph, [H[1], H[-1]])
    assert isinstance(closed, GraphAutRows)
    assert list(closed) == sorted(closed)
    assert closed[0].is_identity()


def test_row_order_sorts_as_tuples_do():
    rng = np.random.default_rng(5)
    for width in (0, 1, 3, 8):
        rows = rng.integers(0, 4, size=(60, width)).astype(np.int32)
        rows[:, :1] *= 300  # multi-byte entries
        order = _row_order(rows)
        want = sorted(range(60), key=lambda i: tuple(rows[i].tolist()))
        assert order.tolist() == want  # stable: ties keep input order
        seen = [tuple(r) for r in rows[order].tolist()]
        assert _repeats(rows[order]).tolist() == [
            i > 0 and seen[i] == seen[i - 1] for i in range(60)
        ]


# ---------------------------------------------------------------------------
# the sequence


def test_graph_aut_rows_behaves_as_a_read_only_list():
    x = s4(False)
    H = shifts_of(x).H
    L = former_shifts_of_h(x)
    assert len(H) == len(L) and H == L and L == H
    assert H[0] == L[0] and H[-1] == L[-1] and H[5] == L[5]
    assert isinstance(H[2:7], GraphAutRows) and list(H[2:7]) == L[2:7]
    assert list(H[::-1]) == L[::-1]
    assert H[3] in H and L[4] in H[4:] and L[4] not in H[5:]
    assert H[:-1] + [H[0]] == L[:-1] + [L[0]]
    assert isinstance(H + [], list) and H[:1] + L[1:] == L
    assert H.index(L[7]) == 7 and H.count(L[7]) == 1
    assert sorted(H) == L and set(H) == set(L)
    with pytest.raises(ValueError):
        H.rows[0, 0] = 1
    with pytest.raises(TypeError):
        H[0] = L[1]
    with pytest.raises(IndexError):
        H[len(L)]


# ---------------------------------------------------------------------------
# the consumers: list or array, sorted or shuffled


def _variants(x, H, seed):
    perm = list(range(len(H)))
    random.Random(seed).shuffle(perm)
    L = list(H)
    return {
        "rows": H,
        "list": L,
        "shuffled rows": GraphAutRows(H.rows[perm], H.n_vertices),
        "shuffled list": [L[i] for i in perm],
        "int64 rows": GraphAutRows(H.rows[perm].astype(np.int64), H.n_vertices),
    }


MULTI = [
    ("S4", ["(1,2)", "(1,2,3,4)"]),
    ("D6", ["(2,6)(3,5)", "(1,2)(3,6)(4,5)"]),
    ("Q8", ["i", "j"]),  # double edges
    ("Z4xZ6", ["(2,0)", "(0,3)", "(2,0)"]),
]


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
@pytest.mark.parametrize("spec,gens", MULTI, ids=case_ids(MULTI))
def test_check_and_reconstruct_agree_on_every_form_of_h(spec, gens, loops):
    x = build(spec, gens, loops)
    w = shifts_of(x)
    results = {}
    for name, H in _variants(x, w.H, len(spec)).items():
        wit = RecognitionWitness(H, list(w.C))
        r = reconstruct(x.graph, wit)
        i = H.index(w.H[-1])  # the mutant drops the same element from each
        if isinstance(H, GraphAutRows):
            mutant = GraphAutRows(np.delete(H.rows, i, axis=0), H.n_vertices)
        else:
            mutant = H[:i] + H[i + 1 :]
        results[name] = (
            check(x.graph, wit).lines(),
            check(x.graph, RecognitionWitness(mutant, list(w.C))).lines(),
            r.group.mul.tolist(),
            r.group.inv.tolist(),
            r.gens,
            r.iso,
        )
    first = results.pop("rows")
    assert first[0][0] == "witness: ok"
    assert "  H is not closed under composition" in first[1]
    for name, got in results.items():
        assert got == first, name


def test_witness_json_is_the_same_from_rows_or_list():
    x = build("Q8", ["i", "j"], False)  # multi-edges: edge maps are written
    w = shifts_of(x)
    data = witness_to_json(x.graph, w)
    assert "H_generator_edge_maps" in data
    assert data == witness_to_json(x.graph, RecognitionWitness(list(w.H), w.C))
    assert json.loads(json.dumps(data)) == data
    back = witness_from_json(x.graph, data)
    assert isinstance(back.H, GraphAutRows) and back.H == w.H


# ---------------------------------------------------------------------------
# refusals keep their texts


S4_MUTANT_LINES = {
    False: (
        ["witness: FAIL", "orbits_stable: pass", "clique_meets_orbits: pass",
         "stabilizers_cyclic: pass", "regular_action: pass",
         "  H is not closed under composition"],
        "characterisation conditions fail: H is not closed under composition",
    ),
    True: (
        ["witness: FAIL", "clique_meets_orbits: pass", "stabilizers_cyclic: pass",
         "regular_action: pass", "  H is not closed under composition"],
        "characterisation conditions fail: H is not closed under composition",
    ),
}


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
def test_mutants_are_refused_with_the_former_texts(loops):
    x = s4(loops)
    w = shifts_of(x)
    lines, refusal = S4_MUTANT_LINES[loops]
    for H in (w.H[:-1], list(w.H)[:-1]):
        wit = RecognitionWitness(H, list(w.C))
        assert check(x.graph, wit).lines() == lines
        with pytest.raises(WitnessInvalid) as exc:
            reconstruct(x.graph, wit)
        assert str(exc.value) == refusal
    for H in (w.H + [w.H[0]], w.H + [w.H[-1]], w.H[3:4] + list(w.H)):
        for call in (check, reconstruct):
            with pytest.raises(WitnessInvalid) as exc:
                call(x.graph, RecognitionWitness(H, list(w.C)))
            assert str(exc.value) == "H contains repeated elements"


def _malformed(x, H):
    """(H, the refusal) pairs: rows that are no permutation of V or of E."""
    nv, ne = x.graph.n_vertices, x.graph.n_edges
    a = H[1]
    vm, em = list(a.vertex_map), list(a.edge_map)
    swapped = vm[:]
    swapped[0] = vm[1]  # a repeated point
    vertex, edge = ("an H element's %s map is not a permutation" % s for s in ("vertex", "edge"))
    out = [
        ([GraphAut(tuple(vm[:-1]), a.edge_map)], vertex),
        ([GraphAut(tuple(swapped), a.edge_map)], vertex),
        ([GraphAut(tuple(vm[:-1] + [nv]), a.edge_map)], vertex),
        ([GraphAut(tuple(vm[:-1] + [-1]), a.edge_map)], vertex),
        ([GraphAut(tuple(vm[:-1] + [2**40]), a.edge_map)], vertex),
        ([GraphAut(tuple(vm[:-1] + ["x"]), a.edge_map)], vertex),
        ([GraphAut(a.vertex_map, tuple(em + [0]))], edge),
        ([GraphAut(a.vertex_map, tuple(em[:-1] + [ne]))], edge),
        ([GraphAut(a.vertex_map, tuple(em[:-1] + [em[0]]))], edge),
    ]
    rows = H.rows.copy()
    rows[2, 0] = rows[2, 1]
    out.append((GraphAutRows(rows, nv), vertex))
    rows = H.rows.copy()
    rows[2, nv] = rows[2, nv + 1]
    out.append((GraphAutRows(rows, nv), edge))
    rows = H.rows.copy()
    rows[2, 0] = -1
    out.append((GraphAutRows(rows, nv), vertex))
    rows = H.rows.copy()
    rows[2, -1] = nv + ne
    out.append((GraphAutRows(rows, nv), edge))
    out.append((GraphAutRows(rows.astype(np.int64), nv), edge))
    rows = H.rows.copy()
    rows[2, [0, nv]] = rows[2, [nv, 0]]  # a vertex and an edge swapped
    out.append((GraphAutRows(rows, nv), vertex))
    # the rows of another graph: one vertex fewer
    out.append((GraphAutRows(H.rows[:, 1:] - 1, nv - 1), vertex))
    return [(list(H[:2]) + h if isinstance(h, list) else h, why) for h, why in out]


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
def test_malformed_rows_raise_witness_invalid(loops):
    x = s4(loops)
    w = shifts_of(x)
    for H, why in _malformed(x, w.H):
        for call in (check, reconstruct):
            with pytest.raises(WitnessInvalid) as exc:
                call(x.graph, RecognitionWitness(H, list(w.C)))
            assert str(exc.value) == why
