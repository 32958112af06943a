"""The group-axiom check and verify_structure read generators where a
theorem says generators are enough; both must stay exact.

check_group_axioms is compared with the definition of a group table (a
two-sided identity, rows and columns that are permutations, and (xy)z =
x(yz) for every triple), on every table of order <= 4 with identity 0 and on
every reduced Latin square of order 6.  verify_structure's items 1 and 2 are
compared with the former code, which read every shift, kept below as an
oracle.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ggraphs import algebra as al
from ggraphs import ggraph as gg
from ggraphs import multigraph as mg
from ggraphs.errors import NotAGroup
from split_shifts import split_shifts

# ---------------------------------------------------------------------------
# the group-axiom check


def group_table_oracle(tables):
    """Which tables of a (B, n, n) batch with identity 0 are group tables:
    rows and columns are permutations, and (xy)z == x(yz) for all x, y, z."""
    B, n, _ = tables.shape
    rng = np.arange(n)
    perm = (np.sort(tables, axis=2) == rng).all(axis=(1, 2)) & (
        np.sort(tables, axis=1) == rng[:, None]
    ).all(axis=(1, 2))
    b = np.arange(B)[:, None, None, None]
    x, y, z = rng[:, None, None], rng[None, :, None], rng[None, None, :]
    left = tables[b, tables[b, x, y], z]
    right = tables[b, x, tables[b, y, z]]
    return perm & (left == right).all(axis=(1, 2, 3))


def accepts(table):
    """check_group_axioms' verdict, and the inverses it returns."""
    try:
        return True, al.check_group_axioms(table)
    except NotAGroup:
        return False, None


def brute_inverses(table):
    return np.array([list(row).index(0) for row in table.tolist()])


def identity_tables(n):
    """Every n x n table with entries in 0..n-1 and identity 0."""
    k = (n - 1) ** 2
    codes = np.arange(n**k)[:, None] // n ** np.arange(k) % n
    tables = np.empty((n**k, n, n), dtype=np.int64)
    tables[:, 0, :] = tables[:, :, 0] = np.arange(n)
    tables[:, 1:, 1:] = codes.reshape(n**k, n - 1, n - 1)
    return tables


def assert_same_verdicts(tables):
    want = np.concatenate(
        [group_table_oracle(tables[i : i + 4096]) for i in range(0, len(tables), 4096)]
    )
    groups = 0
    for table, ok in zip(tables, want.tolist()):
        got, inv = accepts(table)
        assert got == ok, table.tolist()
        if ok:
            groups += 1
            assert inv.tolist() == brute_inverses(table).tolist()
    return groups


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_axiom_check_matches_the_definition_on_every_small_table(n):
    # labelled group tables with identity 0: 1, 1, 1 and 3 (Z4) + 1 (Z2xZ2)
    assert assert_same_verdicts(identity_tables(n)) == {1: 1, 2: 1, 3: 1, 4: 4}[n]


def reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1."""
    sq = [[r if c == 0 else c if r == 0 else -1 for c in range(n)] for r in range(n)]
    in_row = [{r} for r in range(n)]
    in_col = [{c} for c in range(n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]
    out = []

    def fill(i):
        if i == len(cells):
            out.append([row[:] for row in sq])
            return
        r, c = cells[i]
        for v in range(n):
            if v not in in_row[r] and v not in in_col[c]:
                sq[r][c] = v
                in_row[r].add(v)
                in_col[c].add(v)
                fill(i + 1)
                in_row[r].discard(v)
                in_col[c].discard(v)

    fill(0)
    return np.array(out)


def test_axiom_check_matches_the_definition_on_reduced_latin_squares():
    squares = reduced_latin_squares(6)
    assert len(squares) == 9408
    # every row holds the identity, so Light's test alone must decide
    assert assert_same_verdicts(squares) > 0


def closure(mul, gens, identity=0):
    """The elements reached from the identity by right multiplication."""
    reached = {identity}
    queue = [identity]
    for x in queue:
        for t in gens:
            y = int(mul[x, t])
            if y not in reached:
                reached.add(y)
                queue.append(y)
    return reached


def test_generating_set_generates_a_table_that_is_no_group():
    mul = np.array([[0, 1, 2, 3], [1, 1, 0, 2], [2, 2, 0, 1], [3, 3, 1, 2]])
    gens = al.generating_set(mul)
    assert closure(mul, gens) == {0, 1, 2, 3}
    with pytest.raises(NotAGroup):
        al.check_group_axioms(mul)


def test_generating_set_generates_random_tables_with_right_inverses():
    rng = np.random.default_rng(7)
    for trial in range(3000):
        n = 4 + trial % 3
        mul = rng.integers(0, n, size=(n, n))
        mul[0] = mul[:, 0] = np.arange(n)
        for x in range(1, n):  # a right inverse in every row
            mul[x, rng.integers(1, n)] = 0
        gens = al.generating_set(mul)
        assert closure(mul, gens) == set(range(n)), mul.tolist()
        assert all(g not in closure(mul, gens[:k]) for k, g in enumerate(gens))


# ---------------------------------------------------------------------------
# verify_structure against the former all-rows items 1 and 2


def former_items_1_2(x):
    """Items 1 and 2 as verify_structure computed them over all |G| shifts."""
    grp = x.group
    n = grp.order
    g = x.graph
    S_v, S_e = split_shifts(x)
    aut_ok = mg.map_defect(g, g, S_v, S_e) is None
    distinct = len({(S_v[i].tobytes(), S_e[i].tobytes()) for i in range(n)})
    gens = al.generating_set(grp.mul, grp.identity)
    comp_ok = True
    for a in gens:
        if not (S_v[a][S_v] == S_v[grp.mul[:, a]]).all() or not (
            S_e[a][S_e] == S_e[grp.mul[:, a]]
        ).all():
            comp_ok = False
            break
    ok1 = aut_ok and distinct == n and comp_ok
    parts = np.array([v.part for v in g.vertices], dtype=np.int64)
    ok2 = bool((parts[S_v] == parts[None, :]).all())
    return gg.StructureReport([
        gg.ItemReport(
            1, "shift group", ok1,
            "automorphisms=%s distinct=%d/%d composition=%s" % (aut_ok, distinct, n, comp_ok),
        ),
        gg.ItemReport(2, "levels stable", ok2, "checked all |G| shifts"),
    ]).lines()


def make_group(spec):
    if spec == "D6":
        return al.dihedral_group(6)
    if spec == "Q8":
        return al.quaternion_group()
    return al.parse_group(spec)


CASES = [
    ("S4", ["(1,2)", "(1,2,3,4)"]),
    ("S4", ["(1,2)", "(2,3)", "(1,2)"]),
    ("S4", ["(1,2)(3,4)"]),  # one level, no edges: the shifts are not faithful
    ("S5", ["(1,2)", "(1,2,3,4,5)"]),
    ("S5", ["(2,3,4,5)", "(1,3,4,5)"]),
    ("D6", ["(2,6)(3,5)", "(1,2)(3,6)(4,5)"]),
    ("D6", ["(1,2,3,4,5,6)"]),
    ("Q8", ["i", "j"]),
    ("Q8", ["-1"]),
    ("Z4xZ6", ["(1,1)", "(1,2)"]),
    ("Z4xZ6", ["(2,0)", "(0,3)", "(2,0)"]),
    ("Z4xZ6", ["(2,3)"]),
]


def case_ids(cases):
    return ["%s-%s" % (spec, "-".join(gens)) for spec, gens in cases]


def build(spec, gens, loops):
    group = make_group(spec)
    return gg._build(group, [al.parse_element(group, t) for t in gens], loops)


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
@pytest.mark.parametrize("spec,gens", CASES, ids=case_ids(CASES))
def test_verify_structure_matches_the_all_rows_oracle(spec, gens, loops):
    x = build(spec, gens, loops)
    lines = gg.verify_structure(x).lines()
    assert lines[:2] == former_items_1_2(x)
    assert "composition=True" in lines[0]


def test_unfaithful_shifts_are_counted_by_their_kernel():
    # Phi(Q8, {-1}) has no edges, and delta_x = delta_{-x}
    lines = gg.verify_structure(build("Q8", ["-1"], False)).lines()
    assert lines[0] == (
        "item 1 [FAIL] shift group: automorphisms=True distinct=4/8 composition=True"
    )


def corrupt_table(x, a, b, c):
    """x with the entries (a, b) and (a, c) of its group table swapped."""
    mul = x.group.mul.copy()
    mul[a, b], mul[a, c] = mul[a, c], mul[a, b]
    return dataclasses.replace(x, group=dataclasses.replace(x.group, mul=mul))


def moved_endpoint(x, eid):
    """x with edge eid's second end moved to the next vertex of its level."""
    g = mg.Multigraph()
    for v in x.graph.vertices:
        g.add_vertex(v.label, v.part)
    lvl = x.levels[x.vertex_level(x.graph.edges[eid].v)]
    for e in x.graph.edges:
        v = e.v
        if e.id == eid:
            v = lvl.offset + (v - lvl.offset + 1) % len(lvl.cosets)
        g.add_edge(e.u, v, e.label)
    return dataclasses.replace(x, graph=g)


CORRUPTED = [c for c in CASES if len(c[1]) > 1 and c[0] in ("S4", "D6", "Z4xZ6")]


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
@pytest.mark.parametrize("spec,gens", CORRUPTED, ids=case_ids(CORRUPTED))
def test_verify_structure_matches_the_oracle_on_corrupted_input(spec, gens, loops):
    x = build(spec, gens, loops)
    n = x.group.order
    # the composition law fails: the all-rows code runs
    bad = corrupt_table(x, 1, 2, n - 1)
    lines = gg.verify_structure(bad).lines()
    assert lines[:2] == former_items_1_2(bad)
    assert "composition=False" in lines[0]
    # the law holds, but an edge end moved: some generator is no automorphism
    for eid in (0, x.graph.n_edges // 2, x.graph.n_edges - 1):
        bad = moved_endpoint(x, eid)
        lines = gg.verify_structure(bad).lines()
        assert lines[:2] == former_items_1_2(bad)
        assert "automorphisms=False" in lines[0] and "composition=True" in lines[0]
    # a relabelled edge
    bad = dataclasses.replace(x, edge_glabel=x.edge_glabel.copy())
    bad.edge_glabel[0] = (bad.edge_glabel[0] + 1) % n
    assert gg.verify_structure(bad).lines()[:2] == former_items_1_2(bad)


def test_verify_structure_keeps_no_group_sized_temporaries():
    s6 = al.symmetric_group(6)
    x = gg.build_phi(s6, [al.parse_element(s6, t) for t in ("(1,2)", "(1,2,3,4,5,6)")])
    S_v, S_e = split_shifts(x)
    bound = 2 * (S_v.nbytes + S_e.nbytes)
    del S_v, S_e
    tracemalloc.start()
    try:
        report = gg.verify_structure(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_ok
    assert peak <= bound, (peak, bound)


def test_bench_scale_runs(tmp_path):
    """benchmarks/bench_scale.py runs each group in a fresh interpreter and
    writes one record per run: the phases' seconds and peak RSS, and the
    bytes per edge that a rebuilt Phi retains."""
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "scale.json"
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "bench_scale.py"),
         "--groups", "S4,S5", "--repeats", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert {"python", "numpy", "cpu"} <= set(report["machine"])
    phases = ["parse_group", "build_phi", "verify_structure", "verify_psi", "shifts_of",
              "reconstruct"]
    assert [(r["group"], r["order"], r["all_ok"]) for r in report["runs"]] == [
        ("S4", 24, True), ("S5", 120, True)]
    for r in report["runs"]:
        assert list(r["seconds"]) == phases
        assert list(r["peak_rss_mib"]) == ["import", *phases]
        assert r["bytes_per_edge"] > 0
