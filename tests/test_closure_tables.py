"""Row-order closure tables, checked at generator cost, against the
column-built table they replaced.

``oracle_table`` is the former ``PermClosure.table`` verbatim, and the
oracle groups wrap it with ``group_from_table``, whose full axiom check
gave the inverses.  The new builders must give the same tables, inverses,
names and perms; every new table must still pass the full check; and a
closure whose right or left multiplication is off by one entry must be
refused.
"""

import tracemalloc

import numpy as np
import pytest

from ggraphs import algebra as al
from ggraphs import recognition
from ggraphs.errors import InternalAssertion
from ggraphs.ggraph import build_phi, build_psi, shifts

WREATH = "perm:9:(1,2,3),(1,4,7)(2,5,8)(3,6,9)"  # Z3 wr Z3, order 81


def oracle_table(closure):
    """The former PermClosure.table: column j is one gather, built as rows
    of the transpose."""
    n = len(closure.parent)
    mul_t = np.empty((n, n), dtype=np.int32)
    mul_t[0] = np.arange(n)
    for j in range(1, n):
        np.take(closure.rmul[:, closure.gen[j]], mul_t[closure.parent[j]], out=mul_t[j])
    return np.ascontiguousarray(mul_t.T)


def oracle_perm_group(degree, gens, name):
    """The former perm_group: the column-built table through the full check."""
    closure = al.perm_closure([np.array(p.img) - 1 for p in gens], degree)
    perms = tuple(al.Perm(tuple(x + 1 for x in row)) for row in closure.elems.tolist())
    return al.group_from_table(
        oracle_table(closure), name=name,
        elem_names=tuple(p.cycle_string() for p in perms), perms=perms,
    )


def oracle_group_of(rows):
    """The former recognition._group_of, on H closed by its own
    perm_closure."""
    closure = al.perm_closure(rows, rows.shape[1])
    at = closure.indices(rows)
    pos = np.empty(len(closure.elems), dtype=np.int32)
    pos[at] = np.arange(len(rows))
    return al.group_from_table(pos[oracle_table(closure)[np.ix_(at, at)]], name="H")


def assert_same_group(got, want):
    assert (got.name, got.order, got.identity) == (want.name, want.order, want.identity)
    assert got.mul.dtype == want.mul.dtype == np.int32
    assert got.inv.dtype == want.inv.dtype == np.int32
    assert got.mul.flags.c_contiguous
    assert (got.mul == want.mul).all() and (got.inv == want.inv).all()
    assert got.elem_names == want.elem_names
    assert got.perms == want.perms
    assert got.factor_orders == want.factor_orders
    # the full check still passes, and finds the same inverses
    assert (al.check_group_axioms(got.mul, got.identity) == got.inv).all()


def _perm_cases():
    cases = []
    for n in range(1, 7):
        gens = [al.Perm.from_cycles([[1, 2]], n)] if n >= 2 else []
        if n >= 3:
            gens.append(al.Perm.from_cycles([list(range(1, n + 1))], n))
        cases.append(pytest.param(lambda n=n: al.symmetric_group(n), n, gens, "S%d" % n, id="S%d" % n))
    for n in range(3, 13):
        rot = al.Perm.from_cycles([list(range(1, n + 1))], n)
        refl = al.Perm(tuple((n + 1 - k) % n + 1 for k in range(1, n + 1)))
        cases.append(pytest.param(lambda n=n: al.dihedral_group(n), n, [rot, refl], "D%d" % n, id="D%d" % n))
    wreath = [al.Perm.parse(t, 9) for t in al.split_top_level(WREATH.split(":", 2)[2])]
    cases.append(pytest.param(lambda: al.parse_group(WREATH), 9, wreath, WREATH, id="Z3wrZ3"))
    return cases


@pytest.mark.parametrize("build,degree,gens,name", _perm_cases())
def test_perm_groups_match_the_column_built_table(build, degree, gens, name):
    assert_same_group(build(), oracle_perm_group(degree, gens, name))


@pytest.mark.parametrize("spec", ["Z1", "Z7", "Z12", "Z2xZ2", "Z3xZ4", "Z2xZ3xZ4", "Z12xZ12"])
def test_cyclic_and_product_tables_pass_the_full_check(spec):
    grp = al.parse_group(spec)
    want = al.group_from_table(
        grp.mul, name=grp.name, elem_names=grp.elem_names, factor_orders=grp.factor_orders,
    )
    assert_same_group(grp, want)


def test_products_of_permutation_groups_pass_the_full_check():
    grp = al.direct_product(al.symmetric_group(3), al.dihedral_group(4))
    assert_same_group(grp, al.group_from_table(grp.mul, name=grp.name, elem_names=grp.elem_names))


@pytest.mark.parametrize("builder", [build_phi, build_psi], ids=["Phi", "Psi"])
def test_reconstructed_h_matches_the_former_table(builder):
    grp = al.symmetric_group(4)
    gg = builder(grp, [al.parse_element(grp, "(1,2)"), al.parse_element(grp, "(1,2,3,4)")])
    w = recognition.shifts_of(gg)
    _, rows, closure, _ = recognition._run_checks(gg.graph, w, builder is build_psi)
    assert_same_group(recognition._group_of(closure, rows), oracle_group_of(rows))
    assert recognition.reconstruct(gg.graph, w).group.order == 24


def _s4_closure():
    return al.perm_closure([[1, 0, 2, 3], [1, 2, 3, 0]], 4)


def test_every_single_entry_tamper_is_refused():
    """Each entry of rmul and of lmul, changed to another element, makes
    the table refuse: the checks are exact, not spot checks."""
    closure = _s4_closure()
    n, k = closure.rmul.shape
    assert (closure.table() == oracle_table(closure)).all()
    for name in ("rmul", "lmul"):
        for s in range(k):
            for j in range(n):
                bad = _s4_closure()
                arr = getattr(bad, name)
                if name == "rmul":
                    arr[j, s] = (arr[j, s] + 1) % n
                else:
                    arr[s, j] = (arr[s, j] + 1) % n
                with pytest.raises(InternalAssertion):
                    bad.table()


def test_a_broken_schreier_vector_is_refused():
    bad = _s4_closure()
    bad.gen[5] = 1 - bad.gen[5]
    with pytest.raises(InternalAssertion):
        bad.table()


def test_s6_table_builds_without_a_full_size_temporary():
    al.parse_group("S3")  # warm the code paths
    tracemalloc.start()
    try:
        grp = al.parse_group("S6")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * grp.mul.nbytes, peak / grp.mul.nbytes


def test_shift_arrays_fill_without_a_full_size_temporary():
    grp = al.symmetric_group(6)
    gg = build_phi(grp, [al.parse_element(grp, "(1,2)"), al.parse_element(grp, "(1,2,3,4,5,6)")])
    shifts(gg)  # warm the code paths
    tracemalloc.start()
    try:
        rows = shifts(gg).rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * rows.nbytes, peak / rows.nbytes
