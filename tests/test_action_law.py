"""Item 1's composition law from the action on a checked group table.

On a table that is checked as a group table (or one by construction) and
read-only since, verify_structure decides the law on a slab (start, x, P)
from the generator columns alone: P[x[P[y]] a] == P[y a] for every y and
each generator a.  The strip law _law_holds, which builds every shift of
the slab, is the oracle: both must agree on every slab, clean or with one
entry of x or P changed, and the whole report must match the all-rows
report on a layout that is not made of cosets.
"""

from __future__ import annotations

import copy
import dataclasses
import random
import tracemalloc

import numpy as np
import pytest
from test_structure_reads import CASES, build, case_ids, former_report

from ggraphs import algebra as al
from ggraphs import ggraph as gg
from ggraphs import recognition as rc
from ggraphs.errors import NotAGroup

# ---------------------------------------------------------------------------
# the short condition against the strip law


def slabs(x):
    return gg._shift_slabs(x)[0]


def both_laws(x, slab):
    mul = x.group.mul
    gens = al.generating_set(mul)
    return gg._action_law_holds(mul[:, list(gens)], slab), gg._law_holds(mul, slab, gens)


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
@pytest.mark.parametrize("spec,gens", CASES, ids=case_ids(CASES))
def test_the_action_law_agrees_with_the_strip_law_on_every_slab(spec, gens, loops):
    x = build(spec, gens, loops)
    for slab in slabs(x):
        assert both_laws(x, slab) == (True, True)


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
@pytest.mark.parametrize("spec,gens", CASES, ids=case_ids(CASES))
def test_the_action_law_agrees_on_one_changed_entry(spec, gens, loops):
    """One entry of a slab's x (another element) or of its P (another
    position within the slab), seeded; both laws must give one verdict."""
    x = build(spec, gens, loops)
    n = x.group.order
    rng = random.Random("%s %s %s" % (spec, gens, loops))
    verdicts = set()
    for slab in slabs(x):
        start, xs, pos = slab
        for _ in range(3):
            if pos is None or rng.random() < 0.5:
                xs2 = xs.copy()
                c = rng.randrange(len(xs))
                xs2[c] = (xs2[c] + rng.randrange(1, n)) % n if n > 1 else 0
                changed = (start, xs2, pos)
            else:
                pos2 = pos.copy()
                y = rng.randrange(n)
                pos2[y] = (pos2[y] + rng.randrange(1, len(xs))) % len(xs) if len(xs) > 1 else 0
                changed = (start, xs, pos2)
            short, strip = both_laws(x, changed)
            assert short == strip
            verdicts.add(strip)
    assert False in verdicts


def coset_swapped(x, rng):
    """x with two elements of level 0 swapped between two of its rows and
    membership updated: each element still sits in exactly one row, so the
    layout passes _check_layout, but its rows need not be cosets."""
    lvl = x.levels[0]
    cosets, membership = lvl.cosets.copy(), lvl.membership.copy()
    r1, r2 = rng.sample(range(len(cosets)), 2)
    c1, c2 = rng.randrange(cosets.shape[1]), rng.randrange(cosets.shape[1])
    a, b = cosets[r1, c1], cosets[r2, c2]
    cosets[r1, c1], cosets[r2, c2] = b, a
    membership[a], membership[b] = r2, r1
    moved = dataclasses.replace(lvl, cosets=cosets, membership=membership)
    return dataclasses.replace(x, levels=(moved, *x.levels[1:]))


@pytest.mark.parametrize("loops", [False, True], ids=["phi", "psi"])
@pytest.mark.parametrize("spec,gens", CASES, ids=case_ids(CASES))
def test_a_layout_not_made_of_cosets_matches_the_oracle(spec, gens, loops):
    x = coset_swapped(build(spec, gens, loops), random.Random("%s %s" % (spec, gens)))
    gg._check_layout(x)
    assert x.group.table_checked
    lines = gg.verify_structure(x).lines()
    assert lines == former_report(x)
    assert "composition=False" in lines[0]


# ---------------------------------------------------------------------------
# which tables are checked


def constructed_groups():
    s4 = al.symmetric_group(4)
    yield al.cyclic_group(6)
    yield al.direct_product(al.cyclic_group(2), al.cyclic_group(3))
    yield s4
    yield al.dihedral_group(5)
    yield al.quaternion_group()
    yield al.perm_group(3, [al.Perm.from_cycles([[1, 2, 3]], 3)])
    yield al.group_from_table(al.cyclic_group(4).mul)
    yield al.subgroup_group(s4, al.cyclic_subgroup(s4, 5))[0]
    for spec in ("Z5", "Z2xZ4", "S3", "perm:4:(1,2),(3,4)"):
        yield al.parse_group(spec)
    x = gg.build_phi(s4, [al.parse_element(s4, t) for t in ("(1,2)", "(1,2,3,4)")])
    yield rc.reconstruct(x.graph, rc.shifts_of(x)).group


def test_every_constructor_gives_a_checked_read_only_table():
    for grp in constructed_groups():
        assert grp.table_checked, grp.name
        with pytest.raises(ValueError):
            grp.mul[0, 0] = grp.mul[0, 0]


def test_a_copy_of_a_table_is_not_checked():
    grp = al.symmetric_group(3)
    assert not dataclasses.replace(grp, mul=grp.mul.copy()).table_checked
    assert not dataclasses.replace(grp).table_checked
    assert not copy.deepcopy(grp).table_checked
    z3 = al.cyclic_group(3)
    hand = al.FiniteGroup(name="Z3", order=3, mul=z3.mul, inv=z3.inv)
    assert not hand.table_checked


def test_a_table_made_writeable_again_is_not_checked():
    grp = al.cyclic_group(5)
    grp.mul.flags.writeable = True
    assert not grp.table_checked


def test_group_from_table_keeps_its_own_table():
    m = al.cyclic_group(4).mul.copy()
    grp = al.group_from_table(m)
    m[1, 1] = 3
    assert grp.mul[1, 1] == 2 and grp.mul.dtype == np.int32
    assert grp.table_checked


def test_group_from_table_checks_before_the_int32_cast():
    # 2^32 + 1 wraps to 1 as int32: the check must see the entry itself
    m = al.cyclic_group(4).mul.astype(np.int64)
    m[1, 1] += 1 << 32
    with pytest.raises(NotAGroup):
        al.group_from_table(m)


# ---------------------------------------------------------------------------
# memory


def traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def s6_graph(build_graph):
    s6 = al.symmetric_group(6)
    return build_graph(s6, [al.parse_element(s6, t) for t in ("(1,2)", "(1,2,3,4,5,6)")])


def test_verify_structure_on_a_checked_table_builds_no_slab():
    """Psi(S6) has slabs of up to 720 x 720 shift entries (2 MB as int32);
    on its checked table verify_structure builds none of them."""
    x = s6_graph(gg.build_psi)
    assert gg.verify_structure(x).all_ok  # warm the code paths
    peak = traced_peak(lambda: gg.verify_structure(x))
    assert peak < 512 << 10, peak


@pytest.mark.parametrize("faithful", [True, False], ids=["S6", "Z720"])
def test_shifts_of_holds_two_copies_of_h(faithful):
    """The shifts, a big-endian copy to sort them by, and the sorted rows:
    no more than two of them at once.  The shifts of Phi(Z720, {360}) repeat
    (<360> is their kernel), so the distinct rows are a copy, made after
    the unsorted shifts are dropped."""
    if faithful:
        x = s6_graph(gg.build_phi)
    else:
        x = gg.build_phi(al.cyclic_group(720), [360])
    h_bytes = gg.shifts(x).rows.nbytes
    assert len(rc.shifts_of(x).H) == (720 if faithful else 360)
    peak = traced_peak(lambda: rc.shifts_of(x))
    assert peak <= 2.05 * h_bytes, peak / h_bytes
