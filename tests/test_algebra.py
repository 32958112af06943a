"""Group/permutation layer tests.

Expected values here are either (a) computed by independent brute-force
oracles inside the test (different code path than the module under test), or
(b) immediate consequences of definitions, asserted directly.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from ggraphs import algebra as al
from ggraphs.errors import CapExceeded, NotAGroup, ParseError, PreconditionFailed


# ---------------------------------------------------------------------------
# oracles


def oracle_order(mul, x, identity=0):
    """Order by repeated left folding, independent of algebra.power."""
    k, y = 1, x
    while y != identity:
        y = mul[y][x]
        k += 1
    return k


def oracle_perm_closure(gens):
    """Closure over image tuples with LEFT multiplication (different walk
    than perm_group's) -- the resulting SET must agree."""
    def comp(p, q):  # (p*q)(x) = p(q(x))
        return tuple(p[q[i] - 1] for i in range(len(q)))

    ident = tuple(range(1, len(gens[0]) + 1))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in gens:
            for x in frontier:
                y = comp(g, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# permutations


def test_perm_compose_is_right_to_left():
    p = al.Perm.parse("(1 2)", 3)
    q = al.Perm.parse("(2 3)", 3)
    # (p*q)(3) = p(q(3)) = p(2) = 1
    assert (p * q)(3) == 1
    assert (p * q).img == (2, 3, 1)  # (1 2 3)... check: 1->p(q(1))=p(1)=2 yes


def test_perm_conjugate_relabels_cycles():
    p = al.Perm.parse("(1 2 3)", 3)
    q = al.Perm.parse("(2 3)", 3)
    c = al.conjugate(p, q)  # q p q^-1 relabels points of p by q
    assert c == al.Perm.parse("(1 3 2)", 3)


def test_perm_order_sign_cycles():
    p = al.Perm.parse("(1 2)(3 4 5)", 6)
    assert p.order == 6
    # sign oracle: count inversions
    inv = sum(
        1
        for i, j in itertools.combinations(range(1, 7), 2)
        if p(i) > p(j)
    )
    assert p.sign == (-1) ** inv
    assert p.cycles() == [(1, 2), (3, 4, 5), (6,)]
    assert p.cycle_string() == "(1,2)(3,4,5)(6)"


def test_perm_parse_tolerates_comma_between_cycles():
    a = al.Perm.parse("(1 2)(3 4)", 5)
    b = al.Perm.parse("(1,2),(3,4)", 5)
    assert a == b


def test_perm_parse_rejects_garbage():
    with pytest.raises(ParseError):
        al.Perm.parse("(1 2", 3)
    with pytest.raises(ParseError):
        al.Perm.parse("(1 2)(2 3)", 3)  # repeated point
    with pytest.raises(ParseError):
        al.Perm.parse("x(1 2)", 3)


def test_perm_inverse_roundtrip_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 9)
        img = list(range(1, n + 1))
        rng.shuffle(img)
        p = al.Perm(tuple(img))
        assert p * p.inverse() == al.Perm.identity(n)
        assert p.inverse() * p == al.Perm.identity(n)


# ---------------------------------------------------------------------------
# group constructors


@pytest.mark.parametrize("n", range(1, 65))
def test_cyclic_group_table_is_the_sum_mod_n(n):
    idx = np.arange(n, dtype=np.int32)
    want = (idx[:, None] + idx[None, :]) % n
    mul = al.cyclic_group(n).mul
    assert mul.dtype == want.dtype and (mul == want).all()


def test_cyclic_group_table_has_no_table_sized_temporary():
    tracemalloc.start()
    try:
        z = al.cyclic_group(2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * z.mul.nbytes, peak / z.mul.nbytes


def test_cyclic_group_table():
    g = al.cyclic_group(6)
    assert g.order == 6
    assert g.mul[2, 3] == 5
    assert g.mul[4, 4] == 2
    assert g.inv[3] == 3 and al.cyclic_group(4).inv[3] == 1


def test_direct_product_encoding_and_orders():
    g = al.direct_product(al.cyclic_group(2), al.cyclic_group(3))
    assert g.order == 6
    # (1,1) has index 1*3+1 = 4; its order must be lcm(2,3)=6
    assert g.elem_names[4] == "(1,1)"
    assert oracle_order(g.mul.tolist(), 4) == 6
    assert al.element_order(g, 4) == 6
    g2 = al.direct_product(al.cyclic_group(4), al.cyclic_group(2))
    assert al.element_order(g2, al.parse_element(g2, "(1,0)")) == 4


def test_triple_product_flat_names():
    g = al.parse_group("Z2xZ2xZ2")
    assert g.order == 8
    assert g.elem_names[5] == "(1,0,1)"
    assert al.parse_element(g, "(1,0,1)") == 5


def test_symmetric_group_order_and_identity_index():
    for n, fact in [(1, 1), (2, 2), (3, 6), (4, 24)]:
        g = al.symmetric_group(n)
        assert g.order == fact
        assert g.perms[0] == al.Perm.identity(n)


def test_perm_group_closure_matches_oracle():
    # the subgroup <(1 2 3 4 5), (2 3 5 4)> of S_5 has order 20
    sigma = al.Perm.parse("(1 2 3 4 5)", 5)
    tau = al.Perm.parse("(2 3 5 4)", 5)
    g = al.perm_group(5, [sigma, tau])
    oracle = oracle_perm_closure([sigma.img, tau.img])
    assert g.order == len(oracle) == 20
    assert {p.img for p in g.perms} == oracle


def test_perm_group_cap():
    # |S8| = 40320 exceeds DEFAULT_CLOSURE_CAP
    with pytest.raises(CapExceeded):
        al.symmetric_group(8)


def test_a_permutation_group_of_degree_0_is_refused():
    with pytest.raises(PreconditionFailed, match="degree >= 1"):
        al.perm_group(0, [])
    with pytest.raises(PreconditionFailed, match="degree >= 1"):
        al.group_from_table([[0]], perms=(al.Perm(()),))


def test_perm_element_of_a_group_with_no_permutations_is_refused():
    with pytest.raises(PreconditionFailed, match="Z3 is not a permutation group"):
        al.cyclic_group(3).perm_element(al.Perm((2, 3, 1)))


def test_dihedral_and_quaternion():
    d4 = al.dihedral_group(4)
    assert d4.order == 8
    assert not d4.is_abelian()
    q8 = al.quaternion_group()
    assert q8.order == 8
    assert not q8.is_abelian()
    # i*j = k, j*i = -k
    names = q8.elem_names
    i, j = names.index("i"), names.index("j")
    assert names[q8.mul[i, j]] == "k"
    assert names[q8.mul[j, i]] == "-k"
    # exactly one element of order 2 (that is -1)
    two = [x for x in q8.elements() if al.element_order(q8, x) == 2]
    assert two == [names.index("-1")]


def test_group_axioms_reject_non_groups():
    bad = np.array([[0, 1], [1, 1]])
    with pytest.raises(NotAGroup):
        al.check_group_axioms(bad)
    # latin square that is not associative (order 5 loop)
    loop = np.array(
        [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
    )
    with pytest.raises(NotAGroup):
        al.check_group_axioms(loop)
    # a caller's table keeps the full check
    with pytest.raises(NotAGroup, match="associativity"):
        al.group_from_table(loop)
    # Z300 with one intercalate flipped: a latin square with identity in
    # which few triples break associativity
    z300 = al.cyclic_group(300).mul.copy()
    for r in (1, 151):
        for c in (1, 151):
            z300[r, c] = (z300[r, c] + 150) % 300
    with pytest.raises(NotAGroup):
        al.check_group_axioms(z300)


@pytest.mark.parametrize(
    "table",
    [
        [[0, 1], [1, 0.7]],  # 0.7 truncated to 0 gave Z2
        [[0, 1], [1]],  # ragged
        [["0", "1"], ["1", "0"]],  # not numbers
        [[0, 1], [1, 2**40]],  # beyond int32
        np.array([[0, 1], [1, 2**32]]),  # wraps to 0 in int32
    ],
    ids=["fraction", "ragged", "strings", "beyond-int32", "int64-wrap"],
)
def test_group_from_table_refuses_a_table_of_non_integers(table):
    with pytest.raises(NotAGroup):
        al.group_from_table(table)


@pytest.mark.parametrize(
    "make",
    [
        lambda: al.cyclic_group(2.5),  # was a "Z2" of order 3
        lambda: al.symmetric_group(2.5),
        lambda: al.dihedral_group(3.5),
    ],
    ids=["cyclic", "symmetric", "dihedral"],
)
def test_non_integer_group_size_is_a_precondition_failure(make):
    with pytest.raises(PreconditionFailed):
        make()


def test_integer_types_still_size_a_group():
    assert al.cyclic_group(np.int64(4)).name == "Z4"
    assert al.group_from_table(np.array([[0, 1], [1, 0]], dtype=np.uint8)).order == 2


def test_oversized_groups_raise_cap_exceeded():
    # refused before any order^2 table is allocated
    with pytest.raises(CapExceeded):
        al.parse_group("Z1000xZ1000")
    with pytest.raises(CapExceeded):
        al.symmetric_group(8)
    assert al.parse_group("S7").order == 5040


def test_parse_group_refuses_large_degree_before_any_perm(no_permutations):
    cap = al.DEFAULT_CLOSURE_CAP
    for spec in ("perm:99999999:(1,2)", "perm:%d:(1,2)" % (cap + 1), "S%d" % (cap + 1), "S99999999"):
        with pytest.raises(CapExceeded, match="degree"):
            al.parse_group(spec)
    assert al._check_degree(cap) == cap


def test_parse_group_refuses_overlong_numbers(no_permutations):
    """int() refuses literals over 4300 digits with a bare ValueError."""
    digits = "1" + "0" * 5000
    for spec in ("S" + digits, "Z" + digits, "Z2xZ" + digits, "perm:%s:(1,2)" % digits):
        with pytest.raises(ParseError, match="5001 digits"):
            al.parse_group(spec)


def test_generating_set_generates_greedily():
    for g in (al.symmetric_group(5), al.parse_group("Z2xZ2xZ4"), al.quaternion_group()):
        gens = al.generating_set(g.mul, g.identity)
        assert al.generated_subgroup(g, gens) == tuple(range(g.order))
        for k, x in enumerate(gens):
            assert x not in al.generated_subgroup(g, gens[:k])


def former_generating_set(mul, identity=0):
    """generating_set as it was: the identity's orbit under the picks is
    rebuilt from scratch with orbits after each pick."""
    n = mul.shape[0]
    gens = []
    reached = np.zeros(n, dtype=bool)
    reached[identity] = True
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        reached[al.orbits(mul[:, gens].T, n, [identity])[0]] = True
    return tuple(gens)


def former_orbits(maps, n_points, starts=None):
    """orbits as it was: each frontier deduplicated by np.unique."""
    maps = np.asarray(maps).reshape(len(maps), n_points)
    seen = np.zeros(n_points, dtype=bool)
    out = []
    for start in range(n_points) if starts is None else starts:
        if seen[start]:
            continue
        seen[start] = True
        found = frontier = np.array([start])
        while len(frontier):
            img = np.unique(maps[:, frontier])
            frontier = img[~seen[img]]
            seen[frontier] = True
            found = np.concatenate((found, frontier))
        out.append(np.sort(found))
    return out


def test_orbits_match_the_former_implementation():
    rng = np.random.default_rng(3)
    for trial in range(300):
        n = 1 + trial % 17
        k = trial % 4
        if trial % 2:  # permutations
            maps = np.array([rng.permutation(n) for _ in range(k)]).reshape(k, n)
        else:  # any maps, as an unchecked witness may hold
            maps = rng.integers(0, n, size=(k, n))
        starts = None if trial % 3 else rng.permutation(n)[: 1 + n // 2].tolist()
        got = al.orbits(maps, n, starts)
        want = former_orbits(maps, n, starts)
        assert [o.tolist() for o in got] == [o.tolist() for o in want]


def relabelled(g, seed):
    """g's table with its elements renamed by a random permutation, so the
    identity is at some other index and the greedy picks change."""
    rng = np.random.default_rng(seed)
    new = rng.permutation(g.order)  # element x is called new[x]
    mul = np.empty_like(g.mul)
    mul[np.ix_(new, new)] = new[g.mul]
    return mul, int(new[g.identity])


def test_generating_set_matches_the_former_implementation():
    groups = [al.cyclic_group(n) for n in (1, 2, 6, 13, 64)]
    groups += [al.parse_group(s) for s in ("Z2xZ2xZ2xZ2", "Z12xZ12", "Z4xZ6xZ10")]
    groups += [al.symmetric_group(n) for n in (1, 2, 3, 4, 5)]
    groups += [al.dihedral_group(n) for n in (3, 8, 15)]
    groups += [al.quaternion_group(), al.parse_group("perm:6:(1,2,3)(4,5),(1,4)")]
    s4 = al.symmetric_group(4)
    groups.append(al.subgroup_group(s4, al.generated_subgroup(s4, [1, 2]))[0])
    for g in groups:
        assert al.generating_set(g.mul, g.identity) == former_generating_set(g.mul, g.identity), g.name
        for seed in range(3):
            mul, identity = relabelled(g, seed)
            al.check_group_axioms(mul, identity)
            assert al.generating_set(mul, identity) == former_generating_set(mul, identity), g.name


# ---------------------------------------------------------------------------
# subgroups and cosets


def test_element_order_random_against_oracle():
    g = al.symmetric_group(4)
    rng = random.Random(3)
    for _ in range(30):
        x = rng.randrange(g.order)
        assert al.element_order(g, x) == oracle_order(g.mul.tolist(), x)
        assert al.element_order(g, x) == g.perms[x].order


def test_cyclic_subgroup_and_coset_partition():
    g = al.cyclic_group(6)
    assert al.cyclic_subgroup(g, 2) == (0, 2, 4)
    cosets = {al.right_coset(g, 2, x).elems for x in g.elements()}
    assert cosets == {(0, 2, 4), (1, 3, 5)}
    # cosets partition G and each has |<s>| elements
    seen = sorted(x for c in cosets for x in c)
    assert seen == list(g.elements())


def test_right_coset_in_nonabelian_group():
    g = al.symmetric_group(3)
    s = al.parse_element(g, "(1,2,3)")
    t = al.parse_element(g, "(1,2)")
    c = al.right_coset(g, s, t)
    # <(123)>(12) is the set of odd permutations
    odd = {x for x in g.elements() if g.perms[x].sign == -1}
    assert set(c.elems) == odd
    assert c.rep == min(odd)


def test_generated_subgroup_matches_bruteforce():
    g = al.symmetric_group(4)
    a = al.parse_element(g, "(1,2)")
    b = al.parse_element(g, "(3,4)")
    sub = al.generated_subgroup(g, [a, b])
    # brute force: all products of words up to length 4
    grow = {0}
    for _ in range(4):
        grow |= {int(g.mul[x, y]) for x in grow for y in (a, b)}
    assert set(sub) == grow
    assert len(sub) == 4


def test_subgroup_group_reindexes():
    g = al.cyclic_group(12)
    sub, pos = al.subgroup_group(g, al.cyclic_subgroup(g, 3))
    assert sub.order == 4
    # 3+6 = 9 inside the subgroup
    assert sub.mul[pos[3], pos[6]] == pos[9]
    al.check_group_axioms(sub.mul)


SUBGROUPS = [
    ("S4", [["(1,2)", "(1,2,3,4)"], ["(1,2,3)"], ["(1,2)(3,4)", "(1,3)(2,4)"],
            ["(1,2,3,4)"], ["(1,2)", "(3,4)"], ["(1,2,3)", "(1,2)"]]),
    ("S5", [["(1,2,3,4,5)"], ["(1,2,3,4,5)", "(2,5)(3,4)"], ["(1,2,3)", "(3,4,5)"],
            ["(1,2)", "(1,2,3,4,5)"]]),
    ("S6", [["(1,2)", "(1,2,3,4,5,6)"], ["(1,2,3)(4,5,6)", "(1,4)"]]),
    ("Z8xZ12", [["(2,0)"], ["(0,3)", "(4,0)"], ["(1,1)"], ["(2,4)", "(4,6)"]]),
    ("Z4xZ4", [["(1,0)"], ["(2,2)"], ["(1,1)", "(0,2)"], ["(1,0)", "(0,1)"]]),
]


@pytest.mark.parametrize(
    "spec, gens",
    [(spec, gens) for spec, sets in SUBGROUPS for gens in sets],
    ids=["%s<%s>" % (spec, ",".join(gens)) for spec, sets in SUBGROUPS for gens in sets],
)
def test_subgroup_group_equals_the_checked_table(spec, gens):
    """subgroup_group wraps its table unchecked; group_from_table's check
    must give the same group."""
    g = al.parse_group(spec)
    gens = [al.parse_element(g, x) for x in gens]
    elems = al.generated_subgroup(g, gens)
    sub, pos = al.subgroup_group(g, elems, name="H")
    checked = al.group_from_table(
        sub.mul, name="H", elem_names=tuple(g.elem_name(x) for x in sorted(elems)),
        perms=None if g.perms is None else tuple(g.perms[x] for x in sorted(elems)),
    )
    assert sub.order == checked.order == len(elems)
    assert sub.mul.dtype == checked.mul.dtype and (sub.mul == checked.mul).all()
    assert sub.inv.dtype == checked.inv.dtype and (sub.inv == checked.inv).all()
    assert sub.elem_names == checked.elem_names
    assert sub.perms == checked.perms
    assert (sub.identity, sub.name, sub.factor_orders) == (0, "H", None)
    # every entry is the ambient product and inverse, reindexed
    inv = {x: int(g.inv[x]) for x in elems}
    assert all(pos[inv[x]] == sub.inv[pos[x]] for x in elems)
    assert all(sub.mul[pos[x], pos[t]] == pos[int(g.mul[x, t])] for x in elems for t in gens)


def test_subgroup_group_ignores_repeated_elements():
    g = al.cyclic_group(6)
    sub, pos = al.subgroup_group(g, [0, 3, 3, 0])
    assert sub.order == 2 and pos == {0: 0, 3: 1}
    al.check_group_axioms(sub.mul)


def test_factorize():
    assert al.factorize(1) == {}
    assert al.factorize(12) == {2: 2, 3: 1}
    assert al.factorize(97) == {97: 1}


# ---------------------------------------------------------------------------
# parsing


def test_parse_group_grammar():
    assert al.parse_group("Z6").order == 6
    assert al.parse_group("Z4xZ2").order == 8
    assert al.parse_group("S4").order == 24
    g = al.parse_group("perm:4:(1 2 3 4),(2 4)")
    assert g.order == 8  # D4
    with pytest.raises(ParseError):
        al.parse_group("F4")
    with pytest.raises(ParseError):
        al.parse_group("perm:3:")
    with pytest.raises(ParseError, match="degree must be >= 1, got 0"):
        al.parse_group("perm:0:()")


def test_parse_element_forms():
    g = al.parse_group("Z6")
    assert al.parse_element(g, "4") == 4
    with pytest.raises(ParseError):
        al.parse_element(g, "6")
    h = al.parse_group("S3")
    x = al.parse_element(h, "(1 2)")
    assert h.perms[x] == al.Perm.parse("(1 2)", 3)
    # fixed points may be written or omitted
    assert al.parse_element(h, "(2,3)") == al.parse_element(h, "(1)(2,3)")


def test_split_top_level():
    assert al.split_top_level("(1,0),(0,1)") == ["(1,0)", "(0,1)"]
    assert al.split_top_level("2,3") == ["2", "3"]
    assert al.split_top_level("(1 2)(3 4),(1 3)") == ["(1 2)(3 4)", "(1 3)"]
    with pytest.raises(ParseError):
        al.split_top_level("(1,2")


# ---------------------------------------------------------------------------
# one rule per group fact


def test_identity_is_element_zero_for_every_group():
    groups = [al.cyclic_group(6), al.parse_group("Z2xZ3xZ4"), al.symmetric_group(4),
              al.quaternion_group(), al.direct_product(al.symmetric_group(3), al.cyclic_group(2))]
    for g in groups:
        assert g.identity == 0 == al.FiniteGroup.identity, g.name
        assert g.mul[0].tolist() == list(range(g.order)), g.name
    assert "identity" not in {f.name for f in dataclasses.fields(al.FiniteGroup)}


def test_group_from_table_refuses_an_identity_elsewhere():
    """Z6 relabelled so that its identity is element 3 is not a FiniteGroup
    table: there is no identity keyword, and element 0 must be the identity."""
    z6 = al.cyclic_group(6)
    new = np.array([3, 1, 2, 0, 4, 5])  # swap 0 and 3
    old = np.argsort(new)
    mul = new[z6.mul[np.ix_(old, old)]]
    assert al.check_group_axioms(mul, 3).tolist() == new[z6.inv[old]].tolist()
    with pytest.raises(NotAGroup, match="index 0 is not an identity"):
        al.group_from_table(mul)
    with pytest.raises(TypeError):
        al.group_from_table(mul, identity=3)


def test_power_reduces_the_exponent_mod_the_order():
    z6 = al.cyclic_group(6)
    assert al.power(z6, 1, 10**12) == 4
    assert al.power(z6, 5, -10**12) == 4
    s5 = al.symmetric_group(5)
    for x in range(0, s5.order, 7):
        o = oracle_order(s5.mul, x)
        assert al.element_order(s5, x) == o
        y = 0
        for k in range(2 * o + 1):
            assert al.power(s5, x, k) == y
            assert al.power(s5, int(s5.inv[x]), -k) == y
            y = int(s5.mul[y, x])
        assert al.cyclic_subgroup(s5, x) == tuple(sorted(al._powers(s5, x)))


@pytest.mark.parametrize(
    "spec, want",
    [
        ("Z2xZ3", ["(0,0)", "(0,1)", "(0,2)", "(1,0)"]),
        ("Z2xZ3xZ4", ["(0,0,0)", "(0,0,1)", "(0,0,2)", "(0,0,3)", "(0,1,0)"]),
        ("Z2xZ2xZ2xZ2", ["(0,0,0,0)", "(0,0,0,1)", "(0,0,1,0)"]),
    ],
)
def test_product_names_are_flat_tuples_of_coordinates(spec, want):
    g = al.parse_group(spec)
    assert list(g.elem_names[: len(want)]) == want
    orders = g.factor_orders
    for x in range(g.order):  # mixed radix, last factor fastest
        digits, rem = [], x
        for f in reversed(orders):
            digits.append(rem % f)
            rem //= f
        assert g.elem_names[x] == "(%s)" % ",".join(map(str, reversed(digits)))
        assert al.parse_element(g, g.elem_names[x]) == x


def test_product_names_ignore_the_bracketing_of_cyclic_factors():
    z2, z3, z4 = (al.cyclic_group(n) for n in (2, 3, 4))
    left = al.direct_product(al.direct_product(z2, z3), z4)
    right = al.direct_product(z2, al.direct_product(z3, z4))
    assert left.elem_names == right.elem_names == al.parse_group("Z2xZ3xZ4").elem_names
    assert left.factor_orders == right.factor_orders == (2, 3, 4)
    mixed = al.direct_product(al.symmetric_group(3), al.parse_group("Z2xZ2"))
    assert mixed.factor_orders is None
    assert mixed.elem_names[1] == "((1)(2)(3),(0,1))"
