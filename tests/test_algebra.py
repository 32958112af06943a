"""Group/permutation layer tests.

Expected values here are either (a) computed by independent brute-force
oracles inside the test (different code path than the module under test), or
(b) immediate consequences of definitions, asserted directly.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from ggraphs import algebra as al
from ggraphs.errors import CapExceeded, NotAGroup, ParseError


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
    with pytest.raises(CapExceeded):
        al.perm_group(
            8,
            [al.Perm.parse("(1 2)", 8), al.Perm.parse("(1 2 3 4 5 6 7 8)", 8)],
            cap=1000,
        )


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
    # Z300 with one intercalate flipped: a latin square with identity in
    # which few triples break associativity
    z300 = al.cyclic_group(300).mul.copy()
    for r in (1, 151):
        for c in (1, 151):
            z300[r, c] = (z300[r, c] + 150) % 300
    with pytest.raises(NotAGroup):
        al.check_group_axioms(z300)


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
