"""Element names and Perm objects computed on first read, and G-graph edges
named only when written out.

``eager_perm_group`` is the former perm_group's naming verbatim: every
element's Perm and cycle string built up front, the name index over the
names, and parse_element's scan of every Perm.  The lazy group must give
the same values on first read; build_and_verify must read none of them; and
named_graph must label each edge with its element's name.
"""

import numpy as np
import pytest

from ggraphs import algebra as al
from ggraphs.errors import ParseError, PreconditionFailed
from ggraphs.ggraph import build_phi, build_psi, named_graph
from ggraphs.ikn import build_and_verify, make_rho_sigma, search_tau

WREATH = "perm:9:(1,2,3),(1,4,7)(2,5,8)(3,6,9)"  # Z3 wr Z3, order 81
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25)


def eager_perm_group(degree, gens):
    """The former perm_group's perms, names and name index."""
    closure = al.perm_closure([np.array(p.img) - 1 for p in gens], degree)
    perms = tuple(al.Perm(tuple(x + 1 for x in row)) for row in closure.elems.tolist())
    names = tuple(p.cycle_string() for p in perms)
    return perms, names, {n: i for i, n in enumerate(names)}


def eager_parse_element(perms, name, text):
    """The former parse_element on a permutation group: compare against
    every Perm."""
    p = al.Perm.parse(text.strip(), perms[0].degree)
    for i, q in enumerate(perms):
        if q == p:
            return i
    raise ParseError("permutation %s is not in %s" % (p, name))


@pytest.fixture(scope="module")
def certificates():
    return {n: search_tau(n).certificates[0].tau for n in PRIME_POWERS}


def _cases():
    cases = []
    for n in range(1, 7):
        gens = [al.Perm.from_cycles([[1, 2]], n)] if n >= 2 else []
        if n >= 3:
            gens.append(al.Perm.from_cycles([list(range(1, n + 1))], n))
        cases.append(pytest.param(lambda c, n=n: al.symmetric_group(n), n, gens, id="S%d" % n))
    for n in range(3, 9):
        rot = al.Perm.from_cycles([list(range(1, n + 1))], n)
        refl = al.Perm(tuple((n + 1 - k) % n + 1 for k in range(1, n + 1)))
        cases.append(pytest.param(lambda c, n=n: al.dihedral_group(n), n, [rot, refl], id="D%d" % n))
    wreath = [al.Perm.parse(t, 9) for t in al.split_top_level(WREATH.split(":", 2)[2])]
    cases.append(pytest.param(lambda c: al.parse_group(WREATH), 9, wreath, id="Z3wrZ3"))
    for n in PRIME_POWERS:
        cases.append(pytest.param(
            lambda c, n=n: al.perm_group(n, [make_rho_sigma(n).sigma, c[n]], name="IK%d" % n),
            n, None, id="IK%d" % n,
        ))
    return cases


@pytest.mark.parametrize("build,degree,gens", _cases())
def test_lazy_names_and_perms_match_the_eager_code(build, degree, gens, certificates):
    if gens is None:  # an I(K_n) group
        gens = [make_rho_sigma(degree).sigma, certificates[degree]]
    perms, names, index = eager_perm_group(degree, gens)
    g = build(certificates)
    # elem_name(x) names x alone, before any tuple exists
    assert [g.elem_name(x) for x in g.elements()] == list(names)
    assert "elem_names" not in vars(g) and "perms" not in vars(g)
    # parse_element finds each element without building its Perm tuple
    for x, text in enumerate(names):
        assert al.parse_element(g, text) == eager_parse_element(perms, g.name, text) == x
    assert "perms" not in vars(g)
    assert g.perms == perms
    assert g.elem_names == names
    assert g.name_index() == index
    if degree >= 4:  # a transposition outside the group is refused by both
        for text in ("(1,2)", "(1,3)", "(2,4)"):
            p = al.Perm.parse(text, degree)
            if p not in perms:
                with pytest.raises(ParseError):
                    al.parse_element(g, text)
                with pytest.raises(ParseError):
                    eager_parse_element(perms, g.name, text)


def test_group_from_table_keeps_the_perms_it_is_given():
    z2 = [[0, 1], [1, 0]]
    swap, one = al.Perm((2, 1, 3)), al.Perm.identity(3)
    g = al.group_from_table(z2, perms=(one, swap))
    assert g.perms == (one, swap) and g.elem_names == ("0", "1")
    assert al.parse_element(g, "(1,2)") == 1
    with pytest.raises(ParseError):
        al.parse_element(g, "(1,3)")
    for perms in [(one,), (one, swap, swap), (al.Perm((1,)), swap), (swap, swap), (swap, one),
                  (one, one)]:
        with pytest.raises(PreconditionFailed):
            al.group_from_table(z2, perms=perms)
    with pytest.raises(PreconditionFailed):
        al.group_from_table([[0]], perms=(swap,))  # no generator to multiply by
    z3, cycle = [[0, 1, 2], [1, 2, 0], [2, 0, 1]], al.Perm((2, 3, 1))
    assert al.group_from_table(z3, perms=(one, cycle, cycle * cycle)).perms[2] == cycle * cycle
    with pytest.raises(PreconditionFailed, match="multiply"):
        al.group_from_table(z3, perms=(one, cycle, swap))


@pytest.mark.parametrize("spec,gens", [("S4", ["(1,2,3)", "(1,2)(3,4)"]), (WREATH, ["(1,2,3)"])],
                         ids=["S4", "wreath"])
def test_a_subgroup_finds_its_permutations_through_an_index_built_on_first_use(spec, gens):
    """A subgroup_group result has perm_rows but no index until
    parse_element first asks for one; every element's cycle string gives
    back its index, and an ambient permutation outside it is refused."""
    g = al.parse_group(spec)
    elems = al.generated_subgroup(g, [al.parse_element(g, t) for t in gens])
    sub, _ = al.subgroup_group(g, elems)
    assert sub._perm_index is None and sub.order < g.order
    for x in sub.elements():
        assert al.parse_element(sub, sub.elem_name(x)) == x
    assert isinstance(sub._perm_index, al.RowIndex)
    assert sub.perm_element(al.Perm.identity(sub.perm_rows.shape[1] + 1)) is None
    outside = next(x for x in g.elements() if x not in set(elems))
    with pytest.raises(ParseError, match="is not in"):
        al.parse_element(sub, g.elem_name(outside))


def test_build_and_verify_names_nothing(monkeypatch, certificates):
    calls = []
    cycle_string = al.Perm.cycle_string
    monkeypatch.setattr(
        al.Perm, "cycle_string", lambda p: calls.append(p) or cycle_string(p)
    )
    for n, tau in certificates.items():
        rep = build_and_verify(n, tau)
        assert rep.ok, n
        assert "perms" not in vars(rep.group) and "elem_names" not in vars(rep.group)
    assert calls == []


def _named_cases():
    s3 = al.symmetric_group(3)
    q8 = al.quaternion_group()
    return [
        pytest.param(s3, [al.parse_element(s3, "(1,2)"), al.parse_element(s3, "(1,2,3)")], id="S3"),
        pytest.param(al.cyclic_group(6), [2, 3], id="Z6"),
        pytest.param(q8, [q8.name_index()["i"], q8.name_index()["j"]], id="Q8"),
    ]


@pytest.mark.parametrize("construct", [build_phi, build_psi], ids=["Phi", "Psi"])
@pytest.mark.parametrize("grp,gens", _named_cases())
def test_named_graph_labels_each_edge_with_its_element(grp, gens, construct):
    gg = construct(grp, gens)
    named = named_graph(gg)
    assert all(e.label == "" for e in gg.graph.edges)
    assert [(v.label, v.part) for v in named.vertices] == [
        (v.label, v.part) for v in gg.graph.vertices
    ]
    assert [(e.id, e.u, e.v) for e in named.edges] == [(e.id, e.u, e.v) for e in gg.graph.edges]
    assert [e.label for e in named.edges] == [
        grp.elem_name(x) for x in gg.edge_glabel.tolist()
    ]
