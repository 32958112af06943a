"""Finite groups as dense multiplication tables, plus permutation arithmetic
(``Perm`` lives in the numpy-free ``perm`` module and is re-exported here).

Conventions used across the package:

- group elements are dense indices 0..order-1, and the identity of every
  FiniteGroup is element 0 (``FiniteGroup.identity`` is that constant);
- composition is right-to-left: (p*q)(x) = p(q(x)), and the table entry
  mul[a, b] is the element "a times b" under that same convention;
- permutations act on points 1..n;
- each group fact has one rule here: ``_powers`` is the one walk of <x>,
  ``right_cosets`` gives every right coset, ``direct_product`` names
  every product element;
- element names, and a permutation group's ``Perm`` objects, are computed
  on first read: a group holds a function that names one element.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import (
    CapExceeded, InternalAssertion, NotAGroup, ParseError, PreconditionFailed, _index,
)
# re-exported: the same objects as in perm
from .perm import DEFAULT_CLOSURE_CAP, Perm, _check_degree, conjugate

# ---------------------------------------------------------------------------
# permutation-group core: integer permutation arrays of points 0..degree-1,
# composed right-to-left, so the product p * q is the gather p[q]


def _check_order(n: int) -> None:
    """Refuse a group whose table would exceed DEFAULT_CLOSURE_CAP elements."""
    if n > DEFAULT_CLOSURE_CAP:
        raise CapExceeded(
            "group order %d exceeds cap %d" % (n, DEFAULT_CLOSURE_CAP)
        )


class RowIndex:
    """An exact index of distinct int32 rows (an (n, width) array), such
    as a permutation group's elements.

    A row's key is the row itself: its bytes read as one np.void scalar, a
    view of the rows, so two keys are equal exactly when the rows are.  The
    keys are argsorted once, and a lookup is two binary searches in that
    order: a row is found where the run of keys equal to it is not empty."""

    def __init__(self, rows: np.ndarray):
        self.keys = _row_keys(rows)
        self.order = np.argsort(self.keys)
        # each row's run starts at its own place in the order unless the
        # row is repeated
        left = np.searchsorted(self.keys, self.keys, sorter=self.order)
        if (left[self.order] != np.arange(len(left))).any():
            raise PreconditionFailed("indexed rows must be distinct")

    def find(self, perms: np.ndarray) -> np.ndarray:
        """The index of each row of perms among the indexed rows, -1 where
        it is none of them."""
        keys = _row_keys(perms)
        left, right = (
            np.searchsorted(self.keys, keys, side, sorter=self.order)
            for side in ("left", "right")
        )
        at = np.full(len(keys), -1, dtype=np.intp)
        hit = right > left
        at[hit] = self.order[left[hit]]
        return at


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of an (n, width) array, width >= 1, as one np.void scalar of
    its int32 bytes: a view when the rows are contiguous int32."""
    rows = np.ascontiguousarray(rows, dtype=np.int32)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]


_GATHER = 1 << 17  # points per np.take in PermClosure.lmul


@dataclass
class PermClosure:
    """A permutation group reached breadth first from the identity.

    elems[0] is the identity and elems[j] = elems[parent[j]] * gens[gen[j]]
    for j > 0 (a Schreier vector); found lists the indices in the order
    they were reached, each after its parent; rmul[i, s] is the index of
    elems[i] * gens[s]; index is a RowIndex of elems.  rmul is read off
    real compositions, so the table and its checks take it as given.
    """

    elems: np.ndarray  # (order, degree) int32
    parent: list[int]
    gen: list[int]
    rmul: np.ndarray  # (order, number of generators)
    gens: np.ndarray  # (number of generators, degree) int32
    found: Sequence[int]

    @cached_property
    def index(self) -> RowIndex:
        return RowIndex(self.elems)

    def indices(self, perms: np.ndarray) -> np.ndarray:
        """Each row's index, -1 for no element, which the table refuses."""
        return self.index.find(perms)

    @cached_property
    def lmul(self) -> np.ndarray:
        """lmul[s, j] = the index of gens[s] * elems[j], from the products
        and |G|·k lookups: computed apart from rmul, so that table can check
        one against the other.  The products are gathered about _GATHER
        points at a time: np.take copies its int32 indices as intp."""
        n, degree = self.elems.shape
        step = max(1, _GATHER // degree)
        lmul = np.empty((len(self.gens), n), dtype=np.int32)
        for s, g in enumerate(self.gens):
            for i in range(0, n, step):
                lmul[s, i : i + step] = self.indices(np.take(g, self.elems[i : i + step]))
        return lmul

    def inverses(self, mul: np.ndarray) -> np.ndarray:
        """inv[j] = the index of elems[j]^-1, read off this closure's table
        mul along the Schreier vector: elems[j]^-1 = gens[gen[j]]^-1 *
        elems[parent[j]]^-1, and a generator's inverse is where its row
        holds the identity 0, its least entry."""
        rows = [mul[np.argmin(mul[t])].tolist() for t in self.rmul[0]]
        inv = [0] * len(self.parent)
        for j in self.found[1:]:
            inv[j] = rows[self.gen[j]][inv[self.parent[j]]]
        return np.array(inv, dtype=np.int32)

    def table(self) -> np.ndarray:
        """The Cayley table mul[i, j] = index of elems[i] * elems[j], built
        row by row and checked at generator cost.

        Row i is row parent[i] read through lmul[gen[i]], because
        elems[i] * elems[j] = elems[parent[i]] * (gens[gen[i]] * elems[j]);
        every write is one contiguous row.  By induction along found from
        row 0 = 0..n-1, the table is exact once lmul and the Schreier vector
        are.
        Two checks make that so, each at |G|·k or |G|·k² cost, and a
        mismatch raises InternalAssertion:

        - lmul[s] maps 0 to gens[s] and commutes with every right
          multiplication rmul[:, r] (left and right products associate).
          Every index is reached from 0 by right multiplications along the
          Schreier vector, so lmul[s] is left multiplication by gens[s].
        - The generator columns equal rmul.  Row i is then left
          multiplication by the element its parent chain spells, and its
          column gens[r] names that element times gens[r], which rmul says
          is elems[i] * gens[r]; so the chain spells elems[i].

        The generator rows must also equal lmul.  An exact table is a group
        table, so no axiom check runs on it."""
        n = len(self.parent)
        _check_order(n)
        lmul, rmul = self.lmul, self.rmul
        at = rmul[0]  # the generators' indices
        if not ((lmul[:, 0] == at).all() and (lmul[:, rmul] == rmul[lmul]).all()):
            raise InternalAssertion("left multiplication disagrees with the closure")
        mul = np.empty((n, n), dtype=np.int32)
        mul[0] = np.arange(n)
        for i in self.found[1:]:
            np.take(mul[self.parent[i]], lmul[self.gen[i]], out=mul[i])
        if not ((mul[:, at] == rmul).all() and (mul[at] == lmul).all()):
            raise InternalAssertion("closure table disagrees with its generators")
        return mul


def perm_closure(gens, degree: int, cap: int = DEFAULT_CLOSURE_CAP) -> PermClosure:
    """The group generated by the permutation arrays gens, breadth first:
    each element in turn is multiplied on the right by every generator.
    Raises CapExceeded when the group has more than cap elements."""
    gens = np.array(gens, dtype=np.int32).reshape(len(gens), degree)
    elems = [np.arange(degree, dtype=np.int32)]
    seen = {elems[0].tobytes(): 0}  # only while it grows
    parent, gen, rmul = [-1], [-1], []
    for i, x in enumerate(elems):  # elems grows behind i: a queue
        for s, y in enumerate(x[gens]):
            key = y.tobytes()
            j = seen.get(key)
            if j is None:
                j = len(elems)
                if j >= cap:
                    raise CapExceeded("closure exceeds cap %d" % cap)
                seen[key] = j
                elems.append(y)
                parent.append(i)
                gen.append(s)
            rmul.append(j)
    n = len(elems)
    return PermClosure(
        np.array(elems).reshape(n, degree), parent, gen,
        np.array(rmul, dtype=np.int32).reshape(n, len(gens)), gens, range(n),
    )


def row_closure(rows: np.ndarray) -> PermClosure | None:
    """The group generated by the distinct int32 permutation rows, indexed
    in their own order, when they are closed under composition; else None.

    The identity must be row 0.  Generators are picked greedily
    (_greedy_reach): the first row not yet reached joins.  For each, one
    gather gives every row times it, looked up through a RowIndex of the
    rows; a product outside them means they are not closed.  Once every
    row is reached, the rows are the group the generators generate, and
    rmul and the Schreier vector are in the rows' indices."""
    n, degree = rows.shape
    if not (rows[0] == np.arange(degree)).all():
        return None
    index = RowIndex(rows)

    def column(h):
        at = index.find(np.take(rows, rows[h], axis=1))  # row x times row h, for every x
        return None if (at < 0).any() else at.tolist()

    reach = _greedy_reach(n, column)
    if reach is None:
        return None
    gens, cols, found, parent = reach
    rmul = np.array(cols, dtype=np.int32).reshape(len(gens), n).T
    # gen[y]: a generator that takes parent[y] to y (the identity has none)
    gen = np.argmax(rmul[parent] == np.arange(n)[:, None], axis=1).tolist() if gens else [-1]
    closure = PermClosure(rows, parent, gen, rmul, rows[gens], found)
    closure.index = index  # the one its lookups went through
    return closure


def orbits(maps, n_points: int, starts=None) -> list[np.ndarray]:
    """Orbits of the group generated by the point maps (rows of maps, each a
    permutation of 0..n_points-1), each ascending.

    One orbit per start point not already covered, in the order of starts
    (by default every point, which orders the orbits by their minimum)."""
    maps = np.asarray(maps).reshape(len(maps), n_points)
    seen = np.zeros(n_points, dtype=bool)
    out = []
    for start in range(n_points) if starts is None else starts:
        if seen[start]:
            continue
        seen[start] = True
        found = frontier = np.array([start])
        while len(frontier):
            img = maps[:, frontier].ravel()
            img = np.sort(img[~seen[img]])
            frontier = img[np.diff(img, prepend=-1) != 0]  # each new point once
            seen[frontier] = True
            found = np.concatenate((found, frontier))
        out.append(np.sort(found))
    return out


# ---------------------------------------------------------------------------
# groups


@dataclass(eq=False)
class FiniteGroup:
    """A finite group given by its full multiplication table, with its
    identity at element 0.

    Names are computed on first read: elem_name(x) names x alone, and
    elem_names builds the whole tuple once.  A permutation group keeps its
    elements as integer rows, and perms builds their Perm objects the same
    way; perm_rows is not None exactly when it is a permutation group."""

    identity: ClassVar[int] = 0
    name: str
    order: int
    mul: np.ndarray  # (order, order); mul[a, b] = a*b
    inv: np.ndarray  # (order,)
    # cyclic factor orders when the group is a direct product of cyclics
    factor_orders: tuple[int, ...] | None = None
    # permutation groups: row x is element x as the images of the points
    # 0..degree-1 (int32)
    perm_rows: np.ndarray | None = field(default=None, repr=False)
    _namer: Callable[[int], str] = field(default=str, repr=False)  # names one element
    _perm_index: RowIndex | None = field(default=None, repr=False)  # None until a lookup
    _name_index: dict = field(default=None, repr=False, compare=False)
    # the table _wrap_table was handed, made read-only there
    _checked: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def elements(self) -> range:
        return range(self.order)

    @property
    def table_checked(self) -> bool:
        """Whether mul is still the group table that _wrap_table wrapped:
        checked as a group table, or one by construction, and read-only
        since.  A FiniteGroup built by hand, a dataclasses.replace copy or
        a deep copy has none, and a table made writeable again loses it."""
        return self.mul is self._checked and not self.mul.flags.writeable

    def is_abelian(self) -> bool:
        return bool((self.mul == self.mul.T).all())

    def elem_name(self, x: int) -> str:
        return self._namer(_index(x, "element", self.order))

    @cached_property
    def elem_names(self) -> tuple[str, ...]:
        return tuple(map(self._namer, range(self.order)))

    @cached_property
    def perms(self) -> tuple[Perm, ...] | None:
        """Each element's Perm for a permutation group, else None."""
        if self.perm_rows is None:
            return None
        return tuple(Perm(tuple(x + 1 for x in row)) for row in self.perm_rows.tolist())

    def perm_element(self, p: Perm) -> int | None:
        """The element that is the permutation p; None when p is not in this
        permutation group (a permutation of another degree is not).
        PreconditionFailed when this group has no permutations."""
        if self.perm_rows is None:
            raise PreconditionFailed("%s is not a permutation group" % self.name)
        if p.degree != self.perm_rows.shape[1]:
            return None
        if self._perm_index is None:
            self._perm_index = RowIndex(self.perm_rows)
        x = self._perm_index.find(np.array([p.img], dtype=np.int32) - 1)[0]
        return None if x < 0 else int(x)

    def name_index(self) -> dict:
        if self._name_index is None:
            self._name_index = {n: i for i, n in enumerate(self.elem_names)}
        return self._name_index


def check_group_axioms(mul: np.ndarray, identity: int = 0) -> np.ndarray:
    """Raise NotAGroup unless mul is a group table with the given identity;
    return the inverses.

    Three tests decide it exactly: identity is a two-sided identity, every
    row holds the identity (each x has a right inverse, which is returned),
    and Light's test passes.  An associative table with a two-sided
    identity and right inverses is a group, so its rows and columns are
    permutations and each right inverse is the inverse."""
    mul = np.asarray(mul)
    if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
        raise NotAGroup("table is not square")
    n = mul.shape[0]
    if n == 0:
        raise NotAGroup("empty table")
    if mul.min() < 0 or mul.max() >= n:
        raise NotAGroup("table entries out of range")
    rng_n = np.arange(n)
    if not (mul[identity] == rng_n).all() or not (mul[:, identity] == rng_n).all():
        raise NotAGroup("index %d is not an identity" % identity)
    inv = np.argmax(mul == identity, axis=1).astype(np.int32)
    if not (mul[rng_n, inv] == identity).all():
        raise NotAGroup("an element has no inverse")
    # Light's test: (xt)y == x(ty) for all x, y and every t of a generating
    # set.  The t that pass are closed under products, and every element is
    # a product of generators, so the whole table is associative.
    for t in generating_set(mul, identity):
        if not (mul[mul[:, t]] == mul[:, mul[t]]).all():
            raise NotAGroup("associativity fails")
    return inv


def group_from_table(
    mul,
    name: str = "G",
    elem_names: tuple[str, ...] | None = None,
    *,
    factor_orders: tuple[int, ...] | None = None,
    perms: tuple[Perm, ...] | None = None,
) -> FiniteGroup:
    """Validate a raw table, whose identity must be element 0, and wrap it.
    Entries must be integers: a float is refused, not truncated.

    perms, when given, must be a faithful copy of the group: the identity's
    is the identity permutation, element x's times t's is mul[x, t]'s for
    each t of a generating set (enough, by the induction in
    incidence._is_homomorphism), and no other element's is the identity,
    so no two elements share one."""
    try:
        mul = np.asarray(mul)
    except ValueError:  # a ragged table
        raise NotAGroup("table is not a square array") from None
    if mul.size and mul.dtype.kind not in "iu":
        raise NotAGroup("table entries are not integers")
    inv = check_group_axioms(mul)
    rows = None
    if perms is not None:
        degrees = {p.degree for p in perms}
        if len(perms) != len(inv) or len(degrees) != 1 or 0 in degrees:
            raise PreconditionFailed(
                "perms must be one permutation per element, all of one degree >= 1"
            )
        rows = np.array([p.img for p in perms], dtype=np.int32) - 1
        if not (rows[0] == np.arange(rows.shape[1])).all():
            raise PreconditionFailed("the identity's permutation is not the identity")
        for t in generating_set(mul):
            if not (rows[mul[:, t]] == rows[:, rows[t]]).all():
                raise PreconditionFailed("perms do not multiply as the table does")
        if (rows[1:] == rows[0]).all(axis=1).any():
            raise PreconditionFailed("two elements share a permutation")
    # an owned int32 copy, cast only after the check: a cast first could
    # wrap an entry out of range into it, and a view would let the caller
    # change the checked table
    return _wrap_table(
        np.array(mul, dtype=np.int32), inv, name, elem_names,
        factor_orders=factor_orders, perm_rows=rows,
    )


def _wrap_table(mul, inv, name, elem_names=None, **fields) -> FiniteGroup:
    """Wrap a table known to be a group table, with its inverses, unchecked:
    group_from_table's check, or a construction that proves it.  The group
    takes mul over: it is made read-only and recorded, so table_checked
    holds while the group keeps it.

    elem_names is a sequence of names, or a function that names one
    element when a name is read; by default element x is named str(x)."""
    if elem_names is None:
        namer = str
    elif callable(elem_names):
        namer = elem_names
    else:
        namer = tuple(elem_names).__getitem__
    mul.flags.writeable = False
    grp = FiniteGroup(name=name, order=mul.shape[0], mul=mul, inv=inv, _namer=namer, **fields)
    grp._checked = mul
    return grp


def cyclic_group(n: int) -> FiniteGroup:
    """Z_n, addition mod n.  It is a group by construction (the integers mod
    n), so no axiom check runs on its table."""
    n = _index(n, "n")
    if n < 1:
        raise PreconditionFailed("cyclic_group needs n >= 1")
    _check_order(n)
    idx = np.arange(n, dtype=np.int32)
    mul = np.empty((n, n), dtype=np.int32)  # x + y, reduced in place
    np.add(idx[:, None], idx[None, :], out=mul)
    np.remainder(mul, n, out=mul)
    return _wrap_table(mul, (n - idx) % n, "Z%d" % n, factor_orders=(n,))


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """G1 x G2 with (a, b) encoded as a*|G2| + b, so (0, 0) is element 0.

    (a, b)(c, d) = (ac, bd) is associative because each coordinate is,
    (e1, e2) is a two-sided identity and (a^-1, b^-1) inverts (a, b); so the
    table is a group table by construction, and no axiom check runs on it.
    It is written in int32, one block of |G2| rows per element a of G1,
    with no temporary the size of the table.
    (a, b) is named "(a,b)", without the factors' own parentheses when both
    are products of cyclic groups: Z2xZ3xZ4 has "(1,2,3)"."""
    n1, n2 = g1.order, g2.order
    _check_order(n1 * n2)
    mul = np.empty((n1 * n2, n1 * n2), dtype=np.int32)
    for a in range(n1):
        # rows (a, b) for every b: entry (c, d) is mul1[a, c]*|G2| + mul2[b, d]
        block = mul[a * n2 : (a + 1) * n2].reshape(n2, n1, n2)
        np.add((g1.mul[a] * n2)[:, None], g2.mul[:, None, :], out=block)
    inv = (g1.inv[:, None] * n2 + g2.inv[None, :]).ravel().astype(np.int32)
    cyclic = g1.factor_orders is not None and g2.factor_orders is not None

    def coordinate(namer):
        return (lambda x: namer(x).strip("()")) if cyclic else namer

    a_name, b_name = coordinate(g1._namer), coordinate(g2._namer)
    return _wrap_table(
        mul, inv, "%sx%s" % (g1.name, g2.name),
        lambda x: "(%s,%s)" % (a_name(x // n2), b_name(x % n2)),
        factor_orders=g1.factor_orders + g2.factor_orders if cyclic else None,
    )


def perm_group(
    degree: int,
    generators,
    *,
    name: str | None = None,
) -> FiniteGroup:
    """Close a set of permutations and build the table; identity gets index 0,
    the rest are indexed in breadth-first discovery order.  Raises
    CapExceeded above DEFAULT_CLOSURE_CAP elements.

    No axiom check runs: PermClosure.table proves its table exact by
    induction over the Schreier vector, checked at generator cost, and the
    Cayley table of a permutation group is a group table.  The inverses come
    from the closure, and so do the element rows and their index, so no Perm
    object or name is built until one is read."""
    if degree < 1:
        raise PreconditionFailed("perm_group needs degree >= 1, got %d" % degree)
    gens = list(generators)
    for p in gens:
        if p.degree != degree:
            raise PreconditionFailed("generator degree != %d" % degree)
        if sorted(p.img) != list(range(1, degree + 1)):
            raise PreconditionFailed("generator %r is not a permutation of 1..%d" % (p.img, degree))
    closure = perm_closure([np.array(p.img) - 1 for p in gens], degree)
    mul = closure.table()
    rows = closure.elems
    return _wrap_table(
        mul, closure.inverses(mul), name or "Perm%d" % degree,
        lambda x: Perm(tuple(v + 1 for v in rows[x].tolist())).cycle_string(),
        perm_rows=rows, _perm_index=closure.index,
    )


def symmetric_group(n: int) -> FiniteGroup:
    n = _index(n, "n")
    if n < 1:
        raise PreconditionFailed("symmetric_group needs n >= 1")
    gens = []
    if n >= 2:
        gens.append(Perm.from_cycles([[1, 2]], n))
    if n >= 3:
        gens.append(Perm.from_cycles([list(range(1, n + 1))], n))
    return perm_group(n, gens, name="S%d" % n)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of a regular n-gon (order 2n), as permutations of 1..n."""
    n = _index(n, "n")
    if n < 3:
        raise PreconditionFailed("dihedral_group needs n >= 3")
    rot = Perm.from_cycles([list(range(1, n + 1))], n)
    refl = Perm(tuple((n + 1 - k) % n + 1 for k in range(1, n + 1)))
    return perm_group(n, [rot, refl], name="D%d" % n)


def quaternion_group() -> FiniteGroup:
    """Q8 = {1,-1,i,-i,j,-j,k,-k} as a Cayley table."""
    # element index = 2*axis + (sign < 0), axes ordered 1, i, j, k
    axis_mul = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (2, 0): (2, 1), (3, 0): (3, 1),
        (1, 1): (0, -1), (2, 2): (0, -1), (3, 3): (0, -1),
        (1, 2): (3, 1), (2, 3): (1, 1), (3, 1): (2, 1),
        (2, 1): (3, -1), (3, 2): (1, -1), (1, 3): (2, -1),
    }
    mul = np.empty((8, 8), dtype=np.int32)
    for a in range(8):
        for b in range(8):
            ax, sa = a // 2, -1 if a % 2 else 1
            bx, sb = b // 2, -1 if b % 2 else 1
            cx, sc = axis_mul[(ax, bx)]
            s = sa * sb * sc
            mul[a, b] = 2 * cx + (0 if s > 0 else 1)
    names = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    return group_from_table(mul, name="Q8", elem_names=names)


# ---------------------------------------------------------------------------
# element-level operations


def _powers(g: FiniteGroup, x: int) -> list[int]:
    """x^0, x^1, ..., x^(o(x)-1): the one walk of <x>, which ends where
    the next power is the identity again.  A table changed after its check
    may never get there: after |G| powers it raises NotAGroup."""
    out, y = [0], x
    while y != 0:
        if len(out) == g.order:
            raise NotAGroup("the powers of %d do not return to the identity" % x)
        out.append(y)
        y = int(g.mul[y, x])
    return out


def power(g: FiniteGroup, x: int, k: int) -> int:
    """x^k for any integer k, as x^(k mod o(x)): O(o(x)) steps."""
    x, k = _index(x, "element", g.order), _index(k, "exponent")
    powers = _powers(g, x)
    return powers[k % len(powers)]


def element_order(g: FiniteGroup, x: int) -> int:
    return len(_powers(g, _index(x, "element", g.order)))


def cyclic_subgroup(g: FiniteGroup, x: int) -> tuple[int, ...]:
    """Sorted element set of <x>."""
    return tuple(sorted(_powers(g, _index(x, "element", g.order))))


@dataclass(frozen=True)
class Coset:
    """A right coset <gen>*x; the representative is the minimal element."""

    gen: int
    rep: int
    elems: tuple[int, ...]


def right_cosets(g: FiniteGroup, K) -> tuple[np.ndarray, np.ndarray]:
    """The right cosets Kx of a subgroup K (its elements, in any order).

    Returns (elems, membership): row c of elems is the c-th coset in
    ascending order, rows are sorted by their minimum, and membership[x] is
    the row that holds Kx.  Column x of the sorted gather mul[K] is Kx, so
    x represents its coset exactly when it heads its own column."""
    cols = np.sort(g.mul[np.asarray(K)], axis=0)
    reps = np.flatnonzero(cols[0] == np.arange(g.order))
    row = np.empty(g.order, dtype=np.int32)
    row[reps] = np.arange(len(reps))
    return cols[:, reps].T, row[cols[0]]


def right_coset(g: FiniteGroup, s: int, x: int) -> Coset:
    s, x = _index(s, "element", g.order), _index(x, "element", g.order)
    elems, membership = right_cosets(g, cyclic_subgroup(g, s))
    row = elems[membership[x]].tolist()
    return Coset(gen=s, rep=row[0], elems=tuple(row))


def generated_subgroup(g: FiniteGroup, gens) -> tuple[int, ...]:
    """Sorted element set of <gens> (identity included)."""
    right_mul = g.mul[:, [_index(x, "generator", g.order) for x in gens]].T
    return tuple(orbits(right_mul, g.order, [0])[0].tolist())


def _greedy_reach(n: int, column, identity: int = 0):
    """Generators picked greedily from the elements 0..n-1 of a group: each
    element in index order joins unless the earlier picks already reach it
    by right multiplication from the identity, so every element is a
    product of them.  column(g) is the list x -> x * g over every element,
    or None when some product is none of the n elements.

    The reached set grows as one queue from the identity: a new pick is
    applied to every element reached so far, and each newly reached element
    to every pick.  Each element meets each pick once, and the loop ends
    only when every element is reached, whatever the columns.  Returns the
    picks, their columns, the queue, and parent: element y was first
    reached as parent[y] times a pick.  None when a column is."""
    gens: list[int] = []
    cols: list[list[int]] = []  # cols[s][x] = x * gens[s]
    reached = [False] * n
    reached[identity] = True
    found = [identity]  # a queue from the identity
    parent = [-1] * n
    while len(found) < n:
        gens.append(reached.index(False))
        cols.append(column(gens[-1]))
        if cols[-1] is None:
            return None
        i = len(found)
        for x in found[:i]:
            y = cols[-1][x]
            if not reached[y]:
                reached[y] = True
                found.append(y)
                parent[y] = x
        while i < len(found):  # found grows behind i: a queue
            x = found[i]
            i += 1
            for col in cols:
                y = col[x]
                if not reached[y]:
                    reached[y] = True
                    found.append(y)
                    parent[y] = x
    return gens, cols, found, parent


def generating_set(mul: np.ndarray, identity: int = 0) -> tuple[int, ...]:
    """Generators picked greedily from the table mul (_greedy_reach): each
    element in index order joins unless the earlier picks already reach it,
    so every element is a product of them."""
    return tuple(_greedy_reach(mul.shape[0], lambda x: mul[:, x].tolist(), identity)[0])


def subgroup_group(g: FiniteGroup, elements, name: str | None = None) -> tuple[FiniteGroup, dict]:
    """Reindex a subgroup (given as an element set) as its own group.

    Returns (subgroup, to_sub) where to_sub maps ambient indices to subgroup
    indices. The identity, element 0, stays at index 0 because it is minimal.
    A closed nonempty subset of a finite group is a subgroup, so once the
    set holds the identity and is closed, its table is a group table with
    the ambient inverses, and no axiom check runs on it.
    """
    sub = sorted({_index(x, "element", g.order) for x in elements})
    if not sub or sub[0] != 0:
        raise PreconditionFailed("subgroup must contain the identity")
    k = len(sub)
    pos = np.full(g.order, -1, dtype=np.int32)
    pos[sub] = np.arange(k)
    mul = pos[g.mul[np.ix_(sub, sub)]]
    if (mul < 0).any():
        raise PreconditionFailed("element set is not closed")
    ambient = g._namer
    grp = _wrap_table(
        mul, pos[g.inv[sub]], name or "%s-sub%d" % (g.name, k),
        lambda i: ambient(sub[i]),
        perm_rows=None if g.perm_rows is None else g.perm_rows[sub],
    )
    return grp, {x: i for i, x in enumerate(sub)}


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs are small by contract)."""
    n = _index(n, "n")
    if n < 1:
        raise PreconditionFailed("factorize needs n >= 1")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# parsing


def split_top_level(text: str, sep: str = ",") -> list[str]:
    """Split on sep outside parentheses; used for element lists."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses in %r" % text)
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError("unbalanced parentheses in %r" % text)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _spec_int(digits: str) -> int:
    """A number in a group spec; int() refuses one over 4300 digits."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError("number in group spec has %d digits" % len(digits)) from None


def parse_group(spec: str) -> FiniteGroup:
    """Grammar: Z<n>; Z<m>xZ<n>[xZ<k>...]; S<n>; perm:<degree>:<cycles>[,...]."""
    s = spec.strip()
    m = re.fullmatch(r"S(\d+)", s)
    if m:
        return symmetric_group(_check_degree(_spec_int(m.group(1))))
    m = re.fullmatch(r"Z(\d+)(?:xZ(\d+))*", s)
    if m:
        orders = [_spec_int(t) for t in re.findall(r"Z(\d+)", s)]
        if any(o < 1 for o in orders):
            raise ParseError("cyclic factors must be >= 1: %r" % spec)
        _check_order(math.prod(orders))  # before any factor's table
        grp = cyclic_group(orders[0])
        for o in orders[1:]:
            grp = direct_product(grp, cyclic_group(o))
        return grp
    m = re.fullmatch(r"perm:(\d+):(.+)", s, re.DOTALL)
    if m:
        degree = _check_degree(_spec_int(m.group(1)))
        if degree < 1:
            raise ParseError("perm group degree must be >= 1, got %d" % degree)
        gen_texts = split_top_level(m.group(2))
        if not gen_texts:
            raise ParseError("perm group needs at least one generator")
        gens = [Perm.parse(t, degree) for t in gen_texts]
        return perm_group(degree, gens, name=s)
    raise ParseError("unrecognized group spec: %r" % spec)


def parse_element(g: FiniteGroup, text: str) -> int:
    """Accepts an index for cyclic groups, a tuple for products, cycle
    notation for permutation groups, or an exact element name."""
    t = text.strip()
    if g.perm_rows is not None:
        p = Perm.parse(t, g.perm_rows.shape[1])
        x = g.perm_element(p)
        if x is None:
            raise ParseError("permutation %s is not in %s" % (p, g.name))
        return x
    if g.factor_orders is not None and len(g.factor_orders) > 1:
        m = re.fullmatch(r"\(([^()]*)\)", t)
        if not m:
            raise ParseError("expected a tuple like (a,b) for %s" % g.name)
        parts = [x.strip() for x in m.group(1).split(",")]
        if len(parts) != len(g.factor_orders):
            raise ParseError(
                "expected %d coordinates for %s" % (len(g.factor_orders), g.name)
            )
        idx = 0
        for part, f in zip(parts, g.factor_orders):
            try:
                v = int(part)
            except ValueError:
                raise ParseError("bad coordinate %r" % part) from None
            if not 0 <= v < f:
                raise ParseError("coordinate %d out of range for Z%d" % (v, f))
            idx = idx * f + v
        return idx
    if g.factor_orders is not None:
        try:
            v = int(t)
        except ValueError:
            raise ParseError("expected an integer element for %s" % g.name) from None
        if not 0 <= v < g.order:
            raise ParseError("element %d out of range for %s" % (v, g.name))
        return v
    idx = g.name_index().get(t)
    if idx is None:
        raise ParseError("unknown element %r of %s" % (text, g.name))
    return idx
