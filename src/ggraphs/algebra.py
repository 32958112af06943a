"""Finite groups as dense multiplication tables, plus permutation arithmetic
(``Perm`` lives in the numpy-free ``perm`` module and is re-exported here).

Conventions used across the package:

- group elements are dense indices 0..order-1 with the identity at index 0;
- composition is right-to-left: (p*q)(x) = p(q(x)), and the table entry
  mul[a, b] is the element "a times b" under that same convention;
- permutations act on points 1..n.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, NotAGroup, ParseError, PreconditionFailed, _index
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


@dataclass
class PermClosure:
    """A permutation group in breadth-first order from the identity.

    elems[0] is the identity and elems[j] = elems[parent[j]] * gens[gen[j]]
    for j > 0 (a Schreier vector); rmul[i, s] is the index of
    elems[i] * gens[s]; index maps elems[i].tobytes() to i.
    """

    elems: np.ndarray  # (order, degree) int32
    parent: list[int]
    gen: list[int]
    rmul: np.ndarray  # (order, number of generators)
    index: dict

    def table(self) -> np.ndarray:
        """The Cayley table mul[i, j] = index of elems[i] * elems[j].

        Column j is one gather, because elems[i] * elems[j] =
        (elems[i] * elems[parent[j]]) * gens[gen[j]]; columns are built as
        rows of the transpose so that every write is contiguous."""
        n = len(self.parent)
        _check_order(n)
        mul_t = np.empty((n, n), dtype=np.int32)
        mul_t[0] = np.arange(n)
        for j in range(1, n):
            np.take(self.rmul[:, self.gen[j]], mul_t[self.parent[j]], out=mul_t[j])
        return np.ascontiguousarray(mul_t.T)


def perm_closure(gens, degree: int, cap: int = DEFAULT_CLOSURE_CAP) -> PermClosure:
    """The group generated by the permutation arrays gens, breadth first:
    each element in turn is multiplied on the right by every generator.
    Raises CapExceeded when the group has more than cap elements."""
    gens = np.array(gens, dtype=np.int32).reshape(len(gens), degree)
    elems = [np.arange(degree, dtype=np.int32)]
    index = {elems[0].tobytes(): 0}
    parent, gen, rmul = [-1], [-1], []
    for i, x in enumerate(elems):  # elems grows behind i: a queue
        for s, y in enumerate(x[gens]):
            key = y.tobytes()
            j = index.get(key)
            if j is None:
                j = len(elems)
                if j >= cap:
                    raise CapExceeded("closure exceeds cap %d" % cap)
                index[key] = j
                elems.append(y)
                parent.append(i)
                gen.append(s)
            rmul.append(j)
    n = len(elems)
    return PermClosure(
        np.array(elems).reshape(n, degree), parent, gen,
        np.array(rmul, dtype=np.int32).reshape(n, len(gens)), index,
    )


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
    """A finite group given by its full multiplication table."""

    name: str
    order: int
    mul: np.ndarray  # (order, order); mul[a, b] = a*b
    inv: np.ndarray  # (order,)
    identity: int = 0
    elem_names: tuple[str, ...] = ()
    # cyclic factor orders when the group is a direct product of cyclics
    factor_orders: tuple[int, ...] | None = None
    # underlying permutations for permutation-built groups
    perms: tuple[Perm, ...] | None = None
    _name_index: dict = field(default=None, repr=False, compare=False)

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        return bool((self.mul == self.mul.T).all())

    def elem_name(self, x: int) -> str:
        return self.elem_names[x] if self.elem_names else str(x)

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
    identity: int = 0,
    factor_orders: tuple[int, ...] | None = None,
    perms: tuple[Perm, ...] | None = None,
) -> FiniteGroup:
    """Validate a raw table and wrap it.  Entries must be integers: a float
    is refused, not truncated."""
    try:
        mul = np.asarray(mul)
    except ValueError:  # a ragged table
        raise NotAGroup("table is not a square array") from None
    if mul.size and mul.dtype.kind not in "iu":
        raise NotAGroup("table entries are not integers")
    inv = check_group_axioms(mul, identity)
    mul = mul.astype(np.int32, copy=False)
    n = mul.shape[0]
    if elem_names is None:
        elem_names = tuple(str(i) for i in range(n))
    return FiniteGroup(
        name=name,
        order=n,
        mul=mul,
        inv=inv,
        identity=identity,
        elem_names=tuple(elem_names),
        factor_orders=factor_orders,
        perms=perms,
    )


def cyclic_group(n: int) -> FiniteGroup:
    n = _index(n, "n")
    if n < 1:
        raise PreconditionFailed("cyclic_group needs n >= 1")
    _check_order(n)
    idx = np.arange(n, dtype=np.int32)
    mul = (idx[:, None] + idx[None, :]) % n
    return group_from_table(mul, name="Z%d" % n, factor_orders=(n,))


def _product_names(factor_orders: tuple[int, ...]) -> tuple[str, ...]:
    names = []
    total = math.prod(factor_orders)
    for idx in range(total):
        digits = []
        rem = idx
        for f in reversed(factor_orders):
            digits.append(rem % f)
            rem //= f
        digits.reverse()
        names.append("(%s)" % ",".join(str(d) for d in digits))
    return tuple(names)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """G1 x G2 with (a, b) encoded as a*|G2| + b."""
    n1, n2 = g1.order, g2.order
    _check_order(n1 * n2)
    mul = (
        g1.mul[:, None, :, None].astype(np.int64) * n2
        + g2.mul[None, :, None, :]
    ).reshape(n1 * n2, n1 * n2).astype(np.int32)
    if g1.factor_orders is not None and g2.factor_orders is not None:
        factors = g1.factor_orders + g2.factor_orders
        names = _product_names(factors)
    else:
        factors = None
        names = tuple(
            "(%s,%s)" % (g1.elem_name(a), g2.elem_name(b))
            for a in range(n1)
            for b in range(n2)
        )
    return group_from_table(
        mul, name="%sx%s" % (g1.name, g2.name),
        elem_names=names, factor_orders=factors,
    )


def perm_group(
    degree: int,
    generators,
    *,
    name: str | None = None,
) -> FiniteGroup:
    """Close a set of permutations and build the table; identity gets index 0,
    the rest are indexed in breadth-first discovery order.  Raises
    CapExceeded above DEFAULT_CLOSURE_CAP elements."""
    gens = list(generators)
    for p in gens:
        if p.degree != degree:
            raise PreconditionFailed("generator degree != %d" % degree)
        if sorted(p.img) != list(range(1, degree + 1)):
            raise PreconditionFailed("generator %r is not a permutation of 1..%d" % (p.img, degree))
    closure = perm_closure([np.array(p.img) - 1 for p in gens], degree)
    perms = tuple(
        Perm(tuple(x + 1 for x in row)) for row in closure.elems.tolist()
    )
    return group_from_table(
        closure.table(),
        name=name or "Perm%d" % degree,
        elem_names=tuple(p.cycle_string() for p in perms),
        perms=perms,
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


def power(g: FiniteGroup, x: int, k: int) -> int:
    x, k = _index(x, "element", g.order), _index(k, "exponent")
    if k < 0:
        return power(g, int(g.inv[x]), -k)
    y = g.identity
    for _ in range(k):
        y = int(g.mul[y, x])
    return y


def element_order(g: FiniteGroup, x: int) -> int:
    x = _index(x, "element", g.order)
    k, y = 1, x
    while y != g.identity:
        y = int(g.mul[y, x])
        k += 1
    return k


def cyclic_subgroup(g: FiniteGroup, x: int) -> tuple[int, ...]:
    """Sorted element set of <x>."""
    x = _index(x, "element", g.order)
    elems = {g.identity}
    y = x
    while y != g.identity:
        elems.add(y)
        y = int(g.mul[y, x])
    return tuple(sorted(elems))


@dataclass(frozen=True)
class Coset:
    """A right coset <gen>*x; the representative is the minimal element."""

    gen: int
    rep: int
    elems: tuple[int, ...]

    def __contains__(self, x: int) -> bool:
        return x in self.elems


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
    return tuple(orbits(right_mul, g.order, [g.identity])[0].tolist())


def generating_set(mul: np.ndarray, identity: int = 0) -> tuple[int, ...]:
    """Generators picked greedily from the table mul: each element in index
    order joins unless the earlier picks already reach it by right
    multiplication from the identity, so every element is a product of them.

    The reached set grows as one queue from the identity: a new pick is
    applied to every element reached so far, and each newly reached element
    to every pick.  Each element meets each pick once, and the loop ends
    only when every element is reached, whatever the table."""
    n = mul.shape[0]
    gens: list[int] = []
    cols: list[list[int]] = []  # cols[i][x] = x * gens[i]
    reached = [False] * n
    reached[identity] = True
    found = [identity]  # a queue from the identity
    while len(found) < n:
        gens.append(reached.index(False))
        cols.append(mul[:, gens[-1]].tolist())
        i = len(found)
        for x in found[:i]:
            y = cols[-1][x]
            if not reached[y]:
                reached[y] = True
                found.append(y)
        while i < len(found):  # found grows behind i: a queue
            x = found[i]
            i += 1
            for col in cols:
                y = col[x]
                if not reached[y]:
                    reached[y] = True
                    found.append(y)
    return tuple(gens)


def subgroup_group(g: FiniteGroup, elements, name: str | None = None) -> tuple[FiniteGroup, dict]:
    """Reindex a subgroup (given as a sorted element set) as its own group.

    Returns (subgroup, to_sub) where to_sub maps ambient indices to subgroup
    indices. The identity stays at index 0 because element 0 is minimal.
    """
    sub = tuple(sorted(_index(x, "element", g.order) for x in elements))
    if not sub or sub[0] != g.identity:
        raise PreconditionFailed("subgroup must contain the identity")
    k = len(sub)
    pos = np.full(g.order, -1, dtype=np.int32)
    pos[list(sub)] = np.arange(k)
    mul = pos[g.mul[np.ix_(sub, sub)]]
    if (mul < 0).any():
        raise PreconditionFailed("element set is not closed")
    names = tuple(g.elem_name(x) for x in sub)
    sub_perms = tuple(g.perms[x] for x in sub) if g.perms is not None else None
    grp = group_from_table(
        mul, name=name or "%s-sub%d" % (g.name, k), elem_names=names,
        perms=sub_perms,
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
        grp = cyclic_group(orders[0])
        for o in orders[1:]:
            grp = direct_product(grp, cyclic_group(o))
        return grp
    m = re.fullmatch(r"perm:(\d+):(.+)", s, re.DOTALL)
    if m:
        degree = _check_degree(_spec_int(m.group(1)))
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
    if g.perms is not None:
        p = Perm.parse(t, g.perms[0].degree)
        for i, q in enumerate(g.perms):
            if q == p:
                return i
        raise ParseError("permutation %s is not in %s" % (p, g.name))
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
