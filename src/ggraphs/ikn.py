"""Deciding when the incidence graph of a complete graph K_n is a G-graph.

I(K_n) is a G-graph exactly when some involution tau of {1..n} satisfies
tau(n) = n-1 and, for every k in {1..n-2},

    tau sigma^k tau = sigma^{tau(k)} tau sigma^{tau rho tau(k)}

where sigma is the (n-1)-cycle (1,...,n-1) fixing n and rho swaps n-1 with n
and maps k to n-1-k otherwise.  In the positive case
I(K_n) ~ Phi(<sigma,tau>, {sigma,tau}) with |<sigma,tau>| = n(n-1).

This module verifies such certificates, searches for them (see _tauengine
for the kernel), derives modular obstructions that rule them out, and checks
the structural consequences every certificate must satisfy: the <rho,tau>
orbit profile, injectivity of k -> k - tau(k) (mod n-1), and closure of the
certificate set under the conjugations m_a: k -> a*k (mod n-1).

That closure is what the search exploits: the kernel searches only for the
leader of each m_a orbit, and the "all" mode of ``search_tau`` is the orbit
expansion of the kernel's survivors, deduplicated and sorted back into the
kernel's branch order, so it lists every certificate exactly as a search
without the symmetry prune would."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import _tauengine
from .errors import (
    BudgetExceeded,
    CapExceeded,
    InternalAssertion,
    ParseError,
    PreconditionFailed,
    _index,
    _json_int,
    resolve_budget,
)
from .perm import DEFAULT_CLOSURE_CAP, Perm, _check_degree, conjugate

if TYPE_CHECKING:  # the numpy layers load only when a group is built
    from .algebra import FiniteGroup
    from .ggraph import GGraph, ItemReport

SEARCH_MODES = ("first_only", "all", "up_to_conjugacy")
# each modular obstruction kind: its test on n and its describe() text,
# in the order obstructions(n) lists them
_MODULAR = {
    "Mod4": (lambda n: n > 2 and n % 4 == 2,
             "n = %d > 2 and n = 2 (mod 4): sigma is even but tau is odd"),
    "Mod6": (lambda n: n % 6 == 0,
             "6 divides n = %d: no <rho,tau> orbit partition fits"),
    "Mod24": (lambda n: n % 24 in (15, 21),
              "n = %d is 15 or 21 (mod 24): the residue map parity count fails"),
}
OBSTRUCTION_KINDS = (*_MODULAR, "ExhaustiveSearch")


# ---------------------------------------------------------------------------
# the fixed permutations rho and sigma


@dataclass(frozen=True)
class RhoSigma:
    n: int
    sigma: Perm
    rho: Perm


def make_rho_sigma(n: int) -> RhoSigma:
    """The cycle sigma = (1,...,n-1) fixing n, and the involution rho with
    rho(k) = n-1-k on {1..n-2} and rho(n-1) = n."""
    _check_n(n)
    m = n - 1
    sigma = Perm.from_cycles([list(range(1, n))], n)
    img = [0] * n
    for k in range(1, n - 1):
        img[k - 1] = m - k
    img[m - 1] = n
    img[n - 1] = m
    return RhoSigma(n, sigma, Perm(tuple(img)))


def _check_n(n: int) -> None:
    """Refuse an n that is no integer, n < 2, and n above
    DEFAULT_CLOSURE_CAP, the package's cap on a permutation degree, before
    any permutation or kernel array is built.  The search and verify_tau
    keep O(n) state, so the cap bounds time, not memory: verify_tau takes
    O(n^2) steps, and so can one search node."""
    _index(n, "n")
    if n < 2:
        raise PreconditionFailed("need n >= 2")
    _check_degree(n)


def _check_tau_arg(n: int, tau: Perm) -> None:
    _check_n(n)
    if tau.degree != n:
        raise PreconditionFailed(
            "tau has degree %d, expected %d" % (tau.degree, n)
        )
    if sorted(tau.img) != list(range(1, n + 1)):
        raise PreconditionFailed("tau is not a permutation of 1..%d" % n)


# ---------------------------------------------------------------------------
# certificate verification


@dataclass(frozen=True)
class TauReport:
    n: int
    ok: bool
    failures: tuple[str, ...]


def verify_tau(n: int, tau: Perm) -> TauReport:
    """Check the three certificate conditions, reporting every failure.

    Both sides of the relation are built per k as lists of the images of
    1..n, two list lookups per point: sigma^j is a rotation of one row, so
    no permutation is built per k."""
    _check_tau_arg(n, tau)
    failures = []
    for p in range(1, n + 1):
        if tau(tau(p)) != p:
            failures.append("tau is not an involution: tau(tau(%d)) = %d" % (p, tau(tau(p))))
            break
    if tau(n) != n - 1:
        failures.append("tau(%d) = %d, expected %d" % (n, tau(n), n - 1))
    if not failures:
        rs, m = make_rho_sigma(n), n - 1
        t = [0, *tau.img]  # t[p] = tau(p)
        row = rs.sigma.img[:m] * 2  # sigma^j(p) = row[p - 2 + j % m] for p < n

        def power(j: int) -> list[int]:
            """sigma^j as a list: 0, then the images of 1..n."""
            a = (j - 1) % m
            return [0, *row[a : a + m], n]

        for k in range(1, n - 1):
            e1 = t[k]
            e2 = t[rs.rho(t[k])]
            sk, se1, se2 = power(k), power(e1), power(e2)
            lhs = [t[sk[x]] for x in tau.img]  # images of 1..n
            rhs = [se1[t[y]] for y in se2[1:]]
            if lhs != rhs:
                p = next(q for q in range(n) if lhs[q] != rhs[q]) + 1
                failures.append(
                    "relation fails at k=%d: (tau sigma^%d tau)(%d) = %d but "
                    "(sigma^%d tau sigma^%d)(%d) = %d"
                    % (k, k, p, lhs[p - 1], e1, e2, p, rhs[p - 1])
                )
    return TauReport(n, not failures, tuple(failures))


# ---------------------------------------------------------------------------
# certificates and obstructions


@dataclass(frozen=True)
class TauCertificate:
    n: int
    tau: Perm
    canonical: bool = False

    @property
    def cycles(self) -> str:
        return self.tau.cycle_string()

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "tau": list(self.tau.img),
            "cycles": self.cycles,
            "canonical": self.canonical,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TauCertificate":
        """Read what ``to_json`` writes.  Only a certificate reads: a 'tau'
        that fails verify_tau, or a 'canonical' flag that disagrees with
        canonical_tau, is refused; an absent flag is computed."""
        if not isinstance(data, dict):
            raise ParseError("certificate must be a JSON object")
        try:
            n = _json_int(data["n"], "'n'")
            img = tuple(_json_int(x, "a 'tau' entry") for x in data["tau"])
        except (KeyError, TypeError):
            raise ParseError("certificate needs integer 'n' and integer list 'tau'") from None
        if n < 2:
            raise ParseError("certificate needs n >= 2, got %d" % n)
        if len(img) != n or sorted(img) != list(range(1, n + 1)):
            raise ParseError("'tau' is not a permutation of 1..%d" % n)
        tau = Perm(img)
        if "cycles" in data and Perm.parse(str(data["cycles"]), n) != tau:
            raise ParseError("'cycles' disagrees with 'tau'")
        flag = data.get("canonical", False)
        if not isinstance(flag, bool):
            raise ParseError("'canonical' must be true or false, got %r" % (flag,))
        report = verify_tau(n, tau)
        if not report.ok:
            raise ParseError("'tau' is not a certificate: %s" % report.failures[0])
        canonical = canonical_tau(n, tau) == tau
        if "canonical" in data and flag != canonical:
            raise ParseError("'canonical' disagrees with canonical_tau: tau is %s"
                             "its canonical conjugate" % ("" if canonical else "not "))
        return cls(n, tau, canonical)


@dataclass(frozen=True)
class Obstruction:
    n: int
    kind: str

    def to_json(self) -> dict:
        return {"n": self.n, "kind": self.kind}

    @classmethod
    def from_json(cls, data: dict) -> "Obstruction":
        if not isinstance(data, dict):
            raise ParseError("obstruction must be a JSON object")
        try:
            n = _json_int(data["n"], "'n'")
            kind = str(data["kind"])
        except KeyError:
            raise ParseError("obstruction needs 'n' and 'kind'") from None
        if kind not in OBSTRUCTION_KINDS:
            raise ParseError("unknown obstruction kind %r" % kind)
        if n < 2:
            raise ParseError("obstruction needs n >= 2, got %d" % n)
        # a modular kind must hold for its n; an exhaustive search is only
        # checked by running it again, and search_tau refuses n above the cap
        if kind != "ExhaustiveSearch" and cls(n, kind) not in obstructions(n):
            raise ParseError("%s does not hold for n = %d" % (kind, n))
        if kind == "ExhaustiveSearch" and n > DEFAULT_CLOSURE_CAP:
            raise ParseError("no search runs at n = %d above the degree cap %d"
                             % (n, DEFAULT_CLOSURE_CAP))
        return cls(n, kind)

    def describe(self) -> str:
        if self.kind in _MODULAR:
            return _MODULAR[self.kind][1] % self.n
        return "exhaustive search for n = %d found no certificate" % self.n


def obstructions(n: int) -> tuple[Obstruction, ...]:
    """All modular reasons no certificate can exist for this n."""
    n = _index(n, "n")
    if n < 2:
        raise PreconditionFailed("need n >= 2")
    return tuple(Obstruction(n, kind) for kind, (holds, _) in _MODULAR.items() if holds(n))


# ---------------------------------------------------------------------------
# conjugation m_a tau m_a^-1


def _mult_perm(n: int, a: int) -> Perm:
    """Multiplication by a on {1..n-1} read as Z/(n-1), fixing n."""
    return Perm(tuple((a * p - 1) % (n - 1) + 1 for p in range(1, n)) + (n,))


def conjugate_tau(n: int, tau: Perm, a: int) -> Perm:
    """m_a tau m_a^-1; certificates map to certificates for every unit a."""
    _check_tau_arg(n, tau)
    m = n - 1
    a = _index(a, "a")
    if math.gcd(a, m) != 1 or a < 1:
        raise PreconditionFailed("a = %d is not a unit mod %d" % (a, m))
    return conjugate(tau, _mult_perm(n, a))


def _orbit(n: int, img) -> set[tuple[int, ...]]:
    """The images of every m_a conjugate of the tau with images ``img``."""
    tau = Perm(tuple(img))
    return {conjugate_tau(n, tau, a).img for a in range(1, n) if math.gcd(a, n - 1) == 1}


def canonical_tau(n: int, tau: Perm) -> Perm:
    """Lexicographically least conjugate of tau under the maps m_a."""
    _check_tau_arg(n, tau)
    return Perm(min(_orbit(n, tau.img)))


# ---------------------------------------------------------------------------
# structural consequences of a certificate


@dataclass(frozen=True)
class PiReport:
    """The residue map k -> k - tau(k) (mod n-1) on {1..n-2}."""

    n: int
    values: tuple[int, ...]
    missing: tuple[int, ...]
    expected_missing: int
    injective: bool
    conforms: bool


def pi_map(n: int, tau: Perm) -> PiReport:
    _check_tau_arg(n, tau)
    m = n - 1
    values = tuple((k - tau(k)) % m for k in range(1, n - 1))
    missing = tuple(sorted(set(range(m)) - set(values)))
    expected = 0 if n % 2 == 0 else m // 2
    injective = len(set(values)) == len(values)
    return PiReport(
        n,
        values,
        missing,
        expected,
        injective,
        injective and missing == (expected,),
    )


@dataclass(frozen=True)
class OrbitReport:
    """Orbits of <rho,tau> on {1..n}.

    For a certificate the group is {Id, rho, tau, rho tau, tau rho, rho tau
    rho} of order 6, and every orbit has 6 points except one or two of size 2
    plus, for odd n, exactly one of size 1 or 3.  Tiny cases (n <= 4, where
    tau = rho) degenerate to a smaller group; that is reported, not failed.
    """

    n: int
    orbits: tuple[tuple[int, ...], ...]
    group_order: int | None
    degenerate: bool
    conforms: bool


def orbit_structure(n: int, tau: Perm) -> OrbitReport:
    from .algebra import orbits, perm_closure

    _check_tau_arg(n, tau)
    rs = make_rho_sigma(n)
    maps = [[x - 1 for x in p.img] for p in (rs.rho, tau)]
    orbit_list = [tuple(x + 1 for x in orb.tolist()) for orb in orbits(maps, n)]
    try:
        order: int | None = len(perm_closure(maps, n, cap=720).elems)
    except CapExceeded:
        order = None

    counts = {1: 0, 2: 0, 3: 0, 6: 0}
    other = 0
    for orbit in orbit_list:
        if len(orbit) in counts:
            counts[len(orbit)] += 1
        else:
            other += 1
    odd_orbits = counts[1] + counts[3]
    sizes_ok = (
        other == 0
        and counts[2] in (1, 2)
        and odd_orbits == (1 if n % 2 else 0)
    )
    conforms = sizes_ok and (order == 6 or (n <= 4 and order is not None))
    return OrbitReport(n, tuple(orbit_list), order, order != 6, conforms)


@dataclass(frozen=True)
class BuildReport:
    """Structural audit of Phi(<sigma,tau>, {sigma,tau}) against I(K_n)."""

    n: int
    group: FiniteGroup
    graph: GGraph
    items: tuple[ItemReport, ...]

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def lines(self) -> list[str]:
        return [
            "[%s] %d. %s%s"
            % ("ok" if it.ok else "FAIL", it.number, it.name,
               "" if not it.detail else " - " + it.detail)
            for it in self.items
        ]


def build_and_verify(n: int, tau: Perm) -> BuildReport:
    """Build Phi(<sigma,tau>, {sigma,tau}) and audit that it is I(K_n).

    The audit asserts |<sigma,tau>| = n(n-1), then _audit_graph's items 2-5
    on the graph built."""
    from .algebra import perm_group
    from .ggraph import ItemReport, build_phi

    _check_tau_arg(n, tau)
    rs = make_rho_sigma(n)
    grp = perm_group(n, [rs.sigma, tau], name="IK%d" % n)
    expected = n * (n - 1)
    item1 = ItemReport(
        1,
        "group order is n(n-1)",
        grp.order == expected,
        "|<sigma,tau>| = %d, expected %d" % (grp.order, expected),
    )
    gg = build_phi(grp, [grp.perm_element(rs.sigma), grp.perm_element(tau)])
    return BuildReport(n, grp, gg, (item1, *_audit_graph(n, gg)))


def _audit_graph(n: int, gg: GGraph) -> list[ItemReport]:
    """Items 2-5 of the audit that a two-level G-graph is I(K_n): every edge
    joins the two levels, the first level has n vertices of degree n-1, the
    second n(n-1)/2 vertices of degree 2, and the neighbour pairs of the
    second level are distinct, so they enumerate every 2-subset of the
    first (equivalently: the graph is simple with no 4-cycle)."""
    import numpy as np

    from .ggraph import ItemReport, level_vertices

    expected = n * (n - 1)
    g = gg.graph
    part0 = level_vertices(gg, 0)
    part1 = level_vertices(gg, 1)
    ends, level = g.ends(), np.array(gg.level_of)
    # an end beyond the layout lies on neither level
    crossing = bool((ends < len(level)).all()) and bool(
        (level[ends[:, 0]] != level[ends[:, 1]]).all()
    )
    items = [ItemReport(2, "edges join the two levels", crossing, "")]
    deg = g.degrees()
    for number, name, part, size, d in (
        (3, "sigma level: n vertices of degree n-1", part0, n, n - 1),
        (4, "tau level: n(n-1)/2 vertices of degree 2", part1, expected // 2, 2),
    ):
        degs = deg[part]
        items.append(ItemReport(
            number, name, len(part) == size and bool((degs == d).all()),
            "%d vertices, degrees %s" % (len(part), sorted(set(degs.tolist()))),
        ))
    adj = g.adj()
    pairs = {frozenset(adj[v][:, 1].tolist()) for v in part1}  # distinct neighbour sets
    bijection = all(len(p) == 2 for p in pairs) and len(pairs) == n * (n - 1) // 2
    items.append(
        ItemReport(
            5,
            "degree-2 vertices enumerate all 2-subsets of the sigma level",
            bijection,
            "%d distinct neighbour pairs" % len(pairs),
        )
    )
    return items


# ---------------------------------------------------------------------------
# search


@dataclass(frozen=True)
class SearchResult:
    n: int
    mode: str
    certificates: tuple[TauCertificate, ...]
    obstructions: tuple[Obstruction, ...]
    nodes: int
    complete: bool
    backend: str

    @property
    def decided(self) -> bool:
        return bool(self.certificates) or self.complete


def _certificate(n: int, img, canonical: bool) -> TauCertificate:
    tau = Perm(tuple(img))
    report = verify_tau(n, tau)
    if not report.ok:
        raise InternalAssertion(
            "search produced an invalid tau for n=%d: %s" % (n, report.failures[0])
        )
    return TauCertificate(n, tau, canonical)


def _branch_key(img) -> tuple[int, ...]:
    """The kernel's branch order as a sort key: tau(p) per point, with the
    fixed point tau(p) = p, the last candidate, read as n+1."""
    return tuple(len(img) + 1 if x == p else x for p, x in enumerate(img, 1))


def _orbit_expansion(orbits) -> list[tuple[int, ...]]:
    """Every tau of the m_a orbits ``orbits`` (each a set as ``_orbit``
    gives it), once each, in branch order: the "all" mode's rows."""
    return sorted(set().union(*orbits), key=_branch_key)


def search_tau(
    n: int,
    mode: str = "first_only",
    *,
    budget: int | None = None,
    short_circuit: bool = True,
    backend: str | None = None,
) -> SearchResult:
    """Search for certificate involutions for I(K_n).

    The kernel searches for m_a orbit leaders only (see _tauengine's
    symmetry prune), and each mode reads its survivors.  "first_only" stops
    at the first certificate in branch order, which is a leader, so it is
    the first certificate of the unpruned search.  "all" returns the orbit
    expansion of the survivors: every certificate, once, in branch order.
    "up_to_conjugacy" keeps the canonical conjugate of each survivor, one
    per m_a conjugacy class.  Every certificate returned is re-verified.
    When ``short_circuit`` is set, a modular obstruction skips the search
    entirely; disable it to confirm emptiness by exhaustion.  Budget is a
    node count (errors.DEFAULT_BUDGET, or $GGRAPH_BUDGET); running out raises
    BudgetExceeded with the certificates found so far attached: in "all"
    mode the orbit expansion of the survivors so far, in "up_to_conjugacy"
    their canonical conjugates.
    """
    _check_n(n)
    if mode not in SEARCH_MODES:
        raise PreconditionFailed(
            "mode must be one of %s" % ", ".join(SEARCH_MODES)
        )
    node_budget = resolve_budget(budget)
    modular = obstructions(n)
    if modular and short_circuit:
        return SearchResult(n, mode, (), modular, 0, True, "none")

    status, nodes, rows, backend_name = _tauengine.run(
        n, node_budget, backend, first_only=mode == "first_only"
    )
    orbits = [_orbit(n, img) for img in rows]
    leaders = {min(orbit) for orbit in orbits}  # the canonical certificates
    if mode == "all":
        rows = _orbit_expansion(orbits)
    elif mode == "up_to_conjugacy":
        rows = sorted(leaders)
    certs = tuple(_certificate(n, img, img in leaders) for img in rows)
    if status == _tauengine.OUT_OF_BUDGET:
        raise BudgetExceeded(
            "tau search for n=%d stopped inconclusive after %d nodes" % (n, nodes),
            partial=certs,
            nodes=nodes,
        )
    if modular and certs:
        raise InternalAssertion(
            "n=%d has a modular obstruction yet the search found a certificate" % n
        )
    if not certs:
        return SearchResult(
            n, mode, (), modular + (Obstruction(n, "ExhaustiveSearch"),),
            nodes, True, backend_name,
        )
    complete = mode != "first_only"
    return SearchResult(n, mode, certs, (), nodes, complete, backend_name)
