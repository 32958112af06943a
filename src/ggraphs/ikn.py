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
certificate set under the conjugations m_a: k -> a*k (mod n-1)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _tauengine
from .algebra import FiniteGroup, Perm, orbits, perm_closure, perm_group
from .errors import (
    BudgetExceeded,
    CapExceeded,
    InternalAssertion,
    ParseError,
    PreconditionFailed,
)
from .ggraph import GGraph, ItemReport, build_phi, level_vertices

DEFAULT_BUDGET = 10_000_000
SEARCH_MODES = ("first_only", "all", "up_to_conjugacy")
OBSTRUCTION_KINDS = ("Mod4", "Mod6", "Mod24", "ExhaustiveSearch")


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
    if n < 2:
        raise PreconditionFailed("need n >= 2")
    m = n - 1
    sigma = Perm.from_cycles([list(range(1, n))], n)
    img = [0] * n
    for k in range(1, n - 1):
        img[k - 1] = m - k
    img[m - 1] = n
    img[n - 1] = m
    return RhoSigma(n, sigma, Perm(tuple(img)))


def _check_tau_arg(n: int, tau: Perm) -> None:
    if n < 2:
        raise PreconditionFailed("need n >= 2")
    if tau.degree != n:
        raise PreconditionFailed(
            "tau has degree %d, expected %d" % (tau.degree, n)
        )


# ---------------------------------------------------------------------------
# certificate verification


@dataclass(frozen=True)
class TauReport:
    n: int
    ok: bool
    failures: tuple[str, ...]


def verify_tau(n: int, tau: Perm) -> TauReport:
    """Check the three certificate conditions, reporting every failure."""
    _check_tau_arg(n, tau)
    failures = []
    for p in range(1, n + 1):
        if tau(tau(p)) != p:
            failures.append("tau is not an involution: tau(tau(%d)) = %d" % (p, tau(tau(p))))
            break
    if tau(n) != n - 1:
        failures.append("tau(%d) = %d, expected %d" % (n, tau(n), n - 1))
    if not failures:
        rs = make_rho_sigma(n)
        pw = [Perm.identity(n)]
        for _ in range(n - 2):
            pw.append(rs.sigma * pw[-1])
        for k in range(1, n - 1):
            e1 = tau(k)
            e2 = tau(rs.rho(tau(k)))
            lhs = tau * pw[k] * tau
            rhs = pw[e1] * tau * pw[e2]
            if lhs != rhs:
                p = next(q for q in range(1, n + 1) if lhs(q) != rhs(q))
                failures.append(
                    "relation fails at k=%d: (tau sigma^%d tau)(%d) = %d but "
                    "(sigma^%d tau sigma^%d)(%d) = %d"
                    % (k, k, p, lhs(p), e1, e2, p, rhs(p))
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
        if not isinstance(data, dict):
            raise ParseError("certificate must be a JSON object")
        try:
            n = int(data["n"])
            img = tuple(int(x) for x in data["tau"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ParseError("certificate needs integer 'n' and integer list 'tau'") from None
        if len(img) != n or sorted(img) != list(range(1, n + 1)):
            raise ParseError("'tau' is not a permutation of 1..%d" % n)
        tau = Perm(img)
        if "cycles" in data and Perm.parse(str(data["cycles"]), n) != tau:
            raise ParseError("'cycles' disagrees with 'tau'")
        return cls(n, tau, bool(data.get("canonical", False)))


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
            n = int(data["n"])
            kind = str(data["kind"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ParseError("obstruction needs 'n' and 'kind'") from None
        if kind not in OBSTRUCTION_KINDS:
            raise ParseError("unknown obstruction kind %r" % kind)
        return cls(n, kind)

    def describe(self) -> str:
        if self.kind == "Mod4":
            return "n = %d > 2 and n = 2 (mod 4): sigma is even but tau is odd" % self.n
        if self.kind == "Mod6":
            return "6 divides n = %d: no <rho,tau> orbit partition fits" % self.n
        if self.kind == "Mod24":
            return "n = %d is 15 or 21 (mod 24): the residue map parity count fails" % self.n
        return "exhaustive search for n = %d found no certificate" % self.n


def obstructions(n: int) -> tuple[Obstruction, ...]:
    """All modular reasons no certificate can exist for this n."""
    if n < 2:
        raise PreconditionFailed("need n >= 2")
    out = []
    if n > 2 and n % 4 == 2:
        out.append(Obstruction(n, "Mod4"))
    if n % 6 == 0:
        out.append(Obstruction(n, "Mod6"))
    if n % 24 in (15, 21):
        out.append(Obstruction(n, "Mod24"))
    return tuple(out)


# ---------------------------------------------------------------------------
# conjugation m_a tau m_a^-1


def _units(m: int) -> list[int]:
    return [a for a in range(1, m + 1) if math.gcd(a, m) == 1]


def _mult_perm(n: int, a: int) -> Perm:
    """Multiplication by a on {1..n-1} read as Z/(n-1), fixing n."""
    m = n - 1
    img = []
    for p in range(1, n + 1):
        if p == n:
            img.append(n)
        else:
            r = (a * (p % m)) % m
            img.append(m if r == 0 else r)
    return Perm(tuple(img))


def conjugate_tau(n: int, tau: Perm, a: int) -> Perm:
    """m_a tau m_a^-1; certificates map to certificates for every unit a."""
    _check_tau_arg(n, tau)
    m = n - 1
    if math.gcd(a, m) != 1 or a < 1:
        raise PreconditionFailed("a = %d is not a unit mod %d" % (a, m))
    ma = _mult_perm(n, a)
    return ma * tau * ma.inverse()


def canonical_tau(n: int, tau: Perm) -> Perm:
    """Lexicographically least conjugate of tau under the maps m_a."""
    _check_tau_arg(n, tau)
    return Perm(min(conjugate_tau(n, tau, a).img for a in _units(n - 1)))


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
    _check_tau_arg(n, tau)
    rs = make_rho_sigma(n)
    maps = [np.array(p.img) - 1 for p in (rs.rho, tau)]
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

    The audit asserts |<sigma,tau>| = n(n-1) and that the graph is bipartite
    with one part of n vertices of degree n-1, the other of n(n-1)/2 vertices
    of degree 2, whose neighbour pairs enumerate every 2-subset of the first
    part (equivalently: the graph is simple with no 4-cycle)."""
    _check_tau_arg(n, tau)
    rs = make_rho_sigma(n)
    grp = perm_group(n, [rs.sigma, tau], name="IK%d" % n)
    expected = n * (n - 1)
    items = [
        ItemReport(
            1,
            "group order is n(n-1)",
            grp.order == expected,
            "|<sigma,tau>| = %d, expected %d" % (grp.order, expected),
        )
    ]
    gg = build_phi(grp, [grp.perms.index(rs.sigma), grp.perms.index(tau)])
    part0 = level_vertices(gg, 0)
    part1 = level_vertices(gg, 1)
    crossing = all(
        gg.vertex_level(e.u) != gg.vertex_level(e.v) for e in gg.graph.edges
    )
    items.append(ItemReport(2, "edges join the two levels", crossing, ""))
    deg0 = [gg.graph.degree(v) for v in part0]
    items.append(
        ItemReport(
            3,
            "sigma level: n vertices of degree n-1",
            len(part0) == n and all(d == n - 1 for d in deg0),
            "%d vertices, degrees %s" % (len(part0), sorted(set(deg0))),
        )
    )
    deg1 = [gg.graph.degree(v) for v in part1]
    items.append(
        ItemReport(
            4,
            "tau level: n(n-1)/2 vertices of degree 2",
            len(part1) == expected // 2 and all(d == 2 for d in deg1),
            "%d vertices, degrees %s" % (len(part1), sorted(set(deg1))),
        )
    )
    adj = gg.graph.adj()
    pairs = [frozenset(adj[v]) for v in part1]
    bijection = all(len(p) == 2 for p in pairs) and len(set(pairs)) == (
        n * (n - 1) // 2
    )
    items.append(
        ItemReport(
            5,
            "degree-2 vertices enumerate all 2-subsets of the sigma level",
            bijection,
            "%d distinct neighbour pairs" % len(set(pairs)),
        )
    )
    return BuildReport(n, grp, gg, tuple(items))


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


def _certificate(n: int, row) -> TauCertificate:
    tau = Perm(tuple(int(row[p]) for p in range(1, n + 1)))
    report = verify_tau(n, tau)
    if not report.ok:
        raise InternalAssertion(
            "search produced an invalid tau for n=%d: %s" % (n, report.failures[0])
        )
    return TauCertificate(n, tau, canonical=(canonical_tau(n, tau) == tau))


def search_tau(
    n: int,
    mode: str = "first_only",
    *,
    budget: int | None = None,
    short_circuit: bool = True,
    backend: str | None = None,
) -> SearchResult:
    """Search for certificate involutions for I(K_n).

    Modes: "first_only" stops at the first certificate in branch order,
    "all" enumerates every certificate, "up_to_conjugacy" enumerates all and
    keeps one canonical representative per m_a conjugacy class.  When
    ``short_circuit`` is set, a modular obstruction skips the search
    entirely; disable it to confirm emptiness by exhaustion.  Budget is a
    node count (DEFAULT_BUDGET, or $GGRAPH_BUDGET); running out raises
    BudgetExceeded with any certificates found so far attached.
    """
    if n < 2:
        raise PreconditionFailed("need n >= 2")
    if mode not in SEARCH_MODES:
        raise PreconditionFailed(
            "mode must be one of %s" % ", ".join(SEARCH_MODES)
        )
    node_budget = _tauengine.resolve_budget(budget, DEFAULT_BUDGET)
    modular = obstructions(n)
    if modular and short_circuit:
        return SearchResult(n, mode, (), modular, 0, True, "none")

    kernel, backend_name = _tauengine.get_kernel(backend)
    want_all = 0 if mode == "first_only" else 1
    cap = 1 if mode == "first_only" else 1024
    while True:
        arrays = _tauengine.search_arrays(n, cap, backend_name)
        status, found, nodes = kernel(n, node_budget, want_all, *arrays)
        status, found, nodes = int(status), int(found), int(nodes)
        if status != _tauengine.OUT_OF_SPACE:
            break
        cap *= 8

    out, w = arrays[-1], n + 1
    certs = tuple(_certificate(n, out[i * w:(i + 1) * w]) for i in range(found))
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
    if mode == "up_to_conjugacy":
        reps = {}
        for cert in certs:
            canon = canonical_tau(n, cert.tau)
            reps.setdefault(canon.img, TauCertificate(n, canon, canonical=True))
        certs = tuple(reps[key] for key in sorted(reps))
    if not certs:
        return SearchResult(
            n, mode, (), modular + (Obstruction(n, "ExhaustiveSearch"),),
            nodes, True, backend_name,
        )
    complete = mode != "first_only"
    return SearchResult(n, mode, certs, (), nodes, complete, backend_name)
