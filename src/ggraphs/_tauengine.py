"""Backtracking kernel for the order-2 certificate search.

The search looks for involutions tau of {1..n} with tau(n) = n-1 satisfying

    tau sigma^k tau = sigma^{tau(k)} tau sigma^{tau rho tau(k)}

for every k in {1..n-2}, where sigma = (1,...,n-1) fixes n and rho is the
involution k -> n-1-k on {1..n-2} that swaps n-1 and n.  The kernel is one
function that indexes only flat 1-D sequences and allocates nothing; one
list of 4n-2 entries serves every power of sigma (see ``_search_body``).  The
python backend runs it on Python lists, because indexing a numpy array from
Python costs several times a list index; the numba backend compiles the same
body in nopython mode for int64 arrays of the same layout.  ``run`` drives
a whole search: it picks the backend, builds its inputs with
``search_arrays`` and resumes the kernel from survivor to survivor.  numpy
is used only for the numba layout and is imported there, so the python
backend, and with it the ``ikn`` commands of the CLI, run without it.

Pruning used by the search.  The first three rules are proved
consequences of the certificate conditions, so they cut no certificate:

* residues: k -> k - tau(k) (mod n-1) is injective on {1..n-2}; the missed
  residue is 0 for even n and (n-1)/2 for odd n,
* braid: tau rho tau = rho tau rho,
* the defining relation itself.

The fourth cuts certificates, but never the leader of an orbit of them:

* symmetry: the search keeps only the lex-leader of each orbit under the
  conjugations m_a (Crawford, Ginsberg, Luks & Roy, "Symmetry-Breaking
  Predicates for Search Problems", KR 1996); see the end of this text.

The braid and the relation are propagated, not only checked (forward
checking, Haralick & Elliott 1980).  Both read tau(s1) = f(tau(s2)) for a
bijection f once some values are known:

* braid, f = rho: s1 = rho(tau(p)) and s2 = rho(p) for a known tau(p); so
  tau(rho(p)) = rho(tau(rho tau(p))) and tau(rho tau(p)) = rho(tau(rho(p))),
* relation, f = sigma^e1: for a row k with e1 = tau(k) and e2 = tau(rho(e1))
  known and a probe p with tau(p) known, s1 = sigma^k(tau(p)) and
  s2 = sigma^e2(p).

When exactly one of tau(s1) and tau(s2) is known, the other is forced; when
both are, they are checked.  A forced pair (u, v) must pass the admission
test of a branched one: both points free and the residues u - v and v - u
free, or for u = v the fixed-point residue 0 free.  Otherwise the node dies.
Every pair marks both of its residues and the pre-marks are their own
negatives, so ``used`` is symmetric under d -> -d and one read tests both.
Every point assigned at a node, branched or forced, goes on the ``trail``;
the part of the trail past the node's ``mark`` is a first-in first-out
queue, and backtracking pops the trail back to the mark.  Propagation takes
points off the queue until it is empty, and a point q revisits three things:
the braid at p = q, every probe of the row k = q, and the probe p = q of
every evaluable row.  That reaches every constraint, because each is a
hexagon of three tau-pairs joined by fixed maps, any two of which force the
third, and it is read from each of its pairs:

* the braid at p sees {p, tau(p)} and its two neighbours, and a point's
  partner is queued with it;
* the relation at probe p of row k is also the one at probe tau(p) of row
  e2 = tau(rho(e1)), with s1 and s2 swapped, and it is read from its other
  two pairs by the couples (below) of rows rho(e1) and rho(e2).  These
  rows need {k, e1}, {rho(e1), e2} and {rho(e2), rho(k)}, the last forced
  by the braid from the first two before the queue reaches a later point.

So when the last pair a constraint needs is revisited, it is read.

Rows are visited from a stack, not by scanning 1..n-2, and only one row of
each couple is.  Row k is evaluable once its pair {k, e1} and the pair
{rho(e1), e2} are assigned.  Row e2 needs the same two pairs, and k and e2
are swapped by the involution tau rho tau: they form a couple (one row
when e2 = k), whose two rows hold the same constraints.  So the write of a
pair (u, v) makes the couple of row u evaluable when rho(v) is already
assigned, and pushes row u; likewise with u and v swapped, unless the two
couples are one (u = v, or rho swaps u and v).  The stack holds one row of
every evaluable couple, once; ``rmark`` rewinds it with the trail.  A
popped point visits the rows that are on the stack when its relation
revisit starts; ``_search_body`` says why one row per couple is enough.

Two checks are read before the write.  The first point taken off a node's
queue is its branch point a.  Its symmetry and braid checks read tau(1),
tau(a) = v, the values at rho(a) and rho(v), and for a pair the braid
would force, that pair's points and residue.  So once a candidate is
counted and the budget allows it, the kernel makes these reads on tau and
``used`` as the write would leave them.  A candidate that fails them dies
with nothing written, so there is nothing to undo; one that passes is
written, and its first pop reads the checks again.

The order of the reads cannot change a node count.  Propagation writes only
values forced by those already assigned, and stops only where no read
forces or fails: at a fixpoint.  Suppose one order of reads stops at a
fixpoint F.  Any other order then writes only values of F, because the read
that forces a value holds in F, so F has that value, and its residues are
free there.  So that order never dies, and it stops at a fixpoint inside F;
by the same argument with the two orders swapped, at F itself.  If one order
dies, then no order reaches a fixpoint, and all of them die.  So each node
dies, or leaves the same assignment and trail length, whichever order the
stack and the early checks read the constraints in: the nodes, survivors
and positions are those of an ascending scan of the rows.

Branching always takes the smallest free point and its candidates in
ascending order, with tau(a) = a last, and propagation cuts no
certificate, so without the symmetry prune the certificates and their
order would be those of plain checking.  ``nodes`` counts branch
assignments only; forced ones are free.

The symmetry prune.  Certificates are closed under tau -> m_a tau m_a^-1,
where m_a: k -> a*k (mod n-1) fixes n, for every unit a.  Order them by
``key``: compare tau(1), tau(2), ... in turn, reading key(tau(p)) = n+1
when tau(p) = p and tau(p) otherwise.  This is branch order: two
certificates first differ at the branch point of the deepest node they
share, since every smaller point is assigned there, and the candidates at
a point go up in key.  With c = a^-1 the conjugate maps 1 to c^-1 tau(c) mod
n-1.  So each point q taken off the propagation queue that is a unit
(``uinv[q]`` != 0) is checked: if key(q^-1 tau(q)) < key(tau(1)), a
conjugate comes earlier in branch order and the node dies.  The key-least
member of an orbit has the least key(tau'(1)) in it, so it always
survives; the first certificate in branch order is key-least in its orbit,
so the first survivor is the first certificate without the prune, reached
through a subset of the same nodes.  The comparison must use ``key``, not
plain numbers: these would rank the fixed point tau'(1) = 1 first where
branch order tries it last, and the first certificate could then be cut
for a later conjugate.

The kernel stops at each survivor, with ``tau`` holding it, and returns
its position; called again from there, it goes on to the next survivor.
The survivors are at least one member of each orbit, in branch order; the
caller expands them.
"""

from __future__ import annotations

import math

from .errors import PreconditionFailed

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    njit = None
    HAVE_NUMBA = False


# bumped whenever the search changes its node counts: 1 plain checking,
# 2 braid and relation propagation, 3 the m_a symmetry prune
KERNEL_VERSION = 3

# status codes returned by the kernel
DONE = 0
OUT_OF_BUDGET = 1
FOUND = 2


def _search_body(n, budget, nodes, depth, tlen, rho, sig, used, tau, st_a, st_b, trail, mark, uinv,
                 rows, rmark):
    """Run the search from a position to the next survivor; see module
    docstring.

    Every sequence is flat and 1-D, and point arrays are 1-indexed (index 0
    unused).  ``sig`` holds the cycle 1..n-1 twice from index n+1, then n-1
    copies of n, and ``sig[p]`` is where p's run starts in it, so
    ``sig[sig[p] + k]`` is sigma^k(p) for 0 <= k < n-1.  ``tau`` carries
    the seed assignment tau(n) = n-1 and ``used`` the residue pre-marks;
    both, the branch stacks ``st_a``/``st_b``, the ``trail`` of assigned
    points and its per-depth ``mark`` are working state changed in place.
    ``uinv[c]`` is c^-1 mod n-1 for a unit c >= 2 and 0 for every other
    point.  ``rows`` is the stack of evaluable couples, one row each, and
    ``rmark`` its per-depth mark; the stack's length is not part of the
    position, because each candidate starts from ``rmark`` of its depth.

    The position (nodes, depth, tlen) is the branch assignments so far, the
    depth and the trail length; a fresh ``search_arrays`` starts at
    (0, 0, 0).  Returns (status, nodes, depth, tlen).  On FOUND ``tau`` is a
    survivor, and the returned position, with the same arrays, resumes the
    search; DONE ends it.  OUT_OF_BUDGET stops at node budget + 1, which it
    has marked as tried, so that stop does not resume.

    Each counted candidate first gets its branch point's symmetry and braid
    checks, read before anything is written: one that fails costs the count
    and those reads.  A written candidate propagates over the trail, and
    each popped point visits the rows on the ``rows`` stack, not every row
    1..n-2.  Propagation reaches the same fixpoint, or the same death, in
    any order of reads (module docstring), so neither step changes a node
    count, a survivor or a position.

    The stack holds one row r of each evaluable couple {k, e2}, and that
    reads every constraint the couple's other row would.  Probe p of one
    row is probe tau(p) of the other, so it is enough that r reads each
    probe whose pair is assigned, after that pair is.  Row r is pushed at
    the write of r's own pair, so r is queued after the push, and when r is
    popped its full sweep reads every probe p with tau(p) known by then.  A
    pair {q, tau(q)} written later queues both points, and popping each
    reads its probe of r: q reads probe q, the other row's probe tau(q),
    and tau(q) reads probe tau(q), the other row's probe q.  So every read
    of the other row is made, after the same assignment, and by the
    fixpoint argument the order of the reads changes nothing.
    """
    m = n - 1
    if n == 2 and depth == 0:
        # tau is fully seeded and the relation has no row k in 1..n-2 to
        # check, so the seed itself is the one certificate
        return FOUND, nodes, -1, tlen

    while depth >= 0:
        a = st_a[depth]
        # undo the previous candidate at this depth and everything it forced;
        # point q owns the residue q - tau(q)
        t0 = mark[depth]
        while tlen > t0:
            tlen -= 1
            q = trail[tlen]
            used[(q - tau[q]) % m] = 0
            tau[q] = 0
        rlen = rmark[depth]
        # next admissible candidate, ascending; nb == m encodes tau(a) = a
        nb = st_b[depth] if st_b[depth] != 0 else a
        while True:
            nb += 1
            while nb < m and (tau[nb] != 0 or used[nb - a] != 0):
                nb += 1
            if nb == m and used[0] != 0:
                nb += 1
            if nb > m:
                break
            nodes += 1
            if nodes > budget:
                st_b[depth] = nb
                return OUT_OF_BUDGET, nodes, depth, tlen
            v = a if nb == m else nb
            # the first pop's symmetry and braid checks, read as if tau(a) = v
            # were written; see the module docstring
            if uinv[a] != 0:
                r = uinv[a] * v % m
                if (n + 1 if r == 1 else r) < (n + 1 if tau[1] == 1 else tau[1]):
                    continue
            s1 = rho[v]
            s2 = rho[a]
            x = a if s1 == v else tau[s1]
            y = v if s2 == a else tau[s2]
            if x != 0 and y != 0:
                if x != rho[y]:
                    continue
            elif x != 0 or y != 0:
                # the pair (u, w) the braid would force must pass admission
                u = s2 if x != 0 else s1
                w = rho[x + y]
                d = (u - w) % m
                if (used[d] != 0 or d == (a - v) % m or d == (v - a) % m
                        or (u != w and (tau[w] != 0 or w == a or w == v))):
                    continue
            break
        st_b[depth] = nb
        if nb > m:
            depth -= 1
            continue
        tau[a] = v
        tau[v] = a
        used[(a - v) % m] = 1
        used[(v - a) % m] = 1
        trail[tlen] = a
        tlen += 1
        if v != a:
            trail[tlen] = v
            tlen += 1
        # push one row of each couple this pair makes evaluable
        if tau[rho[v]] != 0:
            rows[rlen] = a
            rlen += 1
        e = tau[rho[a]]
        if e != 0 and e != a and a != v:
            rows[rlen] = v
            rlen += 1

        # propagate to a fixpoint, with the trail past t0 as the queue; the
        # module docstring says why these three revisits of each new point q
        # reach every constraint
        good = True
        head = t0
        while good and head < tlen:
            q = trail[head]
            head += 1
            # symmetry: the conjugate by m_a, a = q^-1, maps 1 to
            # q^-1 tau(q); a smaller key than tau(1)'s puts that conjugate
            # first in branch order, so this node holds no orbit leader
            if uinv[q] != 0:
                r = uinv[q] * tau[q] % m
                if (n + 1 if r == 1 else r) < (n + 1 if tau[1] == 1 else tau[1]):
                    good = False
                    break
            # braid tau(rho(tau(p))) = rho(tau(rho(p))), f = rho, at p = q
            s1 = rho[tau[q]]
            s2 = rho[q]
            x = tau[s1]
            y = tau[s2]
            u = 0
            if x != 0 and y != 0:
                good = x == rho[y]
            elif x != 0:
                u = s2
                v = rho[x]
            elif y != 0:
                u = s1
                v = rho[y]
            if u != 0:
                if u == v:
                    good = used[0] == 0
                else:
                    good = tau[v] == 0 and used[(u - v) % m] == 0
                if good:
                    tau[u] = v
                    tau[v] = u
                    used[(u - v) % m] = 1
                    used[(v - u) % m] = 1
                    trail[tlen] = u
                    tlen += 1
                    if u != v:
                        trail[tlen] = v
                        tlen += 1
                    if tau[rho[v]] != 0:
                        rows[rlen] = u
                        rlen += 1
                    e = tau[rho[u]]
                    if e != 0 and e != u and u != v:
                        rows[rlen] = v
                        rlen += 1
            if not good:
                break
            # relation tau(s1) = sigma^e1(tau(s2)), f = sigma^e1, with
            # s1 = sigma^k(tau(p)), s2 = sigma^e2(p), e1 = tau(k) and
            # e2 = tau(rho(e1))
            for j in range(rlen):
                k = rows[j]
                e1 = tau[k]
                e2 = tau[rho[e1]]
                lo = 1 if k == q else q
                for p in range(lo, n + 1 if k == q else q + 1):
                    tp = tau[p]
                    if tp == 0:
                        continue
                    s1 = sig[sig[tp] + k]
                    s2 = sig[sig[p] + e2]
                    x = tau[s1]
                    y = tau[s2]
                    u = 0
                    if x != 0 and y != 0:
                        good = x == sig[sig[y] + e1]
                    elif x != 0:
                        u = s2
                        v = sig[sig[x] + m - e1]
                    elif y != 0:
                        u = s1
                        v = sig[sig[y] + e1]
                    if u != 0:
                        if u == v:
                            good = used[0] == 0
                        else:
                            good = tau[v] == 0 and used[(u - v) % m] == 0
                        if good:
                            tau[u] = v
                            tau[v] = u
                            used[(u - v) % m] = 1
                            used[(v - u) % m] = 1
                            trail[tlen] = u
                            tlen += 1
                            if u != v:
                                trail[tlen] = v
                                tlen += 1
                            if tau[rho[v]] != 0:
                                rows[rlen] = u
                                rlen += 1
                            e = tau[rho[u]]
                            if e != 0 and e != u and u != v:
                                rows[rlen] = v
                                rlen += 1
                    if not good:
                        break
                if not good:
                    break
        if not good:
            continue

        na = 0
        for p in range(a + 1, n - 1):
            if tau[p] == 0:
                na = p
                break
        if na == 0:
            # complete: every constraint was read, and so checked, when the
            # last pair it needs was revisited
            return FOUND, nodes, depth, tlen
        depth += 1
        st_a[depth] = na
        st_b[depth] = 0
        mark[depth] = tlen
        rmark[depth] = rlen
    return DONE, nodes, depth, tlen


_search_numba = njit(cache=True)(_search_body) if HAVE_NUMBA else None

BACKENDS = ("auto", "numba", "python")


def resolve_backend(backend: str | None = None) -> str:
    """The backend named, else ("auto") numba when it imports, else python."""
    choice = backend or "auto"
    if choice not in BACKENDS:
        raise PreconditionFailed(
            "unknown backend %r (expected one of %s)" % (choice, ", ".join(BACKENDS))
        )
    if choice == "auto":
        return "numba" if HAVE_NUMBA else "python"
    if choice == "numba" and not HAVE_NUMBA:
        raise PreconditionFailed("numba backend requested but numba is not importable")
    return choice


def run(n: int, budget: int, backend: str | None = None, first_only: bool = False):
    """Run a degree-n search, resuming the kernel at each survivor, to its
    end, its budget or, with ``first_only``, the first survivor.  Returns
    (status, nodes, survivors in branch order as tau(1..n) tuples, backend).
    """
    backend = resolve_backend(backend)
    kernel = _search_numba if backend == "numba" else _search_body
    arrays = search_arrays(n, backend)
    tau, survivors, nodes, depth, tlen = arrays[3], [], 0, 0, 0
    while True:  # from one survivor to the next
        status, nodes, depth, tlen = kernel(n, budget, nodes, depth, tlen, *arrays)
        if status != FOUND:
            break
        survivors.append(tuple(int(x) for x in tau[1:]))
        if first_only:
            break
    return int(status), int(nodes), survivors, backend


def search_arrays(n: int, backend: str = "python"):
    """Fresh flat inputs for one degree-n search, at position (0, 0, 0).

    Returns (rho, sig, used, tau, st_a, st_b, trail, mark, uinv, rows,
    rmark) in the layout ``_search_body`` documents, with ``st_a[0]`` = 1,
    the first branch point, for n > 2: Python lists for the python backend,
    int64 arrays for numba, which compiles the same body for them.
    """
    if n < 2:
        raise PreconditionFailed("need n >= 2")
    m = n - 1
    w = n + 1
    rho = [0] * w
    for k in range(1, n - 1):
        rho[k] = m - k
    rho[m] = n
    rho[n] = m
    sig = [0, *range(w, w + m), w + 2 * m, *range(1, n), *range(1, n), *[n] * m]
    used = [0] * max(m, 1)
    if n % 2 == 0:
        used[0] = 1  # no fixed points allowed
    else:
        used[m // 2] = 1  # the one residue a fixed-point-free pair may not hit
    tau = [0] * w
    tau[n] = m
    tau[m] = n
    stack = [[0] * (n + 2) for _ in range(4)]  # st_a, st_b, trail, mark
    if n > 2:
        stack[0][0] = 1
    uinv = [0] * w
    for c in range(2, m):
        if math.gcd(c, m) == 1:
            uinv[c] = pow(c, -1, m)
    rows = [0] * (n + 2)  # at most n-2 rows, one per couple
    flat = (rho, sig, used, tau, *stack, uinv, rows, [0] * (n + 2))
    if backend == "numba":
        import numpy as np

        return tuple(np.array(xs, dtype=np.int64) for xs in flat)
    return flat
