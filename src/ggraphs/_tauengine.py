"""Backtracking kernel for the order-2 certificate search.

The search looks for involutions tau of {1..n} with tau(n) = n-1 satisfying

    tau sigma^k tau = sigma^{tau(k)} tau sigma^{tau rho tau(k)}

for every k in {1..n-2}, where sigma = (1,...,n-1) fixes n and rho is the
involution k -> n-1-k on {1..n-2} that swaps n-1 and n.  The kernel is one
function that indexes only flat 1-D sequences and allocates nothing.  The
python backend runs it on Python lists, because indexing a numpy array from
Python costs several times a list index; the numba backend compiles the same
body in nopython mode for int64 arrays of the same layout.  ``search_arrays``
builds the inputs for either backend; pick the variant through
``get_kernel``.

Pruning used by the search (each one is a proved consequence of the
certificate conditions, so nothing valid is ever cut):

* residues: k -> k - tau(k) (mod n-1) is injective on {1..n-2}; the missed
  residue is 0 for even n and (n-1)/2 for odd n,
* braid: tau rho tau = rho tau rho,
* the defining relation itself.

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
  two pairs by rows rho(e1) and rho(e2).  These rows need {k, e1},
  {rho(e1), e2} and {rho(e2), rho(k)}, the last forced by the braid from
  the first two before the queue reaches a later point.

So when the last pair a constraint needs is revisited, it is read.

Branching always takes the smallest free point and its candidates in
ascending order, and propagation cuts no certificate, so the certificates
and their order are those of plain checking.  ``nodes`` counts branch
assignments only; forced ones are free.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ParseError, PreconditionFailed

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    njit = None
    HAVE_NUMBA = False


# status codes returned by the kernel
OK = 0
OUT_OF_BUDGET = 1
OUT_OF_SPACE = 2


def _search_body(n, budget, want_all, rho, sig, used, tau, st_a, st_b, trail, mark, out):
    """Enumerate certificate involutions; see module docstring.

    Every sequence is flat and 1-D, and point arrays are 1-indexed (index 0
    unused); ``sig[k*(n+1) + p]`` is sigma^k(p).  ``tau`` carries the seed
    assignment tau(n) = n-1 and ``used`` the residue pre-marks; both, the
    branch stacks ``st_a``/``st_b``, the ``trail`` of assigned points and its
    per-depth ``mark`` are working state changed in place, so every call
    needs fresh ones from ``search_arrays``.  Solutions are written to
    ``out`` as rows of n+1 entries, ``out[row*(n+1) + p]`` = tau(p), at most
    ``len(out) // (n+1)`` of them.  Returns (status, found, nodes).
    """
    m = n - 1
    w = n + 1
    cap = len(out) // w
    nodes = 0
    found = 0

    a0 = 0
    for p in range(1, n - 1):
        if tau[p] == 0:
            a0 = p
            break
    if a0 == 0:
        # n <= 3: nothing to branch on, check the seed assignment directly
        ok = True
        for k in range(1, n - 1):
            e1 = tau[k]
            e2 = tau[rho[e1]]
            for p in range(1, n + 1):
                if tau[sig[k * w + tau[p]]] != sig[e1 * w + tau[sig[e2 * w + p]]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for p in range(w):
                out[p] = tau[p]
            found = 1
        return OK, found, nodes

    depth = 0
    st_a[0] = a0
    st_b[0] = 0
    mark[0] = 0
    tlen = 0

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
        # next admissible candidate, ascending; nb == m encodes tau(a) = a
        nb = st_b[depth] + 1 if st_b[depth] != 0 else a + 1
        while nb < m and (tau[nb] != 0 or used[(a - nb) % m] != 0 or used[(nb - a) % m] != 0):
            nb += 1
        if nb == m and used[0] != 0:
            nb += 1
        if nb > m:
            depth -= 1
            continue
        st_b[depth] = nb
        nodes += 1
        if nodes > budget:
            return OUT_OF_BUDGET, found, nodes
        v = a if nb == m else nb
        tau[a] = v
        tau[v] = a
        used[(a - v) % m] = 1
        used[(v - a) % m] = 1
        trail[tlen] = a
        tlen += 1
        if v != a:
            trail[tlen] = v
            tlen += 1

        # propagate to a fixpoint, with the trail past t0 as the queue; the
        # module docstring says why these three revisits of each new point q
        # reach every constraint
        good = True
        head = t0
        while good and head < tlen:
            q = trail[head]
            head += 1
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
                    good = tau[v] == 0 and used[(u - v) % m] == 0 and used[(v - u) % m] == 0
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
            if not good:
                break
            # relation tau(s1) = sigma^e1(tau(s2)), f = sigma^e1, with
            # s1 = sigma^k(tau(p)), s2 = sigma^e2(p), e1 = tau(k) and
            # e2 = tau(rho(e1))
            for k in range(1, n - 1):
                e1 = tau[k]
                if e1 == 0:
                    continue
                e2 = tau[rho[e1]]
                if e2 == 0:
                    continue
                full = k == q
                for i in range(n if full else 1):
                    p = i + 1 if full else q
                    tp = tau[p]
                    if tp == 0:
                        continue
                    s1 = sig[k * w + tp]
                    s2 = sig[e2 * w + p]
                    x = tau[s1]
                    y = tau[s2]
                    u = 0
                    if x != 0 and y != 0:
                        good = x == sig[e1 * w + y]
                    elif x != 0:
                        u = s2
                        v = sig[(m - e1) * w + x]
                    elif y != 0:
                        u = s1
                        v = sig[e1 * w + y]
                    if u != 0:
                        if u == v:
                            good = used[0] == 0
                        else:
                            good = tau[v] == 0 and used[(u - v) % m] == 0 and used[(v - u) % m] == 0
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
            base = found * w
            for p in range(w):
                out[base + p] = tau[p]
            found += 1
            if want_all == 0:
                return OK, found, nodes
            if found == cap:
                return OUT_OF_SPACE, found, nodes
            continue
        depth += 1
        st_a[depth] = na
        st_b[depth] = 0
        mark[depth] = tlen
    return OK, found, nodes


_search_python = _search_body
_search_numba = njit(cache=True)(_search_body) if HAVE_NUMBA else None

BACKENDS = ("auto", "numba", "python")


def resolve_backend(backend: str | None = None) -> str:
    """Pick the kernel variant: explicit arg, else $GGRAPH_BACKEND, else auto."""
    choice = backend or os.environ.get("GGRAPH_BACKEND", "auto") or "auto"
    if choice not in BACKENDS:
        raise PreconditionFailed(
            "unknown backend %r (expected one of %s)" % (choice, ", ".join(BACKENDS))
        )
    if choice == "auto":
        return "numba" if HAVE_NUMBA else "python"
    if choice == "numba" and not HAVE_NUMBA:
        raise PreconditionFailed("numba backend requested but numba is not importable")
    return choice


def resolve_budget(budget: int | None, default: int) -> int:
    """Explicit budget, else $GGRAPH_BUDGET, else the caller's default."""
    if budget is not None:
        return int(budget)
    env = os.environ.get("GGRAPH_BUDGET", "")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ParseError(
                "GGRAPH_BUDGET must be an integer, got %r" % env
            ) from None
    return default


def get_kernel(backend: str | None = None):
    """Return (search_callable, resolved_backend_name)."""
    resolved = resolve_backend(backend)
    if resolved == "numba":
        return _search_numba, "numba"
    return _search_python, "python"


def search_arrays(n: int, cap: int, backend: str = "python"):
    """Fresh flat inputs for one degree-n kernel call.

    Returns (rho, sig, used, tau, st_a, st_b, trail, mark, out) in the layout
    ``_search_body`` documents, with room in ``out`` for ``cap`` solutions:
    Python lists for the python backend, int64 arrays for numba, which
    compiles the same body for them.
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
    sig = [0] * (max(m, 1) * w)
    for j in range(max(m, 1)):
        for p in range(1, n + 1):
            sig[j * w + p] = n if p == n else (p - 1 + j) % m + 1
    used = [0] * max(m, 1)
    if n % 2 == 0:
        used[0] = 1  # no fixed points allowed
    else:
        used[m // 2] = 1  # the one residue a fixed-point-free pair may not hit
    tau = [0] * w
    tau[n] = m
    tau[m] = n
    stack = [[0] * (n + 2) for _ in range(4)]  # st_a, st_b, trail, mark
    flat = (rho, sig, used, tau, *stack, [0] * (cap * w))
    if backend == "numba":
        return tuple(np.array(xs, dtype=np.int64) for xs in flat)
    return flat
