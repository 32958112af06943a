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
* the defining relation itself, probed at every point that is already
  evaluable under the partial assignment.
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


def _search_body(n, budget, want_all, rho, sig, used, tau, st_a, st_b, out):
    """Enumerate certificate involutions; see module docstring.

    Every sequence is flat and 1-D, and point arrays are 1-indexed (index 0
    unused); ``sig[k*(n+1) + p]`` is sigma^k(p).  ``tau`` carries the seed
    assignment tau(n) = n-1 and ``used`` the residue pre-marks; both, and the
    branch stacks ``st_a``/``st_b``, are working state changed in place, so
    every call needs fresh ones from ``search_arrays``.  Solutions are
    written to ``out`` as rows of n+1 entries, ``out[row*(n+1) + p]`` =
    tau(p), at most ``len(out) // (n+1)`` of them.  Returns (status, found,
    nodes).
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

    while depth >= 0:
        a = st_a[depth]
        prev = st_b[depth]
        if prev != 0:
            # undo the assignment whose subtree we just finished
            if prev == m:
                tau[a] = 0
                used[0] = 0
            else:
                tau[a] = 0
                tau[prev] = 0
                used[(a - prev) % m] = 0
                used[(prev - a) % m] = 0
        nb = prev + 1 if prev != 0 else a + 1
        advanced = False
        while nb <= m:
            # candidates ascending; nb == m encodes the self-pair tau(a) = a
            if nb == m:
                can = used[0] == 0
            else:
                can = tau[nb] == 0
                if can:
                    can = used[(a - nb) % m] == 0 and used[(nb - a) % m] == 0
            if can:
                nodes += 1
                if nodes > budget:
                    return OUT_OF_BUDGET, found, nodes
                if nb == m:
                    tau[a] = a
                    used[0] = 1
                else:
                    tau[a] = nb
                    tau[nb] = a
                    used[(a - nb) % m] = 1
                    used[(nb - a) % m] = 1
                good = True
                # braid prune: tau(rho(tau(p))) == rho(tau(rho(p)))
                for p in range(1, n + 1):
                    tp = tau[p]
                    if tp == 0:
                        continue
                    x = tau[rho[tp]]
                    if x == 0:
                        continue
                    y = tau[rho[p]]
                    if y == 0:
                        continue
                    if x != rho[y]:
                        good = False
                        break
                if good:
                    # relation prune at every evaluable k and probe point;
                    # probes in the order n, n-1, 1, 2, ..., n-2
                    for k in range(1, n - 1):
                        e1 = tau[k]
                        if e1 == 0:
                            continue
                        e2 = tau[rho[e1]]
                        if e2 == 0:
                            continue
                        kw = k * w
                        e1w = e1 * w
                        e2w = e2 * w
                        for pi in range(n):
                            if pi == 0:
                                p = n
                            elif pi == 1:
                                p = n - 1
                            else:
                                p = pi - 1
                            tp = tau[p]
                            if tp == 0:
                                continue
                            lhs = tau[sig[kw + tp]]
                            if lhs == 0:
                                continue
                            q = tau[sig[e2w + p]]
                            if q == 0:
                                continue
                            if lhs != sig[e1w + q]:
                                good = False
                                break
                        if not good:
                            break
                if good:
                    na = 0
                    for p in range(a + 1, n - 1):
                        if tau[p] == 0:
                            na = p
                            break
                    if na == 0:
                        # complete: the prune above already checked the full
                        # relation, since every point was evaluable
                        base = found * w
                        for p in range(w):
                            out[base + p] = tau[p]
                        found += 1
                        if want_all == 0:
                            return OK, found, nodes
                        if found == cap:
                            return OUT_OF_SPACE, found, nodes
                        if nb == m:
                            tau[a] = 0
                            used[0] = 0
                        else:
                            tau[a] = 0
                            tau[nb] = 0
                            used[(a - nb) % m] = 0
                            used[(nb - a) % m] = 0
                    else:
                        st_b[depth] = nb
                        depth += 1
                        st_a[depth] = na
                        st_b[depth] = 0
                        advanced = True
                        break
                else:
                    if nb == m:
                        tau[a] = 0
                        used[0] = 0
                    else:
                        tau[a] = 0
                        tau[nb] = 0
                        used[(a - nb) % m] = 0
                        used[(nb - a) % m] = 0
            nb += 1
        if not advanced:
            st_b[depth] = 0
            depth -= 1
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

    Returns (rho, sig, used, tau, st_a, st_b, out) in the layout
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
    flat = (rho, sig, used, tau, [0] * (n + 2), [0] * (n + 2), [0] * (cap * w))
    if backend == "numba":
        return tuple(np.array(xs, dtype=np.int64) for xs in flat)
    return flat
