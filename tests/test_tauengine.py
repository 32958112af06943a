"""The tau-search kernel against the two bodies it grew from.

The first oracle is the original checking kernel, kept verbatim apart from
its name and the status constants (its own ``OK``, ``OUT_OF_BUDGET`` and
``OUT_OF_SPACE``, the statuses of its output buffer): it indexed a 2-D ``sig_pow`` and a 2-D
``out`` as numpy arrays, allocated its own working copies and stacks, and
only checked the braid and the defining relation where the current kernel
also forces values from them.  The second is the propagating kernel as it
was before the symmetry prune; it is fast enough to serve as the oracle up
to n = 25.

Propagation cuts no certificate and keeps the branching order.  The
symmetry prune keeps the leader of every m_a orbit, so the kernel's
survivors, expanded to their orbits and sorted back into branch order
(``ikn._orbit_expansion``), are the oracles' solution rows, in the same
order; its first certificate is theirs, and it never takes more nodes.  This
holds for a full search and for a search cut by its node budget (a prefix of
the full run).  The kernel stops at each survivor and is resumed from the
position it returns, and a copy of its state resumes the same way.

The third oracle is the kernel as it was before the row stack and the
check before the write: it scans every row 1..n-2 at each pop and writes
every counted candidate.  Propagation reaches the same fixpoint, or the
same death, whatever order it reads the constraints in, so the kernel must
stop where it stops, with the same status, position and survivors.
"""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ggraphs import _tauengine, ikn
from ggraphs._tauengine import DONE, FOUND  # scan_search_body's statuses
from ggraphs.algebra import Perm

# the oracles' statuses: they fill an output buffer and stop when it is full
OK, OUT_OF_BUDGET, OUT_OF_SPACE = 0, 1, 2


def old_search_arrays(n):
    """Seeded (rho, sig_pow, used0, tau0) arrays for a degree-n search."""
    m = n - 1
    rho = np.zeros(n + 1, dtype=np.int64)
    for k in range(1, n - 1):
        rho[k] = m - k
    rho[m] = n
    rho[n] = m
    sig_pow = np.zeros((max(m, 1), n + 1), dtype=np.int64)
    for j in range(max(m, 1)):
        for p in range(1, n + 1):
            sig_pow[j, p] = n if p == n else (p - 1 + j) % m + 1
    used0 = np.zeros(max(m, 1), dtype=np.int64)
    if n % 2 == 0:
        used0[0] = 1  # no fixed points allowed
    else:
        used0[m // 2] = 1  # the one residue a fixed-point-free pair may not hit
    tau0 = np.zeros(n + 1, dtype=np.int64)
    tau0[n] = m
    tau0[m] = n
    return rho, sig_pow, used0, tau0


def old_search_body(n, rho, sig_pow, used0, tau0, budget, want_all, out):
    """Enumerate certificate involutions; see module docstring.

    Arrays are 1-indexed on points (index 0 unused).  ``tau0`` carries the
    seed assignment tau(n) = n-1; ``used0`` carries the residue pre-marks.
    Solutions are written to ``out`` (one row per solution, row layout equal
    to the internal tau array).  Returns (status, found, nodes).
    """
    m = n - 1
    cap = out.shape[0]
    tau = tau0.copy()
    used = used0.copy()
    st_a = np.zeros(n + 2, dtype=np.int64)
    st_b = np.zeros(n + 2, dtype=np.int64)
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
                if tau[sig_pow[k, tau[p]]] != sig_pow[e1, tau[sig_pow[e2, p]]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for p in range(n + 1):
                out[0, p] = tau[p]
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
                            lhs = tau[sig_pow[k, tp]]
                            if lhs == 0:
                                continue
                            q = tau[sig_pow[e2, p]]
                            if q == 0:
                                continue
                            if lhs != sig_pow[e1, q]:
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
                        for p in range(n + 1):
                            out[found, p] = tau[p]
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


def old_run(n, budget, want_all, cap):
    rho, sig_pow, used0, tau0 = old_search_arrays(n)
    out = np.zeros((cap, n + 1), dtype=np.int64)
    status, found, nodes = old_search_body(
        n, rho, sig_pow, used0, tau0, budget, want_all, out
    )
    return (status, found, nodes), out[:found].tolist()


def resume(n, budget, arrays, position, limit):
    """Drive the kernel from ``position`` as ``search_tau`` does, until it is
    done, out of budget or stopped at ``limit`` survivors.  Returns the last
    status, the position and the survivors as rows of n+1 entries."""
    rows = []
    status = _tauengine.FOUND
    while status == _tauengine.FOUND and len(rows) < limit:
        status, *position = _tauengine._search_body(n, budget, *position, *arrays)
        if status == _tauengine.FOUND:
            rows.append([int(x) for x in arrays[3]])
    return status, position, rows


def new_run(n, budget, want_all, cap):
    """The kernel as the oracles are called: the first survivor without
    ``want_all``, else at most ``cap`` of them; status OK unless the budget
    ran out."""
    arrays = _tauengine.search_arrays(n)
    status, (nodes, _, _), rows = resume(n, budget, arrays, (0, 0, 0), cap if want_all else 1)
    if status != _tauengine.OUT_OF_BUDGET:
        status = OK
    return (status, len(rows), nodes), rows


def unpruned_search_body(n, budget, want_all, rho, sig, used, tau, st_a, st_b, trail, mark, out):
    """The kernel as it was before the symmetry prune, kept verbatim apart
    from its name and the status constants.

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
        # n = 2: tau is fully seeded and the relation has no row k in
        # 1..n-2 to check, so the seed itself is the one certificate
        for p in range(w):
            out[p] = tau[p]
        return OK, 1, nodes

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


def unpruned_run(n, budget, want_all, cap):
    *arrays, uinv, rows, rmark = _tauengine.search_arrays(n)
    arrays[1] = old_search_arrays(n)[1].ravel().tolist()  # the oracle's layout
    out = [0] * (cap * (n + 1))
    status, found, nodes = unpruned_search_body(n, budget, want_all, *arrays, out)
    w = n + 1
    return (status, found, nodes), [out[i * w:(i + 1) * w] for i in range(found)]


# The kernel before the row stack and the check before the write, kept
# verbatim apart from its name.
def scan_search_body(n, budget, nodes, depth, tlen, rho, sig, used, tau, st_a, st_b, trail, mark, uinv):
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
    point.

    The position (nodes, depth, tlen) is the branch assignments so far, the
    depth and the trail length; a fresh ``search_arrays`` starts at
    (0, 0, 0).  Returns (status, nodes, depth, tlen).  On FOUND ``tau`` is a
    survivor, and the returned position, with the same arrays, resumes the
    search; DONE ends it.  OUT_OF_BUDGET stops at node budget + 1, which it
    has marked as tried, so that stop does not resume.
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
            return OUT_OF_BUDGET, nodes, depth, tlen
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
            return FOUND, nodes, depth, tlen
        depth += 1
        st_a[depth] = na
        st_b[depth] = 0
        mark[depth] = tlen
    return DONE, nodes, depth, tlen


def stops(body, n, budget, arrays, position=(0, 0, 0), limit=math.inf):
    """Drive ``body`` from ``position`` until it is done, out of budget or
    stopped at ``limit`` survivors.  Returns every stop as (status,
    position, tau, used); tau holds the survivor at a FOUND."""
    out = []
    status = FOUND
    while status == FOUND and len(out) < limit:
        status, *position = body(n, budget, *position, *arrays)
        out.append((status, tuple(position), list(arrays[3]), list(arrays[2])))
    return out


def assert_stack_holds_one_row_per_couple(n, status, arrays, depth):
    """Below a stop at ``depth``, the stack each depth's node started from
    holds one row, once, of each couple evaluable on the points assigned
    before that node.  Row k is evaluable when k and rho(tau(k)) are
    assigned, and its couple is {k, tau(rho(tau(k)))}.  At a survivor every
    row is evaluable."""
    rho, tau, trail, mark, rows, rmark = (arrays[i] for i in (0, 3, 6, 7, 9, 10))

    def couples(ks):
        return [frozenset((k, tau[rho[tau[k]]])) for k in ks]

    def assert_one_per_couple(stacked, assigned):
        want = set(couples(k for k in assigned if rho[tau[k]] in assigned))
        assert len(set(couples(stacked))) == len(stacked) == len(want), stacked
        assert set(couples(stacked)) == want, stacked

    if status == FOUND:
        points = range(1, n - 1)
        assert_one_per_couple(rows[:len(set(couples(points)))], set(points))
    for d in range(depth + 1):
        assert_one_per_couple(rows[:rmark[d]], set(trail[:mark[d]]))


def compare_with_the_scan(n, budget, limit, copies=False):
    """The kernel's stops against scan_search_body's on the same inputs;
    with ``copies``, a deep copy taken at each FOUND also resumes to the
    scan's remaining stops."""
    want = stops(scan_search_body, n, budget, _tauengine.search_arrays(n)[:9], limit=limit)
    arrays, got, position = _tauengine.search_arrays(n), [], (0, 0, 0)
    while not got or (got[-1][0] == FOUND and len(got) < limit):
        got += stops(_tauengine._search_body, n, budget, arrays, position, limit=1)
        position = got[-1][1]
        assert_stack_holds_one_row_per_couple(n, got[-1][0], arrays, position[1])
        if copies and got[-1][0] == FOUND:
            rest = stops(_tauengine._search_body, n, budget, copy.deepcopy(arrays), position)
            assert rest == want[len(got):], (n, budget, len(got))
    assert got == want, (n, budget, limit)
    return want


@pytest.mark.parametrize("first_only", [0, 1])
def test_row_stack_matches_the_scan(first_only):
    """Every mode for n = 2..23 and first-only at n = 24, 25: the same
    status, nodes, position and survivors at every stop, and a copy taken
    at any FOUND resumes to the scan's remaining stops."""
    ns = range(2, 26 if first_only else 24)
    limit = 1 if first_only else math.inf
    found = [n for n in ns if compare_with_the_scan(n, 10**7, limit, copies=not first_only)[0][0] == FOUND]
    assert found == [n for n in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25) if n in ns]


def test_budget_stops_match_the_scan():
    """110 budgeted runs, 93 of them cut, anywhere from node 1 to the last:
    the same stops, OUT_OF_BUDGET at node budget + 1 included."""
    runs = cut = 0
    for n in (5, 9, 11, 13, 16, 17, 19, 21):
        for limit in (1, math.inf):
            total = compare_with_the_scan(n, 10**7, limit)[-1][1][0]
            for budget in sorted({0, 1, 2, total // 4, total // 2, 3 * total // 4, total - 1, total}):
                got = compare_with_the_scan(n, budget, limit)
                runs += 1
                if budget < total:
                    assert got[-1][0] == _tauengine.OUT_OF_BUDGET and got[-1][1][0] == budget + 1
                    cut += 1
    assert (runs, cut) == (110, 93)


def expand(n, rows):
    """The orbit expansion of survivor rows, as rows in branch order."""
    orbits = [ikn._orbit(n, row[1:]) for row in rows]
    return [[0, *img] for img in ikn._orbit_expansion(orbits)]


def test_flat_inputs_are_the_old_arrays_flattened():
    for n in range(2, 26):
        m = n - 1
        arrays = _tauengine.search_arrays(n)
        rho, sig, used, tau, st_a, st_b, trail, mark, uinv, rows, rmark = arrays
        assert all(type(xs) is list for xs in arrays)
        old = old_search_arrays(n)
        assert [rho, used, tau] == [old[i].ravel().tolist() for i in (0, 2, 3)]
        assert [[sig[sig[p] + k] for p in range(1, n + 1)] for k in range(m)] == old[1][:, 1:].tolist()
        # the first branch point, the oracle's a0, is 1 whenever there is one
        assert st_a == [1 if n > 2 else 0] + [0] * (n + 1)
        assert st_b == trail == mark == [0] * (n + 2)
        for c in range(n + 1):
            if 2 <= c < m and math.gcd(c, m) == 1:
                assert 1 <= uinv[c] < m and c * uinv[c] % m == 1, (n, c)
            else:
                assert uinv[c] == 0, (n, c)
        numba_layout = _tauengine.search_arrays(n, "numba")
        assert all(a.dtype == np.int64 and a.ndim == 1 for a in numba_layout)
        assert [a.tolist() for a in numba_layout] == list(arrays)


def test_sig_is_one_list_of_every_power():
    """4n-2 entries, and sig[sig[p] + k] = sigma^k(p) for every k and p."""
    for n in range(2, 41):
        m = n - 1
        sig = _tauengine.search_arrays(n)[1]
        assert len(sig) == 4 * n - 2, n
        for k in range(m):
            want = [(p - 1 + k) % m + 1 for p in range(1, n)] + [n]
            assert [sig[sig[p] + k] for p in range(1, n + 1)] == want, (n, k)


def test_body_on_numba_layout_matches_lists():
    """The arrays handed to the compiled kernel drive the same search when
    the body runs on them as plain Python, through the same resume loop."""
    for n in (2, 5, 7, 8, 13, 17):
        lists = _tauengine.search_arrays(n)
        want = resume(n, 10**7, lists, (0, 0, 0), math.inf)
        arrays = _tauengine.search_arrays(n, "numba")
        got = resume(n, 10**7, arrays, (0, 0, 0), math.inf)
        assert got == want, n
        assert want[0] == _tauengine.DONE and want[2], n
        assert [a.tolist() for a in arrays] == list(lists), n


@pytest.mark.parametrize("want_all", [0, 1])
def test_full_search_matches_oracle(want_all):
    for n in range(2, 23 if want_all else 24):
        cap = 1024 if want_all else 1
        (status, found, nodes), rows = new_run(n, 10**7, want_all, cap)
        (o_status, o_found, o_nodes), o_rows = old_run(n, 10**7, want_all, cap)
        assert status == o_status == _tauengine.DONE
        if want_all:
            rows = expand(n, rows)
        assert rows == o_rows, n
        assert nodes <= o_nodes, n


def test_first_only_matches_the_unpruned_search():
    """The first certificate is the key-least member of its orbit, so it
    survives and is reached first, through a subset of the same nodes."""
    for n in range(2, 26):
        (status, found, nodes), rows = new_run(n, 10**7, 0, 1)
        (u_status, u_found, u_nodes), u_rows = unpruned_run(n, 10**7, 0, 1)
        assert (status, found, rows) == (u_status, u_found, u_rows), n
        assert nodes <= u_nodes, n


def test_modes_match_the_unpruned_search():
    """``all`` lists the unpruned search's certificates in its order, and
    ``up_to_conjugacy`` its conjugacy classes, for every n <= 25."""
    for n in range(2, 26):
        _, u_rows = unpruned_run(n, 10**7, 1, 1024)
        every = ikn.search_tau(n, "all", short_circuit=False, backend="python")
        assert [[0, *c.tau.img] for c in every.certificates] == u_rows, n
        classes = ikn.search_tau(n, "up_to_conjugacy", short_circuit=False, backend="python")
        want = sorted({ikn.canonical_tau(n, Perm(tuple(row[1:]))).img for row in u_rows})
        assert [c.tau.img for c in classes.certificates] == want, n


def test_exhaustive_node_counts():
    """Branch assignments of the exhaustive search for n = 17..22, the
    ikn-exhaustive workload: 45,518 in all, against 117,757 before the
    symmetry prune and the checking body's 282,709."""
    counts = {n: new_run(n, 10**7, 1, 1024)[0][2] for n in range(17, 23)}
    assert counts == {17: 1362, 18: 1381, 19: 5335, 20: 4008, 21: 15855, 22: 17577}
    assert new_run(6, 10**7, 1, 1024)[0] == (_tauengine.DONE, 0, 4)


@pytest.mark.parametrize("budget", [0, 1, 2, 7, 50, 400, 3000])
def test_budget_stop_matches_oracle(budget):
    stopped = 0
    for n in (5, 9, 13, 16, 17, 19):
        for want_all in (0, 1):
            full = new_run(n, 10**7, want_all, 64)
            rows = expand(n, full[1]) if want_all else full[1]
            assert rows == old_run(n, 10**7, want_all, 64)[1], (n, want_all)
            (status, found, nodes), rows = new_run(n, budget, want_all, 64)
            if full[0][2] > budget:
                assert status == _tauengine.OUT_OF_BUDGET, (n, want_all)
                assert nodes == budget + 1
                assert rows == full[1][:found]
                stopped += 1
            else:
                assert ((status, found, nodes), rows) == full, (n, want_all)
    assert stopped > 0


@pytest.mark.parametrize("n", [7, 13, 17, 19, 25])
def test_resume_from_a_copy(n):
    """The arrays and the returned position are the whole state: stopped at
    any survivor, a deep copy resumes to the same remaining survivors and
    the same node total as the original resumed after it."""
    nodes_all = {7: 10, 13: 221, 17: 1362, 19: 5335, 25: 252463}[n]
    arrays, position, survivors, copies = _tauengine.search_arrays(n), (0, 0, 0), [], []
    while True:
        status, position, rows = resume(n, 10**7, arrays, position, 1)
        if not rows:
            break
        survivors += rows
        copies.append((len(survivors), resume(
            n, 10**7, copy.deepcopy(arrays), copy.deepcopy(position), math.inf)))
    assert (status, position[0]) == (_tauengine.DONE, nodes_all)
    assert len(copies) == len(survivors) == (2 if n == 7 else 1)
    for seen, (c_status, c_position, c_rows) in copies:
        assert (c_status, c_position[0]) == (_tauengine.DONE, nodes_all)
        assert c_rows == survivors[seen:]


@pytest.mark.parametrize("flags, rows", [
    ((), {13: ("1", "221"), 17: ("1", "1362")}),
    (("--first",), {13: ("1", "52"), 17: ("1", "405")}),
])
def test_bench_tau_runs(flags, rows):
    """benchmarks/bench_tau.py drives the resume loop and prints, per n, the
    survivors (``reps``, or ``found`` with --first) and the nodes."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "bench_tau.py"), *flags,
         "--sizes", "13,17", "--repeats", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert ["n", "found" if flags else "reps", "nodes", "python"] in [row[:4] for row in lines]
    assert {int(row[0]): tuple(row[1:3]) for row in lines if row[0].isdigit()} == rows


class Spy(list):
    """A list that calls ``hook(index, value)`` after each item write."""

    def __init__(self, items, hook):
        super().__init__(items)
        self.hook = hook

    def __setitem__(self, index, value):
        super().__setitem__(index, value)
        self.hook(index, value)


def first_pop_fails(n, rho, used, tau, uinv, a):
    """Whether the written candidate at branch point a dies at its first
    pop, at the symmetry or the braid check, as scan_search_body reads
    them."""
    m = n - 1
    key = lambda t: n + 1 if t == 1 else t
    if uinv[a] != 0 and key(uinv[a] * tau[a] % m) < key(tau[1]):
        return True
    s1, s2 = rho[tau[a]], rho[a]
    x, y = tau[s1], tau[s2]
    if x != 0 and y != 0:
        return x != rho[y]
    if x == y == 0:
        return False
    u, v = (s2, rho[x]) if x != 0 else (s1, rho[y])
    if u == v:
        return used[0] != 0
    return tau[v] != 0 or used[(u - v) % m] != 0 or used[(v - u) % m] != 0


@pytest.mark.parametrize("n", [13, 16, 17, 19, 21])
def test_only_candidates_that_pass_their_first_pop_are_written(n):
    """scan_search_body writes every counted candidate and then pops its
    branch point first; the kernel writes exactly the candidates that pass
    that pop's symmetry and braid checks, about half of them."""
    m = n - 1
    events = {"counted": False, "dead": 0, "written": 0}

    def counted(index, value):  # the scan sets st_b to each candidate it counts
        events["counted"] = value != 0

    def on_trail(index, value):  # and then writes it: tau and used, then the trail
        if events["counted"]:
            events["counted"] = False
            events["dead"] += first_pop_fails(n, rho, used, tau, uinv, value)

    rho, sig, used, tau, st_a, st_b, trail, mark, uinv, rows, rmark = _tauengine.search_arrays(n)
    arrays = [rho, sig, used, tau, st_a, Spy(st_b, counted), Spy(trail, on_trail), mark, uinv]
    want = stops(scan_search_body, n, 10**7, arrays)
    nodes = want[-1][1][0]

    def written(index, value):  # the kernel sets st_b to each candidate it writes
        events["written"] += 1 <= value <= m

    arrays = list(_tauengine.search_arrays(n))
    arrays[5] = Spy(arrays[5], written)
    assert stops(_tauengine._search_body, n, 10**7, arrays) == want
    assert events["written"] == nodes - events["dead"], (nodes, events)
    assert 0.3 * nodes < events["dead"] < 0.7 * nodes, (nodes, events)


def test_bench_tau_file_counts_reproduce():
    """benchmarks/BENCH_tau.json, written by ``bench_tau.py --sizes 19,21,25
    --repeats 3 --out ...``: each size searched again gives the nodes and
    survivors the file records.  These counts do not depend on the machine;
    its seconds do, and are not checked."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "BENCH_tau.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["mode"] == "all" and [row["n"] for row in data["sizes"]] == [19, 21, 25]
    for row in data["sizes"]:
        status, nodes, survivors, _ = _tauengine.run(row["n"], data["budget"], "python")
        assert status == DONE
        assert (nodes, len(survivors)) == (row["nodes"], row["survivors"]), row["n"]
