"""The tau-search kernel against the two bodies it grew from.

The first oracle is the original checking kernel, kept verbatim apart from
its name and the status constants: it indexed a 2-D ``sig_pow`` and a 2-D
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
holds for a full search, a search cut by its node budget (a prefix of the
full run), and one that fills its output buffer.
"""

import math

import numpy as np
import pytest

from ggraphs import _tauengine, ikn
from ggraphs.algebra import Perm


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
        return _tauengine.OK, found, nodes

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
                    return _tauengine.OUT_OF_BUDGET, found, nodes
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
                            return _tauengine.OK, found, nodes
                        if found == cap:
                            return _tauengine.OUT_OF_SPACE, found, nodes
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
    return _tauengine.OK, found, nodes


def old_run(n, budget, want_all, cap):
    rho, sig_pow, used0, tau0 = old_search_arrays(n)
    out = np.zeros((cap, n + 1), dtype=np.int64)
    status, found, nodes = old_search_body(
        n, rho, sig_pow, used0, tau0, budget, want_all, out
    )
    return (status, found, nodes), out[:found].tolist()


def new_run(n, budget, want_all, cap):
    arrays = _tauengine.search_arrays(n, cap)
    status, found, nodes = _tauengine._search_body(n, budget, want_all, *arrays)
    out, w = arrays[-1], n + 1
    return (status, found, nodes), [out[i * w:(i + 1) * w] for i in range(found)]


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
        return _tauengine.OK, 1, nodes

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
            return _tauengine.OUT_OF_BUDGET, found, nodes
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
                return _tauengine.OK, found, nodes
            if found == cap:
                return _tauengine.OUT_OF_SPACE, found, nodes
            continue
        depth += 1
        st_a[depth] = na
        st_b[depth] = 0
        mark[depth] = tlen
    return _tauengine.OK, found, nodes


def unpruned_run(n, budget, want_all, cap):
    *arrays, uinv, out = _tauengine.search_arrays(n, cap)
    status, found, nodes = unpruned_search_body(n, budget, want_all, *arrays, out)
    w = n + 1
    return (status, found, nodes), [out[i * w:(i + 1) * w] for i in range(found)]


def expand(n, rows):
    """The orbit expansion of survivor rows, as rows in branch order."""
    return [[0, *img] for img in ikn._orbit_expansion(n, [row[1:] for row in rows])]


def test_flat_inputs_are_the_old_arrays_flattened():
    for n in range(2, 26):
        m = n - 1
        arrays = _tauengine.search_arrays(n, 3)
        rho, sig, used, tau, st_a, st_b, trail, mark, uinv, out = arrays
        assert all(type(xs) is list for xs in arrays)
        old = old_search_arrays(n)
        assert [rho, sig, used, tau] == [a.ravel().tolist() for a in old]
        assert st_a == st_b == trail == mark == [0] * (n + 2)
        for c in range(n + 1):
            if 2 <= c < m and math.gcd(c, m) == 1:
                assert 1 <= uinv[c] < m and c * uinv[c] % m == 1, (n, c)
            else:
                assert uinv[c] == 0, (n, c)
        assert out == [0] * (3 * (n + 1))
        numba_layout = _tauengine.search_arrays(n, 3, "numba")
        assert all(a.dtype == np.int64 and a.ndim == 1 for a in numba_layout)
        assert [a.tolist() for a in numba_layout] == list(arrays)


def test_body_on_numba_layout_matches_lists():
    """The arrays handed to the compiled kernel drive the same search when
    the body runs on them as plain Python."""
    for n in (5, 8, 13, 17):
        want, rows = new_run(n, 10**7, 1, 64)
        arrays = _tauengine.search_arrays(n, 64, "numba")
        got = _tauengine._search_body(n, 10**7, 1, *arrays)
        assert got == want
        assert arrays[-1][: got[1] * (n + 1)].tolist() == [x for row in rows for x in row]


@pytest.mark.parametrize("want_all", [0, 1])
def test_full_search_matches_oracle(want_all):
    for n in range(2, 23 if want_all else 24):
        cap = 1024 if want_all else 1
        (status, found, nodes), rows = new_run(n, 10**7, want_all, cap)
        (o_status, o_found, o_nodes), o_rows = old_run(n, 10**7, want_all, cap)
        assert status == o_status == _tauengine.OK
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
    assert new_run(6, 10**7, 1, 1024)[0] == (_tauengine.OK, 0, 4)


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


@pytest.mark.parametrize("cap", [1, 2])
def test_full_buffer_matches_oracle(cap):
    """The kernel stops once ``cap`` survivors fill its buffer.  The first
    certificate always survives; n = 7 is the one n <= 25 with a second
    survivor, and its two certificates are both their orbits' leaders."""
    for n in (7, 8, 9, 11, 13, 16, 17, 19) if cap == 1 else (7,):
        (status, found, nodes), rows = new_run(n, 10**7, 1, cap)
        (o_status, o_found, _), o_rows = old_run(n, 10**7, 1, cap)
        assert status == o_status == _tauengine.OUT_OF_SPACE
        assert (found, rows) == (o_found, o_rows), n


def test_search_tau_retries_with_fresh_state_when_out_of_space(monkeypatch):
    """search_tau grows its buffer and restarts the search from the seed.

    The first kernel call gets a one-row buffer, so it stops with
    OUT_OF_SPACE at the first survivor after dirtying its working state;
    the retry must still give the certificates and node count of one
    uninterrupted run."""
    kernel, _ = _tauengine.get_kernel("python")
    calls = []

    def one_row_first(n, budget, want_all, *arrays):
        out = arrays[-1]
        if not calls:
            arrays = arrays[:-1] + (out[: n + 1],)
        calls.append(len(arrays[-1]) // (n + 1))
        status, found, nodes = kernel(n, budget, want_all, *arrays)
        out[: len(arrays[-1])] = arrays[-1]
        return status, found, nodes

    monkeypatch.setattr(_tauengine, "get_kernel", lambda backend=None: (one_row_first, "python"))
    for n in (13, 17, 19):
        calls.clear()
        result = ikn.search_tau(n, "all", backend="python")
        assert calls == [1, 8192]
        (status, found, nodes), rows = new_run(n, ikn.DEFAULT_BUDGET, 1, 1024)
        assert result.nodes == nodes and len(result.certificates) > found
        assert [[0, *c.tau.img] for c in result.certificates] == expand(n, rows)
