"""The propagating tau-search kernel against the checking body it grew from.

The oracle below is the original kernel, kept verbatim apart from its name
and the status constants: it indexed a 2-D ``sig_pow`` and a 2-D ``out`` as
numpy arrays, allocated its own working copies and stacks, and only checked
the braid and the defining relation where the current kernel also forces
values from them.  Propagation changes the node count but cuts no
certificate and keeps the branching order, so the current body must return
the oracle's status and solution rows, in the same order, in at most the
oracle's number of nodes: for a full search, a search cut by its node budget
(a prefix of the full run), and one that fills its output buffer.
"""

import numpy as np
import pytest

from ggraphs import _tauengine, ikn


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


def test_flat_inputs_are_the_old_arrays_flattened():
    for n in range(2, 26):
        arrays = _tauengine.search_arrays(n, 3)
        rho, sig, used, tau, st_a, st_b, trail, mark, out = arrays
        assert all(type(xs) is list for xs in arrays)
        old = old_search_arrays(n)
        assert [rho, sig, used, tau] == [a.ravel().tolist() for a in old]
        assert st_a == st_b == trail == mark == [0] * (n + 2)
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
        assert (found, rows) == (o_found, o_rows), n
        assert nodes <= o_nodes, n


def test_exhaustive_node_counts():
    """Branch assignments of the exhaustive search for n = 17..22, the
    ikn-exhaustive workload: 117,757 in all, against the checking body's
    282,709."""
    counts = {n: new_run(n, 10**7, 1, 1024)[0][2] for n in range(17, 23)}
    assert counts == {17: 2725, 18: 4135, 19: 9150, 20: 14195, 21: 34141, 22: 53411}
    assert new_run(6, 10**7, 1, 1024)[0] == (_tauengine.OK, 0, 4)


@pytest.mark.parametrize("budget", [0, 1, 2, 7, 50, 400, 3000])
def test_budget_stop_matches_oracle(budget):
    stopped = 0
    for n in (5, 9, 13, 16, 17, 19):
        for want_all in (0, 1):
            full = new_run(n, 10**7, want_all, 64)
            assert full[1] == old_run(n, 10**7, want_all, 64)[1], (n, want_all)
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
    for n in (7, 8, 9, 11, 13, 16, 17, 19):
        (status, found, nodes), rows = new_run(n, 10**7, 1, cap)
        (o_status, o_found, _), o_rows = old_run(n, 10**7, 1, cap)
        assert status == o_status == _tauengine.OUT_OF_SPACE
        assert (found, rows) == (o_found, o_rows), n


def test_search_tau_retries_with_fresh_state_when_out_of_space(monkeypatch):
    """search_tau grows its buffer and restarts the search from the seed.

    The first kernel call gets a two-row buffer, so it stops with
    OUT_OF_SPACE after dirtying its working state; the retry must still give
    the certificates and node count of one uninterrupted run."""
    kernel, _ = _tauengine.get_kernel("python")
    calls = []

    def two_rows_first(n, budget, want_all, *arrays):
        out = arrays[-1]
        if not calls:
            arrays = arrays[:-1] + (out[: 2 * (n + 1)],)
        calls.append(len(arrays[-1]) // (n + 1))
        status, found, nodes = kernel(n, budget, want_all, *arrays)
        out[: len(arrays[-1])] = arrays[-1]
        return status, found, nodes

    monkeypatch.setattr(_tauengine, "get_kernel", lambda backend=None: (two_rows_first, "python"))
    for n in (13, 17, 19):
        calls.clear()
        result = ikn.search_tau(n, "all", backend="python")
        assert calls == [2, 8192]
        (status, found, nodes), rows = new_run(n, ikn.DEFAULT_BUDGET, 1, 1024)
        assert result.nodes == nodes and len(result.certificates) == found > 2
        assert [list(c.tau.img) for c in result.certificates] == [row[1:] for row in rows]
