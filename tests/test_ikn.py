"""Certificate verification, obstructions, and the tau search for I(K_n)."""

import dataclasses
import json
import math
import random
import tracemalloc
from pathlib import Path

import pytest

from ggraphs import _tauengine, ikn
from ggraphs.algebra import Perm
from ggraphs.errors import BudgetExceeded, CapExceeded, ParseError, PreconditionFailed
from ggraphs.ikn import (
    Obstruction,
    TauCertificate,
    build_and_verify,
    canonical_tau,
    conjugate_tau,
    make_rho_sigma,
    obstructions,
    orbit_structure,
    pi_map,
    search_tau,
    verify_tau,
)
from ggraphs.ggraph import level_vertices
from ggraphs.multigraph import Multigraph, isomorphic


def cycle_graph(n):
    g = Multigraph()
    for i in range(n):
        g.add_vertex(str(i))
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


KNOWN_TAUS = {
    2: "(1,2)",
    3: "(1)(2,3)",
    4: "(1,2)(3,4)",
    5: "(1)(2,3)(4,5)",
    7: "(2)(1,5)(3,4)(6,7)",
    8: "(1,3)(2,6)(4,5)(7,8)",
    9: "(4)(1,2)(3,6)(5,7)(8,9)",
    11: "(1)(2,4)(3,6)(5,9)(7,8)(10,11)",
    13: "(1)(2,10)(3,4)(5,8)(6,11)(7,9)(12,13)",
    16: "(1,12)(3,4)(11,14),(2,9)(6,8)(7,13)(5,10)(15,16)",
    17: "(14)(2,8)(1,13)(3,12)(4,15)(5,6)(7,10)(9,11)(16,17)",
    19: "(1)(9,17)(3,15)(2,7)(4,11)(14,16)(5,8)(6,10)(12,13)(18,19)",
}
NO_CERTIFICATE = (6, 10, 12, 14, 15, 18)


def known_tau(n):
    return Perm.parse(KNOWN_TAUS[n], n)


def brute_taus(n):
    """Oracle: filter every involution with tau(n) = n-1 through verify_tau."""
    found = []

    def extend(img, free):
        if not free:
            tau = Perm(tuple(img[p] for p in range(1, n + 1)))
            if verify_tau(n, tau).ok:
                found.append(tau)
            return
        a = free[0]
        img[a] = a
        extend(img, free[1:])
        for b in free[1:]:
            img[a], img[b] = b, a
            extend(img, tuple(x for x in free[1:] if x != b))
            img[b] = 0
        img[a] = 0

    img = {p: 0 for p in range(1, n + 1)}
    img[n], img[n - 1] = n - 1, n
    extend(img, tuple(range(1, n - 1)))
    return sorted(found, key=lambda t: t.img)


def test_rho_sigma_shapes():
    rs = make_rho_sigma(4)
    assert rs.sigma.cycle_string() == "(1,2,3)(4)"
    assert rs.rho.cycle_string() == "(1,2)(3,4)"
    rs2 = make_rho_sigma(2)
    assert rs2.sigma == Perm.identity(2)
    assert rs2.rho.cycle_string() == "(1,2)"
    for n in (2, 3, 5, 8, 13):
        rs = make_rho_sigma(n)
        assert rs.rho * rs.rho == Perm.identity(n)
        assert rs.sigma.order == max(n - 1, 1)
        assert rs.sigma(n) == n
    with pytest.raises(PreconditionFailed):
        make_rho_sigma(1)


def test_verify_accepts_known_certificates():
    for n in KNOWN_TAUS:
        report = verify_tau(n, known_tau(n))
        assert report.ok, (n, report.failures)


def test_verify_failure_details():
    rep = verify_tau(5, Perm.identity(5))
    assert not rep.ok
    assert any("expected 4" in f for f in rep.failures)
    rep = verify_tau(5, Perm.parse("(1,2,3)(4,5)", 5))
    assert any("not an involution" in f for f in rep.failures)
    # involution of the right shape that breaks the defining relation
    rep = verify_tau(8, Perm.parse("(1,2)(3,6)(4,5)(7,8)", 8))
    assert not rep.ok
    assert any("relation fails at k=" in f for f in rep.failures)
    with pytest.raises(PreconditionFailed):
        verify_tau(6, known_tau(5))


def stored_powers_verify_tau(n, tau):
    """Oracle: verify_tau as it was, with every power of sigma stored."""
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
    return ikn.TauReport(n, not failures, tuple(failures))


def random_involution(n, rng):
    """tau(n) = n-1 four times in five, so that the relation rows are read."""
    seeded = rng.random() < 0.8
    points = list(range(1, n - 1 if seeded else n + 1))
    rng.shuffle(points)
    img = list(range(1, n + 1))
    if seeded:
        img[n - 2], img[n - 1] = n, n - 1
    pairs = rng.randrange(len(points) // 2 + 1)
    for a, b in zip(points[0 : 2 * pairs : 2], points[1 : 2 * pairs : 2]):
        img[a - 1], img[b - 1] = b, a
    return Perm(tuple(img))


def test_verify_matches_the_stored_powers_oracle():
    rng = random.Random(11)
    for n in range(2, 41):
        taus = [random_involution(n, rng) for _ in range(30)]
        taus.append(Perm(tuple(rng.sample(range(1, n + 1), n))))
        if n in KNOWN_TAUS:
            taus.append(known_tau(n))
        for tau in taus:
            assert verify_tau(n, tau) == stored_powers_verify_tau(n, tau), (n, tau)


def peak_bytes(call):
    tracemalloc.start()
    try:
        call()
    except BudgetExceeded:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_search_keeps_no_table_of_sigma_powers():
    """The kernel reads sigma^k from one list of 4n-2 entries: a search
    stopped at node 0 for n = 4001 peaks below 5 MiB (an n^2 table of
    powers would be 128 MB)."""
    assert peak_bytes(lambda: search_tau(4001, budget=0, backend="python")) < 5 * 2**20


def test_verify_keeps_no_list_of_sigma_powers():
    """verify_tau builds the three powers of sigma each row needs and keeps
    none: n = 601 peaks below 1 MiB (the n-2 stored powers took 3 MiB)."""
    assert peak_bytes(lambda: verify_tau(601, Perm.parse("(600,601)", 601))) < 2**20


def test_obstruction_kinds():
    assert [o.kind for o in obstructions(6)] == ["Mod4", "Mod6"]
    assert [o.kind for o in obstructions(10)] == ["Mod4"]
    assert [o.kind for o in obstructions(12)] == ["Mod6"]
    assert [o.kind for o in obstructions(14)] == ["Mod4"]
    assert [o.kind for o in obstructions(15)] == ["Mod24"]
    assert [o.kind for o in obstructions(18)] == ["Mod4", "Mod6"]
    assert [o.kind for o in obstructions(39)] == ["Mod24"]
    assert obstructions(2) == ()
    for n in KNOWN_TAUS:
        assert obstructions(n) == ()
    with pytest.raises(PreconditionFailed):
        obstructions(1)


def test_obstruction_inputs_that_are_accepted():
    """obstructions takes any integer type and records n as an int; the
    reader takes an ExhaustiveSearch record up to the 8192 degree cap,
    the largest n search_tau runs."""
    import numpy as np

    got = obstructions(np.int64(30))
    assert got == (Obstruction(30, "Mod4"), Obstruction(30, "Mod6"))
    assert all(type(o.n) is int for o in got)
    record = {"n": 8192, "kind": "ExhaustiveSearch"}
    assert Obstruction.from_json(record) == Obstruction(8192, "ExhaustiveSearch")


def test_search_agrees_with_brute_force_oracle():
    for n in (5, 6, 7, 8, 9, 10, 12):
        oracle = brute_taus(n)
        result = search_tau(n, "all", short_circuit=False, backend="python")
        assert sorted(c.tau.img for c in result.certificates) == [
            t.img for t in oracle
        ], n
        assert result.complete


def test_search_finds_certificates():
    for n in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        result = search_tau(n, backend="python")
        assert len(result.certificates) == 1
        cert = result.certificates[0]
        assert verify_tau(n, cert.tau).ok
        assert cert.canonical == (canonical_tau(n, cert.tau) == cert.tau)
        assert not result.obstructions


def test_search_short_circuit_and_exhaustion():
    res = search_tau(6)
    assert res.certificates == ()
    assert [o.kind for o in res.obstructions] == ["Mod4", "Mod6"]
    assert res.nodes == 0 and res.complete and res.backend == "none"
    full = search_tau(6, "all", short_circuit=False)
    assert full.certificates == ()
    assert [o.kind for o in full.obstructions] == ["Mod4", "Mod6", "ExhaustiveSearch"]
    assert full.nodes > 0 and full.complete
    # n = 20 has no modular obstruction; emptiness comes from exhaustion only
    res20 = search_tau(20, "all")
    assert res20.certificates == ()
    assert [o.kind for o in res20.obstructions] == ["ExhaustiveSearch"]


def test_search_modes_are_consistent():
    for n in (5, 9, 13):
        first = search_tau(n, "first_only", backend="python")
        every = search_tau(n, "all", backend="python")
        classes = search_tau(n, "up_to_conjugacy", backend="python")
        assert first.certificates[0] == every.certificates[0]
        assert not first.complete and every.complete
        assert len(classes.certificates) == 1
        rep = classes.certificates[0]
        assert rep.canonical
        orbit = {
            conjugate_tau(n, rep.tau, a).img
            for a in range(1, n - 1)
            if math.gcd(a, n - 1) == 1
        }
        assert {c.tau.img for c in every.certificates} == orbit


def test_conjugacy_class_representatives_are_verified(monkeypatch):
    """Each up_to_conjugacy representative is the canonical conjugate of a
    survivor, often not the survivor itself; it goes through verify_tau."""
    checked = []

    def recording(n, tau):
        checked.append((n, tau.img))
        return verify_tau(n, tau)

    monkeypatch.setattr(ikn, "verify_tau", recording)
    for n in (5, 11, 13, 19):
        checked.clear()
        classes = search_tau(n, "up_to_conjugacy", backend="python")
        assert classes.certificates, n
        for cert in classes.certificates:
            assert (n, cert.tau.img) in checked, n


@pytest.mark.skipif(not _tauengine.HAVE_NUMBA, reason="numba unavailable")
def test_backends_agree():
    for n in (5, 8, 11, 13, 16, 17):
        pa = search_tau(n, "all", backend="python")
        nb = search_tau(n, "all", backend="numba")
        assert [c.tau.img for c in pa.certificates] == [
            c.tau.img for c in nb.certificates
        ]
        assert pa.nodes == nb.nodes


def test_n_above_the_cap_is_refused_first(no_permutations, monkeypatch):
    """n is checked against DEFAULT_CLOSURE_CAP before any permutation or
    kernel array of n^2 entries is built; n = 8192 passes the check."""

    def forbidden(*args, **kwargs):
        raise AssertionError("kernel arrays were built")

    monkeypatch.setattr(_tauengine, "search_arrays", forbidden)
    for call in (make_rho_sigma, lambda n: search_tau(n, budget=0),
                 lambda n: verify_tau(n, None), lambda n: canonical_tau(n, None)):
        with pytest.raises(CapExceeded, match="degree 8193 exceeds cap 8192"):
            call(8193)
    with pytest.raises(AssertionError, match="kernel arrays"):
        search_tau(8192)
    with pytest.raises(AssertionError, match="permutation was built"):
        make_rho_sigma(8192)


def test_backend_resolution(monkeypatch):
    assert _tauengine.resolve_backend("python") == "python"
    with pytest.raises(PreconditionFailed):
        _tauengine.resolve_backend("bogus")
    assert _tauengine.resolve_backend() in ("numba", "python")


def test_no_environment_variable_picks_the_backend(monkeypatch):
    monkeypatch.setenv("GGRAPH_BACKEND", "bogus")
    result = search_tau(13)
    assert result.backend == _tauengine.resolve_backend()
    assert (len(result.certificates), result.nodes) == (1, 52)


def test_all_mode_conjugates_each_survivor_once(monkeypatch):
    """The m_a orbit of the one n = 17 survivor gives the "all" expansion
    and every certificate's canonical flag: phi(16) = 8 conjugations."""
    calls = []
    real = ikn.conjugate_tau

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(ikn, "conjugate_tau", counting)
    result = search_tau(17, "all")
    assert sorted(calls) == [1, 3, 5, 7, 9, 11, 13, 15]
    monkeypatch.undo()
    assert [c.canonical for c in result.certificates].count(True) == 1
    for cert in result.certificates:
        assert cert.canonical == (canonical_tau(17, cert.tau) == cert.tau)


def load_bench_tau(monkeypatch):
    import importlib.util

    benchmarks = Path(__file__).resolve().parents[1] / "benchmarks"
    monkeypatch.syspath_prepend(str(benchmarks))  # as when run as a script
    spec = importlib.util.spec_from_file_location("bench_tau", benchmarks / "bench_tau.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("caller", ["search_tau", "bench_tau"])
def test_the_kernel_runs_only_under_the_driver(caller, monkeypatch):
    """search_tau and bench_tau.run_once reach the kernel and its arrays
    only through _tauengine.run."""
    runs, inside = [], []
    real_run = _tauengine.run

    def run(*args, **kwargs):
        runs.append(args)
        inside.append(True)
        try:
            return real_run(*args, **kwargs)
        finally:
            inside.pop()

    def guarded(real):
        def call(*args):
            assert inside, "%s called outside _tauengine.run" % real.__name__
            return real(*args)
        return call

    monkeypatch.setattr(_tauengine, "run", run)
    for name in ("_search_body", "search_arrays"):
        monkeypatch.setattr(_tauengine, name, guarded(getattr(_tauengine, name)))
    if caller == "search_tau":
        assert search_tau(13, "all", backend="python").nodes == 221
    else:
        assert load_bench_tau(monkeypatch).run_once("python", 13, 10**7, False)[1][2] == 221
    assert len(runs) == 1


def test_budget_is_inconclusive(monkeypatch):
    with pytest.raises(BudgetExceeded) as info:
        search_tau(13, "all", budget=5, backend="python")
    assert info.value.nodes > 0
    assert isinstance(info.value.partial, tuple)
    monkeypatch.setenv("GGRAPH_BUDGET", "1")
    with pytest.raises(BudgetExceeded):
        search_tau(13, backend="python")
    # an explicit budget wins over the environment
    assert search_tau(13, budget=10**6, backend="python").certificates
    monkeypatch.setenv("GGRAPH_BUDGET", "plenty")
    with pytest.raises(ParseError):
        search_tau(13, backend="python")
    # a negative budget is refused from either source; zero is a budget,
    # and n = 2 needs no branch node
    monkeypatch.setenv("GGRAPH_BUDGET", "-7")
    with pytest.raises(ParseError, match="GGRAPH_BUDGET must be >= 0, got -7"):
        search_tau(13, backend="python")
    with pytest.raises(ParseError, match="budget must be >= 0, got -3"):
        search_tau(2, "all", budget=-3)
    assert search_tau(2, budget=0).certificates


def test_budget_stop_in_all_mode_keeps_the_orbits_of_the_survivors():
    """n = 13: the kernel finds its one survivor at node 52 of 221, and the
    survivor's orbit holds all four certificates."""
    every = search_tau(13, "all", backend="python").certificates
    assert len(every) == 4
    for budget, want in ((51, ()), (52, every), (220, every)):
        with pytest.raises(BudgetExceeded) as info:
            search_tau(13, "all", budget=budget, backend="python")
        assert info.value.partial == want
        assert all(verify_tau(13, c.tau).ok for c in info.value.partial)


def test_budget_stop_up_to_conjugacy_keeps_canonical_representatives():
    """A stopped search attaches the canonical conjugates of its survivors
    so far: canonical, distinct, and among the classes a full search finds."""
    seen = 0
    for n in (11, 13, 16, 17, 19):
        classes = search_tau(n, "up_to_conjugacy", backend="python")
        done = {c.tau.img for c in classes.certificates}
        for budget in sorted({52, 742, *range(0, classes.nodes, classes.nodes // 7)}):
            if budget >= classes.nodes:
                continue
            with pytest.raises(BudgetExceeded) as info:
                search_tau(n, "up_to_conjugacy", budget=budget, backend="python")
            partial = [c.tau.img for c in info.value.partial]
            assert all(c.canonical for c in info.value.partial), (n, budget)
            assert all(canonical_tau(n, Perm(img)).img == img for img in partial), (n, budget)
            assert len(set(partial)) == len(partial) and set(partial) <= done, (n, budget)
            seen += len(partial)
    assert seen


def test_readers_refuse_what_no_function_produces():
    """n < 2, and a modular obstruction that does not hold for its n, are
    parse errors; every obstruction of the decision table still reads."""
    for read, data in (
        (Obstruction.from_json, {"n": 7, "kind": "Mod4"}),
        (Obstruction.from_json, {"n": -3, "kind": "Mod6"}),
        (Obstruction.from_json, {"n": 10**30, "kind": "ExhaustiveSearch"}),
        (Obstruction.from_json, {"n": 8193, "kind": "ExhaustiveSearch"}),
        (TauCertificate.from_json, {"n": 0, "tau": []}),
        (TauCertificate.from_json, {"n": 1, "tau": [1]}),
    ):
        with pytest.raises(ParseError):
            read(data)
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "ikn_table.json"
    for row in json.loads(path.read_text(encoding="utf-8"))["rows"]:
        for kind in row["obstructions"]:
            assert Obstruction.from_json({"n": row["n"], "kind": kind}) == Obstruction(row["n"], kind)


def test_decision_table_file():
    """benchmarks/ikn_table.json, written by benchmarks/ikn_table.py: every
    certificate re-verifies and builds I(K_n), and every row carries the
    modular obstructions of its n."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "ikn_table.json"
    rows = json.loads(path.read_text(encoding="utf-8"))["rows"]
    assert [row["n"] for row in rows] == list(range(2, 41))
    for row in rows:
        n, kinds = row["n"], row["obstructions"]
        assert [k for k in kinds if k != "ExhaustiveSearch"] == [
            o.kind for o in obstructions(n)
        ], n
        if row["decision"] == "certificate":
            cert = TauCertificate.from_json(row["certificate"])
            assert cert.n == n and kinds == []
            assert verify_tau(n, cert.tau).ok, n
            assert build_and_verify(n, cert.tau).ok, n
        elif row["decision"] == "none":
            assert row["certificate"] is None and kinds, n
            assert obstructions(n) or kinds == ["ExhaustiveSearch"], n
        else:
            assert row["decision"] == "inconclusive", n
            assert row["certificate"] is None and row["nodes"] > row["budget"], n


def test_conjugation_action():
    n = 13
    tau = known_tau(n)
    units = [a for a in range(1, n) if math.gcd(a, n - 1) == 1]
    for a in units:
        image = conjugate_tau(n, tau, a)
        assert verify_tau(n, image).ok
        for b in units:
            lhs = conjugate_tau(n, conjugate_tau(n, tau, a), b)
            rhs = conjugate_tau(n, tau, (a * b) % (n - 1))
            assert lhs == rhs
    assert conjugate_tau(n, tau, 1) == tau
    with pytest.raises(PreconditionFailed):
        conjugate_tau(n, tau, 2)  # gcd(2, 12) != 1
    canon = canonical_tau(n, tau)
    assert verify_tau(n, canon).ok
    assert canonical_tau(n, canon) == canon
    assert min(conjugate_tau(n, tau, a).img for a in units) == canon.img


def test_pi_map_values():
    rep = pi_map(5, known_tau(5))
    assert rep.values == (0, 3, 1)
    assert rep.missing == (2,) and rep.expected_missing == 2
    assert rep.injective and rep.conforms
    rep4 = pi_map(4, known_tau(4))
    assert rep4.values == (2, 1)
    assert rep4.missing == (0,) and rep4.expected_missing == 0 and rep4.conforms
    rep2 = pi_map(2, known_tau(2))
    assert rep2.values == () and rep2.missing == (0,) and rep2.conforms
    bad = pi_map(5, Perm.parse("(1,3)(2)(4,5)", 5))
    assert not bad.injective and not bad.conforms


def test_orbit_structure_hand_checks():
    rep = orbit_structure(5, known_tau(5))
    assert rep.orbits == ((1, 2, 3), (4, 5))
    assert rep.group_order == 6 and not rep.degenerate and rep.conforms
    rep7 = orbit_structure(7, known_tau(7))
    assert rep7.orbits == ((1, 5), (2, 3, 4), (6, 7))
    assert rep7.conforms
    rep4 = orbit_structure(4, known_tau(4))
    assert rep4.orbits == ((1, 2), (3, 4))
    assert rep4.group_order == 2 and rep4.degenerate and rep4.conforms
    rep13 = orbit_structure(13, known_tau(13))
    assert rep13.conforms
    assert any(len(o) == 6 for o in rep13.orbits)
    bad = orbit_structure(7, Perm.parse("(1,2)(3,4)(5)(6,7)", 7))
    assert not bad.conforms


def test_build_and_verify_small():
    rep = build_and_verify(3, known_tau(3))
    assert rep.ok and rep.group.order == 6
    assert isomorphic(rep.graph.graph, cycle_graph(6)) is not None
    rep2 = build_and_verify(2, known_tau(2))
    assert rep2.ok and rep2.group.order == 2
    rep5 = build_and_verify(5, known_tau(5))
    assert rep5.ok and rep5.group.order == 20
    rep8 = build_and_verify(8, known_tau(8))
    assert rep8.ok and rep8.group.order == 56
    levels = [len([v for v in range(rep8.graph.graph.n_vertices)
                   if rep8.graph.vertex_level(v) == i]) for i in (0, 1)]
    assert levels == [8, 28]
    bad = build_and_verify(5, Perm.parse("(1,3)(2)(4,5)", 5))
    assert not bad.ok


def _rewired(gg, ends):
    """gg with its graph's edges replaced by ends, one (u, v) per edge id."""
    g = Multigraph()
    for v in gg.graph.vertices:
        g.add_vertex(v.label, v.part)
    for u, v in ends:
        g.add_edge(u, v)
    return dataclasses.replace(gg, graph=g)


def _audit(n, gg):
    return {item.number: item for item in ikn._audit_graph(n, gg)}


def test_audit_fails_item_5_when_three_vertices_share_their_ends():
    """Three degree-2 vertices all joined to the same two vertices: the
    degrees of the tau level are right, its neighbour pairs are not."""
    gg = build_and_verify(3, known_tau(3)).graph
    assert all(item.ok for item in _audit(3, gg).values())
    a, b = level_vertices(gg, 0)[:2]
    seen = {v: 0 for v in level_vertices(gg, 1)}
    ends = []
    for e in gg.graph.edges:  # e.u on the sigma level, e.v on the tau level
        ends.append(((a, b)[seen[e.v]], e.v))
        seen[e.v] += 1
    items = _audit(3, _rewired(gg, ends))
    assert items[2].ok and items[4].ok
    assert not items[5].ok
    assert items[5].detail == "1 distinct neighbour pairs"


def test_audit_fails_item_5_when_one_tau_edge_is_repointed():
    """Phi for n = 5 with one tau-level edge moved so that its vertex has
    the neighbour pair of another tau vertex: 9 distinct pairs of 10."""
    gg = build_and_verify(5, known_tau(5)).graph
    adj = gg.graph.adj()
    ends_of = {v: {w for _, w in adj[v]} for v in level_vertices(gg, 1)}
    v0 = min(ends_of)
    a, b = sorted(ends_of[v0])
    (c,) = next(
        ends_of[v] - {b} for v in ends_of if v != v0 and b in ends_of[v] and a not in ends_of[v]
    )
    moved = next(eid for eid, w in adj[v0] if w == a)
    ends = [(c, e.v) if e.id == moved else (e.u, e.v) for e in gg.graph.edges]
    items = _audit(5, _rewired(gg, ends))
    assert items[2].ok and items[4].ok
    assert not items[3].ok  # a loses a degree and c gains one
    assert not items[5].ok
    assert items[5].detail == "9 distinct neighbour pairs"


def test_certificate_json_round_trip():
    cert = search_tau(9, backend="python").certificates[0]
    data = cert.to_json()
    assert data["n"] == 9 and data["cycles"] == cert.tau.cycle_string()
    again = TauCertificate.from_json(data)
    assert again == cert
    data["cycles"] = "(1,2)"
    with pytest.raises(ParseError):
        TauCertificate.from_json(data)
    with pytest.raises(ParseError):
        TauCertificate.from_json({"n": 4, "tau": [1, 2, 3]})
    obs = Obstruction(12, "Mod6")
    assert Obstruction.from_json(obs.to_json()) == obs
    with pytest.raises(ParseError):
        Obstruction.from_json({"n": 12, "kind": "Nope"})


def test_certificate_reader_refuses_what_is_no_certificate():
    """A permutation that fails verify_tau, or a 'canonical' flag that
    disagrees with canonical_tau, is a parse error; an absent flag is
    computed, and every certificate of the decision table still reads."""
    for img in ([1, 2, 3, 5, 4], [2, 3, 1, 5, 4], [1, 3, 2, 4, 5]):
        # the relation fails; tau is no involution; tau(n) != n-1
        assert not verify_tau(5, Perm(tuple(img))).ok
        with pytest.raises(ParseError, match="not a certificate"):
            TauCertificate.from_json({"n": 5, "tau": img})
    for n in sorted(KNOWN_TAUS):
        tau = known_tau(n)
        canonical = canonical_tau(n, tau) == tau
        data = {"n": n, "tau": list(tau.img)}
        assert TauCertificate.from_json(data) == TauCertificate(n, tau, canonical)
        with pytest.raises(ParseError, match="disagrees with canonical_tau"):
            TauCertificate.from_json(dict(data, canonical=not canonical))
        if not canonical:
            rep = canonical_tau(n, tau)
            cert = TauCertificate.from_json({"n": n, "tau": list(rep.img), "canonical": True})
            assert cert == TauCertificate(n, rep, True)
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "ikn_table.json"
    read = 0
    for row in json.loads(path.read_text(encoding="utf-8"))["rows"]:
        if row["certificate"] is not None:
            cert = TauCertificate.from_json(row["certificate"])
            assert cert.to_json() == row["certificate"]
            read += 1
    assert read == 18


@pytest.mark.parametrize("call", [
    lambda: search_tau(5.0),
    lambda: search_tau(5.5, "all"),
    lambda: make_rho_sigma(5.0),
    lambda: verify_tau(5.0, known_tau(5)),
    lambda: canonical_tau("5", known_tau(5)),
    lambda: search_tau(None),
    lambda: obstructions(6.0),
    lambda: obstructions(30.5),
], ids=["search", "search-all", "rho-sigma", "verify", "canonical", "none", "obstructions",
        "obstructions-fraction"])
def test_non_integer_n_is_a_precondition_failure(call):
    with pytest.raises(PreconditionFailed, match="n must be an integer"):
        call()


@pytest.mark.parametrize("budget", [1.5, 1.0, "x", "5", [3]])
def test_non_integer_budget_is_a_parse_error(budget):
    from ggraphs.errors import resolve_budget

    with pytest.raises(ParseError, match="budget must be an integer"):
        resolve_budget(budget)
    with pytest.raises(ParseError, match="budget must be an integer"):
        search_tau(5, budget=budget)


def test_integer_budget_types_are_accepted():
    import numpy as np
    from ggraphs.errors import resolve_budget

    assert resolve_budget(np.int64(7)) == 7
    assert search_tau(9, budget=np.int32(10_000)).certificates
