"""verify_tau compares the two sides of the relation as index lists.

The former body, which built sigma^k, sigma^{tau(k)} and sigma^{tau rho tau(k)}
as Perm objects for every k and multiplied them, is kept below as the
oracle: the report must be identical, failure texts included.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest

from ggraphs.ikn import TauReport, _check_tau_arg, conjugate_tau, make_rho_sigma, verify_tau
from ggraphs.perm import Perm

TABLE = Path(__file__).resolve().parent.parent / "benchmarks" / "ikn_table.json"


def former_verify_tau(n, tau):
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
        row = rs.sigma.img[: n - 1] * 2
        for k in range(1, n - 1):
            e1 = tau(k)
            e2 = tau(rs.rho(tau(k)))
            sk, se1, se2 = (Perm((*row[j - 1 : j + n - 2], n)) for j in (k, e1, e2))
            lhs = tau * sk * tau
            rhs = se1 * tau * se2
            if lhs != rhs:
                p = next(q for q in range(1, n + 1) if lhs(q) != rhs(q))
                failures.append(
                    "relation fails at k=%d: (tau sigma^%d tau)(%d) = %d but "
                    "(sigma^%d tau sigma^%d)(%d) = %d"
                    % (k, k, p, lhs(p), e1, e2, p, rhs(p))
                )
    return TauReport(n, not failures, tuple(failures))


def _certificates():
    rows = json.loads(TABLE.read_text())["rows"]
    out = []
    for row in rows:
        if row["certificate"] is None:
            continue
        n, tau = row["n"], Perm(tuple(row["certificate"]["tau"]))
        for a in range(1, n):
            if math.gcd(a, n - 1) == 1:
                out.append((n, conjugate_tau(n, tau, a)))
    return out


def test_certificates_and_their_conjugates_pass_as_before():
    cases = _certificates()
    assert len({n for n, _ in cases}) >= 18
    for n, tau in cases:
        report = verify_tau(n, tau)
        assert report.ok
        assert report == former_verify_tau(n, tau)


def _involution(n, rng, fixed=0):
    """A random involution with tau(n) = n-1, pairing 1..n-2 but for
    `fixed` fixed points."""
    pts = list(range(1, n - 1))
    rng.shuffle(pts)
    img = list(range(1, n + 1))
    pairs = pts[fixed:]
    for a, b in zip(pairs[::2], pairs[1::2]):
        img[a - 1], img[b - 1] = b, a
    img[n - 1], img[n - 2] = n - 1, n
    return Perm(tuple(img))


def test_failing_involutions_give_the_former_report():
    rng = random.Random(11)
    several = 0
    for n in range(3, 60):
        for fixed in (0, 1, 2):
            tau = _involution(n, rng, fixed)
            report = verify_tau(n, tau)
            assert report == former_verify_tau(n, tau)
            several += len(report.failures) > 1
    assert several > 100


def test_a_certificate_with_two_pairs_swapped_fails_as_before():
    for n, tau in _certificates()[:40]:
        img = list(tau.img)
        pts = [p for p in range(1, n - 1) if img[p - 1] != p][:2]
        if len(pts) < 2 or img[pts[0] - 1] == pts[1]:
            continue
        a, b = pts  # re-pair a and b with each other's partners
        pa, pb = img[a - 1], img[b - 1]
        img[a - 1], img[pb - 1], img[b - 1], img[pa - 1] = pb, a, pa, b
        bad = Perm(tuple(img))
        report = verify_tau(n, bad)
        assert report == former_verify_tau(n, bad)
        assert not report.ok


@pytest.mark.parametrize("n", [2, 3, 5, 8, 17, 30])
def test_non_involutions_and_a_wrong_tau_n_give_the_former_report(n):
    rng = random.Random(n)
    for _ in range(5):
        img = list(range(1, n + 1))
        rng.shuffle(img)
        tau = Perm(tuple(img))
        report = verify_tau(n, tau)
        assert report == former_verify_tau(n, tau)
    # an involution with tau(n) = n: the relation is not checked
    ident = Perm.identity(n)
    assert verify_tau(n, ident) == former_verify_tau(n, ident)
    assert verify_tau(n, ident).failures == ("tau(%d) = %d, expected %d" % (n, n, n - 1),)
    if n >= 3:  # a 3-cycle: no involution, and tau(n) = n
        c3 = Perm.from_cycles([[1, 2, 3]], n)
        report = verify_tau(n, c3)
        assert report == former_verify_tau(n, c3)
        assert report.failures[0] == "tau is not an involution: tau(tau(1)) = 3"
