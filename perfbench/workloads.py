"""The four benchmark workloads.

Each workload turns a seed into its inputs, lists its timed operations,
and checks every operation's output against invariants and the checked-in
reference data (reference.json).  The seed picks only the unit a passed to
conjugate_tau, the permutation that conjugates the S5 and S6 generating
pairs, and the order of the operations, so every seed does the same work.

Workloads call the library through ``api`` (see harness.Api) so that a
traced run can put spans around each call; checks use the unwrapped
modules so that they never show up in the trace.
"""

from __future__ import annotations

import functools
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# The paper's decision table for n <= 19.
PAPER_CERTIFICATES = frozenset({2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19})
PAPER_NO_CERTIFICATE = frozenset({6, 10, 12, 14, 15, 18})


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def units(m: int) -> list[int]:
    return [a for a in range(1, m + 1) if math.gcd(a, m) == 1]


@dataclass
class Op:
    """One operation.  ``timed`` ops make up wall_s and the latency samples;
    the traced cli-batch run adds untimed in-process twins."""

    name: str
    run: Callable[[], object]
    timed: bool = True


class Workload:
    name = ""
    why = ""
    min_passes = 2
    speed = "compute"  # the harness.SpeedProbe kind that follows the ops' speed

    def __init__(self, api, ref, seed):
        self.api = api
        self.lib = api.modules  # unwrapped, for checks
        self.ref = ref
        self.rng = random.Random(seed)

    def ops(self, traced: bool) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, observed) -> list[str]:
        """Problems with one operation's output; empty when it is correct."""
        raise NotImplementedError

    def crosscheck(self):
        """An extra untimed check run once per run, or None."""
        return None


def _diff(observed: dict, expected: dict) -> list[str]:
    return [
        "%s = %r, expected %r" % (key, observed.get(key), want)
        for key, want in expected.items()
        if observed.get(key) != want
    ]


# ---------------------------------------------------------------------------
# ikn-exhaustive


class IknExhaustive(Workload):
    name = "ikn-exhaustive"
    why = ("exhaustive search_tau over n = 17..22: the kernel does all the work "
           "and every other layer is bypassed")
    NS = tuple(range(17, 23))

    def __init__(self, api, ref, seed):
        super().__init__(api, ref, seed)
        self.order = list(self.NS)
        self.rng.shuffle(self.order)

    def ops(self, traced):
        return [Op("n=%d" % n, functools.partial(self.search, n)) for n in self.order]

    def search(self, n, backend=None):
        r = self.api.ikn.search_tau(n, "all", short_circuit=False, backend=backend)
        return {
            "n": n,
            "certificates": sorted(list(c.tau.img) for c in r.certificates),
            "obstructions": [o.kind for o in r.obstructions],
            "complete": r.complete,
            "nodes": r.nodes,
        }

    def check(self, op, observed):
        want = self.ref["ikn_exhaustive"][str(observed["n"])]
        problems = _diff(observed, {"obstructions": want["obstructions"], "complete": True})
        if observed["certificates"] != want["certificates"]:
            problems.append("certificate set differs from the reference (%d found, %d expected)"
                            % (len(observed["certificates"]), len(want["certificates"])))
        return problems

    def crosscheck(self):
        """bench_tau.py's backend cross-check: numba and python must agree
        exactly, node counts included."""
        if not self.lib["_tauengine"].HAVE_NUMBA:
            return {"status": "skipped: numba is not importable", "problems": []}
        problems = []
        for n in self.NS:
            py = self.search(n, backend="python")
            nb = self.search(n, backend="numba")
            if py != nb:
                problems.append("n=%d: numba and python backends disagree" % n)
        return {"status": "failed" if problems else "passed", "problems": problems}


# ---------------------------------------------------------------------------
# ikn-first


class IknFirst(Workload):
    name = "ikn-first"
    why = ("the decision table for n = 2..25 with first-only search, then "
           "build_and_verify on a conjugate of each certificate")
    NS = tuple(range(2, 26))

    def __init__(self, api, ref, seed):
        super().__init__(api, ref, seed)
        self.unit = {n: self.rng.choice(units(n - 1)) for n in self.NS}
        self.order = list(self.NS)
        self.rng.shuffle(self.order)

    def ops(self, traced):
        return [Op("n=%d" % n, functools.partial(self.decide, n)) for n in self.order]

    def decide(self, n):
        ikn = self.api.ikn
        r = ikn.search_tau(n)
        built = [
            ikn.build_and_verify(n, ikn.conjugate_tau(n, c.tau, self.unit[n])).ok
            for c in r.certificates
        ]
        return {
            "n": n,
            "decision": "certificate" if r.certificates else "none",
            "obstructions": [o.kind for o in r.obstructions],
            "certificates": [list(c.tau.img) for c in r.certificates],
            "built_ok": built,
            "nodes": r.nodes,
        }

    def check(self, op, observed):
        n = observed["n"]
        want = self.ref["ikn_first"][str(n)]
        problems = _diff(observed, want)
        paper = ("certificate" if n in PAPER_CERTIFICATES
                 else "none" if n in PAPER_NO_CERTIFICATE else None)
        if paper is not None and observed["decision"] != paper:
            problems.append("decision %r contradicts the paper's table" % observed["decision"])
        if observed["decision"] == "certificate" and len(observed["certificates"]) != 1:
            problems.append("first-only search returned %d certificates" % len(observed["certificates"]))
        perm = self.lib["algebra"].Perm
        for img in observed["certificates"]:
            if not self.lib["ikn"].verify_tau(n, perm(tuple(img))).ok:
                problems.append("certificate %s fails verify_tau" % img)
        if not all(observed["built_ok"]):
            problems.append("build_and_verify failed on a conjugate certificate")
        return problems


# ---------------------------------------------------------------------------
# structure


class Structure(Workload):
    name = "structure"
    why = ("library calls on groups, never the kernel: algebra, ggraph, "
           "recognition, incidence and multigraph")
    STAGES = ("s6", "k17", "s5", "z12")

    def __init__(self, api, ref, seed):
        super().__init__(api, ref, seed)
        self.p6 = self._random_perm(6)
        self.p5 = self._random_perm(5)
        self.a17 = self.rng.choice(units(16))
        self.order = list(self.STAGES)
        self.rng.shuffle(self.order)

    def _random_perm(self, degree):
        img = list(range(1, degree + 1))
        self.rng.shuffle(img)
        return self.lib["algebra"].Perm(tuple(img))

    def _conjugated_pair(self, p, degree):
        """p x p^-1 for x in {(1,2), (1,...,degree)}, as cycle strings."""
        perm = self.lib["algebra"].Perm
        pair = (perm.from_cycles([[1, 2]], degree),
                perm.from_cycles([list(range(1, degree + 1))], degree))
        return [(p * x * p.inverse()).cycle_string() for x in pair]

    def ops(self, traced):
        return [Op(stage, getattr(self, "stage_" + stage)) for stage in self.order]

    def stage_s6(self):
        alg, gg_mod = self.api.algebra, self.api.ggraph
        grp = alg.parse_group("S6")
        gens = [alg.parse_element(grp, x) for x in self._conjugated_pair(self.p6, 6)]
        gg = gg_mod.build_phi(grp, gens)
        report = gg_mod.verify_structure(gg)
        return {"group_order": grp.order, "vertices": gg.graph.n_vertices,
                "edges": gg.graph.n_edges, "all_ok": report.all_ok}

    def stage_k17(self):
        api = self.api
        n = 17
        rs = api.ikn.make_rho_sigma(n)
        tau0 = self.lib["algebra"].Perm(tuple(self.ref["inputs"]["tau17"]))
        tau = api.ikn.conjugate_tau(n, tau0, self.a17)
        grp = api.algebra.perm_group(n, [rs.sigma, tau])
        s, t = grp.perms.index(rs.sigma), grp.perms.index(tau)
        gg = api.ggraph.build_phi(grp, [s, t])
        report = api.ggraph.verify_structure(gg)
        w = api.recognition.shifts_of(gg)
        rebuilt = api.recognition.reconstruct(gg.graph, w)
        pre = api.incidence.incidence_preimage(gg).preimage
        pairs = {frozenset((e.u, e.v)) for e in pre.edges if e.u != e.v}
        suff = api.incidence.sufficient_bipartite_test(grp, s, t)
        return {
            "group_order": grp.order,
            "all_ok": report.all_ok,
            "h_order": len(w.H),
            "reconstructed_order": rebuilt.group.order,
            "preimage_vertices": pre.n_vertices,
            "preimage_edges": pre.n_edges,
            "preimage_simple": len(pairs) == pre.n_edges,
            "sufficient_found": suff is not None,
        }

    def stage_s5(self):
        api = self.api
        grp = api.algebra.parse_group("S5")
        gens = [api.algebra.parse_element(grp, x) for x in self._conjugated_pair(self.p5, 5)]
        out = {"group_order": grp.order}
        rejected = 0
        for kind, build in (("phi", api.ggraph.build_phi), ("psi", api.ggraph.build_psi)):
            gg = build(grp, gens)
            w = api.recognition.shifts_of(gg)
            rebuilt = api.recognition.reconstruct(gg.graph, w)
            # negative control: the witness with one H element dropped
            mutant = self.lib["recognition"].RecognitionWitness(w.H[:-1], w.C)
            mutant_ok = api.recognition.check(gg.graph, mutant).ok
            rejected += not mutant_ok
            out[kind + "_reconstructed_order"] = rebuilt.group.order
        out["controls"] = [2, rejected]
        return out

    def stage_z12(self):
        api = self.api
        alg, mg = api.algebra, api.multigraph
        z = alg.parse_group("Z12xZ12")
        s, t = alg.parse_element(z, "(1,0)"), alg.parse_element(z, "(0,1)")
        suff = api.incidence.sufficient_bipartite_test(z, s, t)
        gz = api.ggraph.build_phi(z, [s, t])
        nec = api.incidence.necessary_bipartite_witness(gz)
        z8 = alg.parse_group("Z8xZ12")
        g8 = api.ggraph.build_phi(z8, [alg.parse_element(z8, "(2,0)"), alg.parse_element(z8, "(0,3)")])
        comps = api.ggraph.component_analysis(g8)
        roundtrip = True
        for gg in (gz, g8):
            data = mg.export_json(gg.graph)
            roundtrip &= mg.export_json(mg.import_json(data)) == data
        return {
            "sufficient_found": suff is not None,
            "necessary_found": nec is not None,
            "components": comps.count,
            "expected_components": comps.expected_count,
            "components_isomorphic": comps.all_isomorphic,
            "cosets_partition": comps.cosets_partition(z8.order),
            "json_roundtrip": roundtrip,
        }

    def check(self, op, observed):
        problems = _diff(observed, self.ref["structure"][op.name])
        if op.name == "s5" and observed["controls"][1] != observed["controls"][0]:
            problems.append("a mutated witness was accepted")
        return problems


# ---------------------------------------------------------------------------
# cli-batch

TABLE_CERT = re.compile(r"n=(\d+): certificate (.*)")


def cli_commands(ref) -> list[tuple[str, list[str]]]:
    """The README command set; recognize and ikn verify read their inputs
    from the reference data."""
    inputs = ref["inputs"]
    return [
        ("build-summary", ["build", "-g", "Z6", "-s", "2,3"]),
        ("build-dot", ["build", "-g", "S3", "-s", "(1,2),(2,3)", "-o", "dot"]),
        ("build-json", ["build", "-g", "Z6", "-s", "2,3", "--loops", "-o", "json"]),
        ("verify-s5", ["verify", "-g", "S5", "-s", "(1,2),(1,2,3,4,5)"]),
        ("components", ["components", "-g", "Z8", "-s", "2,4"]),
        ("kmn", ["kmn", "2", "3", "1", "-o", "summary"]),
        ("incidence-build", ["incidence", "build", "-g", "Z6", "-s", "2,3"]),
        ("incidence-preimage", ["incidence", "preimage", "-g", "S3", "-s", "(1,2),(2,3)"]),
        ("bipartite-sufficient", ["bipartite-test", "-g", "Z2xZ2", "-s", "(1,0)", "-t", "(0,1)"]),
        ("bipartite-necessary", ["bipartite-test", "-g", "Z6", "-s", "2", "-t", "3", "--necessary"]),
        ("recognize-s4", ["recognize", "--graph", json.dumps(inputs["s4_graph"]),
                          "--witness", json.dumps(inputs["s4_witness"]), "--reconstruct"]),
        ("ikn-verify-19", ["ikn", "verify", "19", "--tau", inputs["tau19"]]),
        ("ikn-search-17-all", ["ikn", "search", "17", "--all"]),
        ("ikn-table-19", ["ikn", "table", "19"]),
    ]


class CliBatch(Workload):
    name = "cli-batch"
    why = ("the README command set as `python -m ggraphs.cli` processes: "
           "interpreter start-up and import dominate")
    MIN_INVOCATIONS = 40  # so that >= 10 latency samples lie beyond the p75
    speed = "spawn"

    def __init__(self, api, ref, seed):
        super().__init__(api, ref, seed)
        self.commands = cli_commands(ref)
        self.rng.shuffle(self.commands)
        self.min_passes = -(-self.MIN_INVOCATIONS // len(self.commands))

    def ops(self, traced):
        out = []
        for cid, argv in self.commands:
            out.append(Op(cid, functools.partial(self.api.cli.process, argv)))
            if traced:
                out.append(Op(cid, functools.partial(self.in_process, argv), timed=False))
        return out

    def in_process(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        code = self.api.cli.run(list(argv), stdout=stdout, stderr=stderr)
        return {"exit": code, "stdout": stdout.getvalue()}

    def check(self, op, observed):
        want = self.ref["cli"][op.name]
        if observed["exit"] != want["exit"]:
            return ["exit code %d, expected %d" % (observed["exit"], want["exit"])]
        got, exp = observed["stdout"].split("\n"), want["stdout"].split("\n")
        if len(got) != len(exp):
            return ["%d output lines, expected %d" % (len(got), len(exp))]
        for g, e in zip(got, exp):
            if g == e or (g.startswith("nodes: ") and e.startswith("nodes: ") and g[7:].isdigit()):
                continue
            mg, me = TABLE_CERT.fullmatch(g), TABLE_CERT.fullmatch(e)
            if mg and me and mg.group(1) == me.group(1):
                # a first-only certificate: re-verified, not compared by value
                n = int(mg.group(1))
                tau = self.lib["algebra"].Perm.parse(mg.group(2), n)
                if self.lib["ikn"].verify_tau(n, tau).ok:
                    continue
            return ["output line %r, expected %r" % (g, e)]
        return []


WORKLOADS = {w.name: w for w in (IknExhaustive, IknFirst, Structure, CliBatch)}


def make(name, api, ref, seed) -> Workload:
    return WORKLOADS[name](api, ref, seed)
