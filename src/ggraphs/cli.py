"""Command line front end: `ggraph <subcommand> ...`.

Every subcommand writes deterministic output; text summaries start with a
`format: 1` version line, JSON payloads carry a `"format": 1` key and
re-import through the matching reader.  Exit codes: 0 success or positive
decision, 1 negative decision, 2 inconclusive (a search budget or a size
cap stopped it; the `inconclusive:` line on stderr says which), 3 usage
error, 4 internal error (a failed internal check, out of memory or any
other unexpected exception).
The environment variable GGRAPH_BUDGET overrides default search budgets.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    BudgetExceeded,
    CapExceeded,
    GGraphError,
    ParseError,
    PreconditionFailed,
    WitnessInvalid,
    resolve_budget,
)
from .perm import Perm

# Each command imports the layers it calls in its own body, so a process
# loads only those: the ikn commands run without numpy.

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class UsageError(GGraphError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so run() owns exit codes."""

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# shared helpers


def _write(args, out, summary, data=None, graph=None) -> None:
    """The one writer of a command's output, in the format args.output
    names (summary when the command has no -o): data() as JSON, graph() as
    Graphviz, or the summary() lines.  Each is a zero-argument callable, so
    only the format written is built."""
    fmt = getattr(args, "output", "summary")
    if fmt == "json":
        out.write(json.dumps(data(), indent=2) + "\n")
    elif fmt == "dot":
        from .multigraph import export_dot

        out.write(export_dot(graph()))
    else:
        out.write("\n".join(summary()) + "\n")


def _load_ggraph(args):
    from .algebra import parse_element, parse_group, split_top_level
    from .ggraph import build_phi, build_psi

    grp = parse_group(args.group)
    parts = [t for t in split_top_level(args.gens) if t.strip()]
    if not parts:
        raise ParseError("empty generator list")
    gens = [parse_element(grp, t) for t in parts]
    loops = bool(getattr(args, "loops", False))
    return build_psi(grp, gens) if loops else build_phi(grp, gens)


def _graph_name(gg) -> str:
    kind = "Psi" if gg.with_loops else "Phi"
    gens = ", ".join(gg.group.elem_name(lvl.gen) for lvl in gg.levels)
    return "%s(%s, {%s})" % (kind, gg.group.name, gens)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _read_payload(value: str) -> str:
    """A --graph/--witness value is inline JSON if it looks like an object,
    otherwise a file path."""
    if value.lstrip().startswith("{"):
        return value
    try:
        with open(value, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError("cannot read %r: %s" % (value, exc)) from None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_build(args, out) -> int:
    from .algebra import element_order
    from .ggraph import export_ggraph_json, named_graph
    from .multigraph import connected_components

    gg = _load_ggraph(args)
    grp = gg.group

    def summary():
        return [
            "format: 1",
            "graph: %s" % _graph_name(gg),
            "group: %s (order %d)" % (grp.name, grp.order),
            "vertices: %d" % gg.graph.n_vertices,
            "edges: %d" % gg.graph.n_edges,
            "levels: %d" % gg.n_levels,
            *("  level %d: gen %s (order %d), %d vertices"
              % (i, grp.elem_name(lvl.gen), element_order(grp, lvl.gen), len(lvl.cosets))
              for i, lvl in enumerate(gg.levels)),
            "simple: %s" % _yesno(gg.is_simple()),
            "connected: %s" % _yesno(len(connected_components(gg.graph)) == 1),
        ]

    _write(args, out, summary, lambda: export_ggraph_json(gg), lambda: named_graph(gg))
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    from .ggraph import verify_structure

    gg = _load_ggraph(args)
    report = verify_structure(gg)
    ok = report.all_ok
    passed = sum(1 for it in report.items if it.ok)
    _write(args, out, lambda: [
        "format: 1",
        "graph: %s" % _graph_name(gg),
        *report.lines(),
        "result: %s (%d/%d)" % ("PASS" if ok else "FAIL", passed, len(report.items)),
    ])
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_components(args, out) -> int:
    from .ggraph import component_analysis

    gg = _load_ggraph(args)
    report = component_analysis(gg)
    sub = "{%s}" % ", ".join(gg.group.elem_name(x) for x in report.subgroup)
    partitions = report.cosets_partition(gg.group.order)
    _write(args, out, lambda: [
        "format: 1",
        "graph: %s" % _graph_name(gg),
        "generated subgroup: %s (order %d)" % (sub, len(report.subgroup)),
        "components: %d (expected %d)" % (report.count, report.expected_count),
        "all isomorphic to reference: %s" % _yesno(report.all_isomorphic),
        "component cosets partition G: %s" % _yesno(partitions),
    ])
    ok = report.count == report.expected_count and report.all_isomorphic and partitions
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_kmn(args, out) -> int:
    from .ggraph import export_ggraph_json, kmn_build, named_graph

    gg, plan = kmn_build(args.m, args.n, args.l)
    s, t = plan.s_coords, plan.t_coords
    _write(args, out, lambda: [
        "format: 1",
        "kmn: K^%d_{%d,%d}" % (args.l, args.m, args.n),
        "group: %s (order %d)" % (gg.group.name, gg.group.order),
        "s: (%d, %d) (order %d)" % (s[0], s[1], args.m * args.l),
        "t: (%d, %d) (order %d)" % (t[0], t[1], args.n * args.l),
        "parts: (%d, %d)" % (args.m, args.n),
        "multiplicity: %d" % args.l,
        "verified: yes",
    ], lambda: {**export_ggraph_json(gg), "plan": plan.to_json()}, lambda: named_graph(gg))
    return EXIT_OK


def _cmd_incidence_build(args, out) -> int:
    from .ggraph import named_graph
    from .incidence import incidence_graph
    from .multigraph import export_json

    gg = _load_ggraph(args)
    ig = incidence_graph(named_graph(gg))
    _write(args, out, lambda: [
        "format: 1",
        "incidence of: %s" % _graph_name(gg),
        "source vertices: %d" % ig.n_source_vertices,
        "source edges: %d" % ig.n_source_edges,
        "vertices: %d" % ig.graph.n_vertices,
        "edges: %d" % ig.graph.n_edges,
        "source loops present: %s" % _yesno(ig.outside_theorems),
    ], lambda: {
        **export_json(ig.graph),
        "incidence_of": _graph_name(gg),
        "n_source_vertices": ig.n_source_vertices,
        "n_source_edges": ig.n_source_edges,
        "outside_theorems": ig.outside_theorems,
    }, lambda: ig.graph)
    return EXIT_OK


def _cmd_incidence_preimage(args, out) -> int:
    from .incidence import incidence_preimage
    from .multigraph import export_json

    gg = _load_ggraph(args)
    pre = incidence_preimage(gg).preimage
    _write(args, out, lambda: [
        "format: 1",
        "preimage of: %s" % _graph_name(gg),
        "vertices: %d" % pre.n_vertices,
        "edges: %d" % pre.n_edges,
        "isomorphism to incidence graph verified: yes",
    ], lambda: {**export_json(pre), "preimage_of": _graph_name(gg)}, lambda: pre)
    return EXIT_OK


def _cmd_bipartite_test(args, out) -> int:
    from .algebra import element_order, parse_element, parse_group
    from .ggraph import build_phi
    from .incidence import necessary_bipartite_witness, sufficient_bipartite_test

    budget = resolve_budget(args.budget)  # refused in either mode
    grp = parse_group(args.group)
    s = parse_element(grp, args.s)
    t = parse_element(grp, args.t)
    sufficient = args.mode == "sufficient"
    if sufficient:
        w = sufficient_bipartite_test(grp, s, t)
    else:
        w = necessary_bipartite_witness(build_phi(grp, [s, t]), budget=budget)

    def summary():
        # the decision line, then the fields of the witness found
        if w is None:
            decision = [
                "no endomorphism witness of the form f(s) in <t>, f(t) in <s> exists"
                if sufficient else
                "no level-swapping involution exists; the incidence graph is not a G-graph"
            ]
        else:
            decision = [
                "witness found; the incidence graph is a G-graph"
                if sufficient else "witness found (necessary conditions hold)",
                "f: %s" % list(w.f),
                *(["m: %d" % w.m, "n: %d" % w.n] if sufficient else []),
                "involutive: %s" % _yesno(w.involutive),
                *([] if sufficient else ["fixes identity: %s" % _yesno(w.fixes_identity)]),
                "homomorphism: %s" % _yesno(w.is_homomorphism),
            ]
        return [
            "format: 1",
            "group: %s (order %d)" % (grp.name, grp.order),
            "s: %s (order %d)" % (grp.elem_name(s), element_order(grp, s)),
            "t: %s (order %d)" % (grp.elem_name(t), element_order(grp, t)),
            "test: %s" % args.mode,
            "decision: " + decision[0],
            *decision[1:],
        ]

    _write(args, out, summary, lambda: {
        "format": 1,
        "test": args.mode,
        "found": w is not None,
        "witness": None if w is None else w.to_json(),
    })
    return EXIT_OK if w is not None else EXIT_NEGATIVE


def _cmd_recognize(args, out) -> int:
    from .algebra import element_order
    from .multigraph import import_json
    from .recognition import check, reconstruct, witness_from_json

    g = import_json(_read_payload(args.graph))
    w = witness_from_json(g, _read_payload(args.witness))
    report = check(g, w)
    lines = [
        "format: 1",
        "graph: %d vertices, %d edges" % (g.n_vertices, g.n_edges),
        "witness: |H| = %d, |C| = %d" % (len(w.H), len(w.C)),
        "with loops: %s" % _yesno(report.with_loops),
        *report.lines(),
    ]
    if not report.ok:
        lines.append("decision: not verified as a G-graph by this witness")
    else:
        lines.append("decision: G-graph witness verified")
        if args.reconstruct:
            result = reconstruct(g, w)
            lines += [
                "reconstructed group: order %d" % result.group.order,
                "generator orders: %s" % [element_order(result.group, x) for x in result.gens],
                "isomorphism verified: yes",
            ]
    _write(args, out, lambda: lines)
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _cmd_ikn_verify(args, out) -> int:
    from .ikn import _check_n, verify_tau

    _check_n(args.n)
    tau = Perm.parse(args.tau, args.n)
    report = verify_tau(args.n, tau)
    _write(args, out, lambda: [
        "format: 1",
        "n: %d" % args.n,
        "tau: %s" % tau.cycle_string(),
        "valid certificate" if report.ok else "invalid certificate",
        *("  " + f for f in report.failures),
    ])
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _cmd_ikn_search(args, out) -> int:
    from .ikn import search_tau

    result = search_tau(
        args.n, args.mode, budget=args.budget, short_circuit=not args.exhaustive
    )
    certs = result.certificates

    def summary():
        lines = ["format: 1", "n: %d" % result.n]
        if certs:
            lines.append("decision: certificate found" if len(certs) == 1
                         else "decision: %d certificates found" % len(certs))
            for cert in certs:
                lines += ["tau: %s" % cert.cycles, "canonical: %s" % _yesno(cert.canonical)]
        else:
            lines.append("decision: no certificate")
            lines += ["obstruction: %s (%s)" % (o.kind, o.describe())
                      for o in result.obstructions]
        return lines + ["nodes: %d" % result.nodes]

    _write(args, out, summary, lambda: {
        "format": 1,
        "n": result.n,
        "mode": result.mode,
        "certificates": [c.to_json() for c in certs],
        "obstructions": [o.to_json() for o in result.obstructions],
        "nodes": result.nodes,
        "complete": result.complete,
    })
    return EXIT_OK if certs else EXIT_NEGATIVE


def _cmd_ikn_table(args, out) -> int:
    from .ikn import _check_n, search_tau

    _check_n(args.nmax)
    budget = resolve_budget(args.budget)  # refused before any row
    _write(args, out, lambda: ["format: 1"])
    code = EXIT_OK
    for n in range(2, args.nmax + 1):  # each row goes out once decided
        try:
            result = search_tau(n, budget=budget)
        except BudgetExceeded as exc:
            row = "inconclusive after %d nodes" % exc.nodes
            args.stderr.write("inconclusive: %s\n" % exc)
            code = EXIT_INCONCLUSIVE
        else:
            certs, kinds = result.certificates, [o.kind for o in result.obstructions]
            row = ("certificate %s" % certs[0].cycles if certs
                   else "no certificate [%s]" % ", ".join(kinds))
        _write(args, out, lambda: ["n=%d: %s" % (n, row)])
        out.flush()
    return code


# ---------------------------------------------------------------------------
# parser assembly


def _add_graph_args(p, loops: bool = True) -> None:
    p.add_argument("-g", "--group", required=True, help="group spec, e.g. Z6, Z2xZ4, S3, perm:4:(1,2,3)")
    p.add_argument("-s", "--gens", required=True, help="comma-separated generator elements")
    if loops:
        p.add_argument("--loops", action="store_true", help="build Psi (with loops) instead of Phi")


def _add_output_arg(p, choices=("dot", "json", "summary")) -> None:
    p.add_argument("-o", "--output", choices=list(choices), default="summary")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ggraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct Phi(G,S) or Psi(G,S)")
    _add_graph_args(p)
    _add_output_arg(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="run the structure property report")
    _add_graph_args(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("components", help="connected component analysis")
    _add_graph_args(p)
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("kmn", help="realize the complete bipartite multigraph K^l_{m,n}")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("l", type=int)
    _add_output_arg(p)
    p.set_defaults(func=_cmd_kmn)

    p = sub.add_parser("incidence", help="incidence graph operations")
    isub = p.add_subparsers(dest="incidence_command", required=True)
    q = isub.add_parser("build", help="incidence graph of Phi/Psi(G,S)")
    _add_graph_args(q)
    _add_output_arg(q)
    q.set_defaults(func=_cmd_incidence_build)
    q = isub.add_parser("preimage", help="graph whose incidence graph is Phi(G,{s,t})")
    _add_graph_args(q, loops=False)
    _add_output_arg(q)
    q.set_defaults(func=_cmd_incidence_preimage)

    p = sub.add_parser("bipartite-test", help="test whether I(Phi(G,{s,t})) is a G-graph")
    p.add_argument("-g", "--group", required=True)
    p.add_argument("-s", required=True, help="first generator")
    p.add_argument("-t", required=True, help="second generator")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--sufficient", dest="mode", action="store_const", const="sufficient",
                      help="endomorphism witness test (default)")
    mode.add_argument("--necessary", dest="mode", action="store_const", const="necessary",
                      help="level-swapping involution search; absence is a proof")
    p.add_argument("--budget", type=int, default=None)
    _add_output_arg(p, choices=("json", "summary"))
    p.set_defaults(func=_cmd_bipartite_test, mode="sufficient")

    p = sub.add_parser("recognize", help="check a (graph, witness) pair and optionally rebuild (G,S)")
    p.add_argument("--graph", required=True, help="graph JSON (path or inline)")
    p.add_argument("--witness", required=True, help="witness JSON (path or inline)")
    p.add_argument("--reconstruct", action="store_true")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("ikn", help="is the incidence graph of K_n a G-graph?")
    ksub = p.add_subparsers(dest="ikn_command", required=True)
    q = ksub.add_parser("verify", help="verify a tau certificate")
    q.add_argument("n", type=int)
    q.add_argument("--tau", required=True, help="involution in cycle notation")
    q.set_defaults(func=_cmd_ikn_verify)
    q = ksub.add_parser("search", help="search for tau certificates")
    q.add_argument("n", type=int)
    mode = q.add_mutually_exclusive_group()
    mode.add_argument("--first", dest="mode", action="store_const", const="first_only",
                      help="stop at the first certificate (default)")
    mode.add_argument("--all", dest="mode", action="store_const", const="all",
                      help="enumerate every certificate")
    mode.add_argument("--canonical", dest="mode", action="store_const", const="up_to_conjugacy",
                      help="one canonical certificate per conjugacy class")
    q.add_argument("--budget", type=int, default=None)
    q.add_argument("--exhaustive", action="store_true",
                   help="skip the modular short-circuit and search anyway")
    _add_output_arg(q, choices=("json", "summary"))
    q.set_defaults(func=_cmd_ikn_search, mode="first_only")
    q = ksub.add_parser("table", help="certificate or obstruction for each n up to nmax")
    q.add_argument("nmax", type=int)
    q.add_argument("--budget", type=int, default=None)
    q.set_defaults(func=_cmd_ikn_table)

    return parser


def run(argv=None, stdout=None, stderr=None) -> int:
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "ggraph":
        argv = argv[1:]
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        stderr.write("usage error: %s\n" % exc)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    args.stderr = stderr  # for a command that reports a failed step and goes on
    try:
        return args.func(args, stdout)
    except UsageError as exc:
        stderr.write("usage error: %s\n" % exc)
        return EXIT_USAGE
    except (BudgetExceeded, CapExceeded) as exc:
        stderr.write("inconclusive: %s\n" % exc)
        return EXIT_INCONCLUSIVE
    except (ParseError, PreconditionFailed, WitnessInvalid) as exc:
        stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except Exception as exc:  # InternalAssertion, NotAGroup, MemoryError or a bug
        stderr.write("internal error: %s: %s\n" % (type(exc).__name__, exc))
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
