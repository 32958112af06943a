"""Every CLI output format, pinned: the stdout, stderr and exit code of a
fixed argv set, compared byte for byte with tests/data/cli_outputs.json.

The set covers each subcommand in each `-o` format, `--loops` builds, both
bipartite tests with and without a witness, recognition with and without
loops, `ikn search --exhaustive`, budget stops and an `ikn table` with an
inconclusive row.  As in test_cli_golden.py, a `nodes:` line may carry a
different count.

After an intended output change, rewrite the file with
    PYTHONPATH=src python tests/test_cli_outputs.py
"""

import io
import json
from pathlib import Path

import pytest

from ggraphs.cli import run

DATA = Path(__file__).resolve().parent / "data" / "cli_outputs.json"
CASES = json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else []


def observe(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def same_lines(got: str, want: str) -> bool:
    g, w = got.split("\n"), want.split("\n")
    return len(g) == len(w) and all(
        a == b or (a.startswith("nodes: ") and b.startswith("nodes: ") and a[7:].isdigit())
        for a, b in zip(g, w)
    )


def test_the_set_covers_every_subcommand_and_format():
    seen = {tuple(c["argv"][:2]) if c["argv"][0] in ("incidence", "ikn") else (c["argv"][0],)
            for c in CASES}
    assert seen == {("build",), ("verify",), ("components",), ("kmn",),
                    ("incidence", "build"), ("incidence", "preimage"),
                    ("bipartite-test",), ("recognize",), ("ikn", "verify"),
                    ("ikn", "search"), ("ikn", "table")}
    assert {c["exit"] for c in CASES} == {0, 1, 2, 3}


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_output_is_pinned(case):
    got = observe(case["argv"])
    assert got["exit"] == case["exit"]
    assert got["stderr"] == case["stderr"]
    assert same_lines(got["stdout"], case["stdout"]), got["stdout"]


def _argv_set():
    from ggraphs.algebra import parse_group
    from ggraphs.ggraph import build_phi, build_psi
    from ggraphs.multigraph import export_json
    from ggraphs.recognition import shifts_of, witness_to_json

    z6 = parse_group("Z6")
    recog = []
    for name, gg in (("phi", build_phi(z6, [2, 3])), ("psi", build_psi(z6, [2, 3]))):
        graph = json.dumps(export_json(gg.graph))
        witness = witness_to_json(gg.graph, shifts_of(gg))
        recog.append(("recognize-%s" % name, ["recognize", "--graph", graph,
                                               "--witness", json.dumps(witness)]))
        recog.append(("recognize-%s-reconstruct" % name,
                      recog[-1][1] + ["--reconstruct"]))
        for key in ("H_generators", "H_generator_edge_maps"):  # identity only
            if key in witness:
                witness[key] = witness[key][:1]
        recog.append(("recognize-%s-fail" % name, ["recognize", "--graph", graph,
                                                    "--witness", json.dumps(witness)]))
    sets = []
    for fmt in ("summary", "json", "dot"):
        sets += [
            ("build-%s" % fmt, ["build", "-g", "Z6", "-s", "2,3", "-o", fmt]),
            ("build-loops-%s" % fmt, ["build", "-g", "Z6", "-s", "2,3", "--loops", "-o", fmt]),
            ("build-s3-%s" % fmt, ["build", "-g", "S3", "-s", "(1,2),(2,3)", "-o", fmt]),
            ("kmn-%s" % fmt, ["kmn", "2", "3", "2", "-o", fmt]),
            ("incidence-build-%s" % fmt, ["incidence", "build", "-g", "Z6", "-s", "2,3", "-o", fmt]),
            ("incidence-build-loops-%s" % fmt,
             ["incidence", "build", "-g", "Z4", "-s", "2", "--loops", "-o", fmt]),
            ("incidence-preimage-%s" % fmt,
             ["incidence", "preimage", "-g", "S3", "-s", "(1,2),(2,3)", "-o", fmt]),
        ]
    for fmt in ("summary", "json"):
        sets += [
            ("bipartite-sufficient-found-%s" % fmt,
             ["bipartite-test", "-g", "Z2xZ2", "-s", "(1,0)", "-t", "(0,1)", "-o", fmt]),
            ("bipartite-sufficient-none-%s" % fmt,
             ["bipartite-test", "-g", "Z6", "-s", "2", "-t", "3", "--sufficient", "-o", fmt]),
            ("bipartite-necessary-found-%s" % fmt,
             ["bipartite-test", "-g", "Z2xZ2", "-s", "(1,0)", "-t", "(0,1)", "--necessary",
              "-o", fmt]),
            ("bipartite-necessary-none-%s" % fmt,
             ["bipartite-test", "-g", "Z6", "-s", "2", "-t", "3", "--necessary", "-o", fmt]),
            ("ikn-search-first-%s" % fmt, ["ikn", "search", "9", "--first", "-o", fmt]),
            ("ikn-search-all-%s" % fmt, ["ikn", "search", "13", "--all", "-o", fmt]),
            ("ikn-search-canonical-%s" % fmt, ["ikn", "search", "9", "--canonical", "-o", fmt]),
            ("ikn-search-obstruction-%s" % fmt, ["ikn", "search", "6", "-o", fmt]),
            ("ikn-search-exhaustive-%s" % fmt, ["ikn", "search", "6", "--exhaustive", "-o", fmt]),
        ]
    sets += [
        ("verify", ["verify", "-g", "Z2xZ4", "-s", "(1,0),(0,1)"]),
        ("verify-loops", ["verify", "-g", "S3", "-s", "(1,2),(2,3)", "--loops"]),
        ("components", ["components", "-g", "Z8", "-s", "2,4"]),
        ("components-loops", ["components", "-g", "Z12", "-s", "4,6", "--loops"]),
        ("bipartite-necessary-budget",
         ["bipartite-test", "-g", "Z2xZ2", "-s", "(1,0)", "-t", "(0,1)", "--necessary",
          "--budget", "0"]),
        *recog,
        ("ikn-verify-valid", ["ikn", "verify", "5", "--tau", "(2 3)(4 5)"]),
        ("ikn-verify-invalid", ["ikn", "verify", "8", "--tau", "(1,2)(3,6)(4,5)(7,8)"]),
        ("ikn-search-budget", ["ikn", "search", "13", "--budget", "3"]),
        ("ikn-table", ["ikn", "table", "9"]),
        ("ikn-table-inconclusive", ["ikn", "table", "14", "--budget", "40"]),
        ("parse-error", ["build", "-g", "Zoup", "-s", "1"]),
    ]
    return sets


if __name__ == "__main__":
    cases = [dict(id=cid, argv=argv, **observe(argv)) for cid, argv in _argv_set()]
    DATA.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
