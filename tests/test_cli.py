"""End-to-end tests for the `ggraph` command line interface.

Everything runs in-process through cli.run() so exit codes and both output
streams are observable without spawning subprocesses.
"""

import io
import json
import re

import pytest

from ggraphs import _tauengine
from ggraphs import cli as cli_module
from ggraphs import multigraph as mg
from ggraphs.algebra import parse_group
from ggraphs.cli import run
from ggraphs.errors import InternalAssertion, NotAGroup
from ggraphs.ggraph import build_phi
from ggraphs.ikn import TauCertificate
from ggraphs.multigraph import import_json
from ggraphs.recognition import shifts_of, witness_to_json
from ggraphs.multigraph import export_json


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# exit code contract


def test_ikn_verify_valid_certificate():
    code, out, err = cli("ikn", "verify", "5", "--tau", "(2 3)(4 5)")
    assert code == 0
    assert "valid certificate" in out
    # fixed points are written out even when the input omitted them
    assert "tau: (1)(2,3)(4,5)" in out
    assert out.startswith("format: 1\n")
    assert err == ""


def test_ikn_verify_invalid_certificate():
    code, out, _ = cli("ikn", "verify", "8", "--tau", "(1,2)(3,6)(4,5)(7,8)")
    assert code == 1
    assert "invalid certificate" in out
    assert "relation fails at k=" in out


def test_ikn_search_obstruction_exit_one():
    code, out, _ = cli("ikn", "search", "6")
    assert code == 1
    assert "no certificate" in out
    assert "Mod6" in out
    assert "Mod4" in out


def test_usage_errors_exit_three():
    for argv in (
        ["ikn", "verify", "5"],  # missing --tau
        ["definitely-not-a-command"],
        ["build", "-g", "Z6"],  # missing -s
        ["build", "-g", "Zoup", "-s", "1"],  # bad group spec
        ["build", "-g", "Z6", "-s", ""],  # empty generator list
        ["ikn", "verify", "1", "--tau", "(1)"],  # n < 2
    ):
        code, _, err = cli(*argv)
        assert code == 3, argv
        assert err != "", argv


def test_size_caps_exit_two():
    """A size refusal is inconclusive (exit 2), like a budget stop, and the
    stderr line names the cap."""
    for argv in (
        ["kmn", "100", "100", "4"],  # m*n*l = 40000
        # too large, refused before factorising 10^18 + 3
        ["kmn", "1000000000000000003", "1", "1"],
        ["build", "-g", "Z2", "-s", ",".join(["1"] * 1100)],  # 1,208,900 edges
    ):
        code, out, err = cli(*argv)
        assert code == 2, argv
        assert out == "", argv
        assert err.startswith("inconclusive: ") and "exceeds cap" in err, argv


def test_recognize_refuses_a_closure_above_the_table_cap():
    """S7 x Z2 on 9 isolated vertices: |H| = 10080 exceeds 8192."""
    graph = {"format": 1, "vertices": [{"id": v} for v in range(9)], "edges": []}
    witness = {"H_generators": [[1, 0, 2, 3, 4, 5, 6, 7, 8], [1, 2, 3, 4, 5, 6, 0, 7, 8],
                                [0, 1, 2, 3, 4, 5, 6, 8, 7]], "C": [0]}
    code, out, err = cli("recognize", "--graph", json.dumps(graph),
                         "--witness", json.dumps(witness))
    assert (code, out) == (2, "")
    assert err == "inconclusive: automorphism closure exceeds cap 8192\n"


def test_components_internal_fault_is_not_a_negative(monkeypatch):
    """A component map that fails its isomorphism check exits 4, not 1."""
    assert cli("components", "-g", "Z8", "-s", "2,4")[0] == 0
    monkeypatch.setattr(
        mg, "_first_map", lambda g1, g2, c, **kw: [(v + 1) % g1.n_vertices for v in range(g1.n_vertices)]
    )
    code, _, err = cli("components", "-g", "Z8", "-s", "2,4")
    assert code == 4
    assert err.startswith("internal error: InternalAssertion")


def test_budget_exhaustion_exit_two():
    code, _, err = cli("ikn", "search", "13", "--budget", "3")
    assert code == 2
    assert "inconclusive" in err


def test_necessary_budget_exhaustion_exit_two():
    code, _, err = cli(
        "bipartite-test", "-g", "Z2xZ2", "-s", "(1,0)", "-t", "(0,1)",
        "--necessary", "--budget", "0",
    )
    assert code == 2
    assert "inconclusive" in err


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("GGRAPH_BUDGET", "3")
    code, _, _ = cli("ikn", "search", "13")
    assert code == 2
    # an explicit --budget wins over the environment
    code, out, _ = cli("ikn", "search", "13", "--budget", "1000000")
    assert code == 0
    assert "certificate found" in out


@pytest.mark.parametrize("argv", [
    ("ikn", "search", "5", "--budget", "-3"),
    ("ikn", "search", "2", "--all", "--budget", "-3"),
    ("ikn", "search", "6", "--budget", "-1"),
    ("ikn", "table", "5", "--budget", "-1"),
    ("bipartite-test", "-g", "Z2xZ2", "-s", "(1,0)", "-t", "(0,1)",
     "--necessary", "--budget", "-2"),
    ("bipartite-test", "-g", "Z6", "-s", "2", "-t", "3", "--budget", "-1"),
])
def test_negative_budget_is_a_usage_error(argv):
    code, out, err = cli(*argv)
    assert (code, out) == (3, "")
    assert re.fullmatch(r"error: budget must be >= 0, got -\d\n", err)


@pytest.mark.parametrize("argv", [
    ("ikn", "search", "5"),
    ("ikn", "table", "5"),
    ("bipartite-test", "-g", "Z2xZ2", "-s", "(1,0)", "-t", "(0,1)", "--necessary"),
    ("bipartite-test", "-g", "Z6", "-s", "2", "-t", "3"),
])
def test_negative_budget_from_the_environment_is_a_usage_error(monkeypatch, argv):
    monkeypatch.setenv("GGRAPH_BUDGET", "-7")
    assert cli(*argv) == (3, "", "error: GGRAPH_BUDGET must be >= 0, got -7\n")


# ---------------------------------------------------------------------------
# determinism and JSON round-trips


INVOCATIONS = (
    ("build", "-g", "Z6", "-s", "2,3"),
    ("build", "-g", "Z6", "-s", "2,3", "-o", "json"),
    ("build", "-g", "S3", "-s", "(1,2),(2,3)", "-o", "dot"),
    ("verify", "-g", "Z2xZ4", "-s", "(1,0),(0,1)"),
    ("components", "-g", "Z8", "-s", "2,4"),
    ("kmn", "2", "3", "2", "-o", "json"),
    ("incidence", "build", "-g", "Z6", "-s", "2,3", "-o", "json"),
    ("incidence", "preimage", "-g", "Z6", "-s", "2,3"),
    ("bipartite-test", "-g", "Z2xZ2", "-s", "(1,0)", "-t", "(0,1)", "-o", "json"),
    ("ikn", "search", "9", "--all"),
    ("ikn", "table", "8"),
)


def test_identical_invocations_are_byte_identical():
    for argv in INVOCATIONS:
        first = cli(*argv)
        second = cli(*argv)
        assert first == second, argv


def test_json_outputs_reimport():
    # graph-shaped payloads go back through the multigraph reader
    for argv in (
        ("build", "-g", "Z6", "-s", "2,3", "-o", "json"),
        ("build", "-g", "Z6", "-s", "2,3", "--loops", "-o", "json"),
        ("kmn", "2", "3", "2", "-o", "json"),
        ("incidence", "build", "-g", "Z6", "-s", "2,3", "-o", "json"),
        ("incidence", "preimage", "-g", "S3", "-s", "(1,2),(2,3)", "-o", "json"),
    ):
        _, out, _ = cli(*argv)
        g = import_json(out)
        assert g.n_vertices > 0, argv


def test_ikn_search_json_reimports():
    code, out, _ = cli("ikn", "search", "9", "--all", "-o", "json")
    assert code == 0
    data = json.loads(out)
    assert data["format"] == 1
    assert data["complete"] is True
    assert data["nodes"] > 0
    assert len(data["certificates"]) == 2
    for entry in data["certificates"]:
        cert = TauCertificate.from_json(entry)
        assert cert.n == 9
    assert data["obstructions"] == []


def test_ikn_search_json_negative():
    code, out, _ = cli("ikn", "search", "10", "-o", "json")
    assert code == 1
    data = json.loads(out)
    assert data["certificates"] == []
    assert [o["kind"] for o in data["obstructions"]] == ["Mod4"]
    assert data["complete"] is True


def test_bipartite_test_json_witness_schema():
    _, out, _ = cli(
        "bipartite-test", "-g", "Z2xZ2", "-s", "(1,0)", "-t", "(0,1)", "-o", "json"
    )
    data = json.loads(out)
    assert data["found"] is True
    assert set(data["witness"]) == {"f", "involutive", "homomorphism"}
    assert data["witness"]["f"] == [0, 2, 1, 3]


def test_bipartite_necessary_json():
    code, out, _ = cli(
        "bipartite-test", "-g", "S3", "-s", "(1,2)", "-t", "(2,3)", "--necessary", "-o", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "format": 1,
        "test": "necessary",
        "found": True,
        "witness": {"f": [0, 3, 5, 1, 4, 2], "involutive": True, "homomorphism": True},
    }
    code, out, _ = cli(
        "bipartite-test", "-g", "Z6", "-s", "2", "-t", "3", "--necessary", "-o", "json"
    )
    assert code == 1
    assert json.loads(out) == {"format": 1, "test": "necessary", "found": False, "witness": None}
    s5 = ("bipartite-test", "-g", "S5", "-s", "(1,2,3,4)", "-t", "(2,3,4,5)", "--necessary")
    code, out, err = cli(*s5, "--budget", "0", "-o", "json")
    assert (code, out) == (2, "")
    assert err == "inconclusive: automorphism search exceeded 0 nodes\n"
    code, out, _ = cli(*s5, "-o", "json")
    assert code == 0
    assert json.loads(out)["found"] is True


# ---------------------------------------------------------------------------
# summary contents


def test_build_summary_fields():
    code, out, _ = cli("build", "-g", "Z6", "-s", "2,3")
    assert code == 0
    assert "graph: Phi(Z6, {2, 3})" in out
    assert "vertices: 5" in out
    assert "edges: 6" in out
    assert "simple: yes" in out
    assert "connected: yes" in out


def test_build_loops_summary():
    code, out, _ = cli("build", "-g", "Z6", "-s", "2,3", "--loops")
    assert code == 0
    assert "graph: Psi(Z6, {2, 3})" in out
    assert "edges: 18" in out  # 6 plain + 2*3 + 3*2 loops


def test_verify_pass_and_counts():
    code, out, _ = cli("verify", "-g", "S3", "-s", "(1,2),(2,3)")
    assert code == 0
    assert "result: PASS (5/5)" in out
    assert out.count("[PASS]") == 5


def test_components_summary():
    code, out, _ = cli("components", "-g", "Z8", "-s", "2,4")
    assert code == 0
    assert "components: 2 (expected 2)" in out
    assert "all isomorphic to reference: yes" in out


def test_kmn_summary_matches_plan():
    code, out, _ = cli("kmn", "2", "3", "1")
    assert code == 0
    assert "group: Z2xZ3 (order 6)" in out
    assert "parts: (2, 3)" in out
    assert "multiplicity: 1" in out
    assert "verified: yes" in out


def test_incidence_build_summary_counts():
    # |V(I)| = |V| + |E|, |E(I)| = 2|E| for a loopless source
    code, out, _ = cli("incidence", "build", "-g", "Z6", "-s", "2,3")
    assert code == 0
    assert "vertices: 11" in out
    assert "edges: 12" in out
    assert "source loops present: no" in out


def test_incidence_preimage_summary():
    code, out, _ = cli("incidence", "preimage", "-g", "S3", "-s", "(1,2),(2,3)")
    assert code == 0
    assert "vertices: 3" in out
    assert "isomorphism to incidence graph verified: yes" in out


def test_bipartite_default_is_sufficient():
    code, out, _ = cli("bipartite-test", "-g", "Z2xZ2", "-s", "(1,0)", "-t", "(0,1)")
    assert code == 0
    assert "test: sufficient" in out
    assert "f: [0, 2, 1, 3]" in out


def test_bipartite_necessary_refutation():
    code, out, _ = cli("bipartite-test", "-g", "Z6", "-s", "2", "-t", "3", "--necessary")
    assert code == 1
    assert "not a G-graph" in out


def test_bipartite_sufficient_inconclusive_negative():
    code, out, _ = cli("bipartite-test", "-g", "Z6", "-s", "2", "-t", "3")
    assert code == 1
    assert "no endomorphism witness" in out


def test_ikn_table_lines():
    code, out, _ = cli("ikn", "table", "9")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "format: 1"
    body = dict(line.split(": ", 1) for line in lines[1:])
    for n in (2, 3, 4, 5, 7, 8, 9):
        assert body["n=%d" % n].startswith("certificate ")
    assert body["n=6"] == "no certificate [Mod4, Mod6]"


def test_ikn_table_keeps_decided_rows_past_an_inconclusive_n():
    code, out, err = cli("ikn", "table", "26", "--budget", "50000")
    assert code == 2
    _, decided, _ = cli("ikn", "table", "24")
    lines = out.splitlines()
    assert out.startswith(decided)
    assert re.fullmatch(r"n=25: inconclusive after \d+ nodes", lines[-2])
    assert lines[-1] == "n=26: no certificate [Mod4]"
    assert err.startswith("inconclusive: ") and err.count("\n") == 1
    nodes = int(lines[-2].split()[-2])
    assert "after %d nodes" % nodes in err


def test_ikn_table_exit_zero_when_every_row_is_decided():
    code, out, err = cli("ikn", "table", "12", "--budget", "100000")
    assert code == 0 and err == ""
    assert "inconclusive" not in out


def test_build_refuses_huge_permutation_degree(no_permutations):
    code, out, err = cli("build", "-g", "perm:99999999:(1,2)", "-s", "(1,2)")
    assert code == 2 and out == ""
    assert err.startswith("inconclusive: permutation degree 99999999 exceeds cap")


def test_build_refuses_permutation_degree_zero():
    code, out, err = cli("build", "-g", "perm:0:()", "-s", "()")
    assert code == 3 and out == ""
    assert "degree must be >= 1, got 0" in err


@pytest.mark.parametrize("argv", [
    ("ikn", "verify", "1000000000000", "--tau", "(1,2)"),
    ("ikn", "search", "100001"),
    ("ikn", "search", "20001", "--budget", "0"),
    ("ikn", "table", "8193"),
])
def test_ikn_refuses_n_above_the_cap(argv, no_permutations, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("kernel arrays were built before the n check")

    monkeypatch.setattr(_tauengine, "search_arrays", forbidden)
    code, out, err = cli(*argv)
    assert code == 2 and out == ""
    assert re.fullmatch(r"inconclusive: permutation degree \d+ exceeds cap 8192\n", err)


def test_build_overlong_group_number_is_a_parse_error(no_permutations):
    code, out, err = cli("build", "-g", "S1" + "0" * 5000, "-s", "(1,2)")
    assert code == 3 and out == ""
    assert err == "error: number in group spec has 5001 digits\n"


@pytest.mark.parametrize("where", ["vertex", "part", "edge", "C", "H", "edge_map"])
def test_recognize_non_finite_number_is_a_parse_error(where):
    graph = {
        "vertices": [{"id": 0, "part": 0}, {"id": 1, "part": 1}],
        "edges": [{"id": 0, "u": 0, "v": 1}, {"id": 1, "u": 0, "v": 1}],
    }
    witness = {"H_generators": [[0, 1]], "C": [0], "H_generator_edge_maps": [[0, 1]]}
    graph_text, witness_text = json.dumps(graph), json.dumps(witness)
    if where == "vertex":
        graph_text = graph_text.replace('{"id": 1, "part": 1}', '{"id": 1e999, "part": 1}')
    elif where == "part":
        graph_text = graph_text.replace('"part": 1}', '"part": 1e999}')
    elif where == "edge":
        graph_text = graph_text.replace('"u": 0, "v": 1}]', '"u": 0, "v": 1e999}]')
    elif where == "C":
        witness_text = witness_text.replace('"C": [0]', '"C": [1e999]')
    elif where == "H":
        witness_text = witness_text.replace('[[0, 1]], "C"', '[[0, 1e999]], "C"')
    else:
        witness_text = witness_text.replace('"H_generator_edge_maps": [[0, 1]]',
                                            '"H_generator_edge_maps": [[0, 1e999]]')
    assert "1e999" in graph_text + witness_text
    code, out, err = cli("recognize", "--graph", graph_text, "--witness", witness_text)
    assert code == 3 and out == ""
    assert err.startswith("error: ")


def test_ikn_search_modes_agree():
    _, first, _ = cli("ikn", "search", "9")
    _, everything, _ = cli("ikn", "search", "9", "--all")
    first_tau = [l for l in first.splitlines() if l.startswith("tau:")]
    all_taus = [l for l in everything.splitlines() if l.startswith("tau:")]
    assert len(all_taus) == 2
    assert first_tau[0] == all_taus[0]
    code, canon, _ = cli("ikn", "search", "9", "--canonical")
    assert code == 0
    canon_taus = [l for l in canon.splitlines() if l.startswith("tau:")]
    assert len(canon_taus) == 1
    assert "canonical: yes" in canon


def test_ikn_search_exhaustive_flag():
    # with --exhaustive the modular short-circuit is skipped and the search
    # itself certifies emptiness
    code, out, _ = cli("ikn", "search", "6", "--exhaustive")
    assert code == 1
    assert "ExhaustiveSearch" in out
    lines = [l for l in out.splitlines() if l.startswith("nodes:")]
    assert lines == ["nodes: 4"]


def test_dot_output_shape():
    code, out, _ = cli("build", "-g", "Z4", "-s", "1,2", "-o", "dot")
    assert code == 0
    assert out.startswith("graph {")
    assert out.rstrip().endswith("}")


# ---------------------------------------------------------------------------
# recognize


@pytest.fixture()
def hexagon_files(tmp_path):
    gg = build_phi(parse_group("Z6"), [2, 3])
    w = shifts_of(gg)
    gpath = tmp_path / "graph.json"
    wpath = tmp_path / "witness.json"
    gpath.write_text(json.dumps(export_json(gg.graph)))
    wpath.write_text(json.dumps(witness_to_json(gg.graph, w)))
    return gg, str(gpath), str(wpath)


def test_recognize_from_files_with_reconstruct(hexagon_files):
    _, gpath, wpath = hexagon_files
    code, out, _ = cli("recognize", "--graph", gpath, "--witness", wpath,
                       "--reconstruct")
    assert code == 0
    assert "decision: G-graph witness verified" in out
    assert "reconstructed group: order 6" in out
    assert "generator orders: [3, 2]" in out
    assert "isomorphism verified: yes" in out


def test_recognize_inline_json(hexagon_files):
    gg, _, _ = hexagon_files
    w = shifts_of(gg)
    code, out, _ = cli(
        "recognize",
        "--graph", json.dumps(export_json(gg.graph)),
        "--witness", json.dumps(witness_to_json(gg.graph, w)),
    )
    assert code == 0
    assert "decision: G-graph witness verified" in out


def test_recognize_bad_witness_exit_one(hexagon_files):
    gg, gpath, _ = hexagon_files
    w = shifts_of(gg)
    data = witness_to_json(gg.graph, w)
    data["H_generators"] = data["H_generators"][:1]  # identity only
    code, out, _ = cli("recognize", "--graph", gpath, "--witness", json.dumps(data))
    assert code == 1
    assert "not verified" in out
    assert "FAIL" in out


def test_recognize_empty_clique_exit_three():
    """A G-graph has a nonempty S, so a witness with C empty is malformed."""
    argv = ("recognize", "--graph", '{"vertices": []}',
            "--witness", '{"H_generators": [], "C": []}')
    for extra in ((), ("--reconstruct",)):
        assert cli(*argv, *extra) == (3, "", "error: C is empty\n")


def test_recognize_missing_file_exit_three(tmp_path):
    code, _, err = cli(
        "recognize", "--graph", str(tmp_path / "nope.json"), "--witness", "{}"
    )
    assert code == 3
    assert "cannot read" in err


def test_recognize_malformed_graph_exit_three():
    code, _, err = cli(
        "recognize", "--graph", '{"vertices":[{"id":"x"}]}', "--witness", "{}"
    )
    assert code == 3
    assert "vertex id must be an integer" in err


def test_oversized_group_exit_two():
    code, _, err = cli("build", "-g", "S8", "-s", "(1,2)")
    assert code == 2
    assert "exceeds cap" in err


@pytest.mark.parametrize(
    "exc",
    [
        InternalAssertion("kernel disagrees"),
        NotAGroup("associativity fails"),
        MemoryError(),
        ValueError("stray"),
        KeyError("missing"),
    ],
)
def test_internal_error_exit_four(monkeypatch, exc):
    def broken(args, out):
        out.write("format: 1\n")
        raise exc

    monkeypatch.setattr(cli_module, "_cmd_ikn_verify", broken)
    code, out, err = cli("ikn", "verify", "5", "--tau", "(2 3)(4 5)")
    assert code == 4
    assert out == "format: 1\n"
    assert err.startswith("internal error: %s" % type(exc).__name__)


def test_leading_program_name_tolerated():
    code, out, _ = cli("ggraph", "ikn", "verify", "5", "--tau", "(2,3)(4,5)")
    assert code == 0
    assert "valid certificate" in out
