"""Each CLI command loads only the layers it uses.

``import ggraphs`` loads no submodule, and the ikn commands run without
numpy.  Every check runs in a fresh interpreter, because this test process
has long since imported every module.  The expected CLI output is the
benchmark's reference (perfbench/reference.json), checked by its own rule
as in test_cli_golden.py; this test only reads the perfbench files.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from ggraphs import algebra, cli, ikn

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()
REFERENCE = workloads.load_reference()
COMMANDS = dict(workloads.cli_commands(REFERENCE))
BATCH = workloads.CliBatch(
    SimpleNamespace(modules={"algebra": algebra, "ikn": ikn}, cli=cli), REFERENCE, seed=0
)


def fresh(script: str, *args: str):
    """Run ``script`` in a new interpreter that imports ggraphs from this
    checkout; it prints one JSON value, which is returned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env.pop("GGRAPH_BUDGET", None)
    env.pop("GGRAPH_BACKEND", None)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


LOADED = (
    "sorted(m for m in sys.modules"
    " if m in ('numpy', 'numpy.ma') or m.startswith('ggraphs.'))"
)

RUN_CLI = """
import io, json, sys
from ggraphs import cli
rows = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err)
    rows.append({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                 "loaded": %s})
print(json.dumps(rows))
""" % LOADED


def run_cli(cids):
    rows = fresh(RUN_CLI, json.dumps([COMMANDS[cid] for cid in cids]))
    for cid, row in zip(cids, rows):
        observed = {"exit": row["exit"], "stdout": row["stdout"]}
        assert BATCH.check(workloads.Op(cid, None), observed) == [], cid
        assert row["stderr"] == "", cid
    return rows


def test_import_ggraphs_loads_no_submodule():
    assert fresh("import sys, json, ggraphs; print(json.dumps(%s))" % LOADED) == []


def test_ikn_commands_run_without_numpy():
    rows = run_cli(["ikn-verify-19", "ikn-search-17-all", "ikn-table-19"])
    for row in rows:
        assert "numpy" not in row["loaded"]
        assert "ggraphs.algebra" not in row["loaded"]


def test_group_commands_still_load_their_layers():
    (row,) = run_cli(["build-summary"])
    assert {"numpy", "ggraphs.algebra", "ggraphs.ggraph"} <= set(row["loaded"])
    assert "ggraphs.ikn" not in row["loaded"]


def test_orbit_commands_leave_numpy_ma_unloaded():
    # np.unique imports numpy.ma; algebra.orbits dedupes without it
    rows = run_cli(["components", "kmn", "bipartite-sufficient", "recognize-s4"])
    for row in rows:
        assert "numpy" in row["loaded"]
        assert "numpy.ma" not in row["loaded"]


# the package root's public names, by defining module
PUBLIC = {
    "algebra": "FiniteGroup cyclic_group cyclic_subgroup dihedral_group "
               "direct_product element_order generated_subgroup group_from_table "
               "parse_element parse_group perm_group quaternion_group symmetric_group",
    "perm": "Perm",
    "errors": "BudgetExceeded CapExceeded GGraphError InternalAssertion NotAGroup "
              "ParseError PreconditionFailed WitnessInvalid",
    "ggraph": "GGraph build_phi build_psi colour_clique component_analysis "
              "export_ggraph_json is_complete_bipartite_multi is_pairwise_product_closed "
              "kmn_build kmn_plan level_vertices replicate_components shifts verify_structure",
    "ikn": "Obstruction SearchResult TauCertificate build_and_verify canonical_tau "
           "conjugate_tau make_rho_sigma obstructions orbit_structure pi_map search_tau "
           "verify_tau",
    "incidence": "IncidenceGraph incidence_graph incidence_preimage lift_automorphism "
                 "necessary_bipartite_witness sufficient_bipartite_test witness_automorphism",
    "multigraph": "GraphAut IsoWitness Multigraph connected_components export_dot "
                  "export_json import_json induced_edge_map isomorphic map_defect "
                  "verify_iso_witness",
    "recognition": "RecognitionWitness check check_simple check_with_loops reconstruct "
                   "shifts_of witness_from_json witness_to_json",
}

CHECK_NAMES = """
import importlib, json, sys
import ggraphs
public = json.loads(sys.argv[1])
listed = dir(ggraphs)
same = [name for module, names in public.items() for name in names.split()
        if getattr(ggraphs, name) is getattr(importlib.import_module("ggraphs." + module), name)]
try:
    ggraphs.no_such_name
    unknown = "no error"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"all": sorted(ggraphs.__all__), "dir": listed, "same": sorted(same),
                  "unknown": unknown, "version": ggraphs.__version__}))
"""


def test_public_names_are_their_modules_objects():
    names = sorted(name for names in PUBLIC.values() for name in names.split())
    got = fresh(CHECK_NAMES, json.dumps(PUBLIC))
    assert got["all"] == names
    assert got["same"] == names
    assert set(names) <= set(got["dir"])
    assert got["unknown"] == "module 'ggraphs' has no attribute 'no_such_name'"
    assert got["version"] == "0.1.0"

