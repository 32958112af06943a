"""Regenerate perfbench/reference.json from the library in src/.

    python3 perfbench/make_reference.py

The reference records what the checks compare against: certificate sets,
decisions and obstruction kinds, the structure-stage invariants and the
CLI outputs.  Regenerate it only when an output is meant to change, and
say why in the change that does so.  The invariants known independently of
the code (group orders, K_17 as the preimage, rejected negative controls,
the paper's table) are asserted here before anything is written.
"""

from __future__ import annotations

import json
import sys

import harness
import workloads


def main() -> int:
    modules = harness.import_ggraphs()
    api = harness.Api(modules)
    alg, ikn = modules["algebra"], modules["ikn"]

    ref = {"ikn_exhaustive": {}, "ikn_first": {}, "structure": {}, "cli": {}, "inputs": {}}
    for n in workloads.IknExhaustive.NS:
        r = ikn.search_tau(n, "all", short_circuit=False)
        ref["ikn_exhaustive"][str(n)] = {
            "certificates": sorted(list(c.tau.img) for c in r.certificates),
            "obstructions": [o.kind for o in r.obstructions],
        }
    first = {}
    for n in workloads.IknFirst.NS:
        r = ikn.search_tau(n)
        decision = "certificate" if r.certificates else "none"
        paper = workloads.PAPER_CERTIFICATES | workloads.PAPER_NO_CERTIFICATE
        if n in paper:
            assert (decision == "certificate") == (n in workloads.PAPER_CERTIFICATES), n
        ref["ikn_first"][str(n)] = {"decision": decision,
                                    "obstructions": [o.kind for o in r.obstructions]}
        if r.certificates:
            first[n] = r.certificates[0].tau

    s4 = alg.parse_group("S4")
    gg = modules["ggraph"].build_phi(
        s4, [alg.parse_element(s4, "(1,2)"), alg.parse_element(s4, "(1,2,3,4)")])
    rec = modules["recognition"]
    ref["inputs"] = {
        "tau17": list(first[17].img),
        "tau19": first[19].cycle_string(),
        "s4_graph": modules["multigraph"].export_json(gg.graph),
        "s4_witness": rec.witness_to_json(gg.graph, rec.shifts_of(gg)),
    }

    structure = workloads.Structure(api, ref, seed=0)
    for stage in structure.STAGES:
        ref["structure"][stage] = getattr(structure, "stage_" + stage)()
    st = ref["structure"]
    assert st["s6"]["group_order"] == 720 and st["s6"]["all_ok"]
    assert st["k17"]["group_order"] == st["k17"]["reconstructed_order"] == 17 * 16
    assert (st["k17"]["preimage_vertices"], st["k17"]["preimage_edges"]) == (17, 136)
    assert st["k17"]["preimage_simple"] and st["k17"]["all_ok"]
    assert st["s5"]["phi_reconstructed_order"] == st["s5"]["psi_reconstructed_order"] == 120
    assert st["s5"]["controls"] == [2, 2]
    z = st["z12"]
    assert z["sufficient_found"] and z["necessary_found"] and z["json_roundtrip"]
    assert z["components"] == z["expected_components"] and z["components_isomorphic"]

    for cid, argv in workloads.cli_commands(ref):
        ref["cli"][cid] = harness.run_cli_process(argv)

    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % workloads.REFERENCE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
