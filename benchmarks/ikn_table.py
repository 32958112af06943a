"""Decide I(K_n) for n = 2..--nmax and write the decisions to a JSON file.

Each n runs ``search_tau(n)``: first-only, with the modular obstructions
short-circuiting the search.  A row records n, the decision
("certificate", "none" or "inconclusive"), the certificate or the
obstruction kinds, the node count, the node budget and the kernel version.
An inconclusive row's node count is budget + 1, where the search stopped.
The Tier-1 suite re-verifies every certificate in the checked-in file and
its modular kinds; reproducing the negative and inconclusive rows takes
this script.

Usage:
    python benchmarks/ikn_table.py                      # default budget
    python benchmarks/ikn_table.py --budget 40000000    # as checked in
"""

import argparse
import json
import time
from pathlib import Path

from ggraphs import ikn
from ggraphs._tauengine import KERNEL_VERSION
from ggraphs.errors import DEFAULT_BUDGET, BudgetExceeded

OUT = Path(__file__).resolve().parent / "ikn_table.json"


def decide(n, budget):
    try:
        result = ikn.search_tau(n, budget=budget)
    except BudgetExceeded as exc:
        decision, certs, kinds, nodes = "inconclusive", (), [], exc.nodes
    else:
        certs, nodes = result.certificates, result.nodes
        decision = "certificate" if certs else "none"
        kinds = [o.kind for o in result.obstructions]
    return {
        "n": n,
        "decision": decision,
        "certificate": certs[0].to_json() if certs else None,
        "obstructions": kinds,
        "nodes": nodes,
        "budget": budget,
        "kernel_version": KERNEL_VERSION,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nmax", type=int, default=40)
    ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    ap.add_argument("--out", type=Path, default=OUT)
    args = ap.parse_args()
    rows = []
    for n in range(2, args.nmax + 1):
        t0 = time.perf_counter()
        rows.append(decide(n, args.budget))
        print("n=%d: %s after %d nodes (%.1f s)"
              % (n, rows[-1]["decision"], rows[-1]["nodes"], time.perf_counter() - t0),
              flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:  # one row a line
        fh.write('{"format": 1, "rows": [\n%s\n]}\n'
                 % ",\n".join(json.dumps(row) for row in rows))
    print("wrote %s" % args.out)


if __name__ == "__main__":
    main()
