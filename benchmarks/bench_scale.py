"""Time the exact group and G-graph checks at scale, with peak memory.

For each symmetric group S_n named, a fresh interpreter runs six phases
on Phi(S_n, {(1,2), (1,2,...,n)}) and reports each one's seconds:

- ``parse_group``: closure, Cayley table and its generator-cost check;
- ``build_phi``: levels, vertices and edges;
- ``verify_structure``: the five structural checks (all must pass);
- ``verify_psi``: ``build_psi`` on the same generators, then the five
  checks on Psi, whose loop blocks add one slab of |G| edges per level;
- ``shifts_of``: the recognition witness, H the |G| distinct shifts as
  one int32 array;
- ``reconstruct``: the characterisation checks on that witness, the group
  rebuilt from H and the verified isomorphism (H must have |G| elements).

After the timed phases, the child builds the same Phi once more, untimed,
under tracemalloc, and reports the bytes it retains per edge
(``bytes_per_edge``: the graph, its levels and its edge labels).  Tracing
slows allocation, so it runs only there, where no phase is timed.

Before the timed phases the child runs all six once, untimed, on S3, so
numpy's first-call costs land in no timed phase: a phase's time does not
move when work moves between phases.  Peak RSS is the process's
high-water mark (``ru_maxrss``) read after each phase, so it includes the
phases before it; ``import`` is the mark before the first timed phase,
after the imports and the warm-up.  A fresh interpreter per run keeps
each group's mark its own.  ggraphs is imported from the ``src``
directory of the checkout that holds this script.  The report (JSON)
records the machine, Python and numpy versions and every run.

Usage:
    python benchmarks/bench_scale.py
    python benchmarks/bench_scale.py --groups S5 --repeats 1 --out scale.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = ROOT / "benchmarks" / "BENCH_structure_scale.json"
PHASES = ("parse_group", "build_phi", "verify_structure", "verify_psi", "shifts_of",
          "reconstruct")

CHILD = """
import gc, json, resource, sys, time, tracemalloc

def peak_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

from ggraphs.algebra import parse_element, parse_group
from ggraphs.ggraph import build_phi, build_psi, verify_structure
from ggraphs.recognition import reconstruct, shifts_of

s3 = parse_group("S3")
x = build_phi(s3, [parse_element(s3, "(1,2)"), parse_element(s3, "(1,2,3)")])
verify_structure(x)
verify_structure(build_psi(s3, x.gens))
reconstruct(x.graph, shifts_of(x))
spec = sys.argv[1]
n = int(spec[1:])
peak = {"import": peak_mib()}
seconds = {}
t = time.perf_counter()
g = parse_group(spec)
seconds["parse_group"] = time.perf_counter() - t
peak["parse_group"] = peak_mib()
gens = [parse_element(g, "(1,2)"), parse_element(g, "(%s)" % ",".join(map(str, range(1, n + 1))))]
t = time.perf_counter()
x = build_phi(g, gens)
seconds["build_phi"] = time.perf_counter() - t
peak["build_phi"] = peak_mib()
t = time.perf_counter()
report = verify_structure(x)
seconds["verify_structure"] = time.perf_counter() - t
peak["verify_structure"] = peak_mib()
t = time.perf_counter()
report_psi = verify_structure(build_psi(g, gens))
seconds["verify_psi"] = time.perf_counter() - t
peak["verify_psi"] = peak_mib()
t = time.perf_counter()
w = shifts_of(x)
seconds["shifts_of"] = time.perf_counter() - t
peak["shifts_of"] = peak_mib()
t = time.perf_counter()
rebuilt = reconstruct(x.graph, w)
seconds["reconstruct"] = time.perf_counter() - t
peak["reconstruct"] = peak_mib()
gc.collect()
tracemalloc.start()
again = build_phi(g, gens)
gc.collect()
retained = tracemalloc.get_traced_memory()[0]
tracemalloc.stop()
print(json.dumps({
    "group": spec, "order": g.order, "vertices": x.graph.n_vertices,
    "edges": x.graph.n_edges,
    "all_ok": report.all_ok and report_psi.all_ok
              and len(w.H) == rebuilt.group.order == g.order,
    "seconds": seconds, "peak_rss_mib": peak,
    "bytes_per_edge": retained / again.graph.n_edges,
}))
"""


def run_child(spec: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, spec],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine() -> dict:
    import numpy

    return {
        "platform": platform.platform(),
        "cpu": cpu_model(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--groups", default="S5,S6,S7",
                    help="comma-separated symmetric groups, S<n> with n >= 3")
    ap.add_argument("--repeats", type=int, default=3,
                    help="fresh-interpreter runs per group")
    ap.add_argument("--out", default=str(DEFAULT_OUT), help="report path")
    args = ap.parse_args()
    groups = [tok.strip() for tok in args.groups.split(",") if tok.strip()]
    for spec in groups:
        if not (spec[:1] == "S" and spec[1:].isdigit() and int(spec[1:]) >= 3):
            ap.error("not a symmetric group S<n> with n >= 3: %r" % spec)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    runs = []
    print("%-5s %6s  %s  %s" % ("group", "order", "  ".join(
        "%16s" % p for p in PHASES), "B/edge") + "  (median s / max peak MiB)")
    for spec in groups:
        rows = [run_child(spec) for _ in range(args.repeats)]
        if not all(r["all_ok"] for r in rows):
            raise SystemExit("verify_structure, verify_psi or reconstruct failed on %s" % spec)
        runs.extend(rows)
        cells = [
            "%7.3f / %6.1f" % (
                statistics.median(r["seconds"][p] for r in rows),
                max(r["peak_rss_mib"][p] for r in rows),
            )
            for p in PHASES
        ]
        print("%-5s %6d  %s  %6.1f" % (spec, rows[0]["order"], "  ".join(cells),
                                       statistics.median(r["bytes_per_edge"] for r in rows)))

    report = {"format": 1, "machine": machine(), "runs": runs}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
