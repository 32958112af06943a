"""Benchmark the tau-certificate search kernel: JIT backend vs pure Python.

The kernel is the backtracking search over involutions with residue pruning,
braid/relation propagation and the m_a symmetry prune.  By default the
search runs to the end (``all`` mode); ``--first`` stops at the first
certificate, as the decision table does.  ``_tauengine.run`` drives the
kernel from survivor to survivor, as it does for ``search_tau``.  In
``all`` mode the survivors are orbit representatives, not every
certificate (``search_tau`` expands them), so the column counting the
stops is headed ``reps``.  Both backends run the identical body on the same flat layout (Python lists for python, int64
arrays for numba), so besides timing, this script cross-checks that their
status, node counts and survivors agree exactly.

Compilation (first call) is timed separately from steady state; steady
state is the best of --repeats runs, each timed from a fresh search,
input arrays included.  With ``--out`` the script also writes a JSON
report: the machine, Python version and backends, and per n the nodes,
survivors, best seconds and nodes/s of each backend.

Usage:
    python benchmarks/bench_tau.py
    python benchmarks/bench_tau.py --sizes 14,15,18,20,21,24 --repeats 7
    python benchmarks/bench_tau.py --first --sizes 25,29 --repeats 3
    python benchmarks/bench_tau.py --sizes 19,21,25 --repeats 3 --out benchmarks/BENCH_tau.json
"""

import argparse
import json
import os
import platform
import time

from bench_scale import cpu_model  # this script's directory is on sys.path
from ggraphs import _tauengine
from ggraphs._tauengine import HAVE_NUMBA, OUT_OF_BUDGET
from ggraphs.errors import DEFAULT_BUDGET


def run_once(backend, n, budget, first):
    t0 = time.perf_counter()
    status, nodes, rows, _ = _tauengine.run(n, budget, backend, first_only=first)
    dt = time.perf_counter() - t0
    return dt, (status, len(rows), nodes, tuple(rows))


def best_of(backend, n, budget, first, repeats):
    times = []
    result = None
    for _ in range(repeats):
        dt, res = run_once(backend, n, budget, first)
        if result is None:
            result = res
        elif res != result:
            raise AssertionError("nondeterministic kernel output for n=%d" % n)
        times.append(dt)
    return min(times), result


def machine():
    return {
        "platform": platform.platform(),
        "cpu": cpu_model(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="14,15,17,18,19,20,21",
                    help="comma-separated n values to search")
    ap.add_argument("--first", action="store_true",
                    help="stop at the first certificate instead of enumerating all")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    ap.add_argument("--out", help="also write a JSON report to this path")
    args = ap.parse_args()
    sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    print("mode: %s" % ("first" if args.first else "all"))

    backends = ["python"]
    if HAVE_NUMBA:
        t0 = time.perf_counter()
        run_once("numba", min(sizes), args.budget, args.first)
        print("numba warmup (compile + first run): %.3fs" % (time.perf_counter() - t0))
        backends.append("numba")
    else:
        print("numba not installed; timing the python backend only")

    header = "%4s %6s %12s" + " %12s" * len(backends) + " %9s"
    cols = ["n", "found" if args.first else "reps", "nodes"] + backends
    cols.append("speedup" if len(backends) == 2 else "")
    print(header % tuple(cols))
    report = []
    for n in sizes:
        times = []
        results = []
        for backend in backends:
            dt, res = best_of(backend, n, args.budget, args.first, args.repeats)
            times.append(dt)
            results.append(res)
        if len(results) == 2 and results[0] != results[1]:
            raise AssertionError("backends disagree for n=%d" % n)
        status, found, nodes = results[0][:3]
        if status == OUT_OF_BUDGET:
            raise AssertionError("n=%d stopped with status %d after %d nodes" % (n, status, nodes))
        row = [n, found, nodes] + ["%.6f" % t for t in times]
        row.append("%8.1fx" % (times[0] / times[1]) if len(times) == 2 else "")
        print(header % tuple(row))
        report.append({
            "n": n, "nodes": nodes, "survivors": found,
            "seconds": dict(zip(backends, times)),
            "nodes_per_s": {b: nodes / t for b, t in zip(backends, times)},
        })

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({
                "format": 1, "machine": machine(), "backends": backends,
                "mode": "first" if args.first else "all", "budget": args.budget,
                "repeats": args.repeats, "sizes": report,
            }, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
