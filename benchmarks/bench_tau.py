"""Benchmark the tau-certificate search kernel: JIT backend vs pure Python.

The kernel is the backtracking search over involutions with residue pruning,
braid/relation propagation and the m_a symmetry prune.  By default the
search runs to the end (``all`` mode); ``--first`` stops at the first
certificate, as the decision table does.  In ``all`` mode the kernel
returns orbit representatives, not every certificate (``search_tau``
expands them), so the column is headed ``reps``.  Both backends run the
identical body on the same flat layout (Python lists for python, int64
arrays for numba), so besides timing, this script cross-checks that their
status, node counts and solution rows agree exactly.

Compilation (first call) is timed separately from steady state; steady
state is the best of --repeats runs.

Usage:
    python benchmarks/bench_tau.py
    python benchmarks/bench_tau.py --sizes 14,15,18,20,21,24 --repeats 7
    python benchmarks/bench_tau.py --first --sizes 25,29 --repeats 3
"""

import argparse
import time

from ggraphs._tauengine import HAVE_NUMBA, get_kernel, search_arrays
from ggraphs.ikn import DEFAULT_BUDGET


def run_once(backend, n, budget, want_all):
    kernel, _ = get_kernel(backend)
    arrays = search_arrays(n, 1024 if want_all else 1, backend)
    t0 = time.perf_counter()
    status, found, nodes = kernel(n, budget, want_all, *arrays)
    dt = time.perf_counter() - t0
    rows = tuple(int(x) for x in arrays[-1][: int(found) * (n + 1)])
    return dt, (int(status), int(found), int(nodes), rows)


def best_of(backend, n, budget, want_all, repeats):
    times = []
    result = None
    for _ in range(repeats):
        dt, res = run_once(backend, n, budget, want_all)
        if result is None:
            result = res
        elif res != result:
            raise AssertionError("nondeterministic kernel output for n=%d" % n)
        times.append(dt)
    return min(times), result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="14,15,17,18,19,20,21",
                    help="comma-separated n values to search")
    ap.add_argument("--first", action="store_true",
                    help="stop at the first certificate instead of enumerating all")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    args = ap.parse_args()
    sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    want_all = 0 if args.first else 1
    print("mode: %s" % ("first" if args.first else "all"))

    backends = ["python"]
    if HAVE_NUMBA:
        t0 = time.perf_counter()
        run_once("numba", min(sizes), args.budget, want_all)
        print("numba warmup (compile + first run): %.3fs" % (time.perf_counter() - t0))
        backends.append("numba")
    else:
        print("numba not installed; timing the python backend only")

    header = "%4s %6s %12s" + " %12s" * len(backends) + " %9s"
    cols = ["n", "found" if args.first else "reps", "nodes"] + backends
    cols.append("speedup" if len(backends) == 2 else "")
    print(header % tuple(cols))
    for n in sizes:
        times = []
        results = []
        for backend in backends:
            dt, res = best_of(backend, n, args.budget, want_all, args.repeats)
            times.append(dt)
            results.append(res)
        if len(results) == 2 and results[0] != results[1]:
            raise AssertionError("backends disagree for n=%d" % n)
        status, found, nodes = results[0][:3]
        if status != 0:
            raise AssertionError("n=%d stopped with status %d after %d nodes" % (n, status, nodes))
        row = [n, found, nodes] + ["%.6f" % t for t in times]
        row.append("%8.1fx" % (times[0] / times[1]) if len(times) == 2 else "")
        print(header % tuple(row))


if __name__ == "__main__":
    main()
