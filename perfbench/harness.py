"""Benchmark plumbing: importing ggraphs from source, the layer API the
workloads call through, span tracing, and the environment stamp.

Tracing wraps the public functions of each layer module.  A wrapper is
installed in the harness's ``Api`` object and in every *other* ggraphs
module that imported the function, so a span marks a call that crosses
into a layer; calls inside one module stay unwrapped.  No program file is
changed, and an untraced run calls the original functions directly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import platform
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SPAWN_TIMEOUT_S = 120

MODULES = ("algebra", "multigraph", "ggraph", "recognition", "incidence", "ikn", "_tauengine", "cli")

# One layer per module.  _tauengine is called only from ikn, so its time is
# ikn self time.
LAYERS = ("algebra", "multigraph", "ggraph", "recognition", "incidence", "ikn", "cli")

# Public functions wrapped in spans, per layer.  Small helpers that run
# thousands of times per operation (element_order, level_vertices, ...) are
# left out: their time counts toward the layer that calls them.
TRACED = {
    "algebra": ("parse_group", "parse_element", "perm_group", "group_from_table",
                "subgroup_group", "generated_subgroup", "direct_product", "cyclic_group"),
    "multigraph": ("export_json", "import_json", "export_dot", "connected_components",
                   "isomorphic", "verify_iso_witness", "induced_subgraph_with_maps"),
    "ggraph": ("build_phi", "build_psi", "verify_structure", "component_analysis",
               "shifts", "export_ggraph_json", "kmn_build"),
    "recognition": ("shifts_of", "check", "check_simple", "check_with_loops", "reconstruct",
                    "witness_from_json", "witness_to_json"),
    "incidence": ("incidence_graph", "incidence_preimage", "sufficient_bipartite_test",
                  "necessary_bipartite_witness"),
    "ikn": ("search_tau", "build_and_verify", "verify_tau", "conjugate_tau", "make_rho_sigma"),
    "cli": ("run",),
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (for example, no ggraphs source)."""


def pin_environment(env) -> None:
    """The search backend is auto-selected and no budget override applies."""
    env["GGRAPH_BACKEND"] = "auto"
    env.pop("GGRAPH_BUDGET", None)


def child_env() -> dict:
    env = dict(os.environ)
    pin_environment(env)
    env["PYTHONPATH"] = "src"
    return env


def import_ggraphs():
    """Import ggraphs from this checkout's src/, never from anywhere else."""
    init = SRC / "ggraphs" / "__init__.py"
    if not init.is_file():
        raise SetupError("no ggraphs source at %s" % init)
    pin_environment(os.environ)
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("ggraphs")
    if Path(pkg.__file__).resolve() != init.resolve():
        raise SetupError("ggraphs was imported from %s, not from %s" % (pkg.__file__, init))
    return {m: importlib.import_module("ggraphs." + m) for m in MODULES}


def spawn(argv, capture=False):
    """Run ``argv`` from the checkout root in the pinned child environment.
    Returns (exit code, stdout or None, seconds from spawn to exit).

    The wait blocks in waitpid: Popen.wait with a timeout polls with sleeps
    that grow to 50 ms, which rounds every time up to the next such step.  A
    timer kills a child still running after SPAWN_TIMEOUT_S instead."""
    pipe = subprocess.PIPE if capture else subprocess.DEVNULL
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=pipe, stderr=pipe, text=True)
    watchdog = threading.Timer(SPAWN_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
        watchdog.join()
        if proc.poll() is None:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
    return proc.returncode, out, time.perf_counter() - t0


def run_cli_process(argv) -> dict:
    """One `python -m ggraphs.cli` process, from spawn to exit."""
    code, out, _ = spawn([sys.executable, "-m", "ggraphs.cli", *argv], capture=True)
    return {"exit": code, "stdout": out}


class Api:
    """The layer functions the workloads call: ``api.ikn.search_tau(...)``.

    Attributes hold the original functions, or their traced wrappers while
    a ``Tracer.patch`` block is active.  ``api.cli.process`` runs the CLI as
    a child process; its whole life counts as cli-layer time."""

    def __init__(self, modules):
        self.modules = modules
        for mod_name, mod in modules.items():
            ns = types.SimpleNamespace(**{k: v for k, v in vars(mod).items() if not k.startswith("__")})
            setattr(self, mod_name, ns)
        self.cli.process = run_cli_process


class Tracer:
    """In-memory spans: [name, layer, start, end, parent index, op index].

    Op spans (layer "op") wrap one workload operation; layer spans nest
    under them.  ``counts`` accumulates work counters at the same
    boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._op = -1
        self._group_type = None

    def _open(self, name, layer):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][3] = time.perf_counter()

    def begin_op(self, name):
        self._op = len(self.spans)
        self._open(name, "op")

    def end_op(self):
        self._close(self._stack[0])
        self._op = -1

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _count(self, name, layer, args, result):
        if layer == "algebra":
            grp = result[0] if isinstance(result, tuple) and result else result
            if isinstance(grp, self._group_type):
                self._add("algebra.table_entries", grp.order ** 2)
        elif name == "ikn.search_tau":
            self._add("ikn.search_tau.nodes", result.nodes)
            self._add("ikn.search_tau.certs", len(result.certificates))
        elif name in ("recognition.check", "recognition.check_simple",
                      "recognition.check_with_loops", "recognition.reconstruct"):
            self._add("recognition.h_pairs", len(args[1].H) ** 2)

    def wrap(self, name, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._count(name, layer, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patch(self, api):
        """Route every traced function through a span while the block runs."""
        modules = api.modules
        self._group_type = modules["algebra"].FiniteGroup
        undo = []

        def install(target, fname, wrapper):
            undo.append((target, fname, getattr(target, fname)))
            setattr(target, fname, wrapper)

        try:
            for layer, names in TRACED.items():
                for fname in names:
                    orig = getattr(modules[layer], fname)
                    wrapper = self.wrap(layer + "." + fname, layer, orig)
                    install(getattr(api, layer), fname, wrapper)
                    for other, mod in modules.items():
                        if other != layer and vars(mod).get(fname) is orig:
                            install(mod, fname, wrapper)
            install(api.cli, "process", self.wrap("cli.process", "cli", api.cli.process))
            yield self
        finally:
            for target, fname, orig in reversed(undo):
                setattr(target, fname, orig)


def settle(modules) -> None:
    """Finish the process-wide lazy set-up before anything is timed.

    * glibc serves large blocks with mmap until a freed mmapped block raises
      its threshold; until then every numpy temporary of a few MiB costs
      fresh page faults.  verify_structure(Phi(S6)) takes about 5 s before
      the first such free and about 2 s after it (1.4M against 8k minor
      faults).  One 24 MiB allocate-and-free does it up front.
    * numpy imports some submodules on first use (np.unique, from the group
      axiom check), which adds about 16 ms to the first group built.
      Building S3 once does it up front.

    Without this a timing would depend on which operation happens to run
    first.  Set-up probes run it too, so its cost counts in setup_s."""
    import numpy

    block = numpy.empty(3 << 20)
    del block
    modules["algebra"].parse_group("S3")


class SpeedProbe:
    """Times fixed pieces of work that run no ggraphs code, to follow the
    machine's speed while a run measures.

    On a shared host the same work takes up to ~1.4x longer in some minutes
    than in others, in swings that last from seconds to minutes.  There are
    two kinds of probe, because their swings do not follow each other:

    * ``compute``: half an interpreter loop and half a numpy sort-and-gather
      over 2 MiB, the two kinds of work the in-process workloads do;
    * ``spawn``: a fresh interpreter that imports numpy, the bulk of a CLI
      invocation and of a set-up probe (process start, loading shared
      objects, page faults).

    Each call appends its time to ``samples[kind]``.  The program's own
    speed never enters them: a change to ggraphs leaves the probes as
    they are."""

    KINDS = ("compute", "spawn")
    LOOP = 100_000
    SORTS = 3

    def __init__(self):
        import numpy

        self._np = numpy
        rng = numpy.random.default_rng(0)
        self._values = rng.integers(0, 1 << 30, 1 << 18)
        self._order = rng.permutation(1 << 18)
        self.samples: dict[str, list[float]] = {kind: [] for kind in self.KINDS}

    def compute(self) -> float:
        t0 = time.perf_counter()
        table, x = list(range(64)), 1
        for i in range(self.LOOP):
            x = table[(x * 7 + i) & 63] ^ i
        for _ in range(self.SORTS):
            self._np.sort(self._values)[self._order].sum()
        elapsed = time.perf_counter() - t0
        self.samples["compute"].append(elapsed)
        return elapsed

    def spawn(self) -> float:
        code, _, elapsed = spawn([sys.executable, "-c", "import numpy"])
        if code != 0:
            raise SetupError("the spawn probe exited with code %d" % code)
        self.samples["spawn"].append(elapsed)
        return elapsed


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_stamp(modules) -> dict:
    import numpy

    engine = modules["_tauengine"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": engine.resolve_backend(),
        "have_numba": engine.HAVE_NUMBA,
        "numba_backend": "measured" if engine.HAVE_NUMBA
        else "unmeasured: numba is not importable on this machine",
        "GGRAPH_BACKEND": os.environ.get("GGRAPH_BACKEND"),
        "GGRAPH_BUDGET": os.environ.get("GGRAPH_BUDGET"),
    }
