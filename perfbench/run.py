"""Run one benchmark workload, or all of them, and print its metrics.

    python3 perfbench/run.py --workload ikn-exhaustive --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload is a closed loop with one client.  A run repeats whole passes
over the workload's operations, at least ``min_passes`` of them, until the
next pass would end after ``--seconds``.  Speed probes (harness.SpeedProbe)
run before every operation and every set-up spawn, outside their timings;
the end-to-end times are scaled by them to the speed at which the probes
take PROBE_REF_S (see end_to_end).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs untraced passes for half the time and traced ones for the
other half, and reports the per-layer metrics.  Every operation's output is
checked.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  A report with the
environment stamp (and, when traced, the spans) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

import harness
import workloads

OUT = harness.ROOT / "perfbench" / "out"
SETUP_PROBES = 7
IMPORT_PROBES = 5

# Each speed probe's time, in seconds, that the end-to-end times are scaled
# to: about its mean on the machine the benchmark was defined on (2-core
# Intel Xeon, Python 3.11.7, numpy 2.4), so there scaled and raw times agree
# on average.  Changing one rescales every wall_s or setup_s it scales.
PROBE_REF_S = {"compute": 0.025, "spawn": 0.17}

# per-layer metrics that are span self time, summed over the named spans
SPAN_METRICS = {
    "ikn.search_tau.s": ("ikn.search_tau",),
    "ikn.build_and_verify.s": ("ikn.build_and_verify",),
    "algebra.parse_group.s": ("algebra.parse_group",),
    "algebra.perm_group.s": ("algebra.perm_group",),
    "ggraph.build.s": ("ggraph.build_phi", "ggraph.build_psi"),
    "ggraph.verify_structure.s": ("ggraph.verify_structure",),
    "ggraph.component_analysis.s": ("ggraph.component_analysis",),
    "recognition.shifts_of.s": ("recognition.shifts_of",),
    "recognition.check.s": ("recognition.check", "recognition.check_simple",
                            "recognition.check_with_loops"),
    "recognition.reconstruct.s": ("recognition.reconstruct",),
    "incidence.preimage.s": ("incidence.incidence_preimage",),
    "incidence.sufficient.s": ("incidence.sufficient_bipartite_test",),
    "incidence.necessary.s": ("incidence.necessary_bipartite_witness",),
    "multigraph.json_roundtrip.s": ("multigraph.export_json", "multigraph.import_json"),
}

SPEC = harness.ROOT / "BENCHMARK.json"


# ---------------------------------------------------------------------------
# passes


def run_pass(wl, tracer=None, probe=None):
    """One pass over the workload's operations; checks run outside the timing,
    and so does the speed probe, when given, before each operation."""
    ops = wl.ops(traced=tracer is not None)
    records = []
    for op in ops:
        if probe is not None:
            probe()
        if tracer is not None:
            tracer.begin_op(op.name)
        t0 = time.perf_counter()
        try:
            observed, problems = op.run(), None
        except Exception:  # an operation that raises is a failed operation
            observed, problems = None, [traceback.format_exc(limit=3)]
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        if problems is None:
            try:
                problems = wl.check(op, observed)
            except Exception:  # output the check cannot even read
                problems = [traceback.format_exc(limit=3)]
        records.append({"op": op.name, "timed": op.timed, "latency": latency,
                        "observed": observed, "problems": problems})
    return records


def measure(wl, seconds, api=None, probe=None):
    """Whole passes until the next one would end past ``seconds``; traced
    when ``api`` is given.  Returns [(records, tracer or None)]."""
    passes = []
    start = time.perf_counter()
    while True:
        if api is None:
            passes.append((run_pass(wl, probe=probe), None))
        else:
            tracer = harness.Tracer()
            with tracer.patch(api):
                passes.append((run_pass(wl, tracer, probe), tracer))
        done = len(passes)
        elapsed = time.perf_counter() - start
        if done >= wl.min_passes and elapsed + elapsed / done > seconds:
            return passes


def pass_wall(records):
    return sum(r["latency"] for r in records if r["timed"])


def timed_spawn(argv) -> float:
    code, _, seconds = harness.spawn(argv)
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)
    return seconds


def setup_seconds(args, probe):
    """Median spawn-to-exit time of a fresh interpreter doing only set-up:
    importing ggraphs, loading the reference, generating the inputs and
    harness.settle.  The spawn probe runs before each one."""
    argv = [sys.executable, str(harness.ROOT / "perfbench" / "run.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        probe.spawn()
        times.append(timed_spawn(argv))
    return statistics.median(times)


def import_seconds():
    """Fresh `import ggraphs.cli` minus an empty interpreter, medians of
    alternating probes."""
    empty, full = [], []
    for _ in range(IMPORT_PROBES):
        empty.append(timed_spawn([sys.executable, "-c", "pass"]))
        full.append(timed_spawn([sys.executable, "-c", "import ggraphs.cli"]))
    return statistics.median(full) - statistics.median(empty)


# ---------------------------------------------------------------------------
# metrics


def speed_scale(probe, kind):
    """PROBE_REF_S over the mean time of this run's probes of that kind:
    below 1 while the machine runs slower than at the reference speed.  The
    mean, because a pass adds up its time in fast and slow spells alike; a
    median would jump between the two when a run spends about half its time
    in each."""
    return PROBE_REF_S[kind] / statistics.fmean(probe.samples[kind])


def end_to_end(wl, passes, raw_setup, probe):
    """wall_s and setup_s are the measured medians times speed_scale, that
    is, in seconds at the reference speed; the raw medians go in the report.
    wall_s is scaled by the workload's probe kind and setup_s, which is
    spawns, by the spawn probe.  The scale follows slow swings of the shared
    host that would otherwise move every time of a run alike."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss = own
    if wl.name == "cli-batch":
        rss = max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    raw = {"wall_s": statistics.median(pass_wall(recs) for recs, _ in passes),
           "setup_s": raw_setup}
    metrics = {"wall_s": raw["wall_s"] * speed_scale(probe, wl.speed),
               "setup_s": raw_setup * speed_scale(probe, "spawn"),
               "peak_rss_mb": rss / 1024.0}
    return metrics, raw


def cmd_latency(wl, passes):
    """cli-batch: median and p75 of the per-invocation latency, spawn to
    exit, with the sample count; zeros on the in-process workloads."""
    if wl.name != "cli-batch":
        return {"cmd_p50_ms": 0.0, "cmd_p75_ms": 0.0}, 0
    lat = [r["latency"] for recs, _ in passes for r in recs if r["timed"]]
    quartiles = statistics.quantiles(lat, n=4)
    return {"cmd_p50_ms": 1000.0 * quartiles[1], "cmd_p75_ms": 1000.0 * quartiles[2]}, len(lat)


def layer_metrics(records, tracer):
    """Per-layer metrics of one traced pass."""
    spans = tracer.spans
    own = harness.self_times(spans)
    by_name, by_layer = {}, {layer: 0.0 for layer in harness.LAYERS}
    op_total = op_own = cli_inproc = 0.0
    for span, self_s in zip(spans, own):
        name, layer = span[0], span[1]
        if layer == "op":
            op_total += span[3] - span[2]
            op_own += self_s
            continue
        by_name[name] = by_name.get(name, 0.0) + self_s
        by_layer[layer] += self_s
        if name == "cli.run":
            cli_inproc += span[3] - span[2]
    counts = tracer.counts
    m = {key: sum(by_name.get(n, 0.0) for n in names) for key, names in SPAN_METRICS.items()}
    nodes = counts.get("ikn.search_tau.nodes", 0)
    entries = counts.get("algebra.table_entries", 0)
    m["ikn.search_tau.nodes"] = nodes
    m["ikn.search_tau.nodes_per_s"] = nodes / m["ikn.search_tau.s"] if nodes else 0.0
    m["ikn.search_tau.certs_per_mnode"] = (
        counts.get("ikn.search_tau.certs", 0) / (nodes / 1e6) if nodes else 0.0)
    m["algebra.table_entries"] = entries
    m["algebra.table_entries_per_s"] = entries / by_layer["algebra"] if entries else 0.0
    m["recognition.h_pairs"] = counts.get("recognition.h_pairs", 0)
    controls = [r["observed"]["controls"] for r in records
                if isinstance(r["observed"], dict) and "controls" in r["observed"]]
    tried = sum(c[0] for c in controls)
    m["recognition.rejected_frac"] = sum(c[1] for c in controls) / tried if tried else 0.0
    m["cli.inproc.s"] = cli_inproc
    for layer in harness.LAYERS:
        m["layer.%s.self_s" % layer] = by_layer[layer]
    m["harness.self_frac"] = op_own / op_total if op_total else 0.0
    return m


def startup_seconds(records):
    """Per command: subprocess latency minus the in-process latency."""
    spawn = {r["op"]: r["latency"] for r in records if r["timed"]}
    return [spawn[r["op"]] - r["latency"] for r in records if not r["timed"]]


def per_layer(wl, untraced, traced):
    per_pass = [layer_metrics(recs, tr) for recs, tr in traced]
    m = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    base = statistics.median(pass_wall(recs) for recs, _ in untraced)
    with_trace = statistics.median(pass_wall(recs) for recs, _ in traced)
    m["trace.overhead_frac"] = (with_trace - base) / base
    m.update(cmd_latency(wl, untraced)[0])
    if wl.name == "cli-batch":
        m["cli.startup.s"] = statistics.median(
            d for recs, _ in traced for d in startup_seconds(recs))
        m["cli.import.s"] = import_seconds()
    else:
        m["cli.startup.s"] = m["cli.import.s"] = 0.0
    return m, per_pass


def layer_table(traced, per_pass):
    """Self time per layer and the harness share, per pass (medians)."""
    rows = []
    ops = statistics.median(
        sum(s[3] - s[2] for s in tr.spans if s[1] == "op") for _, tr in traced)
    for layer in harness.LAYERS:
        v = statistics.median(p["layer.%s.self_s" % layer] for p in per_pass)
        rows.append((layer, v, v / ops))
    frac = statistics.median(p["harness.self_frac"] for p in per_pass)
    rows.append(("harness", frac * ops, frac))
    return rows


def op_shares(tracer):
    """Each op span's duration and the harness's own share of it: time
    inside the op that falls outside every layer span."""
    own = harness.self_times(tracer.spans)
    return [{"op": s[0], "s": s[3] - s[2], "harness_share": own[i] / (s[3] - s[2])}
            for i, s in enumerate(tracer.spans) if s[1] == "op"]


# ---------------------------------------------------------------------------
# ROADMAP Baseline figures that fall inside the workloads


def op_span_time(tracer, op_name, span_name):
    """Inclusive time of the first ``span_name`` span inside op ``op_name``."""
    ops = {i for i, s in enumerate(tracer.spans) if s[1] == "op" and s[0] == op_name}
    for s in tracer.spans:
        if s[0] == span_name and s[5] in ops:
            return s[3] - s[2]
    return None


def baseline(wl, traced, metrics):
    recs, tracer = traced[0]
    nodes = {r["op"]: r["observed"]["nodes"] for r in recs
             if isinstance(r["observed"], dict) and "nodes" in r["observed"]}
    rows = []
    if wl.name == "ikn-exhaustive":
        rows += [("n=19 all-mode nodes", 24046, nodes.get("n=19"), True),
                 ("n=21 all-mode nodes", 89276, nodes.get("n=21"), True),
                 ("n=19 all-mode search_tau s", 0.31,
                  op_span_time(tracer, "n=19", "ikn.search_tau"), False),
                 ("n=21 all-mode search_tau s", 1.15,
                  op_span_time(tracer, "n=21", "ikn.search_tau"), False)]
    elif wl.name == "ikn-first":
        rows += [("n=25 first-only nodes", 261621, nodes.get("n=25"), True),
                 ("n=25 first-only search_tau s", 5.4,
                  op_span_time(tracer, "n=25", "ikn.search_tau"), False)]
    elif wl.name == "structure":
        rows += [('parse_group("S6") s', 1.0,
                  op_span_time(tracer, "s6", "algebra.parse_group"), False),
                 ("verify_structure(Phi(S6)) s", 1.7,
                  op_span_time(tracer, "s6", "ggraph.verify_structure"), False),
                 ("reconstruct(Phi(S5)) s", 0.33,
                  op_span_time(tracer, "s5", "recognition.reconstruct"), False)]
    elif wl.name == "cli-batch":
        rows.append(("import ggraphs.cli s", 0.27, metrics["cli.import.s"], False))
    return [{"figure": f, "roadmap": want, "measured": got, "exact": exact,
             "match": (got == want) if exact else None} for f, want, got, exact in rows]


NOT_COVERED = ('parse_group("S7") (86 s) and reconstruct on Phi(S6) (70 s) are not run: '
               "one such call would dominate every run.  The n=29/31 first-certificate "
               "rows and the n=25 all-mode prune mix lie outside the workloads.")


# ---------------------------------------------------------------------------
# entry points


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="do only the set-up, then exit (used to time set-up)")
    return ap.parse_args(argv)


def run_one(args) -> int:
    try:
        modules = harness.import_ggraphs()
        ref = workloads.load_reference()
    except (harness.SetupError, ImportError, OSError) as exc:
        print("perfbench: cannot set up: %s" % exc, file=sys.stderr)
        return 2
    api = harness.Api(modules)
    wl = workloads.make(args.workload, api, ref, args.seed)
    harness.settle(modules)
    if args.setup_only:
        return 0
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = harness.env_stamp(modules)
    probe = harness.SpeedProbe()
    for kind in probe.KINDS:  # warm-up, not kept
        getattr(probe, kind)()
        probe.samples[kind].clear()
    before_op = getattr(probe, wl.speed)
    if args.trace:
        untraced = measure(wl, args.seconds / 2, probe=before_op)
        traced = measure(wl, args.seconds / 2, api, before_op)
        metrics, per_pass = per_layer(wl, untraced, traced)
        passes = untraced + traced
    else:
        passes = measure(wl, args.seconds, probe=before_op)
        metrics, raw = end_to_end(wl, passes, setup_seconds(args, probe), probe)
        cmd, samples = cmd_latency(wl, passes)

    if set(metrics) != set(units):
        print("perfbench: metrics %s differ from BENCHMARK.json's %s"
              % (sorted(metrics), sorted(units)), file=sys.stderr)
        return 2
    records = [r for recs, _ in passes for r in recs]
    cross = wl.crosscheck()
    failures = [(r["op"], p) for r in records for p in r["problems"]]
    attempted = len(records)
    if cross is not None:
        attempted += 1
        failures += [("backend cross-check", p) for p in cross["problems"]]
    failed = sum(1 for r in records if r["problems"]) + bool(cross and cross["problems"])

    report = {"workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "passes": len(passes), "attempted": attempted,
              "speed_probe": {kind: {"ref_s": PROBE_REF_S[kind], "samples": samples,
                                     "mean_s": statistics.fmean(samples),
                                     "scale": speed_scale(probe, kind)}
                              for kind, samples in probe.samples.items() if samples},
              "failed": failed, "failures": failures, "metrics": metrics,
              "backend_crosscheck": cross["status"] if cross else "not part of this workload",
              "ops": [{k: r[k] for k in ("op", "timed", "latency", "problems")} for r in records]}
    print("perfbench %s seed=%d trace=%d: %d passes, %d operations attempted, %d failed "
          "(failed_frac %.4g)" % (wl.name, args.seed, args.trace, len(passes), attempted,
                                  failed, failed / attempted))
    print("env: %s" % json.dumps(env, sort_keys=True))
    for op, problem in failures:
        print("FAILED %s: %s" % (op, problem), file=sys.stderr)
    if args.trace:
        rows = layer_table(traced, per_pass)
        report["layer_self_time"] = [{"layer": l, "self_s": s, "share": f} for l, s, f in rows]
        report["baseline"] = baseline(wl, traced, metrics)
        report["baseline_not_covered"] = NOT_COVERED
        report["per_pass"] = per_pass
        report["op_harness_share"] = [op_shares(tr) for _, tr in traced]
        report["spans"] = [tr.spans for _, tr in traced]
        print("%-12s %12s %8s" % ("layer", "self s/pass", "share"))
        for layer, self_s, share in rows:
            print("%-12s %12.4f %7.1f%%" % (layer, self_s, 100 * share))
        shares = [o["harness_share"] for ops in report["op_harness_share"] for o in ops]
        print("harness share of each op span: median %.2f%%, max %.2f%% (%d op spans)"
              % (100 * statistics.median(shares), 100 * max(shares), len(shares)))
        for row in report["baseline"]:
            print("baseline %-32s roadmap %-10s measured %s%s" % (
                row["figure"], row["roadmap"], row["measured"],
                "" if row["match"] is None else ("  (exact: match)" if row["match"]
                                                 else "  (exact: MISMATCH)")))
        print("baseline not covered: %s" % NOT_COVERED)
    else:
        report["raw"] = raw
        print("raw wall_s %.6g s, raw setup_s %.6g s" % (raw["wall_s"], raw["setup_s"]))
        if samples:
            print("cmd_p50_ms %.6g ms, cmd_p75_ms %.6g ms (%d invocations)"
                  % (cmd["cmd_p50_ms"], cmd["cmd_p75_ms"], samples))
    for kind, sp in report["speed_probe"].items():
        print("speed probe %s: mean %.6g s over %d samples, scale %.4f (reference %g s)"
              % (kind, sp["mean_s"], len(sp["samples"]), sp["scale"], sp["ref_s"]))
    print("backend cross-check: %s" % report["backend_crosscheck"])
    for name, value in metrics.items():
        print("%-32s %.6g %s" % (name, value, units[name]))

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / ("%s-seed%d-trace%d.json" % (wl.name, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of metrics per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(harness.ROOT / "perfbench" / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print("perfbench: workload %s failed to run" % name, file=sys.stderr)
            return proc.returncode or 2
        result = json.loads(lines[-1])
        print("== %s: failed_frac %.4g (%d of %d)" % (
            name, result["failed"] / result["attempted"], result["failed"], result["attempted"]))
        for line in lines:
            if line.startswith("cmd_p50_ms"):
                print("   " + line)
        for metric, m in result["metrics"].items():
            print("   %-32s %12.6g %s" % (metric, m["value"], m["unit"]))
            combined["metrics"]["%s/%s" % (name, metric)] = m
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
