"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench

They run the real workloads at full size (one pass each, a few passes in
all), so they take about two minutes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import harness
import run
import workloads


@pytest.fixture(scope="module")
def api():
    return harness.Api(harness.import_ggraphs())


@pytest.fixture(scope="module")
def ref():
    return workloads.load_reference()


def one_pass(api, ref, name, seed, traced, only=None):
    wl = workloads.make(name, api, ref, seed)
    if only is not None:
        ops = [op for op in wl.ops(traced) if op.name in only]
        wl.ops = lambda traced: ops
    if not traced:
        return run.run_pass(wl), None
    tracer = harness.Tracer()
    with tracer.patch(api):
        records = run.run_pass(wl, tracer)
    return records, run.layer_metrics(records, tracer)


def failed_frac(records):
    return sum(1 for r in records if r["problems"]) / len(records)


@pytest.fixture(scope="module")
def passes(api, ref):
    """(workload, seed, traced) -> (records, per-layer metrics)."""
    out = {}
    for name in ("ikn-exhaustive", "ikn-first", "structure", "cli-batch"):
        out[name, 1, False] = one_pass(api, ref, name, 1, False)
        out[name, 1, True] = one_pass(api, ref, name, 1, True)
        if name != "cli-batch":
            out[name, 2, True] = one_pass(api, ref, name, 2, True)
    return out


# ---------------------------------------------------------------------------
# a corrupted result raises failed_frac


def test_corrupted_certificate_set_fails(api, ref, monkeypatch):
    records, _ = one_pass(api, ref, "ikn-exhaustive", 1, False, only={"n=17"})
    assert failed_frac(records) == 0
    real = api.ikn.search_tau

    def drop_one(*a, **k):
        result = real(*a, **k)
        return dataclasses.replace(result, certificates=result.certificates[1:])

    monkeypatch.setattr(api.ikn, "search_tau", drop_one)
    records, _ = one_pass(api, ref, "ikn-exhaustive", 1, False, only={"n=17"})
    assert failed_frac(records) == 1.0


def test_corrupted_decision_fails(api, ref, monkeypatch):
    real = api.ikn.search_tau
    monkeypatch.setattr(api.ikn, "search_tau", lambda *a, **k: dataclasses.replace(
        real(*a, **k), certificates=()))
    records, _ = one_pass(api, ref, "ikn-first", 1, False, only={"n=7", "n=6"})
    assert failed_frac(records) == 0.5  # n=6 has no certificate anyway
    assert any("paper" in p for r in records for p in r["problems"])


def test_corrupted_structure_stage_fails(api, ref, monkeypatch):
    monkeypatch.setattr(api.incidence, "necessary_bipartite_witness", lambda *a, **k: None)
    records, _ = one_pass(api, ref, "structure", 1, False, only={"z12"})
    assert failed_frac(records) == 1.0


def test_raising_operation_counts_as_failed(api, ref, monkeypatch):
    def boom(*a, **k):
        raise MemoryError("simulated")

    monkeypatch.setattr(api.ggraph, "component_analysis", boom)
    records, _ = one_pass(api, ref, "structure", 1, False, only={"z12"})
    assert failed_frac(records) == 1.0


def test_cli_check_masks_only_nodes_and_first_only_certificates(api, ref):
    wl = workloads.make("cli-batch", api, ref, 1)
    op = workloads.Op("ikn-search-17-all", None)
    want = ref["cli"][op.name]
    nodes = want["stdout"].replace("nodes: ", "nodes: 1")
    assert wl.check(op, {"exit": 0, "stdout": nodes}) == []
    tau = want["stdout"].replace("tau: (1", "tau: (2", 1)
    assert wl.check(op, {"exit": 0, "stdout": tau}) != []
    assert wl.check(op, {"exit": 1, "stdout": want["stdout"]}) != []

    op = workloads.Op("ikn-table-19", None)
    want = ref["cli"][op.name]["stdout"]
    line = next(x for x in want.splitlines() if x.startswith("n=17: certificate "))
    ikn, alg = api.modules["ikn"], api.modules["algebra"]
    tau = alg.Perm.parse(line.split("certificate ")[1], 17)
    other = ikn.conjugate_tau(17, tau, 3)
    assert other != tau
    valid = want.replace(line, "n=17: certificate " + other.cycle_string())
    assert wl.check(op, {"exit": 0, "stdout": valid}) == []
    not_involution = tau * alg.Perm.from_cycles([[1, 2, 3]], 17)
    broken = want.replace(line, "n=17: certificate " + not_involution.cycle_string())
    assert wl.check(op, {"exit": 0, "stdout": broken}) != []


# ---------------------------------------------------------------------------
# seeds change conjugates and order only; tracing changes no output


def test_seeds_give_identical_counts(passes):
    for name, nodes in (("ikn-exhaustive", 282_709), ("ikn-first", 340_067), ("structure", 0)):
        a, b = passes[name, 1, True][1], passes[name, 2, True][1]
        assert a["ikn.search_tau.nodes"] == b["ikn.search_tau.nodes"] == nodes
        assert a["algebra.table_entries"] == b["algebra.table_entries"]
        assert a["recognition.h_pairs"] == b["recognition.h_pairs"]
    assert passes["structure", 1, True][1]["recognition.rejected_frac"] == 1.0
    assert passes["structure", 2, True][1]["recognition.rejected_frac"] == 1.0


def test_every_pass_is_correct(passes):
    for key, (records, _) in passes.items():
        assert failed_frac(records) == 0, (key, [r["problems"] for r in records if r["problems"]])


def test_traced_and_untraced_outputs_are_identical(passes):
    for name in ("ikn-exhaustive", "ikn-first", "structure", "cli-batch"):
        untraced = [(r["op"], r["observed"]) for r in passes[name, 1, False][0]]
        traced = [(r["op"], r["observed"]) for r in passes[name, 1, True][0] if r["timed"]]
        assert traced == untraced, name
    inproc = {r["op"]: r["observed"] for r in passes["cli-batch", 1, True][0] if not r["timed"]}
    spawned = {r["op"]: r["observed"] for r in passes["cli-batch", 1, True][0] if r["timed"]}
    assert inproc == spawned


def test_trace_reports_all_seven_layers(passes):
    for name in ("ikn-exhaustive", "ikn-first", "structure", "cli-batch"):
        metrics = passes[name, 1, True][1]
        for layer in harness.LAYERS:
            assert metrics["layer.%s.self_s" % layer] >= 0.0
        assert 0.0 <= metrics["harness.self_frac"] < 0.1
    busy = {layer for layer in harness.LAYERS
            if any(passes[n, 1, True][1]["layer.%s.self_s" % layer] > 0
                   for n in ("ikn-exhaustive", "ikn-first", "structure", "cli-batch"))}
    assert busy == set(harness.LAYERS)


def test_baseline_node_counts_reproduce(passes):
    nodes = {(name, r["op"]): r["observed"]["nodes"]
             for name in ("ikn-exhaustive", "ikn-first")
             for r in passes[name, 1, False][0]}
    assert nodes["ikn-exhaustive", "n=19"] == 24_046
    assert nodes["ikn-exhaustive", "n=21"] == 89_276
    assert nodes["ikn-first", "n=25"] == 261_621


# ---------------------------------------------------------------------------
# the speed probe scales end-to-end times, never the program's own figures


def test_speed_scale_is_reference_over_mean_probe():
    probe = harness.SpeedProbe()
    for kind in probe.KINDS:
        assert getattr(probe, kind)() > 0 and len(probe.samples[kind]) == 1
        ref = run.PROBE_REF_S[kind]
        probe.samples[kind][:] = [ref, 3 * ref]
        assert run.speed_scale(probe, kind) == 0.5


# ---------------------------------------------------------------------------
# without the program the benchmark fails cleanly


def test_fails_without_program_source(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ikn-exhaustive",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
