"""The README command set, run in process, against the benchmark's
reference output (perfbench/reference.json).

Output must match byte for byte, by the benchmark's own rule: a `nodes:`
value may differ, and a first-only table certificate may differ when it
re-verifies.  This test only reads the perfbench files.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from ggraphs import algebra, cli, ikn

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()
REFERENCE = workloads.load_reference()
COMMANDS = workloads.cli_commands(REFERENCE)
BATCH = workloads.CliBatch(
    SimpleNamespace(modules={"algebra": algebra, "ikn": ikn}, cli=cli), REFERENCE, seed=0
)


def test_the_command_set_is_complete():
    assert len(COMMANDS) == 14
    assert sorted(cid for cid, _ in COMMANDS) == sorted(REFERENCE["cli"])


@pytest.mark.parametrize("cid, argv", COMMANDS, ids=[cid for cid, _ in COMMANDS])
def test_readme_command_output_matches_reference(cid, argv):
    observed = BATCH.in_process(argv)
    assert BATCH.check(workloads.Op(cid, None), observed) == []
