"""The functions the benchmark traces exist.

perfbench/harness.py wraps each name in its TRACED table in a timing span;
a name that no longer exists there would fail only in a traced benchmark
run.  This test reads the table and checks each name, so a rename or a
deletion fails here first.  It only reads the perfbench file.
"""

import importlib
import importlib.util
from pathlib import Path

HARNESS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "harness.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_harness", HARNESS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_is_a_callable_of_its_module():
    traced = load_traced()
    assert traced
    for layer, names in traced.items():
        module = importlib.import_module("ggraphs." + layer)
        for name in names:
            assert callable(getattr(module, name, None)), "%s.%s" % (layer, name)
