"""algebra.RowIndex: an exact index of distinct int32 rows.

A row's key is the whole row, so the index must agree with a dict keyed on
each row's bytes: on the indexed rows, on near misses that differ from one
of them in a single entry, and on random rows.  Entries come from a small
range with negatives, so near misses and rows that share long prefixes are
common.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggraphs import algebra as al
from ggraphs.errors import PreconditionFailed

SETTINGS = settings(max_examples=200, deadline=None, database=None, derandomize=True)
ENTRY = st.integers(-3, 3)


@st.composite
def distinct_rows(draw):
    width = draw(st.integers(1, 12))
    rows = draw(st.lists(st.tuples(*[ENTRY] * width), min_size=1, max_size=60, unique=True))
    return np.array(rows, dtype=np.int32).reshape(len(rows), width)


def oracle(rows, queries):
    at = {row.tobytes(): i for i, row in enumerate(rows)}
    return [at.get(q.tobytes(), -1) for q in queries]


@SETTINGS
@given(st.data())
def test_find_agrees_with_a_bytes_dict(data):
    rows = data.draw(distinct_rows())
    n, width = rows.shape
    index = al.RowIndex(rows)
    assert index.find(rows).tolist() == list(range(n))
    near = rows.copy()
    for row in near:  # one entry of each row changed
        c = data.draw(st.integers(0, width - 1))
        row[c] = data.draw(ENTRY.filter(lambda v, old=row[c]: v != old))
    others = np.array(
        data.draw(st.lists(st.tuples(*[ENTRY] * width), max_size=20)), dtype=np.int32
    ).reshape(-1, width)
    for queries in (near, others, np.concatenate((rows, near, others))[::-1]):
        assert index.find(queries).tolist() == oracle(rows, queries)


@SETTINGS
@given(st.data())
def test_a_repeated_row_is_refused(data):
    rows = data.draw(distinct_rows())
    i = data.draw(st.integers(0, len(rows) - 1))
    at = data.draw(st.integers(0, len(rows)))
    with pytest.raises(PreconditionFailed, match="distinct"):
        al.RowIndex(np.insert(rows, at, rows[i], axis=0))


def test_neither_the_index_nor_a_lookup_copies_the_rows():
    """The keys are a view of contiguous int32 rows: building the index and
    looking every row up each allocate well under the rows' size."""
    rng = np.random.default_rng(0)
    rows = rng.permuted(np.tile(np.arange(400, dtype=np.int32), (2000, 1)), axis=1)
    tracemalloc.start()
    try:
        index = al.RowIndex(rows)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        at = index.find(rows)
        looked_up = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert at.tolist() == list(range(len(rows)))
    assert built < rows.nbytes / 8 and looked_up < rows.nbytes / 8


def test_importing_algebra_leaves_multigraph_unloaded():
    """algebra needs nothing from multigraph: a fresh interpreter that
    imports it has not loaded ggraphs.multigraph."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    script = "import sys, ggraphs.algebra; print('ggraphs.multigraph' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    assert out.split() == ["False"]
