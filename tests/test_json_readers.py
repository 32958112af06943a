"""The JSON readers raise only GGraphError, whatever JSON value they get.

json.loads reads 1e999 as inf and NaN as nan, so every integer field can
hold a value that int() refuses with OverflowError or ValueError.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggraphs.errors import GGraphError, ParseError
from ggraphs.ikn import OBSTRUCTION_KINDS, Obstruction, TauCertificate
from ggraphs.multigraph import Multigraph, import_json
from ggraphs.recognition import witness_from_json

SETTINGS = settings(max_examples=100, deadline=None, database=None)

NON_FINITE = st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e300, -0.0])
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | NON_FINITE
    | st.text(max_size=4)
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# often a small valid integer, so that a reader gets past its first field,
# and often a number that int() refuses
INTS = st.integers(-1, 4) | NON_FINITE | VALUES


def only_ggraph_errors(read, data):
    """read(data) and read(json text of data) return or raise GGraphError."""
    for arg in (data, json.dumps(data)):
        try:
            read(arg)
        except GGraphError:
            pass


GRAPHS = st.fixed_dictionaries(
    {"vertices": st.lists(st.fixed_dictionaries({"id": INTS}, optional={"part": INTS}), max_size=4)},
    optional={
        "edges": st.lists(
            st.fixed_dictionaries({"u": INTS, "v": INTS}, optional={"id": INTS, "label": VALUES}),
            max_size=4,
        )
    },
)


@SETTINGS
@given(st.one_of(VALUES, GRAPHS))
def test_import_json_raises_only_ggraph_errors(data):
    only_ggraph_errors(import_json, data)


def doubled_path():
    """0 = 1 - 2: a double edge, so edge maps cannot be inferred."""
    g = Multigraph()
    for _ in range(3):
        g.add_vertex()
    g.add_edge(0, 1)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    return g


ROWS = st.lists(st.permutations(range(3)) | st.lists(INTS, max_size=4), max_size=3)
EDGE_ROWS = st.lists(st.none() | st.permutations(range(3)) | st.lists(INTS, max_size=4), max_size=3)
WITNESSES = st.fixed_dictionaries(
    {"H_generators": ROWS | VALUES, "C": st.lists(INTS, max_size=3) | VALUES},
    optional={"H_generator_edge_maps": EDGE_ROWS | VALUES},
)


@SETTINGS
@given(st.one_of(VALUES, WITNESSES))
def test_witness_from_json_raises_only_ggraph_errors(data):
    g = doubled_path()
    only_ggraph_errors(lambda d: witness_from_json(g, d), data)


CERTIFICATES = st.fixed_dictionaries(
    {"n": INTS, "tau": st.permutations(range(1, 5)) | st.lists(INTS, max_size=5) | VALUES},
    optional={"cycles": st.text(alphabet="()1234, ", max_size=12) | VALUES, "canonical": VALUES},
)


@SETTINGS
@given(st.one_of(VALUES, CERTIFICATES))
def test_certificate_from_json_raises_only_ggraph_errors(data):
    try:
        TauCertificate.from_json(data)
    except GGraphError:
        pass


OBSTRUCTIONS = st.fixed_dictionaries(
    {"n": INTS, "kind": st.sampled_from(sorted(OBSTRUCTION_KINDS)) | VALUES}
)


@SETTINGS
@given(st.one_of(VALUES, OBSTRUCTIONS))
def test_obstruction_from_json_raises_only_ggraph_errors(data):
    try:
        Obstruction.from_json(data)
    except GGraphError:
        pass


def test_infinite_numbers_are_parse_errors():
    for text in (
        '{"vertices": [{"id": 1e999}]}',
        '{"vertices": [{"id": 0, "part": 1e999}]}',
        '{"vertices": [{"id": 0}], "edges": [{"u": 0, "v": -1e999}]}',
        '{"vertices": [{"id": 0}], "edges": [{"id": 1e999, "u": 0, "v": 0}]}',
        # an integer literal longer than int() converts
        '{"vertices": [{"id": 1%s}]}' % ("0" * 5000),
    ):
        with pytest.raises(ParseError):
            import_json(text)
    g = doubled_path()
    for text in (
        '{"H_generators": [[0, 1, 2]], "C": [1e999]}',
        '{"H_generators": [[0, 1, 1e999]], "C": [0]}',
        '{"H_generators": [[0, 1, 2]], "C": [0], "H_generator_edge_maps": [[0, 1, 1e999]]}',
        '{"H_generators": [[0, 1, 2]], "C": [1%s]}' % ("0" * 5000),
    ):
        with pytest.raises(ParseError):
            witness_from_json(g, text)
    for data in ({"n": float("inf"), "tau": [1]}, {"n": 1, "tau": [float("inf")]}):
        with pytest.raises(ParseError):
            TauCertificate.from_json(data)
    with pytest.raises(ParseError):
        Obstruction.from_json({"n": float("-inf"), "kind": "Mod4"})
