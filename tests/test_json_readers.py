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
from ggraphs.multigraph import Multigraph, export_json, import_json
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
# often a number that int() refuses, and often a small float, integral
# (accepted) or fractional (refused, never truncated)
INTS = st.integers(-1, 4) | NON_FINITE | st.integers(-2, 9).map(lambda k: k / 2) | VALUES


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


def triangle():
    g = Multigraph()
    for _ in range(3):
        g.add_vertex()
    for u, v in ((0, 1), (1, 2), (2, 0)):
        g.add_edge(u, v)
    return g


@pytest.mark.parametrize(
    "read,data",
    [
        (TauCertificate.from_json, {"n": 5.7, "tau": [1, 3, 2, 5, 4]}),
        (TauCertificate.from_json, {"n": 5, "tau": [1, 3, 2, 5, 4.2]}),
        (TauCertificate.from_json, {"n": True, "tau": [1]}),
        (TauCertificate.from_json, {"n": 2, "tau": "21"}),
        (Obstruction.from_json, {"n": 6.5, "kind": "Mod6"}),
        (Obstruction.from_json, {"n": "6", "kind": "Mod6"}),
        (lambda d: witness_from_json(triangle(), d), {"H_generators": [[1.5, 2, 0]], "C": [0]}),
        (lambda d: witness_from_json(triangle(), d), {"H_generators": [[1, 2, 0]], "C": [0.9]}),
        (import_json, {"vertices": [{"id": 0.5}]}),
        (import_json, {"vertices": [{"id": True}]}),
        (import_json, {"vertices": [{"id": "7"}]}),
        (import_json, {"vertices": [{"id": 0, "part": 0.5}]}),
        (import_json, {"vertices": [{"id": 0}], "edges": [{"id": 0.5, "u": 0, "v": 0}]}),
        (import_json, {"vertices": [{"id": 0}, {"id": 1}], "edges": [{"u": 0, "v": 0.5}]}),
        (TauCertificate.from_json, {"n": 3, "tau": [1, 3, 2], "canonical": "false"}),
        (TauCertificate.from_json, {"n": 3, "tau": [1, 3, 2], "canonical": 0}),
        (TauCertificate.from_json, {"n": 3, "tau": [1, 3, 2], "canonical": 1}),
    ],
)
def test_fractional_bool_and_string_numbers_are_parse_errors(read, data):
    with pytest.raises(ParseError):
        read(data)
    with pytest.raises(ParseError):
        read(json.dumps(data))


def test_integral_floats_read_as_integers():
    cert = TauCertificate.from_json({"n": 5.0, "tau": [1.0, 3, 2, 5, 4e0]})
    assert cert == TauCertificate.from_json({"n": 5, "tau": [1, 3, 2, 5, 4]})
    assert Obstruction.from_json({"n": 6.0, "kind": "Mod6"}).n == 6
    w = witness_from_json(triangle(), {"H_generators": [[1.0, 2, 0]], "C": [0.0]})
    assert w.C == [0] and len(w.H) == 3
    g = import_json(
        {"vertices": [{"id": 2.0}, {"id": 1e1, "part": 1.0}], "edges": [{"id": 3.0, "u": 1e1, "v": 2}]}
    )
    assert export_json(g) == export_json(
        import_json({"vertices": [{"id": 2}, {"id": 10, "part": 1}], "edges": [{"u": 10, "v": 2}]})
    )


@SETTINGS
@given(CERTIFICATES)
def test_certificate_reads_numbers_exactly(data):
    """A certificate that reads back has exactly the numbers of its JSON."""
    try:
        cert = TauCertificate.from_json(data)
    except GGraphError:
        return
    assert cert.n == data["n"]
    assert list(cert.tau.img) == list(data["tau"])


@SETTINGS
@given(WITNESSES)
def test_witness_reads_c_exactly(data):
    """A witness that reads back has exactly the C of its JSON."""
    try:
        w = witness_from_json(doubled_path(), data)
    except GGraphError:
        return
    assert w.C == list(data["C"])


@pytest.mark.parametrize(
    "data, message",
    [
        ({"edges": []}, "graph JSON needs a 'vertices' array"),
        ({"vertices": {"id": 0}}, "graph JSON needs a 'vertices' array"),
        ({"vertices": "01"}, "graph JSON needs a 'vertices' array"),
        ({"vertices": [{"id": 0}], "edges": 5}, "graph JSON 'edges' must be an array"),
        ({"vertices": [{"id": 0}], "edges": None}, "graph JSON 'edges' must be an array"),
        ({"vertices": [{"id": 0}], "edges": {"u": 0, "v": 0}},
         "graph JSON 'edges' must be an array"),
        ({"vertices": [{"id": 0}], "edges": [{"u": 0}]}, "edge entries need 'u' and 'v'"),
        ({"vertices": [{"id": 0}], "edges": [{"v": 0}]}, "edge entries need 'u' and 'v'"),
        ({"vertices": [{"id": 0}], "edges": [{"u": 0, "v": 1}]}, "edge references unknown vertex"),
    ],
)
def test_import_json_names_the_key_at_fault(data, message):
    for form in (data, json.dumps(data)):
        with pytest.raises(ParseError) as info:
            import_json(form)
        assert str(info.value) == message
