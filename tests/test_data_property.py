"""Dataset parsing: numpy's ``loadtxt`` fast path and the line loop agree."""

import warnings
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from asgc import DatasetError, data  # noqa: E402

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def outcome(path):
    """(shape, bytes) of the parsed features, or the DatasetError message."""
    try:
        out = data._read_features(path)
    except DatasetError as exc:
        return str(exc)
    assert out.dtype == np.float64 and out.flags.c_contiguous
    return out.shape, out.tobytes()


def loop_outcome(path):
    with mock.patch.object(np, "loadtxt", side_effect=ValueError):
        return outcome(path)


exponents = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["", "-", "+"]),
    st.sampled_from(["1", "2.5", "9.999", ".5", "7.", "12345678901234567"]),
    st.sampled_from(["e", "E"]),
    st.integers(-330, 300).map(str),
)
fields = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    exponents,
)


@st.composite
def numeric_files(draw):
    """Well-formed rows, with padding, CRLF endings and blank lines mixed in."""
    width = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(fields, min_size=width, max_size=width), min_size=1, max_size=8))
    pad = st.sampled_from(["", " ", "\t"])
    lines = [",".join(draw(pad) + v + draw(pad) for v in row) for row in rows]
    lines = [line for row in lines for line in [row] + [""] * draw(st.integers(0, 1))]
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@SETTINGS
@given(numeric_files())
def test_loadtxt_parses_numeric_files_bit_equal_to_the_loop(tmp_path, text):
    path = tmp_path / "x.features"
    path.write_bytes(text.encode())
    with mock.patch.object(data, "_read_lines", side_effect=AssertionError("fell back")):
        fast = outcome(path)
    assert fast == loop_outcome(path)


@SETTINGS
@given(st.text(alphabet="0123456789.,-+eE_ \t\x0b\x0c\x1c\x1f\x85 ١#xnaif\r\n", max_size=40))
def test_any_feature_file_gives_the_loops_array_or_error(tmp_path, text):
    path = tmp_path / "x.features"
    path.write_bytes(text.encode())
    assert outcome(path) == loop_outcome(path)


@SETTINGS
@given(st.text(alphabet="a1 \t\r\n\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029", max_size=60))
@example("x" * 8191 + "\r\nb\r\n")  # a CRLF across the 8 KB and 64 KB read buffers' edges
@example("x" * 65535 + "\r\nb\r")
def test_read_lines_streams_the_lines_of_splitlines(tmp_path, text):
    path = tmp_path / "x.txt"
    path.write_text(text, newline="")
    want = [(i, line) for i, line in enumerate(text.splitlines(), start=1) if line.strip()]
    assert list(data._read_lines(path)) == want


@pytest.mark.parametrize(
    "text, want",
    [
        ("1,2\n3\n", r"x\.features:2: ragged feature row \(1 != 2\)"),
        ("1,2\nx,3\n", r"x\.features:2: unparseable"),
        ("# c\n1,2\n", r"x\.features:1: unparseable"),
        ("1\x1f,2\n", r"x\.features:1: unparseable"),
        ("1\x0c,2\n", r"x\.features:2: unparseable"),
        ("", "empty feature file"),
        ("\n\n", "empty feature file"),
        (" \n\t\n", "empty feature file"),
    ],
)
def test_rejected_feature_files_keep_the_loops_message(tmp_path, text, want):
    path = tmp_path / "x.features"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DatasetError, match=want):
            data._read_features(path)


@pytest.mark.parametrize(
    "text, want",
    [
        ("1,2\n   \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1_0,2\n", [[10.0, 2.0]]),
        ("1,2\x0b3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ],
)
def test_lines_loadtxt_rejects_still_parse_as_before(tmp_path, text, want):
    path = tmp_path / "x.features"
    path.write_bytes(text.encode())
    assert data._read_features(path).tolist() == want


WIDTH = {"edge": 2, "label": 1}


def table_outcome(path, what):
    """(shape, bytes) of an edge or label table, or the DatasetError message."""
    try:
        out = data._read_table(path, what, int, width=WIDTH[what])
    except DatasetError as exc:
        return str(exc)
    assert out.dtype == np.int64 and out.flags.c_contiguous and out.shape[1] == WIDTH[what]
    return out.shape, out.tobytes()


def table_loop_outcome(path, what):
    with mock.patch.object(np, "loadtxt", side_effect=ValueError):
        return table_outcome(path, what)


int64s = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "+", "-"]),
    st.sampled_from(["", "0", "000"]),
    st.one_of(st.integers(0, 99), st.integers(0, 2**63 - 1)).map(str),
)
# what the loop's int() and numpy's parser may read differently
int_like = st.one_of(
    int64s,
    st.integers(1000, 10**9).map("{:_}".format),
    st.integers(2**63, 10**25).map(str),
    st.integers(-(10**25), -(2**63) - 1).map(str),
    st.sampled_from(["-9223372036854775808", "1.0", "1e3", "0x1f", "١٢", "nan", "#1", "+-1"]),
)
SPACES = " \t\xa0\u3000"


@st.composite
def integer_files(draw, values=int64s, spaces=SPACES, ragged=False):
    """(kind, text): integer rows with padding, CRLF endings and blank lines mixed in."""
    what = draw(st.sampled_from(sorted(WIDTH)))
    gap = st.text(spaces, min_size=1, max_size=3)
    pad = st.text(spaces, max_size=2)
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        width = draw(st.integers(1, 3)) if ragged else WIDTH[what]
        row = draw(gap).join(draw(st.lists(values, min_size=width, max_size=width)))
        lines.append(draw(pad) + row + draw(pad))
        lines += [draw(pad) for _ in range(draw(st.integers(0, 1)))]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return what, end.join(lines) + draw(st.sampled_from(["", end]))


@SETTINGS
@given(integer_files())
def test_loadtxt_parses_integer_files_bit_equal_to_the_loop(tmp_path, case):
    what, text = case
    path = tmp_path / f"x.{what}s"
    path.write_bytes(text.encode())
    with mock.patch.object(data, "_read_lines", side_effect=AssertionError("fell back")):
        fast = table_outcome(path, what)
    assert fast == table_loop_outcome(path, what)


@SETTINGS
@given(integer_files(values=int_like, spaces=SPACES + "\x0b\x0c\x1c\x1d\x1e\x1f", ragged=True))
def test_any_integer_table_gives_the_loops_array_or_error(tmp_path, case):
    what, text = case
    path = tmp_path / f"x.{what}s"
    path.write_bytes(text.encode())
    assert table_outcome(path, what) == table_loop_outcome(path, what)


@SETTINGS
@given(
    st.sampled_from(sorted(WIDTH)),
    st.text(alphabet="0123456789+-_ \t\xa0\u3000\x0b\x0c\x1c\x1f\x85١.e#x\r\n", max_size=40),
)
def test_any_edge_or_label_file_gives_the_loops_array_or_error(tmp_path, what, text):
    path = tmp_path / f"x.{what}s"
    path.write_bytes(text.encode())
    assert table_outcome(path, what) == table_loop_outcome(path, what)


@pytest.mark.parametrize(
    "what, text, want",
    [
        ("edge", "0 1\n\n1 q\n", r"x\.edges:3: unparseable edge row$"),
        ("edge", "0 1\n1 2 3\n", r"x\.edges:2: ragged edge row \(3 != 2\)$"),
        ("edge", "0 1\n5\n", r"x\.edges:2: ragged edge row \(1 != 2\)$"),
        ("edge", "0 1\n99999999999999999999999 1\n", r"x\.edges:2: unparseable edge row$"),
        ("edge", "0 1\n1.0 2\n", r"x\.edges:2: unparseable edge row$"),
        ("label", "0\n1 1\n", r"x\.labels:2: ragged label row \(2 != 1\)$"),
        ("label", "0\n-9223372036854775809\n", r"x\.labels:2: unparseable label row$"),
        ("label", "# c\n0\n", r"x\.labels:1: unparseable label row$"),
    ],
)
def test_rejected_integer_files_name_the_line(tmp_path, what, text, want):
    path = tmp_path / f"x.{what}s"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DatasetError, match=want):
            data._read_table(path, what, int, width=WIDTH[what])


@pytest.mark.parametrize(
    "what, text, want",
    [
        ("edge", "", []),
        ("edge", " \n\t\n", []),
        ("edge", "1_0 2\n", [[10, 2]]),
        ("edge", "١ 2\n", [[1, 2]]),
        ("edge", "0 1\x0b2 3\n", [[0, 1], [2, 3]]),
        ("label", "\x1f3\x1f\n-9223372036854775808\n", [[3], [-(2**63)]]),
    ],
)
def test_integer_lines_loadtxt_rejects_still_parse(tmp_path, what, text, want):
    path = tmp_path / f"x.{what}s"
    path.write_bytes(text.encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = data._read_table(path, what, int, width=WIDTH[what])
    assert out.tolist() == want and out.shape[1] == WIDTH[what]
    assert not caught  # numpy's warning on an all-blank file stays inside the reader
