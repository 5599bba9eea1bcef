"""Feature parsing: numpy's ``loadtxt`` fast path and the line loop agree."""

import warnings
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
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
    with mock.patch.object(data, "_parse_feature_rows", side_effect=AssertionError("fell back")):
        fast = outcome(path)
    assert fast == loop_outcome(path)


@SETTINGS
@given(st.text(alphabet="0123456789.,-+eE_ \t\x0b\x0c\x1c\x1f\x85 ١#xnaif\r\n", max_size=40))
def test_any_feature_file_gives_the_loops_array_or_error(tmp_path, text):
    path = tmp_path / "x.features"
    path.write_bytes(text.encode())
    assert outcome(path) == loop_outcome(path)


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
