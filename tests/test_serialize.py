import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from pptedge.bipartite import BipartiteOperator
from pptedge.exceptions import MatrixFileError
from pptedge.serialize import (
    dumps_canonical,
    matrix_payload,
    parse_matrix_payload,
    read_matrix_file,
    write_matrix_file,
)


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(31)
    op = BipartiteOperator(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)), 3, 3)
    path = tmp_path / "op.json"
    write_matrix_file(path, op, {"name": "random"})
    back, meta = read_matrix_file(path)
    assert np.array_equal(back.matrix, op.matrix)
    assert (back.dim_a, back.dim_b) == (3, 3)
    assert meta == {"name": "random"}


def test_round_trip_unequal_dims(tmp_path):
    rng = np.random.default_rng(32)
    op = BipartiteOperator(helpers.random_hermitian(rng, 6), 2, 3)
    path = tmp_path / "op23.json"
    write_matrix_file(path, op)
    back, meta = read_matrix_file(path)
    assert np.array_equal(back.matrix, op.matrix)
    assert (back.dim_a, back.dim_b) == (2, 3)
    assert meta == {}


def test_canonical_serialization_is_deterministic():
    op = BipartiteOperator(np.eye(4), 2, 2)
    a = dumps_canonical(matrix_payload(op, {"b": 1, "a": 2}))
    b = dumps_canonical(matrix_payload(op, {"a": 2, "b": 1}))
    assert a == b
    assert a.endswith("\n")


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {"dims": [3, 3]},
        {"dims": [3], "matrix": []},
        {"dims": [3, "3"], "matrix": []},
        {"dims": [2, 2], "matrix": [[[1, 0]] * 4] * 3},
        {"dims": [2, 2], "matrix": [[[1, 0]] * 3] * 4},
        {"dims": [2, 2], "matrix": [[[1, 0, 0]] * 4] * 4},
        {"dims": [2, 2], "matrix": [[[1]] * 4] * 4},
        {"dims": [2, 2], "matrix": [[["x", 0]] * 4] * 4},
        {"dims": [2, 2], "matrix": [[[1, 0]] * 4] * 4, "metadata": 7},
        {"dims": [True, 4], "matrix": [[[1, 0]] * 4] * 4},
        {"dims": [2, 2], "matrix": [[[True, False]] * 4] * 4},
        {"dims": [2, 2], "matrix": [[[10**400, 0]] * 4] * 4},
    ],
)
def test_malformed_payloads_rejected(payload):
    with pytest.raises(MatrixFileError):
        parse_matrix_payload(payload)


def test_non_finite_entries_rejected():
    payload = {"dims": [2, 2], "matrix": [[[1.0, 0.0]] * 4] * 4}
    payload["matrix"][0][0] = [float("nan"), 0.0]
    with pytest.raises(MatrixFileError):
        parse_matrix_payload(payload)


def test_unreadable_and_invalid_files(tmp_path):
    with pytest.raises(MatrixFileError):
        read_matrix_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MatrixFileError):
        read_matrix_file(bad)


# JSON scalars, with integers beyond float range, and arbitrary JSON values built from them
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.floats()
    | st.text(max_size=3)
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _shaped_payloads(draw):
    """Payloads of the right shape for small dims whose dims and entries are arbitrary JSON scalars."""
    dim_a, dim_b = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    d = dim_a * dim_b
    entry = st.lists(_SCALARS, min_size=2, max_size=2)
    payload = {
        "dims": [draw(st.just(dim_a) | _SCALARS), draw(st.just(dim_b) | _SCALARS)],
        "matrix": draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)),
    }
    if draw(st.booleans()):
        payload["metadata"] = draw(_JSON)
    return payload


@settings(max_examples=300, deadline=None)
@given(st.one_of(_JSON, _shaped_payloads()))
def test_any_json_value_parses_or_raises_matrix_file_error(payload):
    try:
        op, metadata = parse_matrix_payload(payload)
    except MatrixFileError:
        return
    # an accepted payload holds JSON integers as dims and finite JSON numbers as entries, decoded as written
    assert all(type(d) is int for d in payload["dims"]) and [op.dim_a, op.dim_b] == payload["dims"]
    for row, decoded in zip(payload["matrix"], op.matrix):
        for pair, z in zip(row, decoded):
            assert all(type(x) in (int, float) for x in pair)
            assert z == complex(*pair) and np.isfinite(z)
    assert metadata == payload.get("metadata", {})
