import json

import numpy as np
import pytest

from shoda import AlgebraSpec
from shoda.sampling import random_aj, random_b, random_element
from shoda.serialize import (
    aj_to_json,
    b_to_json,
    dumps,
    element_from_json,
    element_to_json,
    flat_to_matrix,
    matrix_to_flat,
    spec_from_json,
    spec_to_json,
)


def test_spec_round_trip():
    spec = AlgebraSpec((2, 3))
    data = spec_to_json(spec)
    assert data == {"blocks": [2, 3]}
    assert spec_from_json(json.loads(json.dumps(data))) == spec


def test_matrix_encoding_is_flat_row_major():
    m = np.array([[1 + 2j, 3], [4, 5 - 1j]])
    flat = matrix_to_flat(m)
    assert flat == [[1.0, 2.0], [3.0, 0.0], [4.0, 0.0], [5.0, -1.0]]
    assert np.array_equal(flat_to_matrix(flat, 2, 2), m)
    # every value keeps its bits, the sign of zero included
    signed_zero = np.array([[complex(-0.0, -0.0)]])
    assert flat_to_matrix(matrix_to_flat(signed_zero), 1, 1).tobytes() == signed_zero.tobytes()


def test_element_round_trip(spec23, rng):
    x = random_element(spec23, rng)
    back = element_from_json(spec23, json.loads(json.dumps(element_to_json(x))))
    assert all(np.array_equal(a, b) for a, b in zip(back.blocks, x.blocks))


def test_aj_round_trip_uses_one_based_keys(spec23, rng):
    u = random_aj(spec23, rng)
    data = json.loads(json.dumps(aj_to_json(u)))
    assert set(data["terms"]) == {"1,2", "2,1"}
    for (i, j), m in u.terms.items():
        assert np.array_equal(flat_to_matrix(data["terms"][f"{i + 1},{j + 1}"], *m.shape), m)


def test_dumps_is_deterministic(spec23, rng):
    x = random_b(spec23, rng)
    assert dumps(b_to_json(x)) == dumps(b_to_json(x))


def test_parse_errors_are_value_errors(spec23):
    with pytest.raises(ValueError):
        spec_from_json({"wrong": 1})
    with pytest.raises(ValueError):
        element_from_json(spec23, {"blocks": [[[1, 0]]]})
    with pytest.raises(ValueError):
        flat_to_matrix([[1, 0]], 2, 2)


@pytest.mark.parametrize("blocks", [[2.7, 1], [True, 2], "22", [[2]], [None]])
def test_spec_rejects_non_integer_block_sizes(blocks):
    with pytest.raises(ValueError):
        spec_from_json({"blocks": blocks})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_matrix_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError):
        flat_to_matrix([[1.0, 0.0], [0.0, bad], [0.0, 0.0], [1.0, 0.0]], 2, 2)
    with pytest.raises(ValueError):
        flat_to_matrix([[bad, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], 2, 2)


@pytest.mark.parametrize(
    "flat",
    [
        [["1", "0"], [0, 0], [0, 0], [1, 0]],
        [[True, False], [0, 0], [0, 0], [1, 0]],
        [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [True, 0.0]],
        [[1, 0], [0, 0], [0, 0], [1, False]],
    ],
)
def test_matrix_rejects_strings_and_booleans(flat):
    # numpy would read each of these as a number
    np.array(flat, dtype=float)
    with pytest.raises(ValueError, match="must be numbers"):
        flat_to_matrix(flat, 2, 2)
