import numpy as np
import pytest

from markovsim.bits import bits_to_ints, ints_to_bits


def test_fixed_width_fields_round_trip():
    values = np.array([[0, 5, 7], [1, 2, 6]])
    bits = ints_to_bits(values, 3)
    assert bits[0].tolist() == [0, 0, 0, 1, 0, 1, 1, 1, 1]  # MSB first
    assert np.array_equal(bits_to_ints(bits, 3), values)


def test_fixed_width_fields_reject_bad_input():
    with pytest.raises(ValueError):
        ints_to_bits([8], 3)  # does not fit the width
    with pytest.raises(ValueError):
        ints_to_bits([-1], 3)
    with pytest.raises(ValueError):
        bits_to_ints(np.zeros(7, np.uint8), 3)  # not a multiple of the width
