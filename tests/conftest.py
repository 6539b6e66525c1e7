"""Shared pytest fixtures."""

import time
from fractions import Fraction

import numpy as np
import pytest

from gtkit import errors

# every way a library caller may write the rational 1
ONES = (1, Fraction(1), np.int64(1), np.uint8(1), "1", "10e-1", "3/3")
# a float or a bool equal to 1 would be read as 1: each is refused, not rounded
NOT_RATIONALS = (1.0, np.float64(1.0), True, np.True_, None, "1.0x")


def _check_exact_rational_reader(read):
    """read(v) for every way of writing 1 equals read(1); every non-rational,
    and a literal past the digit bound, is refused at once."""
    want = read(1)
    for one in ONES:
        assert read(one) == want
    for bad in NOT_RATIONALS:
        with pytest.raises(errors.InvalidArgument):
            read(bad)
    start = time.perf_counter()  # refused on its exponent, before 10**2000000 is built
    with pytest.raises(errors.SizeLimit, match="exceeds 1000 digits"):
        read("1e2000000")
    assert time.perf_counter() - start < 0.2


@pytest.fixture
def check_exact_rational_reader():
    """The check that a one-rational reader takes exact rationals only."""
    return _check_exact_rational_reader
