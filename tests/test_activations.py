import numpy as np
import pytest

from csgnn.activations import leaky_relu

TINY = np.finfo(float).tiny           # smallest normal
SUB = np.nextafter(0.0, 1.0)          # smallest subnormal


@pytest.mark.parametrize("slope", [1.0, 0.5, 0.1, 1e-3, TINY, SUB])
def test_leaky_relu_bits_equal_where_form(slope):
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, SUB, -SUB, 3 * SUB, -3 * SUB,
               TINY, -TINY, 1e-310, -1e-310, 1.0, -1.0, np.finfo(float).max, -np.finfo(float).max]
    rng = np.random.default_rng(0)
    x = np.concatenate([special, rng.standard_normal(200) * 10.0 ** rng.integers(-320, 300, 200)])
    where = np.where(x > 0, x, slope * x)
    got = leaky_relu(x, slope)
    assert np.array_equal(got.view(np.uint64), where.view(np.uint64))
    matrix = x[:196].reshape(14, 14)
    assert np.array_equal(leaky_relu(matrix, slope).view(np.uint64),
                          np.where(matrix > 0, matrix, slope * matrix).view(np.uint64))
