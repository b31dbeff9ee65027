"""Exact column sums: bitwise equal to ``math.fsum`` over each column."""

import math

import numpy as np

from fedreplay.exact import fsum_columns


def test_matches_fsum_per_column_where_plain_sums_round():
    x = np.array(
        [
            [1e16, 0.1, 1e300, 5e-324],
            [1.0, 0.2, 1.0, 5e-324],
            [-1e16, 0.3, -1e300, -5e-324],
        ]
    )
    out = fsum_columns(x)
    assert out.dtype == np.float64 and out.shape == (4,)
    assert list(out) == [math.fsum(x[:, j]) for j in range(4)]
    assert out[0] == 1.0 and out[2] == 1.0 and out[3] == 5e-324


def test_order_invariant_bitwise():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(9, 5)) * np.logspace(-8, 8, 9)[:, None]
    base = fsum_columns(x)
    for _ in range(10):
        assert np.array_equal(fsum_columns(x[rng.permutation(9)]), base)
