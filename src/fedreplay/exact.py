"""Exactly rounded reductions over arrays.

Reductions that must not depend on the order of their terms (gradient
sums over a batch, client and class averages, means over perturbed
copies) go through here, so the summation algorithm lives in one place.
"""

from __future__ import annotations

import math

import numpy as np

# Columns turned into Python lists at a time: bounds the extra memory of
# ``tolist`` to a block instead of a copy of the whole matrix.
_BLOCK_COLUMNS = 64


def fsum_columns(x: np.ndarray) -> np.ndarray:
    """Exactly rounded sum of each column of the 2-D array ``x``.

    Like ``math.fsum``, raises ``OverflowError`` when a column's partial
    sums leave the float range.
    """
    cols = x.shape[1]
    out = np.empty(cols)
    for j in range(0, cols, _BLOCK_COLUMNS):
        block = x[:, j : j + _BLOCK_COLUMNS].T.tolist()
        out[j : j + len(block)] = [math.fsum(col) for col in block]
    return out
