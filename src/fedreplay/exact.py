"""Exactly rounded reductions over arrays.

Reductions that must not depend on the order of their terms (gradient
sums over a batch, client and class averages, means over perturbed
copies) go through here, so the summation algorithm lives in one place.
"""

from __future__ import annotations

import math

import numpy as np


def fsum_columns(x: np.ndarray) -> np.ndarray:
    """Exactly rounded sum of each column of the 2-D array ``x``."""
    cols = x.shape[1]
    return np.fromiter((math.fsum(x[:, j]) for j in range(cols)), dtype=np.float64, count=cols)
