"""Exactly rounded column sums, for the client and class means of ``federation``.

Those means must not depend on client or class order, and ``class_weighted``
over identical class reports must equal ``fedavg`` bit for bit, so they are
exactly rounded. (``model`` sums the training gradient in a canonical row
order instead, which is order-free but not exactly rounded.)

``fsum_columns`` returns, column for column, the bits of ``math.fsum``. Its
array path rests on TwoSum, as ``math.fsum`` does (Shewchuk 1997; Rump,
Ogita and Oishi 2008): a pairwise tree of TwoSums over all columns at once
gives each column's rounded sum s and its n - 1 exact errors; the same tree
over the errors gives their sum t and n - 2 second-order errors. A column
keeps fl(s + t) when those are all zero, as s + t is then its exact sum, and
when its n entries are at most 2**1000 / n in magnitude, so nothing
overflows. Every other column goes to ``math.fsum``, whose ``OverflowError``
and ``ValueError`` (inf - inf) it keeps.
"""

from __future__ import annotations

import math

import numpy as np

# A column whose n entries are at most this / n in magnitude has no
# partial sum, and no TwoSum intermediate, beyond the float range.
_SAFE_COLUMN_TOTAL = 2.0**1000


def _two_sum_tree(w: np.ndarray, tmp: np.ndarray) -> None:
    """Add the rows of ``w`` in place by a pairwise tree of TwoSums.

    Afterwards ``w[-1]`` holds the rounded column sums and ``w[:-1]`` the
    rounding errors of every node; the exact column sums of ``w`` are
    unchanged. ``tmp`` is scratch of at least ``2 * (len(w) // 2)`` rows.
    """
    lo, k = 0, w.shape[0]
    while k > 1:
        h = k // 2
        a, b = w[lo : lo + h], w[lo + h : lo + 2 * h]
        s, bb = tmp[:h], tmp[h : 2 * h]
        np.add(a, b, out=s)
        np.subtract(s, a, out=bb)
        b -= bb  # b - bb
        np.subtract(s, bb, out=bb)
        a -= bb  # a - (s - bb)
        a += b  # the error e, kept in a's row
        b[...] = s
        # An odd row out stays last; the sums and it form the next level.
        lo += h
        k -= h


def fsum_columns(x: np.ndarray) -> np.ndarray:
    """Exactly rounded sum of each column of the 2-D array ``x``.

    Bitwise equal to ``math.fsum`` over each column, including its
    ``OverflowError`` when a column's partial sums leave the float range.
    """
    x = np.asarray(x, dtype=np.float64)
    n, m = x.shape
    if n == 0:
        return np.zeros(m)

    safe = np.abs(x).max(axis=0) <= _SAFE_COLUMN_TOTAL / n  # False for inf and NaN
    w = np.where(safe, x, 0.0)  # a copy, added up in place
    tmp = np.empty((2 * (n // 2), m))
    _two_sum_tree(w, tmp)  # w[-1] = s, w[:-1] = errors
    _two_sum_tree(w[:-1], tmp)  # w[-2] = t, w[:-2] = second-order errors
    s, t, e2 = w[-1], (w[-2] if n > 1 else 0.0), w[:-2]
    # A TwoSum error is never -0.0, so neither is t, and an exact zero
    # comes out +0.0 as in math.fsum.
    r = s + t
    slow = np.flatnonzero(e2.any(axis=0) | ~safe)
    if slow.size:
        r[slow] = [math.fsum(col) for col in x[:, slow].T.tolist()]
    return r
