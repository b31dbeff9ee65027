"""Exactly rounded reductions over arrays.

Column sums that must not depend on the order of their terms (gradient
sums over a batch, client and class averages) go through here, so the
summation algorithm lives in one place.

``fsum_columns`` returns, column for column, the bits of ``math.fsum``:
the sum rounded once, to nearest with ties to even, and ``+0.0`` for an
exact zero. It takes an array path built on TwoSum, the error-free
transformation that ``math.fsum`` also rests on (Shewchuk 1997; Rump,
Ogita and Oishi 2008):

- The rows are added pairwise in a tree of TwoSums over all columns at
  once. Every node turns a, b into s = fl(a + b) and e = (a + b) - s
  exactly, so the column sum equals the root s plus the n - 1 errors.
- The errors are added by the same tree, giving their rounded sum t and
  n - 2 second-order errors e2. The exact sum is s + t + sum(e2).
- A column keeps r = fl(s + t) when every e2 is zero: then s + t is the
  exact sum and one addition rounds it correctly.
- The path runs only on columns whose n entries are at most 2**1000 / n
  in magnitude, where no partial sum can overflow, neither here nor in
  ``math.fsum``.

Every other column goes to ``math.fsum``: those with a nonzero e2, and
those with inf, NaN or larger entries (so ``OverflowError`` on an
intermediate overflow, ``ValueError`` on inf - inf and NaN results are
``math.fsum``'s own).
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
    # One block for the rows and the scratch: as separate arrays they were
    # handed back to the OS and faulted in afresh on every call.
    work = np.empty((n + 2 * (n // 2), m))
    w, tmp = work[:n], work[n:]
    np.copyto(w, x if safe.all() else np.where(safe, x, 0.0))
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
