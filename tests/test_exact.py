"""Exact column sums: bitwise equal to ``math.fsum`` over each column."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedreplay.exact
import fedreplay.federation
from fedreplay.config import ExperimentConfig
from fedreplay.exact import fsum_columns
from fedreplay.runner import run_experiment


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


# --- adversarial columns, compared with math.fsum byte for byte --------------

_ULP1 = 2.0**-52  # spacing of the floats in [1, 2)


def _signs(rng, n):
    return rng.choice([-1.0, 1.0], n)


def _col_tie(rng, n):
    """Powers of two near 2**e and small multiples of their half-ulp: sums land on midpoints."""
    e0 = int(rng.integers(-960, 960))
    big = _signs(rng, n) * np.ldexp(1.0 + rng.integers(0, 4, n) * _ULP1, e0 + rng.integers(-2, 3, n))
    small = _signs(rng, n) * np.ldexp(rng.integers(1, 9, n).astype(float), e0 - rng.integers(52, 56, n))
    return np.where(rng.random(n) < rng.random(), big, small)


def _col_unit_tie(rng, n):
    """1.0 plus +-k * 2**-53, the textbook midpoint."""
    col = _signs(rng, n) * rng.integers(1, 6, n) * 2.0**-53
    col[: max(1, n // 3)] = 1.0
    return col


def _col_subnormal(rng, n):
    k = rng.integers(1, 2**52, n).astype(float)
    tiny = _signs(rng, n) * np.ldexp(k, -1074)
    return np.where(rng.random(n) < 0.8, tiny, _signs(rng, n) * 2.0**-1022)


def _col_zero(rng, n):
    return rng.choice([0.0, -0.0], n)


def _spread(rng, n, lo, hi):
    mant = rng.integers(2**52, 2**53, n).astype(float) * _ULP1
    return _signs(rng, n) * np.ldexp(mant, rng.integers(lo, hi + 1, n))


def _col_cancel(rng, n):
    """Values and their negations, so the sum is a small remainder of large terms."""
    h = n // 2
    e0 = int(rng.integers(-900, 900))
    v = _spread(rng, h, e0 - 30, e0)
    rest = _spread(rng, n - 2 * h, e0 - 110, e0 - 50)
    col = np.concatenate([v, -v[rng.permutation(h)] * (1.0 + rng.integers(-1, 2, h) * _ULP1), rest])
    return col[rng.permutation(n)]


def _col_range(rng, n):
    """Exponents anywhere from -1074 to 1000."""
    return _spread(rng, n, -1074, 1000)


def _col_sparse(rng, n):
    """Mostly zero, as ReLU gradient columns are."""
    return np.where(rng.random(n) < 0.7, 0.0, rng.normal(size=n) * 10.0 ** rng.integers(-3, 3))


def _col_normal(rng, n):
    return rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, n)


def _col_near_max(rng, n):
    return _signs(rng, n) * np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(1016, 1024, n))


def _col_near_max_cancel(rng, n):
    """Large terms first, their negations after: a running sum overflows, pairwise sums need not."""
    h = n // 2
    v = np.ldexp(rng.uniform(1.0, 2.0, h), 1023)
    return np.concatenate([v, -v, rng.normal(size=n - 2 * h)])


def _with(value):
    def col(rng, n):
        c = _col_normal(rng, n)
        c[rng.integers(0, n)] = value
        return c

    return col


def _col_inf_minus_inf(rng, n):
    c = _col_normal(rng, n)
    c[rng.choice(n, 2, replace=False)] = [math.inf, -math.inf]
    return c


FINITE_KINDS = {
    "tie": _col_tie,
    "unit_tie": _col_unit_tie,
    "subnormal": _col_subnormal,
    "zero": _col_zero,
    "cancel": _col_cancel,
    "range": _col_range,
    "sparse": _col_sparse,
    "normal": _col_normal,
}

SPECIAL_KINDS = {
    "near_max": _col_near_max,
    "near_max_cancel": _col_near_max_cancel,
    "inf": _with(math.inf),
    "-inf": _with(-math.inf),
    "nan": _with(math.nan),
}

_ROWS = st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 20, 21, 33])
# Widths 1-160, all on the array path: narrow inputs and gradient-sized ones.
_COLS = st.one_of(st.integers(1, 79), st.integers(80, 160))


def _matrix(rows, cols, kinds, seed):
    rng = np.random.default_rng(seed)
    x = np.zeros((rows, cols))
    if rows:
        for j in range(cols):
            x[:, j] = kinds[j % len(kinds)](rng, rows)
    return x


def _per_column_fsum(x):
    """The reference: ``math.fsum`` column by column, or the type it raises first."""
    try:
        return np.array([math.fsum(col) for col in x.T.tolist()], dtype=np.float64)
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _assert_same_as_fsum(x):
    want = _per_column_fsum(x)
    if isinstance(want, type):
        with pytest.raises(want) as info:
            fsum_columns(x)
        assert type(info.value) is want
        return
    got = fsum_columns(x)
    assert got.dtype == np.float64 and got.shape == want.shape
    # Bytes, so -0.0 against 0.0 and NaN payloads count as differences.
    assert got.tobytes() == want.tobytes()


@given(
    _ROWS,
    _COLS,
    st.lists(st.sampled_from(sorted(FINITE_KINDS)), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_adversarial_columns_bitwise_equal_fsum(rows, cols, kinds, seed):
    x = _matrix(rows, cols, [FINITE_KINDS[k] for k in kinds], seed)
    _assert_same_as_fsum(x)
    # The same columns in another row order give the same bytes.
    _assert_same_as_fsum(x[::-1])


@given(
    st.sampled_from([1, 2, 3, 5, 8, 17]),
    _COLS,
    st.lists(st.sampled_from(sorted(SPECIAL_KINDS) + ["normal", "tie"]), min_size=1, max_size=4),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_overflow_inf_and_nan_match_fsum(rows, cols, kinds, inf_minus_inf, seed):
    kinds = [SPECIAL_KINDS.get(k) or FINITE_KINDS[k] for k in kinds]
    if inf_minus_inf and rows >= 2:
        kinds.append(_col_inf_minus_inf)
    _assert_same_as_fsum(_matrix(rows, cols, kinds, seed))


@pytest.mark.parametrize(
    "column",
    [
        [1e308, 1e308, -1e308],
        [1e308, -1e308, 1e308],
        [1e308, 1e308, -1e308, -1e308],
        [math.inf, 1e308, 1e308],
        [math.inf, -math.inf],
        [-math.inf, -math.inf, 1.0],
        [math.nan, 1.0],
        [-0.0],
        [-0.0, -0.0, -0.0],
        [1.0, 2.0**-53],
        [1.0, 2.0**-53, 2.0**-53, -(2.0**-53)],
        [1.0 + 2.0**-52, 2.0**-53],
        [2.0**-1074, -(2.0**-1074), 2.0**-1074],
        [1.0, -1.0, 2.0**-1074],
    ],
)
@pytest.mark.parametrize("width", [1, 200])
def test_special_columns_match_fsum(column, width):
    x = np.tile(np.array(column)[:, None], (1, width))
    if width > 1:
        x[:, 0] = 1.0  # an ordinary column in front of the special ones
    _assert_same_as_fsum(x)


def test_federation_means_rarely_fall_back_to_fsum(monkeypatch):
    """Real client and class means pass the gate: a gate that silently sends
    every column to ``math.fsum`` keeps the bits and loses the speed."""
    stacks = []

    def capture(x):
        stacks.append(x.copy())
        return fsum_columns(x)

    monkeypatch.setattr(fedreplay.federation, "fsum_columns", capture)
    # The class_weighted case of test_golden with four clients: 4 -> 8 -> 6, so 94 parameter columns.
    run_experiment(
        ExperimentConfig(
            clients=4, tasks=3, batch_size=3, test_split=0.2, seed=0, classes=6, samples_per_class=30,
            dim=4, center_spread=2.0, cluster_sigma=1.0, memory_capacity=16, memory_policy="bottom_k",
            uncertainty_metric="bi", perturbation_count=3, burn_in=1, q=2, hidden_dims=(8,), learning_rate=0.5,
            aggregation="class_weighted",
        )
    )
    calls = []
    counting = SimpleNamespace(fsum=lambda col: calls.append(None) or math.fsum(col))
    monkeypatch.setattr(fedreplay.exact, "math", counting)
    columns = 0
    for x in stacks:
        fsum_columns(x)
        columns += x.shape[1]
    assert max(len(x) for x in stacks) > 2 and len(calls) < 0.1 * columns


def test_nonzero_second_order_errors_go_to_fsum(monkeypatch):
    """A column whose second-order TwoSum errors are not all zero is summed by ``math.fsum``."""
    column = [
        502395063505.4828, 1.269293741088596e16, 7.215857914057838e-10, -1.2249459186113696e-07, -30848128839129.45,
    ]
    calls = []
    monkeypatch.setattr(fedreplay.exact, "math", SimpleNamespace(fsum=lambda col: calls.append(col) or math.fsum(col)))
    got = fsum_columns(np.array(column)[:, None])
    assert got.tobytes() == np.array([math.fsum(column)]).tobytes()
    assert calls == [column]
