"""Stacked array code against the per-row loops it replaced.

The forward pass, the backward pass and the scorers work on whole blocks.
Each oracle below is the loop they replaced, one sample or one perturbed
copy at a time. Equality is exact (``==`` / ``array_equal``), not
approximate, except for the loss and the gradient: ``loss_and_grad`` adds
the rows' losses in sorted order and sums the gradient over the rows with
one matrix product per layer, so both are checked against the per-row
loop within a forward-error bound that the test computes from the same
loop run on absolute values. Scoring forwards the copies
of every row of a block in one call (``copy_logits``) and reduces each
row's (P, C) logits with ``score_sample``, the one scoring entry; both
are checked here against the per-copy loops and single-row forwards, and
the confidence scores ``score_sample`` dispatches to are checked on
probability sets with exact zeros and ties.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedreplay import uncertainty
from fedreplay.model import ModelConfig, ParameterVector, forward_logits, init_parameters, loss_and_grad
from fedreplay.stream import MiniBatch
from fedreplay.uncertainty import (
    PerturbationSpec,
    _lse_rows,
    copy_logits,
    perturb_features,
    score_sample,
    softmax_rows,
)

# --- oracles: the per-row loops --------------------------------------------


def _oracle_column_fsums(x):
    return np.array([math.fsum(x[:, j]) for j in range(x.shape[1])])


def _oracle_sample_loss_grad(layers, layout, x, y, magnitudes=False):
    acts = [x]
    pre = []
    a = x
    for w, b in layers[:-1]:
        z = a @ w + b
        pre.append(z)
        a = np.maximum(z, 0.0)
        acts.append(a)
    w_out, b_out = layers[-1]
    logits = a @ w_out + b_out

    m = logits.max()
    ex = np.exp(logits - m)
    se = float(ex.sum())
    loss = m + math.log(se) - logits[y]
    if magnitudes:
        loss = abs(m) + abs(math.log(se)) + abs(logits[y])

    dz = ex / se
    dz[y] -= 1.0

    weights = [w for w, _ in layers]
    if magnitudes:
        # The backward pass on |a|, |dz| and |W|, under the forward's ReLU masks.
        acts, dz, weights = [np.abs(a) for a in acts], np.abs(dz), [np.abs(w) for w in weights]
    grads = [None] * len(layers)
    grads[-1] = (np.outer(acts[-1], dz), dz)
    upstream = weights[-1] @ dz
    for li in range(len(layers) - 2, -1, -1):
        dz = upstream * (pre[li] > 0.0)
        grads[li] = (np.outer(acts[li], dz), dz)
        upstream = weights[li] @ dz

    flat = np.empty(sum(int(np.prod(shape)) for shape, _ in layout))
    for (dw, db), i in zip(grads, range(0, len(layout), 2)):
        (_, w_off), (_, b_off) = layout[i], layout[i + 1]
        flat[w_off : w_off + dw.size] = dw.ravel()
        flat[b_off : b_off + db.size] = db
    return loss, flat


def _oracle_loss_and_grad(params, feats, labels, magnitudes=False):
    layers = params.layer_views
    n = labels.size
    losses = np.empty(n)
    contribs = np.empty((n, params.values.size))
    for i in range(n):
        losses[i], contribs[i] = _oracle_sample_loss_grad(
            layers, params.layout, feats[i], int(labels[i]), magnitudes
        )
    grad = _oracle_column_fsums(contribs)
    grad /= n
    return math.fsum(losses) / n, grad


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u = 2**-53 (Higham 2002, section 3.1)."""
    ku = k * 2.0**-53
    return ku / (1.0 - ku)


def error_bounds(params, feats, labels):
    """``(loss bound, gradient bound)`` for ``loss_and_grad`` against the per-row oracle.

    The loss: in either computation each row's loss ``m + log(se) - z_y``
    lies within gamma_10 of its exact value, relative to
    |m| + |log(se)| + |z_y| (its log within 4 units in the last place, then
    two additions); ``loss_and_grad`` adds the n rows in sorted order (at
    most n - 1 roundings) where the oracle's ``math.fsum`` rounds once, and
    each divides by n. So the two losses lie within 2 gamma_(n + 16) of the
    same computation on |m|, |log(se)| and |z_y|, which the oracle runs on
    magnitudes.

    The gradient: a per-coordinate bound on how far ``loss_and_grad``'s
    gradient, or the per-row oracle's, lies from the exact gradient at the
    same output-layer error terms and ReLU masks (both computations share
    those bits).

    Each coordinate is a dot product over the n rows of an activation and an
    error term, which reached its layer through one dot product per layer
    above (as long as that layer's fan-out), and it is then divided by n. So
    it carries at most k = n + (fan-outs above the first layer) + 1
    roundings, and its error is at most gamma_k times the same computation
    on absolute values (Higham 2002, sections 3.1 and 3.5). That computation
    is the oracle run on magnitudes; as its terms are non-negative, its own
    rounding is at most a factor 1 / (1 - gamma_k).
    """
    n = labels.size
    k = n + sum(w.shape[1] for w, _ in params.layer_views[1:]) + 1
    loss_magnitude, magnitude = _oracle_loss_and_grad(params, feats, labels, magnitudes=True)
    g, gl = _gamma(k), _gamma(n + 16)
    return 2.0 * gl / (1.0 - gl) * loss_magnitude, g / (1.0 - g) * magnitude


def _oracle_stable_lse(a):
    m = float(a.max())
    return m + math.log(math.fsum(np.exp(a - m)))


def _oracle_bi(z):
    if np.all(z == z[0]):
        return 0.0
    p = z.shape[0]
    mean_lse = math.fsum(_oracle_stable_lse(row) for row in z) / p
    bi = mean_lse - _oracle_stable_lse(_oracle_column_fsums(z) / p)
    if -1e-12 <= bi < 0.0:
        return 0.0
    return bi


def _oracle_top_two(row):
    top2 = np.partition(row, -2)[-2:]
    return float(top2[1]), float(top2[0])


def _oracle_lc(p):
    return 1.0 - math.fsum(float(row.max()) for row in p) / p.shape[0]


def _oracle_rc(p):
    total = []
    for row in p:
        first, second = _oracle_top_two(row)
        total.append(second / first)
    return math.fsum(total) / p.shape[0]


def _oracle_en(p):
    rows = []
    for row in p:
        nz = row[row > 0.0]
        rows.append(-math.fsum(nz * np.log(nz)))
    return math.fsum(rows) / p.shape[0]


_ORACLE_SCORERS = {"lc": _oracle_lc, "rc": _oracle_rc, "en": _oracle_en}


def _oracle_perturb(x, spec):
    base = np.asarray(x, dtype=np.float64)
    if spec.kind == "gaussian":
        noise = spec.rng.normal(0.0, spec.sigma, size=(spec.count, base.size))
        return [base + noise[i] for i in range(spec.count)]
    k = int(round(spec.mask_fraction * base.size))
    copies = []
    for _ in range(spec.count):
        copy = base.copy()
        if k > 0:
            copy[spec.rng.choice(base.size, size=k, replace=False)] = 0.0
        copies.append(copy)
    return copies


def _oracle_score(params, config, x, spec, metric):
    logits = np.stack([forward_logits(params, config, c) for c in _oracle_perturb(x, spec)])
    if metric == "bi":
        return _oracle_bi(logits)
    return _ORACLE_SCORERS[metric](softmax_rows(logits))


# --- shapes ------------------------------------------------------------------

_hidden = st.one_of(
    st.just((1,)),
    st.tuples(st.integers(1, 70)),
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
)


def _model(input_dim, hidden_dims, num_classes, init_seed=0, scale=1.0):
    config = ModelConfig(input_dim, hidden_dims, num_classes, init_seed=init_seed)
    params = init_parameters(config)
    return config, ParameterVector(params.values * scale, params.layout)


@st.composite
def _models(draw):
    return _model(
        draw(st.integers(1, 20)),
        draw(_hidden),
        draw(st.integers(2, 12)),
        draw(st.integers(0, 2**16)),
        # From near-uniform to saturated softmax rows with exact zeros.
        draw(st.sampled_from([0.01, 1.0, 5.0, 40.0])),
    )


# The smallest shapes: one input, one hidden unit, one row.
_TINY = _model(1, (1,), 2)
_TWO_LAYERS = _model(3, (4, 2), 12, scale=5.0)


# --- tests -------------------------------------------------------------------


@given(_models(), st.integers(1, 16), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
@example(_TINY, 1, 0)
@example(_TWO_LAYERS, 1, 0)
def test_block_forward_equals_per_row_calls(model, p, seed):
    config, params = model
    x = np.random.default_rng(seed).normal(size=(p, config.input_dim))
    block = forward_logits(params, config, x)
    assert block.shape == (p, config.num_classes)
    rows = np.stack([forward_logits(params, config, row.copy()) for row in x])
    assert np.array_equal(block, rows)


@given(_models(), st.integers(1, 25), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
@example(_TINY, 1, 0)
@example(_TWO_LAYERS, 1, 0)
def test_loss_and_grad_equals_per_sample_loop(model, n, seed):
    """The loss, added in sorted row order, and the gradient, summed by one
    matrix product per layer, lie within the rounding bounds of both sums."""
    config, params = model
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, config.input_dim)) * rng.choice([0.1, 1.0, 10.0])
    labels = rng.integers(0, config.num_classes, size=n)
    loss, grad = loss_and_grad(params, config, MiniBatch(feats, labels, task_id=0))
    want_loss, want_grad = _oracle_loss_and_grad(params, feats, labels)
    loss_bound, grad_bound = error_bounds(params, feats, labels)
    assert abs(loss - want_loss) <= loss_bound
    assert np.all(np.abs(grad - want_grad) <= 2.0 * grad_bound)


@given(
    _models(),
    st.integers(1, 16),
    st.sampled_from(["bi", "lc", "rc", "en"]),
    st.sampled_from(["gaussian", "mask"]),
    st.floats(0.0, 0.9),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
@example(_TINY, 1, "bi", "gaussian", 0.0, 0)
@example(_TINY, 1, "en", "mask", 0.5, 0)
@example(_TWO_LAYERS, 1, "lc", "gaussian", 0.0, 0)
@example(_TWO_LAYERS, 4, "lc", "mask", 0.25, 0)
@example(_TWO_LAYERS, 4, "rc", "gaussian", 0.0, 0)
def test_score_sample_equals_per_copy_loop(model, p, metric, kind, mask_fraction, seed):
    config, params = model
    x = np.random.default_rng(seed).normal(size=config.input_dim)

    def spec():
        return PerturbationSpec(
            p, kind, sigma=0.3, mask_fraction=mask_fraction, rng=np.random.default_rng(seed + 1)
        )

    got_spec, want_spec = spec(), spec()
    got = score_sample(copy_logits(params, config, perturb_features(x[None, :], got_spec))[0], metric)
    want = _oracle_score(params, config, x, want_spec, metric)
    assert got == want
    # The block draw leaves the generator where the per-copy draws did.
    assert got_spec.rng.bit_generator.state == want_spec.rng.bit_generator.state


@given(
    _models(),
    st.integers(1, 8),
    st.integers(1, 16),
    st.sampled_from(["gaussian", "mask"]),
    st.floats(0.0, 0.9),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
@example(_TINY, 1, 1, "gaussian", 0.0, 0)
@example(_TINY, 1, 1, "mask", 0.5, 0)
@example(_TWO_LAYERS, 1, 1, "gaussian", 0.0, 0)
@example(_TWO_LAYERS, 110, 12, "mask", 0.25, 0)  # the largest blocks a run forwards: 1,320 rows
def test_copy_logits_equals_single_row_calls(model, n, p, kind, mask_fraction, seed):
    config, params = model
    rng = np.random.default_rng(seed)
    spec = PerturbationSpec(p, kind, sigma=0.3, mask_fraction=mask_fraction, rng=np.random.default_rng(seed + 1))
    copies = perturb_features(rng.normal(size=(n, config.input_dim)), spec)
    got = copy_logits(params, config, copies)
    assert got.shape == (n, p, config.num_classes)
    want = np.array([[forward_logits(params, config, c.copy()) for c in row] for row in copies])
    assert np.array_equal(got, want)


def test_copy_logits_refuses_one_non_finite_entry_anywhere(monkeypatch):
    config, params = _TWO_LAYERS
    n, p, c = 3, 4, config.num_classes
    copies = np.random.default_rng(5).normal(size=(n, p, config.input_dim))
    assert np.isfinite(copy_logits(params, config, copies)).all()
    forward = uncertainty.forward_logits
    for bad in (math.inf, -math.inf, math.nan):
        for flat in range(n * p * c):

            def poisoned(*args, bad=bad, flat=flat):
                logits = forward(*args)
                logits.reshape(-1)[flat] = bad
                return logits

            monkeypatch.setattr(uncertainty, "forward_logits", poisoned)
            with pytest.raises(FloatingPointError, match="^logit set entries must be finite$"):
                copy_logits(params, config, copies)
    monkeypatch.undo()
    # A NaN feature in the last copy of the last row gives that copy NaN logits, unpatched.
    copies[-1, -1, 0] = math.nan
    with pytest.raises(FloatingPointError, match="^logit set entries must be finite$"):
        copy_logits(params, config, copies)


@given(
    st.integers(1, 6),
    st.integers(1, 20),
    st.integers(1, 16),
    st.sampled_from(["gaussian", "mask"]),
    st.floats(0.0, 0.9),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
@example(1, 4, 1, "gaussian", 0.0, 0)
@example(1, 4, 1, "mask", 0.5, 0)
@example(3, 4, 5, "mask", 0.1, 0)  # round(0.4) = 0 coordinates masked: no draw at all
@example(3, 1, 2, "mask", 0.9, 0)
def test_block_draw_equals_row_draws(n, d, p, kind, mask_fraction, seed):
    block = np.random.default_rng(seed).normal(size=(n, d))

    def spec():
        return PerturbationSpec(p, kind, sigma=0.3, mask_fraction=mask_fraction, rng=np.random.default_rng(seed + 1))

    got_spec, rows_spec, want_spec = spec(), spec(), spec()
    got = perturb_features(block, got_spec)
    rows = [perturb_features(x, rows_spec) for x in block]
    want = [np.stack(_oracle_perturb(x, want_spec)) for x in block]
    assert got.shape == (n, p, d)
    assert np.array_equal(got, np.stack(rows))
    assert np.array_equal(got, np.stack(want))
    # The block leaves the generator where the row-by-row draws did.
    assert got_spec.rng.bit_generator.state == rows_spec.rng.bit_generator.state == want_spec.rng.bit_generator.state


@given(st.integers(1, 8), st.integers(2, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_confidence_scores_equal_loops_with_zeros_and_ties(p, c, seed):
    rng = np.random.default_rng(seed)
    raw = rng.choice([0.0, 1.0, 2.0, 0.5], size=(p, c))
    raw[:, 0] += 1.0  # every row keeps a positive top probability
    probs = raw / raw.sum(axis=1, keepdims=True)
    for name, fn in uncertainty._SCORERS.items():
        assert fn(probs) == _ORACLE_SCORERS[name](probs), name


# --- Bregman information against the per-row oracle, byte for byte --------


def _bytes(x):
    return struct.pack("<d", x)


_LOGIT_SCALES = [1e-9, 1e-3, 1.0, 30.0, 700.0, 1e6]


def _logit_set(rng, p, c, scale, ties):
    if ties:
        return rng.integers(-3, 4, size=(p, c)).astype(np.float64) * scale
    return rng.normal(size=(p, c)) * scale


@given(st.integers(2, 12), st.sampled_from(_LOGIT_SCALES), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_bi_one_row_equals_oracle(c, scale, ties, seed):
    z = _logit_set(np.random.default_rng(seed), 1, c, scale, ties)
    assert _bytes(score_sample(z, "bi")) == _bytes(_oracle_bi(z)) == _bytes(0.0)


@given(
    st.integers(1, 16),
    st.integers(2, 12),
    st.sampled_from(_LOGIT_SCALES),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
@example(2, 2, 1.0, True, 0)
def test_bi_equals_oracle(p, c, scale, ties, seed):
    z = _logit_set(np.random.default_rng(seed), p, c, scale, ties)
    assert _bytes(score_sample(z, "bi")) == _bytes(_oracle_bi(z))


@given(
    st.integers(2, 16),
    st.integers(2, 12),
    st.sampled_from(_LOGIT_SCALES),
    st.sampled_from([math.inf, -math.inf]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
@example(2, 2, 1.0, math.inf, 0)
def test_bi_rows_one_ulp_apart(p, c, scale, toward, seed):
    """Rows equal but for one entry one ulp away: the edge of the early return."""
    rng = np.random.default_rng(seed)
    equal = np.tile(rng.normal(size=c) * scale, (p, 1))
    assert _bytes(score_sample(equal, "bi")) == _bytes(_oracle_bi(equal)) == _bytes(0.0)
    z = equal.copy()
    i, j = rng.integers(p), rng.integers(c)
    z[i, j] = np.nextafter(z[i, j], toward)
    assert _bytes(score_sample(z, "bi")) == _bytes(_oracle_bi(z))


def test_log_sum_exp_rounds_with_math_log():
    """Rows whose exp-sums are inputs where np.log and math.log round apart."""
    a = -np.random.default_rng(0).uniform(0.0, 5.0, size=20_000)
    sums = 1.0 + np.exp(a)  # the exp-sum of the row [0, a], exact for two terms
    hard = a[np.log(sums) != np.array([math.log(s) for s in sums.tolist()])]
    if not hard.size:
        pytest.skip("np.log and math.log agree on every sampled input here")
    for ai in hard[:50].tolist():
        row = np.array([0.0, ai])
        assert _bytes(_lse_rows(row[None, :])[0]) == _bytes(_oracle_stable_lse(row))
        z = np.array([[0.0, ai], [ai, 0.0], [0.5 * ai, 0.0]])
        assert _bytes(score_sample(z, "bi")) == _bytes(_oracle_bi(z))
