"""Model core: init, forward, loss/gradient, optimizers."""

import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedreplay.model import (
    ModelConfig,
    OptimizerState,
    ParameterVector,
    forward_logits,
    init_parameters,
    layout_of,
    loss_and_grad,
    optimizer_step,
)
from fedreplay.stream import MiniBatch
from test_stacked_oracles import error_bounds


def _zero_params(config):
    layout = layout_of(config)
    size = sum(int(np.prod(shape)) for shape, _ in layout)
    return ParameterVector(np.zeros(size), layout)


def _batch(features, labels):
    return MiniBatch(features=np.asarray(features, dtype=float), labels=np.asarray(labels), task_id=1)


class TestModelConfig:
    def test_layout_lengths_match(self):
        config = ModelConfig(input_dim=3, hidden_dims=(5, 4), num_classes=2)
        total = sum(int(np.prod(shape)) for shape, _ in layout_of(config))
        assert total == 3 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2


class TestInitParameters:
    def test_deterministic_given_seed(self):
        config = ModelConfig(input_dim=6, hidden_dims=(5,), num_classes=3, init_seed=123)
        a = init_parameters(config)
        b = init_parameters(config)
        assert a.layout == b.layout and np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        base = dict(input_dim=6, hidden_dims=(5,), num_classes=3)
        a = init_parameters(ModelConfig(init_seed=1, **base))
        b = init_parameters(ModelConfig(init_seed=2, **base))
        assert not np.array_equal(a.values, b.values)

    def test_biases_zero(self):
        config = ModelConfig(input_dim=4, hidden_dims=(7, 3), num_classes=5, init_seed=9)
        params = init_parameters(config)
        for i in range(1, len(params.layout), 2):
            shape, offset = params.layout[i]
            assert np.all(params.values[offset : offset + shape[0]] == 0.0)

    def test_glorot_bound_10k_draws(self):
        # single 4 -> 3 layer: all weights strictly inside (-sqrt(6/7), sqrt(6/7))
        bound = math.sqrt(6.0 / 7.0)
        for seed in range(10_000):
            config = ModelConfig(input_dim=4, hidden_dims=(), num_classes=3, init_seed=seed)
            w = init_parameters(config).values[: 4 * 3]
            assert np.all(w > -bound) and np.all(w < bound)


class TestForward:
    def test_zero_network_zero_logits(self):
        config = ModelConfig(input_dim=3, hidden_dims=(4,), num_classes=2)
        params = _zero_params(config)
        out = forward_logits(params, config, np.array([1.0, -2.0, 3.0]))
        assert np.array_equal(out, np.zeros(2))

    def test_identity_single_layer(self):
        config = ModelConfig(input_dim=2, hidden_dims=(), num_classes=2)
        params = ParameterVector(
            np.concatenate([np.eye(2).ravel(), np.zeros(2)]), layout_of(config)
        )
        out = forward_logits(params, config, np.array([1.0, 2.0]))
        assert np.array_equal(out, np.array([1.0, 2.0]))

    def test_dimension_mismatch_rejected(self):
        config = ModelConfig(input_dim=3, hidden_dims=(4,), num_classes=2)
        params = _zero_params(config)
        with pytest.raises(ValueError):
            forward_logits(params, config, np.zeros(5))

    def test_matches_explicit_matrix_oracle(self):
        config = ModelConfig(input_dim=5, hidden_dims=(4, 3), num_classes=2, init_seed=77)
        params = init_parameters(config)
        x = np.random.default_rng(5).normal(size=5)

        # hand-rolled forward: unpack the flat vector and multiply explicitly
        flat = params.values
        w1 = flat[0:20].reshape(5, 4)
        b1 = flat[20:24]
        w2 = flat[24:36].reshape(4, 3)
        b2 = flat[36:39]
        w3 = flat[39:45].reshape(3, 2)
        b3 = flat[45:47]
        h1 = np.maximum(x @ w1 + b1, 0.0)
        h2 = np.maximum(h1 @ w2 + b2, 0.0)
        expected = h2 @ w3 + b3

        assert np.allclose(forward_logits(params, config, x), expected, rtol=0, atol=1e-12)

    def test_forward_deterministic(self):
        config = ModelConfig(input_dim=4, hidden_dims=(6,), num_classes=3, init_seed=3)
        params = init_parameters(config)
        x = np.random.default_rng(1).normal(size=4)
        assert np.array_equal(forward_logits(params, config, x), forward_logits(params, config, x))


def _fd_gradient(params, config, batch, h=1e-5):
    """Central finite differences of the mean cross-entropy."""
    grad = np.zeros(len(params))
    for j in range(len(params)):
        bumped = params.values.copy()
        bumped[j] += h
        up, _ = loss_and_grad(ParameterVector(bumped, params.layout), config, batch)
        bumped[j] -= 2 * h
        down, _ = loss_and_grad(ParameterVector(bumped, params.layout), config, batch)
        grad[j] = (up - down) / (2 * h)
    return grad


class TestLossAndGrad:
    def test_zero_params_gives_log_c(self):
        for c in (2, 3, 7):
            config = ModelConfig(input_dim=3, hidden_dims=(4,), num_classes=c)
            params = _zero_params(config)
            batch = _batch(np.random.default_rng(c).normal(size=(6, 3)), np.arange(6) % c)
            loss, _ = loss_and_grad(params, config, batch)
            assert loss == pytest.approx(math.log(c), abs=1e-12)

    def test_empty_batch_rejected(self):
        from types import SimpleNamespace

        config = ModelConfig(input_dim=2, hidden_dims=(3,), num_classes=2)
        params = _zero_params(config)
        empty = SimpleNamespace(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            loss_and_grad(params, config, empty)
        # MiniBatch already refuses to be empty at construction
        with pytest.raises(ValueError):
            _batch(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_label_out_of_range_rejected(self):
        config = ModelConfig(input_dim=2, hidden_dims=(3,), num_classes=2)
        params = _zero_params(config)
        with pytest.raises(ValueError):
            loss_and_grad(params, config, _batch(np.zeros((2, 2)), [0, 2]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            config = ModelConfig(
                input_dim=3, hidden_dims=(4,), num_classes=3, init_seed=100 + trial
            )
            params = init_parameters(config)
            batch = _batch(rng.normal(size=(4, 3)), rng.integers(0, 3, size=4))
            _, analytic = loss_and_grad(params, config, batch)
            numeric = _fd_gradient(params, config, batch)
            rel = np.abs(analytic - numeric) / np.maximum.reduce(
                [np.ones_like(analytic), np.abs(analytic), np.abs(numeric)]
            )
            assert rel.max() < 1e-4

    def test_duplicated_batch_within_rounding_bound(self):
        """Duplicating every row rounds the loss and gradient sums differently,
        each within the error bound of both batches."""
        config = ModelConfig(input_dim=3, hidden_dims=(5,), num_classes=3, init_seed=11)
        params = init_parameters(config)
        feats = np.random.default_rng(8).normal(size=(4, 3))
        labels = np.array([0, 1, 2, 1])
        loss, grad = loss_and_grad(params, config, _batch(feats, labels))
        dup_feats = np.repeat(feats, 2, axis=0)
        dup_labels = np.repeat(labels, 2)
        loss2, grad2 = loss_and_grad(params, config, _batch(dup_feats, dup_labels))
        (loss_bound, grad_bound), (loss_bound2, grad_bound2) = (
            error_bounds(params, feats, labels),
            error_bounds(params, dup_feats, dup_labels),
        )
        assert abs(loss - loss2) <= loss_bound + loss_bound2
        assert np.all(np.abs(grad - grad2) <= grad_bound + grad_bound2)

    def test_permutation_invariance_bit_identical(self):
        config = ModelConfig(input_dim=4, hidden_dims=(6,), num_classes=3, init_seed=21)
        params = init_parameters(config)
        rng = np.random.default_rng(13)
        feats = rng.normal(size=(9, 4))
        labels = rng.integers(0, 3, size=9)
        loss, grad = loss_and_grad(params, config, _batch(feats, labels))
        for _ in range(5):
            perm = rng.permutation(9)
            loss_p, grad_p = loss_and_grad(params, config, _batch(feats[perm], labels[perm]))
            assert loss == loss_p
            assert np.array_equal(grad, grad_p)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(55)
        for trial in range(20):
            config = ModelConfig(
                input_dim=2, hidden_dims=(3,), num_classes=2, init_seed=trial
            )
            params = init_parameters(config)
            batch = _batch(rng.normal(size=(5, 2)) * 10, rng.integers(0, 2, size=5))
            loss, _ = loss_and_grad(params, config, batch)
            assert loss >= 0.0


_feature_values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-10.0, 10.0))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_repeated_rows_any_order_same_bits(data):
    """A batch with repeated rows gives one (loss, grad) in every row order,
    the byte-sorted one included."""
    config = ModelConfig(input_dim=3, hidden_dims=(5,), num_classes=3, init_seed=data.draw(st.integers(0, 2**16)))
    params = init_parameters(config)
    distinct = data.draw(
        st.lists(st.tuples(st.tuples(*[_feature_values] * 3), st.integers(0, 2)), min_size=1, max_size=5)
    )
    # More picks than distinct rows, so some row repeats.
    picks = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=len(distinct) + 1, max_size=12))
    feats = np.array([distinct[i][0] for i in picks])
    labels = np.array([distinct[i][1] for i in picks])
    loss, grad = loss_and_grad(params, config, _batch(feats, labels))
    permuted = data.draw(st.permutations(range(len(picks))))
    byte_sorted = sorted(range(len(picks)), key=lambda i: feats[i].tobytes() + labels[i].tobytes())
    for order in (permuted, byte_sorted):
        loss_o, grad_o = loss_and_grad(params, config, _batch(feats[order], labels[order]))
        assert loss_o == loss
        assert grad_o.tobytes() == grad.tobytes()


class TestOptimizerStep:
    def test_sgd_exact(self):
        config = ModelConfig(input_dim=2, hidden_dims=(), num_classes=2)
        params = ParameterVector(np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0]), layout_of(config))
        state = OptimizerState.sgd(0.1)
        out = optimizer_step(params, np.array([10.0, 0.0, 0.0, 0.0, 0.0, 0.0]), state)
        assert out.values[0] == 0.0
        assert np.array_equal(out.values[1:], params.values[1:])

    def test_sgd_zero_gradient(self):
        config = ModelConfig(input_dim=2, hidden_dims=(), num_classes=2)
        params = init_parameters(config)
        out = optimizer_step(params, np.zeros(len(params)), OptimizerState.sgd(0.5))
        assert out.layout == params.layout and np.array_equal(out.values, params.values)

    def test_adam_first_step(self):
        config = ModelConfig(input_dim=2, hidden_dims=(), num_classes=2)
        params = ParameterVector(np.zeros(6), layout_of(config))
        state = OptimizerState.adam(0.01, 6)
        out = optimizer_step(params, np.ones(6), state)
        expected = -0.01 / (1.0 + 1e-8)
        assert np.allclose(out.values, expected, rtol=0, atol=1e-15)
        assert state.step == 1

    def test_adam_reset(self):
        state = OptimizerState.adam(0.01, 3)
        optimizer_step(ParameterVector(np.zeros(3), (((1, 3), 0),)), np.ones(3), state)
        assert state.step == 1
        state.reset()
        assert state.step == 0
        assert np.all(state.m == 0.0) and np.all(state.v == 0.0)

    def test_length_mismatch(self):
        config = ModelConfig(input_dim=2, hidden_dims=(), num_classes=2)
        params = init_parameters(config)
        with pytest.raises(ValueError):
            optimizer_step(params, np.zeros(len(params) + 1), OptimizerState.sgd(0.1))


class TestParameterVector:
    def test_views_alias_values_and_are_built_once(self):
        config = ModelConfig(input_dim=3, hidden_dims=(4, 2), num_classes=5, init_seed=1)
        params = init_parameters(config)
        views = params.layer_views
        assert params.layer_views is views
        assert [(w.shape, b.shape) for w, b in views] == [((3, 4), (4,)), ((4, 2), (2,)), ((2, 5), (5,))]
        for (w, b), ((_, w_off), (_, b_off)) in zip(views, zip(params.layout[::2], params.layout[1::2])):
            assert np.shares_memory(w, params.values) and np.shares_memory(b, params.values)
            assert np.array_equal(w.ravel(), params.values[w_off : w_off + w.size])
            assert np.array_equal(b, params.values[b_off : b_off + b.size])
        params.values[0] = 7.5
        assert views[0][0][0, 0] == 7.5

    def test_fields_cannot_be_reassigned(self):
        params = init_parameters(ModelConfig(input_dim=2, hidden_dims=(3,), num_classes=2))
        with pytest.raises(FrozenInstanceError):
            params.values = np.zeros(len(params))
        with pytest.raises(FrozenInstanceError):
            params.layout = ()
        with pytest.raises(FrozenInstanceError):
            del params.values

    def test_size_check_sums_every_layout_entry(self):
        # The last entry (bias at 9) does not end the array (weight at 10..12).
        layout = (((2, 3), 0), ((3,), 6), ((3, 1), 10), ((1,), 9))
        assert len(ParameterVector(np.zeros(13), layout)) == 13
        for size in (12, 14, 7):
            with pytest.raises(ValueError, match="layout expects 13"):
                ParameterVector(np.zeros(size), layout)
