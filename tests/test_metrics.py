"""Task-accuracy arrays and the last accuracy / last forgetting metrics."""

from fractions import Fraction

import numpy as np
import pytest

from fedreplay.metrics import client_mean, evaluate_model, last_accuracy, last_forgetting
from fedreplay.model import ModelConfig, ParameterVector, init_parameters, layout_of


def _accuracy(num_tasks, entries):
    """A (T, T) array holding ``entries`` keyed by 1-based (after_task, on_task); NaN elsewhere."""
    a = np.full((num_tasks, num_tasks), np.nan)
    for (t, i), acc in entries.items():
        a[t - 1, i - 1] = acc
    return a


def avg_last_accuracy(clients):
    return client_mean([last_accuracy(a) for a in clients])


def avg_last_forgetting(clients):
    return client_mean([last_forgetting(a) for a in clients])


class TestAverageLastAccuracy:
    def test_single_client(self):
        a = _accuracy(2, {(1, 1): 0.8, (2, 1): 0.6, (2, 2): 0.9})
        assert avg_last_accuracy([a]) == pytest.approx(0.75, abs=1e-15)

    def test_constant_matrix(self):
        entries = {(t, i): 0.5 for t in range(1, 4) for i in range(1, t + 1)}
        a = _accuracy(3, entries)
        assert avg_last_accuracy([a]) == pytest.approx(0.5, abs=1e-15)

    def test_client_mean(self):
        a1 = _accuracy(2, {(2, 1): 0.2, (2, 2): 0.2})
        a2 = _accuracy(2, {(2, 1): 0.6, (2, 2): 0.6})
        assert avg_last_accuracy([a1, a2]) == pytest.approx(0.4, abs=1e-15)

    def test_missing_entries_rejected(self):
        a = _accuracy(2, {(2, 1): 0.5})
        with pytest.raises(ValueError, match=r"missing entry a\[2\]\[2\]"):
            last_accuracy(a)


class TestAverageLastForgetting:
    def test_single_client_example(self):
        a = _accuracy(2, {(1, 1): 0.8, (2, 1): 0.6, (2, 2): 0.9})
        assert avg_last_forgetting([a]) == pytest.approx(0.2, abs=1e-15)

    def test_no_degradation_gives_zero(self):
        a = _accuracy(
            3,
            {
                (1, 1): 0.5,
                (2, 1): 0.6,
                (2, 2): 0.7,
                (3, 1): 0.6,
                (3, 2): 0.7,
                (3, 3): 0.9,
            },
        )
        assert avg_last_forgetting([a]) == pytest.approx(0.0, abs=1e-15)

    def test_client_mean(self):
        a1 = _accuracy(2, {(1, 1): 0.5, (2, 1): 0.4, (2, 2): 0.9})  # F = 0.1
        a2 = _accuracy(2, {(1, 1): 0.8, (2, 1): 0.5, (2, 2): 0.9})  # F = 0.3
        assert avg_last_forgetting([a1, a2]) == pytest.approx(0.2, abs=1e-15)

    def test_negative_forgetting_not_clamped(self):
        a = _accuracy(2, {(1, 1): 0.5, (2, 1): 0.8, (2, 2): 0.9})
        assert avg_last_forgetting([a]) == pytest.approx(-0.3, abs=1e-15)

    def test_single_task_rejected(self):
        a = _accuracy(1, {(1, 1): 0.5})
        with pytest.raises(ValueError):
            last_forgetting(a)

    @pytest.mark.parametrize("missing, name", [((3, 2), r"a\[3\]\[2\]"), ((2, 1), r"a\[2\]\[1\]")])
    def test_missing_read_entry_rejected(self, missing, name):
        entries = {(t, i): 0.5 for t in range(1, 4) for i in range(1, t + 1)}
        del entries[missing]
        with pytest.raises(ValueError, match=f"missing entry {name}"):
            last_forgetting(_accuracy(3, entries))

    def test_peak_in_training_row_implies_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            num_tasks = int(rng.integers(2, 6))
            a = np.full((num_tasks, num_tasks), np.nan)
            for t in range(num_tasks):
                for i in range(t + 1):
                    # accuracy peaks while training the task
                    a[t, i] = 1.0 if i == t else float(rng.uniform(0.0, 1.0))
            assert last_forgetting(a) >= 0.0

    def test_client_order_invariance_bitwise(self):
        rng = np.random.default_rng(4)
        clients = []
        for _ in range(5):
            a = np.full((3, 3), np.nan)
            for t in range(3):
                for i in range(t + 1):
                    a[t, i] = float(rng.uniform())
            clients.append(a)
        base_a = avg_last_accuracy(clients)
        base_f = avg_last_forgetting(clients)
        for _ in range(10):
            perm = [clients[i] for i in rng.permutation(5)]
            assert avg_last_accuracy(perm) == base_a
            assert avg_last_forgetting(perm) == base_f


class TestHandComputedOracle:
    """Two clients, three tasks, rational entries checked against manual arithmetic."""

    def test_matches_manual_computation(self):
        c1 = _accuracy(
            3,
            {
                (1, 1): 0.8,
                (2, 1): 0.6,
                (2, 2): 0.9,
                (3, 1): 0.5,
                (3, 2): 0.7,
                (3, 3): 1.0,
            },
        )
        c2 = _accuracy(
            3,
            {
                (1, 1): 0.6,
                (2, 1): 0.7,  # backward transfer on task 1
                (2, 2): 0.8,
                (3, 1): 0.4,
                (3, 2): 0.9,
                (3, 3): 0.5,
            },
        )
        # A_1 = (1/2 + 7/10 + 1) / 3 = 11/15, A_2 = (2/5 + 9/10 + 1/2) / 3 = 3/5
        a_expected = Fraction(1, 2) * (Fraction(11, 15) + Fraction(3, 5))
        # F_1 = ((8/10 - 5/10) + (9/10 - 7/10)) / 2 = 1/4
        # F_2 = ((7/10 - 4/10) + (8/10 - 9/10)) / 2 = 1/10
        f_expected = Fraction(1, 2) * (Fraction(1, 4) + Fraction(1, 10))
        assert avg_last_accuracy([c1, c2]) == pytest.approx(float(a_expected), abs=1e-12)
        assert avg_last_forgetting([c1, c2]) == pytest.approx(float(f_expected), abs=1e-12)
        assert float(a_expected) == pytest.approx(2 / 3, abs=1e-15)
        assert float(f_expected) == pytest.approx(0.175, abs=1e-15)


class TestEvaluateModel:
    def test_zero_weight_model_on_balanced_binary_set(self):
        config = ModelConfig(input_dim=2, hidden_dims=(3,), num_classes=2)
        layout = layout_of(config)
        size = sum(int(np.prod(shape)) for shape, _ in layout)
        params = ParameterVector(np.zeros(size), layout)
        feats = np.random.default_rng(0).normal(size=(10, 2))
        labels = np.array([0, 1] * 5)
        # all-zero logits tie; argmax resolves to class 0, which is half right
        (acc,) = evaluate_model(params, config, [(feats, labels)])
        assert acc == 0.5

    def test_separable_toy_set_reaches_one(self):
        config = ModelConfig(input_dim=2, hidden_dims=(), num_classes=2)
        # linear model w = [[1, -1], [0, 0]]^T: logit 0 - logit 1 = 2 * x0
        params = ParameterVector(np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0]), layout_of(config))
        feats = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [-3.0, 0.0]])
        labels = np.array([0, 0, 1, 1])
        (acc,) = evaluate_model(params, config, [(feats, labels)])
        assert acc == 1.0

    def test_deterministic(self):
        config = ModelConfig(input_dim=3, hidden_dims=(4,), num_classes=3, init_seed=5)
        params = init_parameters(config)
        feats = np.random.default_rng(1).normal(size=(20, 3))
        labels = np.random.default_rng(2).integers(0, 3, size=20)
        a = evaluate_model(params, config, [(feats, labels)])
        b = evaluate_model(params, config, [(feats, labels)])
        assert a == b

    def test_overflowing_logits_raise(self):
        # finite parameters, but 1e300 * 1e10 overflows the logits of the second task's rows
        config = ModelConfig(input_dim=2, hidden_dims=(), num_classes=2)
        params = ParameterVector(np.array([1e300, -1.0, 0.0, 0.0, 0.0, 0.0]), layout_of(config))
        fine = (np.array([[1e-10, 0.0]]), np.array([0]))
        overflowing = (np.array([[1e10, 0.0]]), np.array([0]))
        assert evaluate_model(params, config, [fine]) == [1.0]
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="held-out logits are not all finite"):
            evaluate_model(params, config, [fine, overflowing])
