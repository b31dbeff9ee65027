"""Uncertainty scores: logit-variance score, confidence scores."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedreplay import uncertainty
from fedreplay.model import ModelConfig, ParameterVector, forward_logits, layout_of
from fedreplay.uncertainty import (
    METRICS,
    PerturbationSpec,
    copy_logits,
    perturb_features,
    score_sample,
    softmax_rows,
)


def _random_probs(rng, p, c):
    raw = rng.uniform(0.01, 1.0, size=(p, c))
    return raw / raw.sum(axis=1, keepdims=True)


def _confidence(metric, probs):
    """The confidence score that ``score_sample`` dispatches to, on a probability set."""
    return uncertainty._SCORERS[metric](np.asarray(probs, dtype=np.float64))


class TestBregmanInformation:
    def test_identical_rows_exactly_zero(self):
        row = np.array([0.3, -1.2, 4.5])
        assert score_sample(np.tile(row, (5, 1)), "bi") == 0.0

    def test_two_row_value(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        expected = math.log(math.e + 1.0) - (0.5 + math.log(2.0))
        assert score_sample(z, "bi") == pytest.approx(expected, abs=1e-12)
        assert score_sample(z, "bi") == pytest.approx(0.120115, abs=1e-6)

    def test_per_row_constant_shift_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = rng.uniform(-50, 50, size=(rng.integers(2, 9), rng.integers(2, 9)))
            shifts = rng.uniform(-20, 20, size=(z.shape[0], 1))
            assert score_sample(z + shifts, "bi") == pytest.approx(score_sample(z, "bi"), abs=1e-9)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            z = rng.uniform(-50, 50, size=(rng.integers(1, 17), rng.integers(2, 21)))
            assert score_sample(z, "bi") >= 0.0

    def test_row_order_invariant_bitwise(self):
        rng = np.random.default_rng(11)
        z = rng.uniform(-10, 10, size=(6, 4))
        base = score_sample(z, "bi")
        for _ in range(10):
            assert score_sample(z[rng.permutation(6)], "bi") == base


class TestConfidenceScores:
    def test_lc_values(self):
        assert _confidence("lc", [[0.7, 0.3]]) == pytest.approx(0.3, abs=1e-12)
        assert _confidence("lc", [[1.0, 0.0], [0.0, 1.0]]) == 0.0
        assert _confidence("lc", [[0.7, 0.3], [0.5, 0.5]]) == pytest.approx(0.4, abs=1e-12)

    def test_ratio_values(self):
        assert _confidence("rc", [[0.7, 0.3]]) == pytest.approx(0.3 / 0.7, abs=1e-12)
        assert _confidence("rc", [[0.25, 0.25, 0.25, 0.25]]) == pytest.approx(1.0, abs=1e-12)
        assert _confidence("rc", [[0.0, 1.0]]) == 0.0

    def test_entropy_values(self):
        assert _confidence("en", [[0.7, 0.3]]) == pytest.approx(0.6108643020548935, abs=1e-12)
        assert _confidence("en", [[1.0, 0.0]]) == 0.0
        for c in (2, 5, 9):
            uniform = np.full((3, c), 1.0 / c)
            assert _confidence("en", uniform) == pytest.approx(math.log(c), abs=1e-12)

    @given(st.integers(1, 6), st.integers(2, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_ranges(self, p, c, seed):
        probs = _random_probs(np.random.default_rng(seed), p, c)
        assert 0.0 <= _confidence("lc", probs) <= 1.0
        assert 0.0 <= _confidence("rc", probs) <= 1.0
        assert 0.0 <= _confidence("en", probs) <= math.log(c) + 1e-12

    def test_row_order_invariant_bitwise(self):
        rng = np.random.default_rng(17)
        probs = _random_probs(rng, 7, 5)
        base = [_confidence(m, probs) for m in uncertainty._SCORERS]
        for _ in range(5):
            shuffled = probs[rng.permutation(7)]
            assert [_confidence(m, shuffled) for m in uncertainty._SCORERS] == base


class TestPerturbFeatures:
    def test_degenerate_sigma_keeps_input(self):
        x = np.array([1.0, -2.0, 3.0])
        spec = PerturbationSpec(count=8, kind="gaussian", sigma=1e-12, rng=np.random.default_rng(0))
        for copy in perturb_features(x, spec):
            assert np.allclose(copy, x, rtol=0, atol=1e-9)

    def test_fixed_seed_reproducible(self):
        x = np.arange(5, dtype=float)
        a = perturb_features(x, PerturbationSpec(4, "gaussian", 0.3, rng=np.random.default_rng(42)))
        b = perturb_features(x, PerturbationSpec(4, "gaussian", 0.3, rng=np.random.default_rng(42)))
        for ca, cb in zip(a, b):
            assert np.array_equal(ca, cb)

    def test_noise_variance_in_chi_square_band(self):
        x = np.zeros(8)
        spec = PerturbationSpec(10_000, "gaussian", 0.1, rng=np.random.default_rng(7))
        copies = np.stack(perturb_features(x, spec))
        var = copies.var(axis=0, ddof=1)
        assert np.all(var >= 0.0085) and np.all(var <= 0.0115)

    def test_mask_zeroes_expected_fraction(self):
        x = np.ones(20)
        spec = PerturbationSpec(6, "mask", mask_fraction=0.25, rng=np.random.default_rng(1))
        for copy in perturb_features(x, spec):
            assert np.count_nonzero(copy == 0.0) == 5
            assert np.count_nonzero(copy == 1.0) == 15

    def test_mask_zero_fraction_noop(self):
        x = np.ones(4)
        spec = PerturbationSpec(3, "mask", mask_fraction=0.0, rng=np.random.default_rng(1))
        for copy in perturb_features(x, spec):
            assert np.array_equal(copy, x)

    def test_generator_is_required(self):
        with pytest.raises(TypeError):
            PerturbationSpec(4, "gaussian", 0.1)


class TestScoreSample:
    def _zero_model(self, c):
        config = ModelConfig(input_dim=3, hidden_dims=(4,), num_classes=c)
        layout = layout_of(config)
        size = sum(int(np.prod(shape)) for shape, _ in layout)
        return ParameterVector(np.zeros(size), layout), config

    @staticmethod
    def _score(params, config, x, spec, metric):
        """Score one sample as the runner does: its copies forwarded as a block of one row, then reduced."""
        return score_sample(copy_logits(params, config, perturb_features(x[None, :], spec))[0], metric)

    def test_constant_model_bi_zero(self):
        params, config = self._zero_model(4)
        spec = PerturbationSpec(6, "gaussian", 0.5, rng=np.random.default_rng(0))
        assert self._score(params, config, np.ones(3), spec, "bi") == 0.0

    def test_constant_model_entropy_log_c(self):
        params, config = self._zero_model(4)
        spec = PerturbationSpec(6, "gaussian", 0.5, rng=np.random.default_rng(0))
        assert self._score(params, config, np.ones(3), spec, "en") == pytest.approx(math.log(4), abs=1e-12)

    def test_compositional_oracle(self):
        from fedreplay.model import init_parameters

        config = ModelConfig(input_dim=4, hidden_dims=(5,), num_classes=3, init_seed=33)
        params = init_parameters(config)
        x = np.random.default_rng(2).normal(size=4)

        spec = PerturbationSpec(9, "gaussian", 0.2, rng=np.random.default_rng(99))
        got = self._score(params, config, x, spec, "bi")

        oracle_spec = PerturbationSpec(9, "gaussian", 0.2, rng=np.random.default_rng(99))
        copies = perturb_features(x, oracle_spec)
        logits = np.stack([forward_logits(params, config, c) for c in copies])
        assert got == score_sample(logits, "bi")

        probs = softmax_rows(logits)
        for metric in ("lc", "rc", "en"):
            spec2 = PerturbationSpec(9, "gaussian", 0.2, rng=np.random.default_rng(99))
            assert self._score(params, config, x, spec2, metric) == _confidence(metric, probs)


@pytest.mark.parametrize("metric", METRICS)
class TestScoreSampleProperties:
    """Properties of every metric through ``score_sample``, the one scoring entry, on (P, C) logit sets."""

    def test_copy_order_invariant_bitwise(self, metric):
        rng = np.random.default_rng(19)
        z = rng.normal(size=(7, 5)) * 3.0
        base = score_sample(z, metric)
        for _ in range(5):
            assert score_sample(z[rng.permutation(7)], metric) == base

    def test_class_order_invariant(self, metric):
        rng = np.random.default_rng(23)
        z = rng.normal(size=(6, 5)) * 3.0
        base = score_sample(z, metric)
        for _ in range(5):
            assert score_sample(z[:, rng.permutation(5)], metric) == pytest.approx(base, abs=1e-12)

    @given(st.integers(1, 8), st.integers(2, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_ranges(self, metric, p, c, seed):
        z = np.random.default_rng(seed).normal(size=(p, c)) * 5.0
        upper = {"bi": math.inf, "lc": 1.0 - 1.0 / c, "rc": 1.0, "en": math.log(c)}[metric]
        assert 0.0 <= score_sample(z, metric) <= upper + 1e-12

    def test_identical_copies_score_as_one_copy(self, metric):
        row = np.array([0.4, -1.1, 2.3, 0.0])
        assert score_sample(np.tile(row, (6, 1)), metric) == pytest.approx(
            score_sample(row[None, :], metric), abs=1e-12
        )

    def test_leaves_its_block_unchanged(self, metric):
        block = np.random.default_rng(29).normal(size=(3, 5, 4))
        before = block.copy()
        for z in block:
            score_sample(z, metric)
        assert np.array_equal(block, before)

    def test_agreeing_confident_copies_score_zero(self, metric):
        z = np.zeros((5, 3))
        z[:, 1] = 1000.0
        z += np.random.default_rng(31).normal(size=z.shape) * 0.1
        assert score_sample(z, metric) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_copies(self, metric):
        c = 4
        expected = {"bi": 0.0, "lc": 1.0 - 1.0 / c, "rc": 1.0, "en": math.log(c)}[metric]
        assert score_sample(np.zeros((5, c)), metric) == pytest.approx(expected, abs=1e-12)

    def test_one_copy_values(self, metric):
        probs = [0.7, 0.2, 0.1]
        expected = {
            "bi": 0.0,
            "lc": 0.3,
            "rc": 0.2 / 0.7,
            "en": -math.fsum(q * math.log(q) for q in probs),
        }[metric]
        assert score_sample(np.log([probs]), metric) == pytest.approx(expected, abs=1e-12)

    def test_disagreeing_confident_copies(self, metric):
        """Copies confident in different classes: only BI sees their disagreement."""
        gap = 40.0
        z = np.array([[gap, 0.0], [0.0, gap]])
        expected = gap / 2.0 - math.log(2.0) if metric == "bi" else 0.0
        assert score_sample(z, metric) == pytest.approx(expected, abs=1e-12)
