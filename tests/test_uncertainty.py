"""Uncertainty scores: logit-variance score, confidence scores."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedreplay.model import ModelConfig, ParameterVector, forward_logits, layout_of
from fedreplay.uncertainty import (
    PerturbationSpec,
    bregman_information,
    copy_logits,
    entropy_score,
    least_confidence,
    margin_sampling,
    perturb_features,
    ratio_confidence,
    score_sample,
    softmax_rows,
)


def _random_probs(rng, p, c):
    raw = rng.uniform(0.01, 1.0, size=(p, c))
    return raw / raw.sum(axis=1, keepdims=True)


class TestBregmanInformation:
    def test_identical_rows_exactly_zero(self):
        row = np.array([0.3, -1.2, 4.5])
        assert bregman_information(np.tile(row, (5, 1))) == 0.0

    def test_two_row_value(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        expected = math.log(math.e + 1.0) - (0.5 + math.log(2.0))
        assert bregman_information(z) == pytest.approx(expected, abs=1e-12)
        assert bregman_information(z) == pytest.approx(0.120115, abs=1e-6)

    def test_per_row_constant_shift_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = rng.uniform(-50, 50, size=(rng.integers(2, 9), rng.integers(2, 9)))
            shifts = rng.uniform(-20, 20, size=(z.shape[0], 1))
            assert bregman_information(z + shifts) == pytest.approx(
                bregman_information(z), abs=1e-9
            )

    def test_nonnegative_random(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            z = rng.uniform(-50, 50, size=(rng.integers(1, 17), rng.integers(2, 21)))
            assert bregman_information(z) >= 0.0

    def test_row_order_invariant_bitwise(self):
        rng = np.random.default_rng(11)
        z = rng.uniform(-10, 10, size=(6, 4))
        base = bregman_information(z)
        for _ in range(10):
            assert bregman_information(z[rng.permutation(6)]) == base

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            bregman_information(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            bregman_information(np.zeros((3, 1)))
        with pytest.raises(ValueError):
            bregman_information(np.array([[np.nan, 0.0]]))


class TestConfidenceScores:
    def test_least_confidence_values(self):
        assert least_confidence([[0.7, 0.3]]) == pytest.approx(0.3, abs=1e-12)
        assert least_confidence([[1.0, 0.0], [0.0, 1.0]]) == 0.0
        assert least_confidence([[0.7, 0.3], [0.5, 0.5]]) == pytest.approx(0.4, abs=1e-12)

    def test_margin_values(self):
        assert margin_sampling([[0.7, 0.3]]) == pytest.approx(0.6, abs=1e-12)
        assert margin_sampling([[0.5, 0.5], [0.5, 0.5]]) == pytest.approx(1.0, abs=1e-12)
        assert margin_sampling([[1.0, 0.0]]) == 0.0

    def test_ratio_values(self):
        assert ratio_confidence([[0.7, 0.3]]) == pytest.approx(0.3 / 0.7, abs=1e-12)
        assert ratio_confidence([[0.25, 0.25, 0.25, 0.25]]) == pytest.approx(1.0, abs=1e-12)
        assert ratio_confidence([[0.0, 1.0]]) == 0.0

    def test_entropy_values(self):
        assert entropy_score([[0.7, 0.3]]) == pytest.approx(0.6108643020548935, abs=1e-12)
        assert entropy_score([[1.0, 0.0]]) == 0.0
        for c in (2, 5, 9):
            uniform = np.full((3, c), 1.0 / c)
            assert entropy_score(uniform) == pytest.approx(math.log(c), abs=1e-12)

    def test_invalid_probability_sets_rejected(self):
        with pytest.raises(ValueError):
            least_confidence([[0.9, 0.3]])  # does not sum to 1
        with pytest.raises(ValueError):
            entropy_score([[1.2, -0.2]])  # outside [0, 1]

    @pytest.mark.parametrize("scorer", [least_confidence, margin_sampling, ratio_confidence, entropy_score])
    def test_nonfinite_probability_sets_rejected(self, scorer):
        # NaN passes every range and sum check, so it is rejected by name.
        for probs in ([[math.nan, math.nan]], [[1.0, 0.0], [math.nan, 0.5]], [[math.inf, 0.0]]):
            with pytest.raises(ValueError, match="finite"):
                scorer(probs)

    @given(st.integers(1, 6), st.integers(2, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_ranges(self, p, c, seed):
        probs = _random_probs(np.random.default_rng(seed), p, c)
        assert 0.0 <= least_confidence(probs) <= 1.0
        assert 0.0 <= margin_sampling(probs) <= 1.0
        assert 0.0 <= ratio_confidence(probs) <= 1.0
        assert 0.0 <= entropy_score(probs) <= math.log(c) + 1e-12

    def test_row_order_invariant_bitwise(self):
        rng = np.random.default_rng(17)
        probs = _random_probs(rng, 7, 5)
        scores = (least_confidence, margin_sampling, ratio_confidence, entropy_score)
        base = [f(probs) for f in scores]
        for _ in range(5):
            shuffled = probs[rng.permutation(7)]
            assert [f(shuffled) for f in scores] == base


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
        assert got == bregman_information(logits)

        probs = softmax_rows(logits)
        for metric, fn in (
            ("lc", least_confidence),
            ("ms", margin_sampling),
            ("rc", ratio_confidence),
            ("en", entropy_score),
        ):
            spec2 = PerturbationSpec(9, "gaussian", 0.2, rng=np.random.default_rng(99))
            assert self._score(params, config, x, spec2, metric) == fn(probs)
