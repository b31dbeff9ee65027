"""Federation: round scheduling, aggregation strategies, smoothing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedreplay.federation import RoundReport, class_weighted_avg, fedavg, should_communicate, temporal_smooth
from fedreplay.model import ParameterVector


def _pv(values):
    values = np.asarray(values, dtype=float)
    return ParameterVector(values, (((values.size,), 0),))


class TestShouldCommunicate:
    def test_burn_in_boundary_is_strict(self):
        assert should_communicate(30, burn_in=30, q=5) is False

    def test_past_burn_in_on_multiple(self):
        assert should_communicate(35, burn_in=30, q=5) is True

    def test_modulus_must_hit(self):
        assert should_communicate(32, burn_in=30, q=5) is False

    @given(st.integers(0, 60), st.integers(1, 10), st.integers(0, 200))
    def test_fire_count_matches_counting_oracle(self, burn_in, q, total_batches):
        fired = sum(1 for bn in range(1, total_batches + 1) if should_communicate(bn, burn_in, q))
        expected = len([n for n in range(1, total_batches + 1) if n > burn_in and n % q == 0])
        assert fired == expected


class TestFedavg:
    def test_uniform_mean(self):
        out = fedavg([_pv([1.0, 2.0]), _pv([3.0, 4.0])])
        assert np.array_equal(out.values, np.array([2.0, 3.0]))

    def test_single_client_identity(self):
        p = _pv([1.5, -2.5])
        assert fedavg([p]).values_equal(p)

    def test_layout_mismatch_rejected(self):
        a = _pv([1.0, 2.0])
        b = ParameterVector(np.zeros(2), (((1,), 0), ((1,), 1)))
        with pytest.raises(ValueError):
            fedavg([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fedavg([])

    def test_client_order_invariant_bitwise(self):
        rng = np.random.default_rng(0)
        vecs = [_pv(rng.normal(size=17)) for _ in range(5)]
        base = fedavg(vecs)
        for _ in range(10):
            perm = rng.permutation(5)
            assert fedavg([vecs[i] for i in perm]).values_equal(base)


class TestClassWeightedAvg:
    def test_identical_reports_reduce_to_fedavg_bitwise(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            k = int(rng.integers(2, 6))
            vecs = [_pv(rng.normal(size=9)) for _ in range(k)]
            classes = set(int(c) for c in rng.integers(0, 10, size=rng.integers(1, 4)))
            report = RoundReport(params=vecs, class_reports=[set(classes) for _ in range(k)])
            assert class_weighted_avg(report).values_equal(fedavg(vecs))

    def test_disjoint_reports(self):
        report = RoundReport(params=[_pv([0.0]), _pv([4.0])], class_reports=[{1}, {2}])
        assert np.array_equal(class_weighted_avg(report).values, np.array([2.0]))

    def test_overlapping_reports(self):
        report = RoundReport(params=[_pv([0.0]), _pv([4.0])], class_reports=[{1, 2}, {2}])
        # class 1 model [0], class 2 model [2], mean [1]
        assert np.array_equal(class_weighted_avg(report).values, np.array([1.0]))

    def test_silent_clients_excluded(self):
        report = RoundReport(
            params=[_pv([0.0]), _pv([4.0]), _pv([100.0])],
            class_reports=[{1}, {2}, set()],
        )
        assert np.array_equal(class_weighted_avg(report).values, np.array([2.0]))

    def test_no_reports_falls_back_to_fedavg(self):
        report = RoundReport(
            params=[_pv([0.0]), _pv([4.0])], class_reports=[set(), set()]
        )
        assert np.array_equal(class_weighted_avg(report).values, np.array([2.0]))

    def test_client_and_class_order_invariant_bitwise(self):
        rng = np.random.default_rng(2)
        vecs = [_pv(rng.normal(size=7)) for _ in range(4)]
        reports = [{0, 3}, {3}, {7, 0}, {7}]
        base = class_weighted_avg(RoundReport(params=vecs, class_reports=reports))
        for _ in range(10):
            perm = list(rng.permutation(4))
            shuffled = RoundReport(
                params=[vecs[i] for i in perm],
                class_reports=[set(reports[i]) for i in perm],
            )
            assert class_weighted_avg(shuffled).values_equal(base)


class TestTemporalSmooth:
    def test_first_round_pass_through(self):
        new = _pv([6.0])
        assert temporal_smooth(new, None) is new

    def test_midpoint(self):
        out = temporal_smooth(_pv([6.0]), _pv([0.0]))
        assert np.array_equal(out.values, np.array([3.0]))

    def test_fixed_point(self):
        prev = _pv([1.25, -3.5])
        assert temporal_smooth(prev.copy(), prev).values_equal(prev)

    def test_layout_mismatch_rejected(self):
        with pytest.raises(ValueError):
            temporal_smooth(_pv([1.0, 2.0]), ParameterVector(np.zeros(2), (((1,), 0), ((1,), 1))))

    def test_output_between_prev_and_new(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            prev = rng.normal(size=11)
            new = rng.normal(size=11)
            out = temporal_smooth(_pv(new), _pv(prev)).values
            lo = np.minimum(prev, new)
            hi = np.maximum(prev, new)
            assert np.all(out >= lo) and np.all(out <= hi)


def test_round_report_validation():
    with pytest.raises(ValueError):
        RoundReport(params=[])
    with pytest.raises(ValueError):
        RoundReport(params=[_pv([1.0])], class_reports=[{0}, {1}])
