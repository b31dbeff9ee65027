"""Federation: round scheduling, aggregation strategies, smoothing."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fedreplay.federation import RoundReport, class_weighted_avg, fedavg, should_communicate, temporal_smooth
from fedreplay.model import ParameterVector


def _pv(values):
    values = np.asarray(values, dtype=float)
    return ParameterVector(values, (((values.size,), 0),))


def _same(a, b):
    """Same layout and bit-identical values."""
    return a.layout == b.layout and np.array_equal(a.values, b.values)


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
        assert _same(fedavg([p]), p)

    def test_layout_mismatch_rejected(self):
        a = _pv([1.0, 2.0])
        b = ParameterVector(np.zeros(2), (((1,), 0), ((1,), 1)))
        with pytest.raises(ValueError):
            fedavg([a, b])

    def test_client_order_invariant_bitwise(self):
        rng = np.random.default_rng(0)
        vecs = [_pv(rng.normal(size=17)) for _ in range(5)]
        base = fedavg(vecs)
        for _ in range(10):
            perm = rng.permutation(5)
            assert _same(fedavg([vecs[i] for i in perm]), base)


class TestClassWeightedAvg:
    def test_identical_reports_reduce_to_fedavg_bitwise(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            k = int(rng.integers(2, 6))
            vecs = [_pv(rng.normal(size=9)) for _ in range(k)]
            classes = set(int(c) for c in rng.integers(0, 10, size=rng.integers(1, 4)))
            report = RoundReport(params=vecs, class_reports=[set(classes) for _ in range(k)])
            assert _same(class_weighted_avg(report), fedavg(vecs))

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
            assert _same(class_weighted_avg(shuffled), base)


# Finite values small enough that no sum of a few overflows: signed zeros, subnormals and
# half-ulps of 1.0 among them, so that sums cancel and land on rounding ties.
_coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.0 + 2.0**-52, 2.0**-53, -(2.0**-53), 5e-324, -5e-324]),
    st.floats(-1e300, 1e300),
)


@given(st.data())
def test_means_same_bytes_under_any_client_and_class_order(data):
    """Each coordinate's values are added in sorted order, so neither mean depends on the order
    of the clients or of the class ids, duplicate client vectors included."""
    dim = data.draw(st.integers(1, 6))
    distinct = data.draw(st.lists(st.lists(_coordinates, min_size=dim, max_size=dim), min_size=1, max_size=4))
    # Picks with repeats, so some clients hold the same vector.
    vecs = [_pv(distinct[i]) for i in data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=6))]
    reports = data.draw(st.lists(st.sets(st.integers(0, 4), max_size=3), min_size=len(vecs), max_size=len(vecs)))
    assume(any(reports))
    clients = data.draw(st.permutations(range(len(vecs))))
    relabel = data.draw(st.permutations(range(5)))

    assert fedavg([vecs[i] for i in clients]).values.tobytes() == fedavg(vecs).values.tobytes()
    shuffled = RoundReport(
        params=[vecs[i] for i in clients],
        class_reports=[{relabel[c] for c in reports[i]} for i in clients],
    )
    base = class_weighted_avg(RoundReport(params=vecs, class_reports=reports))
    assert class_weighted_avg(shuffled).values.tobytes() == base.values.tobytes()


class TestTemporalSmooth:
    def test_first_round_pass_through(self):
        new = _pv([6.0])
        assert temporal_smooth(new, None) is new

    def test_midpoint(self):
        out = temporal_smooth(_pv([6.0]), _pv([0.0]))
        assert np.array_equal(out.values, np.array([3.0]))

    def test_fixed_point(self):
        prev = _pv([1.25, -3.5])
        assert _same(temporal_smooth(prev.copy(), prev), prev)

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
        RoundReport(params=[_pv([1.0])], class_reports=[{0}, {1}])
