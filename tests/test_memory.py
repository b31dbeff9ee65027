"""Replay memory: quotas, admission policies, replay sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedreplay.memory import (
    SCORED_POLICIES,
    MemoryBuffer,
    class_quota,
    dump_csv,
    sample_replay,
    update_memory,
)
from fedreplay.stream import MiniBatch


def _batch(labels, task_id=1, dim=2):
    labels = np.asarray(labels)
    feats = np.arange(labels.size * dim, dtype=float).reshape(labels.size, dim)
    return MiniBatch(features=feats, labels=labels, task_id=task_id)


def _scores(buffer, label):
    return sorted(buffer.scores[buffer.labels == label].tolist())


def _class_rows(buffer, label):
    """Sorted ``(score, arrival)`` pairs of the stored rows of one class."""
    mask = buffer.labels == label
    return sorted(zip(buffer.scores[mask].tolist(), buffer.arrivals[mask].tolist()))


class TestClassQuota:
    def test_even_split(self):
        assert class_quota(4, {0, 1}) == {0: 2, 1: 2}

    def test_remainder_to_lowest_ids(self):
        assert class_quota(5, {0, 1}) == {0: 3, 1: 2}
        assert class_quota(7, {3, 1, 5}) == {1: 3, 3: 2, 5: 2}

    def test_under_capacity(self):
        assert class_quota(2, {0, 1, 2}) == {0: 1, 1: 1, 2: 0}

    def test_empty_classes_rejected(self):
        with pytest.raises(ValueError):
            class_quota(4, set())

    @given(st.integers(0, 200), st.sets(st.integers(0, 50), min_size=1, max_size=20))
    def test_quota_sums_to_capacity(self, capacity, classes):
        quota = class_quota(capacity, classes)
        assert sum(quota.values()) == capacity
        assert all(v >= 0 for v in quota.values())
        assert max(quota.values()) - min(quota.values()) <= 1


class TestUpdateMemory:
    def test_bottom_k_initial_fill(self):
        buf = MemoryBuffer(2, "bottom_k", np.random.default_rng(0))
        update_memory(buf, _batch([0, 0, 0]), [0.5, 0.1, 0.9])
        assert _scores(buf, 0) == [0.1, 0.5]

    def test_bottom_k_merge(self):
        buf = MemoryBuffer(2, "bottom_k", np.random.default_rng(0))
        update_memory(buf, _batch([0, 0]), [0.2, 0.7])
        update_memory(buf, _batch([0, 0]), [0.1, 0.9])
        assert _scores(buf, 0) == [0.1, 0.2]

    def test_top_k_merge_mirror(self):
        buf = MemoryBuffer(2, "top_k", np.random.default_rng(0))
        update_memory(buf, _batch([0, 0]), [0.2, 0.7])
        update_memory(buf, _batch([0, 0]), [0.1, 0.9])
        assert _scores(buf, 0) == [0.7, 0.9]

    def test_tie_break_earlier_arrival(self):
        for policy in ("bottom_k", "top_k"):
            buf = MemoryBuffer(1, policy, np.random.default_rng(0))
            update_memory(buf, _batch([0, 0]), [0.5, 0.5])
            assert buf.labels.tolist() == [0]
            assert buf.arrivals.tolist() == [0]

    def test_misaligned_scores_rejected(self):
        buf = MemoryBuffer(4, "bottom_k", np.random.default_rng(0))
        with pytest.raises(ValueError):
            update_memory(buf, _batch([0, 0]), [0.1])

    def test_new_class_shrinks_quota_and_trims(self):
        buf = MemoryBuffer(4, "bottom_k", np.random.default_rng(0))
        update_memory(buf, _batch([0, 0, 0, 0]), [0.1, 0.2, 0.3, 0.4])
        assert buf.labels.tolist() == [0, 0, 0, 0]
        update_memory(buf, _batch([1, 1]), [0.5, 0.6])
        # quotas are now {0: 2, 1: 2}; class 0 trimmed to its two lowest scores
        assert _scores(buf, 0) == [0.1, 0.2]
        assert _scores(buf, 1) == [0.5, 0.6]
        assert len(buf) == 4

    def test_rescore_hook_refreshes_stored_scores(self):
        buf = MemoryBuffer(2, "bottom_k", np.random.default_rng(0))
        update_memory(buf, _batch([0, 0]), [0.1, 0.2])
        # fresh model ranks the stored samples the other way around
        update_memory(buf, _batch([0]), [0.15], rescore=lambda stored: lambda: [0.9, 0.05])
        assert _scores(buf, 0) == [0.05, 0.15]

    def test_rescore_receives_stored_rows_in_arrival_order(self):
        buf = MemoryBuffer(4, "bottom_k", np.random.default_rng(0))
        update_memory(buf, _batch([1, 0, 1]), [0.3, 0.1, 0.2])
        seen = []

        def rescore(stored):
            seen.append(stored.copy())
            return lambda: [0.4, 0.6]

        update_memory(buf, _batch([1]), [0.5], rescore=rescore)
        # class 1 holds arrivals 0 and 2, whose features are rows 0 and 2 of the first batch
        (stored,) = seen
        assert np.array_equal(stored, _batch([1, 0, 1]).features[[0, 2]])
        # the fresh scores belong to those rows in that order: 0.4 to arrival 0, 0.6 to arrival 2
        assert _class_rows(buf, 1) == [(0.4, 0), (0.5, 3)]

    def test_one_rescore_call_per_touched_class(self):
        buf = MemoryBuffer(9, "bottom_k", np.random.default_rng(0))
        first = _batch([2, 1, 0, 2, 0, 1])
        update_memory(buf, first, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        seen = []

        def rescore(stored):
            start = sum(map(len, seen))
            seen.append(stored.copy())
            return lambda: start + np.arange(len(stored), dtype=float)

        update_memory(buf, _batch([2, 0]), [0.7, 0.8], rescore=rescore)
        # class 0 holds arrivals 2 and 4, class 2 arrivals 0 and 3; class 1 is untouched
        assert len(seen) == 2
        assert np.array_equal(seen[0], first.features[[2, 4]])
        assert np.array_equal(seen[1], first.features[[0, 3]])
        assert _class_rows(buf, 0) == [(0.0, 2), (0.8, 7), (1.0, 4)]
        assert _class_rows(buf, 1) == [(0.2, 1), (0.6, 5)]
        assert _class_rows(buf, 2) == [(0.7, 6), (2.0, 0), (3.0, 3)]
        # a touched class with no stored rows gets no call
        update_memory(buf, _batch([3]), [0.9], rescore=rescore)
        assert len(seen) == 2

    def test_non_finite_rescore_rejected(self):
        buf = MemoryBuffer(2, "bottom_k", np.random.default_rng(0))
        update_memory(buf, _batch([0, 0]), [0.1, 0.2])
        with pytest.raises(ValueError, match="rescored sample scores must be finite"):
            update_memory(buf, _batch([0]), [0.15], rescore=lambda stored: lambda: [float("nan"), 0.05])
        with pytest.raises(ValueError, match="rescored sample scores must be finite"):
            update_memory(buf, _batch([0]), [0.15], rescore=lambda stored: lambda: [0.3, float("-inf")])
        assert _class_rows(buf, 0) == [(0.1, 0), (0.2, 1)]

    def test_rescore_of_wrong_length_rejected_when_read(self):
        for returned in ([0.05], [0.3, 0.05, 0.4]):
            buf = MemoryBuffer(2, "bottom_k", np.random.default_rng(0))
            update_memory(buf, _batch([0, 0]), [0.1, 0.2])
            # class 0 holds 3 rows under a quota of 2, so retention reads the call at this offer
            with pytest.raises(ValueError, match="rescore must return one score per stored sample"):
                update_memory(buf, _batch([0]), [0.15], rescore=lambda stored, r=returned: lambda: r)
            assert _class_rows(buf, 0) == [(0.1, 0), (0.2, 1)]
        # a class that fits its quota is not compared, so the call fails only when the scores are read
        buf = MemoryBuffer(4, "bottom_k", np.random.default_rng(0))
        update_memory(buf, _batch([0, 0]), [0.1, 0.2])
        update_memory(buf, _batch([0]), [0.15], rescore=lambda stored: lambda: [0.05])
        assert len(buf) == 3
        with pytest.raises(ValueError, match="rescore must return one score per stored sample"):
            buf.scores

    def test_non_finite_score_and_negative_label_rejected(self):
        buf = MemoryBuffer(4, "bottom_k", np.random.default_rng(0))
        with pytest.raises(ValueError, match="score must be finite"):
            update_memory(buf, _batch([0, 1]), [0.1, float("nan")])
        with pytest.raises(ValueError, match="label must be >= 0"):
            update_memory(buf, _batch([-1]), [0.0])
        assert len(buf) == 0

    def test_zero_capacity_stores_nothing(self):
        buf = MemoryBuffer(0, "bottom_k", np.random.default_rng(0))
        update_memory(buf, _batch([0, 1]), [0.1, 0.2])
        assert len(buf) == 0
        assert buf.classes_seen == {0, 1}

    def test_random_policy_capacity(self):
        buf = MemoryBuffer(5, "random", rng=np.random.default_rng(0))
        for step in range(20):
            update_memory(buf, _batch([step % 3, step % 3], task_id=1), [0.0, 0.0])
            assert len(buf) <= 5
        assert len(buf) == 5

    def test_class_balanced_random_balance(self):
        buf = MemoryBuffer(9, "class_balanced_random", rng=np.random.default_rng(0))
        for step in range(30):
            update_memory(buf, _batch([0, 1, 2]), [0.0, 0.0, 0.0])
            counts = np.unique(buf.labels, return_counts=True)[1]
            assert max(counts) - min(counts) <= 1
        assert len(buf) == 9


class TestBruteForceOracle:
    """Replay the full candidate history and sort; the buffer must agree exactly."""

    def _run(self, policy, seed, steps=400):
        rng = np.random.default_rng(seed)
        capacity = int(rng.integers(1, 30))
        buf = MemoryBuffer(capacity, policy, np.random.default_rng(0))
        history = {}
        arrival = 0
        for _ in range(steps):
            n = int(rng.integers(1, 5))
            labels = rng.integers(0, 6, size=n)
            scores = rng.normal(size=n)
            # duplicate scores now and then to exercise tie-breaking
            if n > 1 and rng.random() < 0.3:
                scores[1] = scores[0]
            update_memory(buf, _batch(labels, task_id=int(rng.integers(1, 4))), scores)
            for label, score in zip(labels, scores):
                history.setdefault(int(label), []).append((float(score), arrival))
                arrival += 1
            assert len(buf) <= capacity
        quota = class_quota(capacity, set(history))
        for c, offered in history.items():
            if policy == "bottom_k":
                expected = sorted(offered)[: quota[c]]
            else:
                expected = sorted(offered, key=lambda t: (-t[0], t[1]))[: quota[c]]
            assert _class_rows(buf, c) == sorted(expected), f"class {c} mismatch under {policy}"

    def test_bottom_k(self):
        for seed in range(5):
            self._run("bottom_k", seed)

    def test_top_k(self):
        for seed in range(5):
            self._run("top_k", seed + 100)


class _EagerBuffer:
    """Eager reference for the scored policies: every score is an array entry, rescored all at once.

    ``tags`` records where each row's score came from: ``offer * 1000 + i``
    for item i of that offer's rescore, -1 for an admission-time score.
    """

    def __init__(self, capacity, policy):
        self.capacity = capacity
        self.policy = policy
        self.features = np.empty((0, 0))
        self.labels = np.empty(0, dtype=np.int64)
        self.task_ids = np.empty(0, dtype=np.int64)
        self.scores = np.empty(0)
        self.arrivals = np.empty(0, dtype=np.int64)
        self.tags = np.empty(0, dtype=np.int64)
        self.classes_seen = set()
        self._next_arrival = 0

    def __len__(self):
        return self.labels.size

    def _keep(self, idx, pool, quota, offer, compared):
        if len(idx) <= quota:
            return idx
        if quota <= 0:
            return idx[:0]
        # retention compares these rows' scores: note the first offer that compares each rescored one
        for tag in pool["tags"][idx].tolist():
            if tag >= 0:
                compared.setdefault(tag, offer)
        if self.policy == "bottom_k":
            return idx[np.lexsort((pool["arrivals"][idx], pool["scores"][idx]))[:quota]]
        return idx[np.lexsort((pool["arrivals"][idx], -pool["scores"][idx]))[:quota]]

    def offer(self, batch, scores, rescore, offer, compared):
        """The eager ``update_memory``: ``rescore`` returns every fresh score of the stored touched rows at once."""
        scores = np.asarray(scores, dtype=np.float64)
        labels = np.asarray(batch.labels, dtype=np.int64)
        incoming = sorted(set(labels.tolist()))
        self.classes_seen.update(incoming)
        first = self._next_arrival
        self._next_arrival += labels.size
        order = np.argsort(labels, kind="stable")
        new = {
            "features": np.asarray(batch.features, dtype=np.float64)[order],
            "labels": labels[order],
            "task_ids": np.full(labels.size, batch.task_id, dtype=np.int64),
            "scores": scores[order],
            "arrivals": first + order,
            "tags": np.full(labels.size, -1, dtype=np.int64),
        }
        pool = {name: np.concatenate([getattr(self, name), rows]) for name, rows in new.items()} if len(self) else new
        stored = np.flatnonzero((self.labels[:, None] == np.array(incoming)).any(axis=1))
        if stored.size:
            pool["scores"][stored] = np.asarray(rescore(pool["features"][stored]), dtype=np.float64)
            pool["tags"][stored] = offer * 1000 + np.arange(stored.size)
        untouched = sorted(set(self.labels.tolist()) - set(incoming))
        quota = class_quota(self.capacity, self.classes_seen)
        keep = [
            self._keep(np.flatnonzero(pool["labels"] == c), pool, quota[c], offer, compared)
            for c in incoming + untouched
        ]
        keep = np.concatenate(keep)
        keep = keep[np.lexsort((pool["arrivals"][keep], pool["labels"][keep]))]
        for name, rows in pool.items():
            setattr(self, name, rows[keep])


def _counted_rescore(offer, fresh, reads):
    """A ``rescore`` whose calls number their items across one offer as ``offer * 1000 + i``.

    Successive calls take successive items of ``fresh``; a call logs its
    items in ``reads`` each time it is made.
    """
    taken = []

    def rescore(rows):
        items = range(len(taken), len(taken) + len(rows))
        taken.extend(items)

        def call():
            reads.extend(offer * 1000 + i for i in items)
            return [fresh[i] for i in items]

        return call

    return rescore


# few distinct values, so equal scores (ties broken by arrival) are common
_SCORE_VALUES = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 2.0])


@st.composite
def _offer_streams(draw):
    """Offers of ``(labels, task_id, scores, fresh)``; ``fresh`` covers every stored row at capacity <= 12.

    The eager reference takes one block of fresh scores for every stored
    row of the touched classes, in buffer order; the per-class calls of one
    offer take its items one class after another, in ascending class order.
    """
    offers = []
    for _ in range(draw(st.integers(1, 25))):
        labels = draw(st.lists(st.integers(0, 5), min_size=1, max_size=5))
        scores = draw(st.lists(_SCORE_VALUES, min_size=len(labels), max_size=len(labels)))
        fresh = draw(st.lists(_SCORE_VALUES, min_size=12, max_size=12))
        offers.append((labels, draw(st.integers(1, 3)), scores, fresh))
    return offers


class TestLazyRescoreOracle:
    """Per-class deferred fresh scores against the eager reference ``_EagerBuffer``."""

    @given(st.sampled_from(SCORED_POLICIES), st.integers(1, 12), _offer_streams(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_scores_and_reads_match_eager_oracle(self, policy, capacity, offers, data):
        oracle = _EagerBuffer(capacity, policy)
        buf = MemoryBuffer(capacity, policy, np.random.default_rng(0))
        compared, reads = {}, []
        for t, (labels, task_id, scores, fresh) in enumerate(offers):
            batch = _batch(labels, task_id=task_id)
            oracle.offer(batch, scores, lambda rows, f=fresh: f[: len(rows)], t, compared)
            update_memory(buf, batch, scores, rescore=_counted_rescore(t, fresh, reads))
            for name in ("features", "labels", "task_ids", "arrivals"):
                assert np.array_equal(getattr(buf, name), getattr(oracle, name))
            # a class's call is made at most once, and only when retention compares the class
            assert sorted(reads) == sorted(compared)
            buf.samples()
            assert len(reads) == len(compared)
        assert np.array_equal(buf.scores, oracle.scores)

        # one item turned infinite raises at the offer that first compares it, and never if none does
        t_bad, i_bad = data.draw(st.tuples(st.integers(0, len(offers) - 1), st.integers(0, 11)))
        raises_at = compared.get(t_bad * 1000 + i_bad)
        buf = MemoryBuffer(capacity, policy, np.random.default_rng(0))
        for t, (labels, task_id, scores, fresh) in enumerate(offers):
            fresh = [float("inf") if (t, i) == (t_bad, i_bad) else v for i, v in enumerate(fresh)]
            offer = (buf, _batch(labels, task_id=task_id), scores)
            rescore = _counted_rescore(t, fresh, [])
            if t == raises_at:
                with pytest.raises(ValueError, match="rescored sample scores must be finite"):
                    update_memory(*offer, rescore=rescore)
                break
            update_memory(*offer, rescore=rescore)

    def test_unread_non_finite_score_raises_only_when_scores_are_read(self):
        buf = MemoryBuffer(4, "bottom_k", np.random.default_rng(0))
        update_memory(buf, _batch([0, 0]), [0.1, 0.2])
        reads = []
        # class 0 holds 3 rows under a quota of 4, so nothing is compared and nothing is read
        update_memory(buf, _batch([0]), [0.3], rescore=_counted_rescore(1, [float("nan"), 0.5], reads))
        assert reads == []
        assert [s.arrival for s in buf.samples()] == [0, 1, 2]
        with pytest.raises(ValueError, match="rescored sample scores must be finite"):
            buf.scores
        assert sorted(reads) == [1000, 1001]

    def test_next_touching_offer_replaces_pending_scores_unread(self):
        buf = MemoryBuffer(4, "bottom_k", np.random.default_rng(0))
        update_memory(buf, _batch([0]), [0.1])
        reads = []
        update_memory(buf, _batch([0]), [0.2], rescore=_counted_rescore(1, [0.9], reads))
        update_memory(buf, _batch([0]), [0.3], rescore=_counted_rescore(2, [0.7, 0.8], reads))
        assert reads == []
        assert _class_rows(buf, 0) == [(0.3, 2), (0.7, 0), (0.8, 1)]
        assert sorted(reads) == [2000, 2001]


class _RandomReference:
    """The two random policies on plain lists of ``(label, arrival)`` pairs.

    Draws in the buffer's order: ``random`` chooses over the stored rows in
    class order followed by the new rows in class order; class-balanced
    random chooses for the touched classes first, then for the untouched
    classes over quota, each in ascending class order.
    """

    def __init__(self, capacity, policy, seed):
        self.capacity = capacity
        self.policy = policy
        self.rng = np.random.default_rng(seed)
        self.per_class = {}
        self.seen = set()
        self.arrival = 0

    def rows(self):
        return [s for c in sorted(self.per_class) for s in self.per_class[c]]

    def _keep(self, candidates, quota):
        if len(candidates) <= quota:
            return candidates
        idx = self.rng.choice(len(candidates), size=quota, replace=False)
        return sorted((candidates[i] for i in idx), key=lambda s: s[1])

    def offer(self, labels):
        incoming = {}
        for label in labels:
            incoming.setdefault(int(label), []).append((int(label), self.arrival))
            self.arrival += 1
        self.seen.update(incoming)
        if self.capacity == 0:
            return
        if self.policy == "random":
            pool = self._keep(self.rows() + [s for c in sorted(incoming) for s in incoming[c]], self.capacity)
            self.per_class = {}
            for s in pool:
                self.per_class.setdefault(s[0], []).append(s)
            return
        quota = class_quota(self.capacity, self.seen)
        for c in sorted(incoming):
            self.per_class[c] = self._keep(self.per_class.get(c, []) + incoming[c], quota[c])
        for c in sorted(self.per_class):
            if c not in incoming:
                self.per_class[c] = self._keep(self.per_class[c], quota[c])
        self.per_class = {c: v for c, v in self.per_class.items() if v}


class TestRandomPoliciesOracle:
    """Seeded offer streams; the buffer's rows and draws must match the list reference."""

    @pytest.mark.parametrize("policy", ["random", "class_balanced_random"])
    @pytest.mark.parametrize("seed", range(6))
    def test_rows_match_reference(self, policy, seed):
        rng = np.random.default_rng(500 + seed)
        capacity = int(rng.integers(0, 25))
        buf = MemoryBuffer(capacity, policy, rng=np.random.default_rng(seed))
        ref = _RandomReference(capacity, policy, seed)
        for _ in range(150):
            # new classes keep appearing, so quotas shrink and untouched classes get trimmed
            labels = rng.integers(0, int(rng.integers(1, 9)), size=int(rng.integers(1, 7)))
            update_memory(buf, _batch(labels, task_id=int(rng.integers(1, 4))), np.zeros(labels.size))
            ref.offer(labels)
            assert [(s.label, s.arrival) for s in buf.samples()] == ref.rows()
        assert buf.rng.random() == ref.rng.random()


class TestSampleReplay:
    def _filled(self, tasks, per_task=5):
        buf = MemoryBuffer(1000, "bottom_k", np.random.default_rng(0))
        for t in tasks:
            labels = np.full(per_task, t % 3)
            update_memory(buf, _batch(labels, task_id=t), np.linspace(0, 1, per_task))
        return buf

    def test_only_current_task_gives_empty(self):
        buf = self._filled([2])
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert sample_replay(buf, 3, current_task=2, rng=rng).size == 0
        # the runner draws on the first task too, so an empty draw must not move the generator
        assert rng.bit_generator.state == before

    def test_exhaustion_returns_all(self):
        buf = self._filled([1], per_task=3)
        out = sample_replay(buf, 10, current_task=2, rng=np.random.default_rng(0))
        assert len(out) == 3

    def test_never_returns_current_task(self):
        buf = self._filled([1, 2, 3])
        rng = np.random.default_rng(1)
        for _ in range(50):
            out = sample_replay(buf, 4, current_task=2, rng=rng)
            assert len(out) == 4
            assert len(set(out.tolist())) == 4
            assert np.all(buf.task_ids[out] != 2)

    def test_uniform_inclusion_frequency(self):
        # 100 eligible samples, draws of 10: inclusion ~ Binomial(trials, 0.1)
        buf = MemoryBuffer(200, "bottom_k", np.random.default_rng(0))
        labels = np.array([0] * 50 + [1] * 50)
        batch = MiniBatch(
            features=np.random.default_rng(0).normal(size=(100, 2)),
            labels=labels,
            task_id=1,
        )
        update_memory(buf, batch, np.arange(100, dtype=float))
        rng = np.random.default_rng(42)
        trials = 10_000
        hits = np.zeros(100)
        for _ in range(trials):
            np.add.at(hits, buf.arrivals[sample_replay(buf, 10, current_task=9, rng=rng)], 1)
        freq = hits / trials
        se = np.sqrt(0.1 * 0.9 / trials)
        assert np.all(np.abs(freq - 0.1) <= 3 * se)

    def test_deterministic_given_seed(self):
        buf_a = self._filled([1, 2])
        buf_b = self._filled([1, 2])
        out_a = sample_replay(buf_a, 3, current_task=3, rng=np.random.default_rng(5))
        out_b = sample_replay(buf_b, 3, current_task=3, rng=np.random.default_rng(5))
        assert buf_a.scores[out_a].tolist() == buf_b.scores[out_b].tolist()
        assert buf_a.arrivals[out_a].tolist() == buf_b.arrivals[out_b].tolist()


def test_class_balanced_random_deterministic_given_seed():
    def build():
        buf = MemoryBuffer(6, "class_balanced_random", rng=np.random.default_rng(11))
        for step in range(40):
            update_memory(buf, _batch([step % 3, (step + 1) % 3], task_id=1 + step % 2), [0.0, 0.0])
        return buf

    a, b = build(), build()
    assert a.labels.tolist() == b.labels.tolist()
    assert a.arrivals.tolist() == b.arrivals.tolist()


def test_dump_csv_roundtrips_fields(tmp_path):
    buf = MemoryBuffer(4, "bottom_k", np.random.default_rng(0))
    update_memory(buf, _batch([0, 1], task_id=3), [0.25, 0.5])
    path = tmp_path / "memory.csv"
    dump_csv(buf, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "class_id,task_id,score,features"
    assert len(lines) == 3
    assert lines[1].startswith("0,3,0.25,")
