"""Fixed-capacity replay buffer with class-balanced, score-driven admission.

The buffer holds its samples as parallel arrays, one row per sample:
``features`` (n, d), ``labels``, ``task_ids``, ``scores`` and ``arrivals``
(the consecutive offer index), rows ordered by class and then by arrival.

Admission merges the stored rows of each incoming class with the new
candidates and keeps the per-class quota with the lowest scores
(bottom-k), the highest scores (top-k), or a uniform subset
(class-balanced random). An offer may give each touched class's stored
rows fresh scores as one deferred call, made when retention compares the
class (it is over quota, at this offer or a later one) or when ``scores``
is read; the next offer that touches the class replaces it unread. Every
score that is read is therefore the one an eager rescore would have given.
The plain random policy ignores classes and keeps a uniform subset of the
whole buffer under the global capacity. Ties on equal scores are broken by
earlier arrival; quotas are recomputed whenever new classes appear and
classes over quota are trimmed by the same criterion.

Replay draws row indices uniformly without replacement from the rows of
past tasks; rows of the current task are never eligible. The caller must
pass in every generator, so no draw here is unseeded.
"""

from __future__ import annotations

import csv
from itertools import accumulate
from typing import NamedTuple

import numpy as np

SCORED_POLICIES = ("bottom_k", "top_k")
POLICIES = (*SCORED_POLICIES, "random", "class_balanced_random")


class StoredRow(NamedTuple):
    """One stored sample, as ``MemoryBuffer.samples`` lists it; its score is ``MemoryBuffer.scores``."""

    features: np.ndarray
    label: int
    task_id: int
    arrival: int


def class_quota(capacity: int, classes_seen) -> dict[int, int]:
    """Per-class slot counts that sum to ``capacity``.

    Each class gets floor(capacity / n); the remainder goes one slot at a
    time to the lowest class ids.
    """
    classes = sorted(classes_seen)
    if not classes:
        raise ValueError("classes_seen must be non-empty")
    base, rem = divmod(capacity, len(classes))
    return {c: base + (1 if i < rem else 0) for i, c in enumerate(classes)}


def _read(scores: np.ndarray, idx: np.ndarray, pending) -> None:
    """Compute one class's pending ``(k, call)``, check the k scores and store them in its first k rows ``idx[:k]``."""
    k, call = pending
    values = np.asarray(call(), dtype=np.float64)
    if values.shape != (k,):
        raise ValueError("rescore must return one score per stored sample")
    if not np.isfinite(values).all():
        raise ValueError("rescored sample scores must be finite")
    scores[idx[:k]] = values


class MemoryBuffer:
    """At most ``capacity`` samples as parallel arrays, ordered by class then arrival."""

    def __init__(self, capacity: int, policy: str, rng: np.random.Generator):
        self.capacity = capacity
        self.policy = policy
        self.rng = rng
        self.features = np.empty((0, 0))
        self.labels = np.empty(0, dtype=np.int64)
        self.task_ids = np.empty(0, dtype=np.int64)
        self._scores = np.empty(0)
        self.arrivals = np.empty(0, dtype=np.int64)
        # class -> (k, call): its first k rows' fresh scores, computed by call() when read
        self._fresh: dict = {}
        self.classes_seen: set[int] = set()
        self._next_arrival = 0

    def __len__(self) -> int:
        return self.labels.size

    @property
    def scores(self) -> np.ndarray:
        """Each stored row's score, in buffer order; pending fresh scores are computed now."""
        for c, pending in self._fresh.items():
            _read(self._scores, np.flatnonzero(self.labels == c), pending)
        self._fresh = {}
        return self._scores

    def samples(self) -> list[StoredRow]:
        """All stored rows in buffer order; computes no score."""
        columns = (self.labels.tolist(), self.task_ids.tolist(), self.arrivals.tolist())
        return [StoredRow(x, *rest) for x, *rest in zip(self.features, *columns)]

    def _keep(self, idx: np.ndarray, pool: dict, quota: int, pending) -> np.ndarray:
        """The ``quota`` rows that the policy retains of ``idx`` (one class, or the whole pool, in pool order).

        ``idx`` holds more than ``quota`` rows. A class's pending fresh
        scores, if any, are read first.
        """
        if quota <= 0:
            return idx[:0]
        if pending is not None:
            _read(pool["_scores"], idx, pending)
        if self.policy == "bottom_k":
            return idx[np.lexsort((pool["arrivals"][idx], pool["_scores"][idx]))[:quota]]
        if self.policy == "top_k":
            return idx[np.lexsort((pool["arrivals"][idx], -pool["_scores"][idx]))[:quota]]
        return idx[self.rng.choice(len(idx), size=quota, replace=False)]


def update_memory(buffer: MemoryBuffer, batch, scores, rescore=None) -> None:
    """Offer a batch of candidates to the buffer.

    ``scores`` must align with ``batch`` samples and come from the metric
    configured for the experiment, evaluated on the current model. When
    ``rescore`` is given it is called once per touched class that has
    stored rows, in ascending class order, with that class's stored (k, d)
    feature rows in arrival order. It returns a zero-argument call that
    computes their k fresh scores under the current model. The call is
    made only when retention compares the class (it is over quota, now or
    at a later offer that trims it) or when ``buffer.scores`` is read; the
    next offer that touches the class replaces it unread. Its scores must
    be k finite numbers. Without ``rescore`` stored samples keep their
    admission-time scores.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(batch.labels, dtype=np.int64)
    if scores.shape != labels.shape:
        raise ValueError("scores must align one-to-one with the batch samples")
    if not np.isfinite(scores).all():
        raise ValueError("sample score must be finite")
    if labels.size and labels.min() < 0:
        raise ValueError("label must be >= 0")

    incoming = sorted(set(labels.tolist()))
    buffer.classes_seen.update(incoming)
    first = buffer._next_arrival
    buffer._next_arrival += labels.size
    if buffer.capacity == 0:
        return

    # new rows join after the stored ones, grouped by class in arrival order
    order = np.argsort(labels, kind="stable")
    new = {
        "features": np.asarray(batch.features, dtype=np.float64)[order],
        "labels": labels[order],
        "task_ids": np.full(labels.size, batch.task_id, dtype=np.int64),
        "_scores": scores[order],
        "arrivals": first + order,
    }
    pool = {name: np.concatenate([getattr(buffer, name), rows]) for name, rows in new.items()} if len(buffer) else new
    # pool rows grouped by class, each class in arrival order (stored rows first)
    by_class = np.argsort(pool["labels"], kind="stable")
    fresh = dict(buffer._fresh)  # a copy: an offer that raises leaves the buffer's pending calls as they were
    if buffer.policy == "random":
        groups = [(None, np.arange(by_class.size), buffer.capacity)]
    else:
        counts = np.bincount(pool["labels"]).tolist()
        ends = list(accumulate(counts))
        # the touched classes first, then the others: new classes can only shrink quotas, so they are trimmed too
        classes = incoming + [c for c, n in enumerate(counts) if n and c not in incoming]
        quotas = class_quota(buffer.capacity, buffer.classes_seen)
        groups = [(c, by_class[ends[c] - counts[c] : ends[c]], quotas[c]) for c in classes]
        if rescore is not None:
            for c, idx, _ in groups[: len(incoming)]:
                k = int(np.searchsorted(idx, len(buffer)))  # a group lists its stored rows first
                if k:
                    fresh[c] = (k, rescore(pool["features"][idx[:k]]))
    kept = np.ones(by_class.size, dtype=bool)
    for c, idx, quota in groups:
        if len(idx) > quota:  # a group that fits keeps every row, its pending scores unread
            kept[idx] = False
            kept[buffer._keep(idx, pool, quota, fresh.pop(c, None))] = True
    keep = by_class[kept[by_class]]
    for name, rows in pool.items():
        setattr(buffer, name, rows[keep])
    buffer._fresh = fresh


def sample_replay(buffer: MemoryBuffer, replay_size: int, current_task: int, rng: np.random.Generator) -> np.ndarray:
    """Row indices of a uniform draw without replacement from the rows of past tasks."""
    eligible = np.flatnonzero(buffer.task_ids != current_task)
    if len(eligible) <= replay_size:
        return eligible
    return eligible[rng.choice(len(eligible), size=replay_size, replace=False)]


def dump_csv(buffer: MemoryBuffer, path) -> None:
    """Debug snapshot: one row per stored sample (class, task, score, features)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class_id", "task_id", "score", "features"])
        for s, score in zip(buffer.samples(), buffer.scores.tolist()):
            writer.writerow([s.label, s.task_id, repr(score), " ".join(repr(v) for v in s.features.tolist())])
