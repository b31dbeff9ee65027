"""Fixed-capacity replay buffer with class-balanced, score-driven admission.

The buffer holds its samples as parallel arrays, one row per sample:
``features`` (n, d), ``labels``, ``task_ids``, ``scores`` and ``arrivals``
(the consecutive offer index), rows ordered by class and then by arrival.

Admission merges the stored rows of each incoming class with the new
candidates (optionally rescoring all those stored rows as one block) and
keeps the per-class quota with the lowest scores (bottom-k), the highest
scores (top-k), or a uniform subset (class-balanced random).
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
from typing import NamedTuple

import numpy as np

SCORED_POLICIES = ("bottom_k", "top_k")
POLICIES = (*SCORED_POLICIES, "random", "class_balanced_random")


class StoredRow(NamedTuple):
    """One stored sample, as ``MemoryBuffer.samples`` lists it."""

    features: np.ndarray
    label: int
    task_id: int
    score: float
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


class MemoryBuffer:
    """At most ``capacity`` samples as parallel arrays, ordered by class then arrival."""

    def __init__(self, capacity: int, policy: str, rng: np.random.Generator):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if policy not in POLICIES:
            raise ValueError(f"unknown memory policy: {policy!r}")
        self.capacity = capacity
        self.policy = policy
        self.rng = rng
        self.features = np.empty((0, 0))
        self.labels = np.empty(0, dtype=np.int64)
        self.task_ids = np.empty(0, dtype=np.int64)
        self.scores = np.empty(0)
        self.arrivals = np.empty(0, dtype=np.int64)
        self.classes_seen: set[int] = set()
        self._next_arrival = 0

    def __len__(self) -> int:
        return self.labels.size

    def samples(self) -> list[StoredRow]:
        """All stored rows in buffer order."""
        columns = (self.labels.tolist(), self.task_ids.tolist(), self.scores.tolist(), self.arrivals.tolist())
        return [StoredRow(x, *rest) for x, *rest in zip(self.features, *columns)]

    def _keep(self, idx: np.ndarray, pool: dict, quota: int) -> np.ndarray:
        """The ``quota`` rows of ``idx`` (one class, or the whole pool, in pool order) the policy retains."""
        if len(idx) <= quota:
            return idx
        if quota <= 0:
            return idx[:0]
        if self.policy == "bottom_k":
            return idx[np.lexsort((pool["arrivals"][idx], pool["scores"][idx]))[:quota]]
        if self.policy == "top_k":
            return idx[np.lexsort((pool["arrivals"][idx], -pool["scores"][idx]))[:quota]]
        return idx[self.rng.choice(len(idx), size=quota, replace=False)]


def update_memory(buffer: MemoryBuffer, batch, scores, rescore=None) -> None:
    """Offer a batch of candidates to the buffer.

    ``scores`` must align with ``batch`` samples and come from the metric
    configured for the experiment, evaluated on the current model. When
    ``rescore`` is given it is called once, with the stored (k, d) feature
    rows of every touched class in buffer order (by class, then arrival),
    and must return k fresh finite scores for them, so retention compares
    the whole merged candidate set under the current model; without it
    stored samples keep their admission-time scores.
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
        "scores": scores[order],
        "arrivals": first + order,
    }
    pool = {name: np.concatenate([getattr(buffer, name), rows]) for name, rows in new.items()} if len(buffer) else new
    if buffer.policy == "random":
        keep = [buffer._keep(np.arange(pool["labels"].size), pool, buffer.capacity)]
    else:
        # stored rows of the touched classes, in buffer order: by class, then arrival
        stored = np.flatnonzero((buffer.labels[:, None] == np.array(incoming)).any(axis=1))
        if rescore is not None and stored.size:
            fresh = np.asarray(rescore(pool["features"][stored]), dtype=np.float64)
            if fresh.shape != stored.shape:
                raise ValueError("rescore must return one score per stored sample")
            if not np.isfinite(fresh).all():
                raise ValueError("rescored sample scores must be finite")
            pool["scores"][stored] = fresh
        # new classes can only shrink quotas, so the untouched classes are trimmed too
        untouched = sorted(set(buffer.labels.tolist()) - set(incoming))
        quota = class_quota(buffer.capacity, buffer.classes_seen)
        keep = [buffer._keep(np.flatnonzero(pool["labels"] == c), pool, quota[c]) for c in incoming + untouched]
    keep = np.concatenate(keep)
    keep = keep[np.lexsort((pool["arrivals"][keep], pool["labels"][keep]))]
    for name, rows in pool.items():
        setattr(buffer, name, rows[keep])


def sample_replay(buffer: MemoryBuffer, replay_size: int, current_task: int, rng: np.random.Generator) -> np.ndarray:
    """Row indices of a uniform draw without replacement from the rows of past tasks."""
    if replay_size < 1:
        raise ValueError("replay_size must be >= 1")
    eligible = np.flatnonzero(buffer.task_ids != current_task)
    if len(eligible) <= replay_size:
        return eligible
    return eligible[rng.choice(len(eligible), size=replay_size, replace=False)]


def dump_csv(buffer: MemoryBuffer, path) -> None:
    """Debug snapshot: one row per stored sample (class, task, score, features)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class_id", "task_id", "score", "features"])
        for s in buffer.samples():
            writer.writerow([s.label, s.task_id, repr(s.score), " ".join(repr(v) for v in s.features.tolist())])
