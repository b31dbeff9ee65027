"""Task-accuracy bookkeeping and the end-of-stream metrics.

Each client owns a lower-triangular accuracy matrix a[t][i]: accuracy on
task i's held-out data measured after finishing training on task t (tasks
are 1-based). The two summary metrics are the client-averaged mean of the
final row (last accuracy) and the client-averaged mean gap between each
past task's peak accuracy and its final accuracy (last forgetting).
Negative per-task forgetting (backward transfer) is reported as is.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelConfig, ParameterVector, forward_logits


class AccuracyMatrix:
    """Write-once store of a[t][i] for 1 <= i <= t <= num_tasks."""

    def __init__(self, num_tasks: int):
        if num_tasks < 1:
            raise ValueError("num_tasks must be >= 1")
        self.num_tasks = num_tasks
        self._entries: dict[tuple[int, int], float] = {}

    def record(self, after_task: int, on_task: int, accuracy: float) -> None:
        if not (1 <= after_task <= self.num_tasks):
            raise ValueError(f"after_task {after_task} out of range [1, {self.num_tasks}]")
        if not (1 <= on_task <= after_task):
            raise ValueError(f"on_task {on_task} out of range [1, {after_task}]")
        if not (0.0 <= accuracy <= 1.0):
            raise ValueError("accuracy must lie in [0, 1]")
        key = (after_task, on_task)
        if key in self._entries:
            raise ValueError(f"entry a[{after_task}][{on_task}] already recorded")
        self._entries[key] = float(accuracy)

    def get(self, after_task: int, on_task: int) -> float:
        return self._entries[(after_task, on_task)]

    def has(self, after_task: int, on_task: int) -> bool:
        return (after_task, on_task) in self._entries

    def rows(self):
        """(after_task, on_task, accuracy) triples in triangular order."""
        for t in range(1, self.num_tasks + 1):
            for i in range(1, t + 1):
                if (t, i) in self._entries:
                    yield t, i, self._entries[(t, i)]


def _require_final_row(matrix: AccuracyMatrix, num_tasks: int) -> None:
    for i in range(1, num_tasks + 1):
        if not matrix.has(num_tasks, i):
            raise ValueError(f"missing final-row entry a[{num_tasks}][{i}]")


def avg_last_accuracy(matrices: list[AccuracyMatrix], num_tasks: int) -> float:
    """Mean over clients of the mean final-row accuracy."""
    if not matrices:
        raise ValueError("need at least one client matrix")
    per_client = []
    for m in matrices:
        _require_final_row(m, num_tasks)
        per_client.append(
            math.fsum(m.get(num_tasks, i) for i in range(1, num_tasks + 1)) / num_tasks
        )
    return math.fsum(per_client) / len(per_client)


def client_forgetting(matrix: AccuracyMatrix, num_tasks: int) -> float:
    """Mean over past tasks of peak accuracy (up to task T-1) minus final accuracy."""
    if num_tasks < 2:
        raise ValueError("forgetting requires at least two tasks")
    terms = []
    for j in range(1, num_tasks):
        peak = max(matrix.get(l, j) for l in range(j, num_tasks))
        terms.append(peak - matrix.get(num_tasks, j))
    return math.fsum(terms) / (num_tasks - 1)


def avg_last_forgetting(matrices: list[AccuracyMatrix], num_tasks: int) -> float:
    """Mean over clients of per-client last forgetting."""
    if not matrices:
        raise ValueError("need at least one client matrix")
    if num_tasks < 2:
        raise ValueError("forgetting requires at least two tasks")
    for m in matrices:
        _require_final_row(m, num_tasks)
    return math.fsum(client_forgetting(m, num_tasks) for m in matrices) / len(matrices)


def evaluate_model(params: ParameterVector, config: ModelConfig, test_sets) -> list[float]:
    """Argmax accuracy on each task's held-out set; ties go to the lowest class id."""
    accuracies = []
    for features, labels in test_sets:
        labels = np.asarray(labels)
        if labels.size == 0:
            raise ValueError("empty test set")
        logits = forward_logits(params, config, features)
        preds = np.argmax(logits, axis=1)
        accuracies.append(float(np.count_nonzero(preds == labels)) / labels.size)
    return accuracies
