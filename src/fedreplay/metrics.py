"""Task accuracies and the end-of-stream metrics.

A client's accuracies form a (T, T) array: ``accuracy[t, i]`` is the
accuracy on task i's held-out data after training on task t (0-based;
messages and reports count from 1, as ``a[t][i]``), and NaN above the
diagonal. Last accuracy is the mean of the final row; last forgetting is
the mean gap between each past task's peak and final accuracy, negative
gaps (backward transfer) included. A and F are their client means.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelConfig, ParameterVector, forward_logits


def _require_measured(accuracy: np.ndarray, rows, cols) -> None:
    """Raise a ValueError naming the first NaN among the entries ``accuracy[rows, cols]``."""
    missing = np.flatnonzero(np.isnan(accuracy[rows, cols]))
    if missing.size:
        j = missing[0]
        raise ValueError(f"missing entry a[{rows[j] + 1}][{cols[j] + 1}]")


def last_accuracy(accuracy: np.ndarray) -> float:
    """Mean of the final row of one client's (T, T) accuracy array."""
    num_tasks = len(accuracy)
    _require_measured(accuracy, np.full(num_tasks, num_tasks - 1), np.arange(num_tasks))
    return math.fsum(accuracy[-1].tolist()) / num_tasks


def last_forgetting(accuracy: np.ndarray) -> float:
    """Mean over past tasks of peak accuracy (up to task T-1) minus final accuracy."""
    past = len(accuracy) - 1
    rows, cols = np.tril_indices(past + 1)
    _require_measured(accuracy, rows[:-1], cols[:-1])  # the lower triangle but a[T][T], which is not read
    peaks = np.where(np.tri(past, dtype=bool), accuracy[:past, :past], -np.inf).max(axis=0)
    return math.fsum((peaks - accuracy[-1, :past]).tolist()) / past


def client_mean(values) -> float:
    """Mean over clients, exactly summed, so it does not depend on client order."""
    return math.fsum(values) / len(values)


def evaluate_model(params: ParameterVector, config: ModelConfig, test_sets) -> list[float]:
    """Argmax accuracy on each task's held-out set; ties go to the lowest class id.

    Raises ``FloatingPointError`` when the logits are not all finite, since their argmax would mean nothing.
    """
    accuracies = []
    for features, labels in test_sets:
        labels = np.asarray(labels)
        logits = forward_logits(params, config, features)
        if not np.all(np.isfinite(logits)):
            raise FloatingPointError("held-out logits are not all finite")
        preds = np.argmax(logits, axis=1)
        accuracies.append(float(np.count_nonzero(preds == labels)) / labels.size)
    return accuracies
