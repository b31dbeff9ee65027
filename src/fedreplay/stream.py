"""Class-incremental task streams and dataset plumbing.

A dataset is a pair of parallel arrays: ``features`` (n, d) float64 and
``labels`` (n,) int64. It is split into tasks with disjoint class sets,
each task's rows are dealt disjointly across clients as index arrays,
and every client consumes its share once, as mini-batches in the order
given: the runner deals and orders a task's rows by one seeded
permutation, so nothing here draws. ``next_batch`` returns None at every
task boundary and at the end of the stream, and ``exhausted``
tells the two apart. Each stream counts how often every underlying
example was yielded so the runner can audit the single-pass contract.
Task, client, batch, synthetic-data and format arguments come from a validated
config and are not checked again here; the loaders check a data file's contents.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

ASSIGNMENT_MODES = ("shuffle", "size_descending")

DATASET_FORMATS = ("csv", "bin")

_BIN_HEADER = struct.Struct("<II")


@dataclass(frozen=True)
class TaskSpec:
    """Task ids are 1-based; class sets of distinct tasks are disjoint."""

    task_id: int
    classes: frozenset[int]


@dataclass
class MiniBatch:
    features: np.ndarray  # (n, dim)
    labels: np.ndarray  # (n,)
    task_id: int
    example_ids: np.ndarray | None = None  # stream bookkeeping for the audit

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.size == 0:
            raise ValueError("mini-batch must be non-empty")

    def __len__(self) -> int:
        return self.labels.size


def assign_classes_to_tasks(class_sizes: dict[int, int], num_tasks: int, mode: str, rng) -> list[TaskSpec]:
    """Partition class ids into ``num_tasks`` disjoint task class sets.

    ``shuffle`` chunks a seeded permutation; ``size_descending`` chunks the
    classes sorted by sample count, largest first, so earlier tasks hold
    the bigger classes. Chunks are as even as possible, earlier chunks one
    larger when the class count is not divisible.
    """
    classes = sorted(class_sizes)
    if mode == "shuffle":
        order = [classes[i] for i in rng.permutation(len(classes))]
    else:
        order = sorted(classes, key=lambda c: (-class_sizes[c], c))
    base, rem = divmod(len(order), num_tasks)
    specs = []
    pos = 0
    for t in range(num_tasks):
        size = base + (1 if t < rem else 0)
        specs.append(TaskSpec(task_id=t + 1, classes=frozenset(order[pos : pos + size])))
        pos += size
    return specs


def partition_to_clients(indices: np.ndarray, num_clients: int) -> list[np.ndarray]:
    """Round-robin split of ``indices`` into ``num_clients`` disjoint arrays, each in the order given."""
    return [indices[k::num_clients] for k in range(num_clients)]


class ClientStream:
    """Single-pass mini-batch iterator over one client's task sequence.

    ``per_task`` lists ``(task_id, rows)`` per task in stream order, where
    ``rows`` indexes this client's examples in ``features`` and ``labels``
    in the order the batches yield them. Each underlying example is yielded
    exactly once over the stream's lifetime; ``consumption_counts`` exposes
    the per-example tally for the single-pass audit.
    """

    def __init__(self, client_id: int, features, labels, per_task, batch_size: int):
        self.client_id = client_id
        self._task_batches: list[list[MiniBatch]] = []
        next_id = 0
        for task_id, rows in per_task:
            # One gather per task: its batches are slices of these arrays.
            x, y = features[rows], labels[rows]
            ids = np.arange(next_id, next_id + len(rows))
            next_id += len(rows)
            self._task_batches.append(
                [
                    MiniBatch(x[i : i + batch_size], y[i : i + batch_size], task_id, ids[i : i + batch_size])
                    for i in range(0, len(rows), batch_size)
                ]
            )
        self._counts = np.zeros(next_id, dtype=np.int64)
        self._task_idx = 0
        self._batch_idx = 0

    def next_batch(self) -> MiniBatch | None:
        """Next mini-batch, or None at a task boundary and once the stream is done."""
        if self._task_idx >= len(self._task_batches):
            return None
        batches = self._task_batches[self._task_idx]
        if self._batch_idx < len(batches):
            batch = batches[self._batch_idx]
            self._batch_idx += 1
            self._counts[batch.example_ids] += 1
            return batch
        self._task_idx += 1
        self._batch_idx = 0
        return None

    def consumption_counts(self) -> np.ndarray:
        return self._counts.copy()

    def exhausted(self) -> bool:
        """True once every task boundary has been passed."""
        return self._task_idx >= len(self._task_batches)


def synth_gaussian_blobs(
    num_classes: int,
    sizes,
    dim: int,
    class_center_spread: float,
    cluster_sigma: float,
    rng,
) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic Gaussian clusters, one per class, centers drawn once; rows grouped by class."""
    if isinstance(sizes, int):
        sizes = [sizes] * num_classes
    sizes = [int(n) for n in sizes]
    centers = rng.normal(0.0, class_center_spread, size=(num_classes, dim))
    features = np.concatenate(
        [centers[c] + rng.normal(0.0, cluster_sigma, size=(sizes[c], dim)) for c in range(num_classes)]
    )
    return features, np.repeat(np.arange(num_classes), sizes)


def load_vector_dataset(path, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """Read labeled feature vectors from ``path`` as ``(features, labels)``.

    csv: one example per line, ``label,f1,...,fd``, no header.
    bin: little-endian header (u32 count, u32 dim) then per record a u32
    label followed by dim f32 features.
    Every feature must be finite; the error names the path and the row.
    """
    if fmt == "csv":
        return _load_csv(path)
    return _load_bin(path)


def parse_ascii(text: str, kind):
    """``kind(text)`` for ``kind`` ``int`` or ``float``, refusing the ``_`` separators and non-ASCII digits they accept."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not an ASCII {kind.__name__}")
    return kind(text)


def _load_csv(path) -> tuple[np.ndarray, np.ndarray]:
    rows = []
    labels = []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            try:
                label = parse_ascii(fields[0], int)
                features = [parse_ascii(f, float) for f in fields[1:]]
            except ValueError as exc:
                raise ValueError(f"{path}: malformed row {lineno}: {exc}") from None
            if not -(2**63) <= label < 2**63:
                raise ValueError(f"{path}: malformed row {lineno}: label {label} is outside the int64 range")
            if not features:
                raise ValueError(f"{path}: row {lineno} has no features")
            if rows and len(features) != len(rows[0]):
                raise ValueError(
                    f"{path}: row {lineno} has {len(features)} features, expected {len(rows[0])}"
                )
            if not all(map(math.isfinite, features)):
                raise ValueError(f"{path}: row {lineno} has a non-finite feature")
            rows.append(features)
            labels.append(label)
    if not rows:
        return np.empty((0, 0)), np.empty(0, dtype=np.int64)
    return np.array(rows, dtype=np.float64), np.array(labels, dtype=np.int64)


def _load_bin(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) == 0:
        return np.empty((0, 0)), np.empty(0, dtype=np.int64)
    if len(data) < _BIN_HEADER.size:
        raise ValueError(f"{path}: truncated header")
    count, dim = _BIN_HEADER.unpack_from(data, 0)
    record = 4 + 4 * dim
    if len(data) != _BIN_HEADER.size + count * record:
        raise ValueError(
            f"{path}: expected {count} records of {record} bytes, file size does not match"
        )
    if count == 0:
        return np.empty((0, 0)), np.empty(0, dtype=np.int64)
    if dim == 0:
        raise ValueError(f"{path}: header gives dim 0, so records have no features")
    record_type = np.dtype([("label", "<u4"), ("features", "<f4", (dim,))])
    records = np.frombuffer(data, dtype=record_type, count=count, offset=_BIN_HEADER.size)
    features = records["features"].astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: row {bad[0] + 1} has a non-finite feature")
    return features, records["label"].astype(np.int64)

