"""Class-incremental task streams and dataset plumbing.

A dataset is split into tasks with disjoint class sets, each task's data is
partitioned disjointly across clients, and every client consumes its share
as a single-pass sequence of mini-batches. ``next_batch`` returns None at
every task boundary and at the end of the stream, and ``exhausted`` tells
the two apart. Each stream counts how often every underlying example was
yielded so the runner can audit the single-pass contract.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

ASSIGNMENT_MODES = ("shuffle", "size_descending")

DATASET_FORMATS = ("csv", "bin")

_BIN_HEADER = struct.Struct("<II")
_BIN_LABEL = struct.Struct("<I")


@dataclass
class LabeledExample:
    features: np.ndarray
    label: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.label = int(self.label)


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
    if mode not in ASSIGNMENT_MODES:
        raise ValueError(f"unknown assignment mode: {mode!r}")
    classes = sorted(class_sizes)
    if num_tasks < 1:
        raise ValueError("num_tasks must be >= 1")
    if num_tasks > len(classes):
        raise ValueError(f"num_tasks ({num_tasks}) exceeds number of classes ({len(classes)})")
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


def partition_to_clients(examples: list[LabeledExample], num_clients: int, rng) -> list[list[LabeledExample]]:
    """Seeded shuffle then round-robin split into ``num_clients`` disjoint lists."""
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    order = rng.permutation(len(examples))
    shuffled = [examples[i] for i in order]
    return [shuffled[k::num_clients] for k in range(num_clients)]


class ClientStream:
    """Single-pass mini-batch iterator over one client's task sequence.

    Each underlying example is yielded exactly once over the stream's
    lifetime; ``consumption_counts`` exposes the per-example tally for the
    single-pass audit.
    """

    def __init__(
        self,
        client_id: int,
        per_task_examples: list[tuple[int, list[LabeledExample]]],
        batch_size: int,
        order_rngs=None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.client_id = client_id
        self._task_batches: list[list[MiniBatch]] = []
        self._task_ids: list[int] = []
        self._counts: list[int] = []
        next_id = 0
        for t_idx, (task_id, examples) in enumerate(per_task_examples):
            ids = list(range(next_id, next_id + len(examples)))
            next_id += len(examples)
            self._counts.extend([0] * len(examples))
            if order_rngs is not None:
                perm = order_rngs[t_idx].permutation(len(examples))
                examples = [examples[i] for i in perm]
                ids = [ids[i] for i in perm]
            batches = []
            for start in range(0, len(examples), batch_size):
                chunk = examples[start : start + batch_size]
                batches.append(
                    MiniBatch(
                        features=np.stack([e.features for e in chunk]),
                        labels=np.array([e.label for e in chunk]),
                        task_id=task_id,
                        example_ids=np.array(ids[start : start + batch_size]),
                    )
                )
            self._task_batches.append(batches)
            self._task_ids.append(task_id)
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
            for eid in batch.example_ids:
                self._counts[eid] += 1
            return batch
        self._task_idx += 1
        self._batch_idx = 0
        return None

    def consumption_counts(self) -> np.ndarray:
        return np.array(self._counts)

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
) -> list[LabeledExample]:
    """Isotropic Gaussian clusters, one per class, centers drawn once."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    if isinstance(sizes, int):
        sizes = [sizes] * num_classes
    sizes = [int(n) for n in sizes]
    if len(sizes) != num_classes or any(n < 1 for n in sizes):
        raise ValueError("need one positive sample count per class")
    centers = rng.normal(0.0, class_center_spread, size=(num_classes, dim))
    examples = []
    for c in range(num_classes):
        points = centers[c] + rng.normal(0.0, cluster_sigma, size=(sizes[c], dim))
        examples.extend(LabeledExample(points[i], c) for i in range(sizes[c]))
    return examples


def load_vector_dataset(path, fmt: str) -> list[LabeledExample]:
    """Read labeled feature vectors from ``path``.

    csv: one example per line, ``label,f1,...,fd``, no header.
    bin: little-endian header (u32 count, u32 dim) then per record a u32
    label followed by dim f32 features.
    """
    if fmt not in DATASET_FORMATS:
        raise ValueError(f"unknown dataset format: {fmt!r}")
    if fmt == "csv":
        return _load_csv(path)
    return _load_bin(path)


def _load_csv(path) -> list[LabeledExample]:
    examples = []
    dim = None
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            try:
                label = int(fields[0])
                features = np.array([float(f) for f in fields[1:]])
            except ValueError as exc:
                raise ValueError(f"{path}: malformed row {lineno}: {exc}") from None
            if features.size == 0:
                raise ValueError(f"{path}: row {lineno} has no features")
            if dim is None:
                dim = features.size
            elif features.size != dim:
                raise ValueError(
                    f"{path}: row {lineno} has {features.size} features, expected {dim}"
                )
            examples.append(LabeledExample(features, label))
    return examples


def _load_bin(path) -> list[LabeledExample]:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) == 0:
        return []
    if len(data) < _BIN_HEADER.size:
        raise ValueError(f"{path}: truncated header")
    count, dim = _BIN_HEADER.unpack_from(data, 0)
    record = _BIN_LABEL.size + 4 * dim
    if len(data) != _BIN_HEADER.size + count * record:
        raise ValueError(
            f"{path}: expected {count} records of {record} bytes, file size does not match"
        )
    examples = []
    offset = _BIN_HEADER.size
    for i in range(count):
        (label,) = _BIN_LABEL.unpack_from(data, offset)
        offset += _BIN_LABEL.size
        features = np.frombuffer(data, dtype="<f4", count=dim, offset=offset).astype(np.float64)
        offset += 4 * dim
        examples.append(LabeledExample(features, label))
    return examples


def save_vector_dataset(path, examples: list[LabeledExample], fmt: str) -> None:
    """Write examples in one of the formats read by ``load_vector_dataset``."""
    if fmt not in DATASET_FORMATS:
        raise ValueError(f"unknown dataset format: {fmt!r}")
    if fmt == "csv":
        with open(path, "w") as fh:
            for e in examples:
                fh.write(",".join([str(e.label)] + [repr(float(v)) for v in e.features]) + "\n")
        return
    dim = examples[0].features.size if examples else 0
    with open(path, "wb") as fh:
        fh.write(_BIN_HEADER.pack(len(examples), dim))
        for e in examples:
            if e.features.size != dim:
                raise ValueError("all examples must share one feature length")
            fh.write(_BIN_LABEL.pack(e.label))
            fh.write(e.features.astype("<f4").tobytes())
