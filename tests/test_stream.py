"""Streams: task assignment, client partitioning, iteration, dataset I/O."""

import re
import struct

import numpy as np
import pytest

from fedreplay import runner, seeds
from fedreplay.config import ExperimentConfig
from fedreplay.stream import (
    ClientStream,
    assign_classes_to_tasks,
    load_vector_dataset,
    partition_to_clients,
    synth_gaussian_blobs,
)


def write_csv(path, features, labels):
    """A csv data file: one ``label,f1,...,fd`` line per row."""
    path.write_text("".join(f"{y}," + ",".join(map(repr, x)) + "\n" for y, x in zip(labels.tolist(), features.tolist())))


def write_bin(path, features, labels):
    """A bin data file: the ``u32 count, u32 dim`` header, then per row a u32 label and dim f32 features."""
    records = np.rec.fromarrays([labels, features], dtype=[("label", "<u4"), ("features", "<f4", (features.shape[1],))])
    path.write_bytes(struct.pack("<II", *features.shape) + records.tobytes())


def _stream(tasks, batch_size, dim=3):
    """A stream over ``(task_id, n)`` tasks of consecutive dataset rows; row i is filled with float(i)."""
    total = sum(n for _, n in tasks)
    features = np.repeat(np.arange(total, dtype=float)[:, None], dim, axis=1)
    bounds = np.cumsum([0] + [n for _, n in tasks])
    per_task = [(task_id, np.arange(lo, hi)) for (task_id, _), lo, hi in zip(tasks, bounds, bounds[1:])]
    return ClientStream(0, features, np.zeros(total, dtype=int), per_task, batch_size)


class TestAssignClassesToTasks:
    def test_shuffle_partitions_all_classes(self):
        sizes = {c: 10 for c in range(10)}
        specs = assign_classes_to_tasks(sizes, 5, "shuffle", np.random.default_rng(0))
        assert len(specs) == 5
        assert all(len(s.classes) == 2 for s in specs)
        union = set().union(*(s.classes for s in specs))
        assert union == set(range(10))
        for a in specs:
            for b in specs:
                if a.task_id != b.task_id:
                    assert not (a.classes & b.classes)

    def test_size_descending_orders_by_count(self):
        sizes = {0: 100, 1: 90, 2: 10, 3: 5}
        specs = assign_classes_to_tasks(sizes, 2, "size_descending", np.random.default_rng(0))
        assert specs[0].classes == frozenset({0, 1})
        assert specs[1].classes == frozenset({2, 3})

    def test_deterministic_given_seed(self):
        sizes = {c: 1 for c in range(12)}
        a = assign_classes_to_tasks(sizes, 4, "shuffle", np.random.default_rng(3))
        b = assign_classes_to_tasks(sizes, 4, "shuffle", np.random.default_rng(3))
        assert a == b

    def test_uneven_chunks_front_loaded(self):
        sizes = {c: 1 for c in range(7)}
        specs = assign_classes_to_tasks(sizes, 3, "shuffle", np.random.default_rng(0))
        assert [len(s.classes) for s in specs] == [3, 2, 2]


class TestPartitionToClients:
    def test_even_split(self):
        parts = partition_to_clients(np.arange(10), 5)
        assert [len(p) for p in parts] == [2, 2, 2, 2, 2]

    def test_round_robin_remainder(self):
        parts = partition_to_clients(np.arange(11), 5)
        assert sorted((len(p) for p in parts), reverse=True) == [3, 2, 2, 2, 2]
        assert len(parts[0]) == 3

    def test_multiset_partition(self):
        indices = np.arange(100, 123)
        parts = partition_to_clients(indices, 4)
        seen = [int(i) for p in parts for i in p]
        assert sorted(seen) == indices.tolist()
        assert len(set(seen)) == len(seen)


class TestClientStream:
    def test_batch_sizes_and_boundaries(self):
        stream = _stream([(1, 25)], batch_size=10)
        sizes = []
        rows = []
        while (item := stream.next_batch()) is not None:
            sizes.append(len(item))
            rows.extend(item.features[:, 0].tolist())
        assert sizes == [10, 10, 5]
        assert sorted(rows) == list(range(25))
        assert stream.exhausted()
        assert stream.next_batch() is None
        assert stream.next_batch() is None

    def test_bn_counter_semantics(self):
        # the runner's per-task counter bn counts the batches between two None returns
        stream = _stream([(1, 25), (2, 5)], batch_size=10)
        assert [stream.next_batch().task_id for _ in range(3)] == [1, 1, 1]
        assert stream.next_batch() is None
        assert not stream.exhausted()
        assert stream.next_batch().task_id == 2
        assert stream.next_batch() is None
        assert stream.exhausted()

    def test_single_pass_counts(self):
        stream = _stream([(1, 17), (2, 8)], batch_size=5)
        assert stream.consumption_counts().tolist() == [0] * 25
        while not stream.exhausted():
            stream.next_batch()
        assert stream.consumption_counts().tolist() == [1] * 25
        assert stream.exhausted()

    def test_task_batches_carry_task_id(self):
        stream = _stream([(4, 3)], batch_size=2)
        batch = stream.next_batch()
        assert batch.task_id == 4

    def test_batches_follow_the_given_row_order(self):
        features = np.arange(12, dtype=float)[:, None]
        labels = np.arange(12) % 3
        per_task = [(1, np.array([7, 2, 9, 0, 4])), (2, np.array([11, 5, 8]))]
        stream = ClientStream(0, features, labels, per_task, 2)
        drawn = {1: [], 2: []}
        while not stream.exhausted():
            if (batch := stream.next_batch()) is not None:
                drawn[batch.task_id].append(batch.features[:, 0].astype(int).tolist())
                assert batch.labels.tolist() == [r % 3 for r in drawn[batch.task_id][-1]]
        assert drawn == {1: [[7, 2], [9, 0], [4]], 2: [[11, 5], [8]]}


class TestSplitTask:
    @pytest.mark.parametrize("seed,clients", [(0, 2), (5, 3)])
    def test_one_permutation_holds_out_deals_and_orders(self, seed, clients):
        config = ExperimentConfig(clients=clients, tasks=2, classes=4, samples_per_class=10, test_split=0.3, seed=seed)
        idx = np.arange(100, 120)
        test, parts = runner._split_task(idx, config, 2)
        perm = seeds.substream(seed, seeds.TEST_SPLIT, 2).permutation(20)
        assert test.tolist() == idx[perm[:6]].tolist()
        assert [p.tolist() for p in parts] == [idx[perm[6:]][k::clients].tolist() for k in range(clients)]


class TestSynthGaussianBlobs:
    def test_degenerate_cluster_collapses_to_center(self):
        rng = np.random.default_rng(0)
        features, labels = synth_gaussian_blobs(3, 10, 4, class_center_spread=2.0, cluster_sigma=0.0, rng=rng)
        for c in range(3):
            stacked = features[labels == c]
            assert np.all(np.abs(stacked - stacked[0]) < 1e-6)

    def test_sample_mean_near_center(self):
        n = 1000
        sigma = 0.5
        rng = np.random.default_rng(123)
        centers = rng.normal(0.0, 2.0, size=(2, 6))
        rng2 = np.random.default_rng(123)
        features, labels = synth_gaussian_blobs(2, n, 6, class_center_spread=2.0, cluster_sigma=sigma, rng=rng2)
        for c in range(2):
            feats = features[labels == c]
            assert np.all(np.abs(feats.mean(axis=0) - centers[c]) < 4 * sigma / np.sqrt(n))

    def test_deterministic(self):
        fa, la = synth_gaussian_blobs(2, 5, 3, 1.0, 0.5, np.random.default_rng(7))
        fb, lb = synth_gaussian_blobs(2, 5, 3, 1.0, 0.5, np.random.default_rng(7))
        assert fa.shape == (10, 3)
        assert np.array_equal(la, lb) and np.array_equal(fa, fb)

    def test_per_class_sizes(self):
        features, labels = synth_gaussian_blobs(3, [4, 2, 6], 2, 1.0, 1.0, np.random.default_rng(0))
        assert labels.tolist() == [0] * 4 + [1] * 2 + [2] * 6
        assert features.shape == (12, 2)


class TestDatasetIO:
    def test_csv_direct_parse(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0.5,-0.25\n")
        features, labels = load_vector_dataset(path)
        assert labels.tolist() == [1]
        assert np.array_equal(features, np.array([[0.5, -0.25]]))

    def test_empty_files(self, tmp_path):
        csv_path = tmp_path / "e.csv"
        csv_path.write_text("")
        bin_path = tmp_path / "e.bin"
        bin_path.write_bytes(b"")
        # a header that declares no records, whatever its dim
        header_only = tmp_path / "h.bin"
        header_only.write_bytes(struct.pack("<II", 0, 2**31))
        for path in (csv_path, bin_path, header_only):
            features, labels = load_vector_dataset(path)
            assert features.shape[0] == 0 and labels.size == 0

    def test_csv_bin_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(20, 4))
        labels = rng.integers(0, 3, size=20)
        csv1 = tmp_path / "a.csv"
        binp = tmp_path / "a.bin"
        csv2 = tmp_path / "b.csv"
        write_csv(csv1, features, labels)
        write_bin(binp, *load_vector_dataset(csv1))
        write_csv(csv2, *load_vector_dataset(binp))
        out_features, out_labels = load_vector_dataset(csv2)
        assert out_features.dtype == np.float64 and out_labels.dtype == np.int64
        assert np.array_equal(out_labels, labels)
        # one trip through 32-bit floats loses at most f32 precision
        assert np.allclose(out_features, features, rtol=1e-6, atol=1e-7)
        # the bin loader reads the f32 values exactly
        assert np.array_equal(load_vector_dataset(binp)[0], features.astype(np.float32).astype(np.float64))

    def test_malformed_row_names_index(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0,2.0\n1,oops,2.0\n")
        with pytest.raises(ValueError, match="row 2"):
            load_vector_dataset(path)

    @pytest.mark.parametrize(
        "row,refused",
        [("1_0,4.5", "'1_0' is not an ASCII int"), ("1,4_0.5", "'4_0.5' is not an ASCII float"),
         ("\u0663,1.0", "'\u0663' is not an ASCII int"), ("1,\u0661.5", "'\u0661.5' is not an ASCII float")],
    )
    def test_csv_refuses_separators_and_non_ascii_digits(self, tmp_path, row, refused):
        """Python's ``int`` and ``float`` read ``1_0`` as 10 and Arabic-Indic digits as digits; the loader refuses both."""
        path = tmp_path / "u.csv"
        path.write_text(f"0,1.0\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: malformed row 2: {refused}')}$"):
            load_vector_dataset(path)

    @pytest.mark.parametrize("label", [2**63, -(2**63) - 1, 10**23])
    def test_csv_label_outside_int64_names_path_and_row(self, tmp_path, label):
        path = tmp_path / "big.csv"
        path.write_text(f"{2**63 - 1},1.0\n{-(2**63)},2.0\n{label},3.0\n")
        with pytest.raises(ValueError, match=f"^{path}: malformed row 3: label {label} is outside the int64 range$"):
            load_vector_dataset(path)
        path.write_text(f"{2**63 - 1},1.0\n{-(2**63)},2.0\n")
        assert load_vector_dataset(path)[1].tolist() == [2**63 - 1, -(2**63)]

    def test_dim_mismatch_names_index(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0,2.0\n1,3.0\n")
        with pytest.raises(ValueError, match="row 2"):
            load_vector_dataset(path)

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        write_bin(path, np.ones((4, 3)), np.zeros(4))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(ValueError):
            load_vector_dataset(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_csv_non_finite_feature_names_path_and_row(self, tmp_path, value):
        path = tmp_path / "nf.csv"
        path.write_text(f"0,1.0,2.0\n\n1,3.0,{value}\n")
        with pytest.raises(ValueError, match=f"{path}: row 3 has a non-finite feature"):
            load_vector_dataset(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_bin_non_finite_feature_names_path_and_row(self, tmp_path, value):
        features = np.ones((4, 3))
        features[2, 1] = value
        path = tmp_path / "nf.bin"
        write_bin(path, features, np.zeros(4))
        with pytest.raises(ValueError, match=f"{path}: row 3 has a non-finite feature"):
            load_vector_dataset(path)

    @pytest.mark.parametrize(
        "name,data,error",
        [
            ("d0.csv", "0\n1\n", "row 1 has no features"),
            ("d0.bin", struct.pack("<II3I", 3, 0, 0, 1, 2), "header gives dim 0, so records have no features"),
        ],
        ids=["csv", "bin"],
    )
    def test_records_without_features_name_path(self, tmp_path, name, data, error):
        path = tmp_path / name
        path.write_bytes(data.encode() if isinstance(data, str) else data)
        with pytest.raises(ValueError, match=f"^{path}: {error}$"):
            load_vector_dataset(path)
