"""Streams: task assignment, client partitioning, iteration, dataset I/O."""

import numpy as np
import pytest

from fedreplay.stream import (
    ClientStream,
    LabeledExample,
    assign_classes_to_tasks,
    load_vector_dataset,
    partition_to_clients,
    save_vector_dataset,
    synth_gaussian_blobs,
)


def _examples(n, dim=3, label=0):
    return [LabeledExample(np.full(dim, float(i)), label) for i in range(n)]


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

    def test_too_many_tasks_rejected(self):
        with pytest.raises(ValueError):
            assign_classes_to_tasks({0: 1, 1: 1}, 3, "shuffle", np.random.default_rng(0))


class TestPartitionToClients:
    def test_even_split(self):
        parts = partition_to_clients(_examples(10), 5, np.random.default_rng(0))
        assert [len(p) for p in parts] == [2, 2, 2, 2, 2]

    def test_round_robin_remainder(self):
        parts = partition_to_clients(_examples(11), 5, np.random.default_rng(0))
        assert sorted((len(p) for p in parts), reverse=True) == [3, 2, 2, 2, 2]
        assert len(parts[0]) == 3

    def test_multiset_partition(self):
        examples = _examples(23)
        parts = partition_to_clients(examples, 4, np.random.default_rng(1))
        seen = sorted(float(e.features[0]) for p in parts for e in p)
        assert seen == sorted(float(e.features[0]) for e in examples)
        ids = [id(e) for p in parts for e in p]
        assert len(set(ids)) == len(ids)


class TestClientStream:
    def test_batch_sizes_and_boundaries(self):
        stream = ClientStream(0, [(1, _examples(25))], batch_size=10)
        sizes = []
        while (item := stream.next_batch()) is not None:
            sizes.append(len(item))
        assert sizes == [10, 10, 5]
        assert stream.exhausted()
        assert stream.next_batch() is None
        assert stream.next_batch() is None

    def test_bn_counter_semantics(self):
        # the runner's per-task counter bn counts the batches between two None returns
        stream = ClientStream(0, [(1, _examples(25)), (2, _examples(5))], batch_size=10)
        assert [stream.next_batch().task_id for _ in range(3)] == [1, 1, 1]
        assert stream.next_batch() is None
        assert not stream.exhausted()
        assert stream.next_batch().task_id == 2
        assert stream.next_batch() is None
        assert stream.exhausted()

    def test_single_pass_counts(self):
        stream = ClientStream(0, [(1, _examples(17)), (2, _examples(8))], batch_size=5)
        while not stream.exhausted():
            stream.next_batch()
        assert np.all(stream.consumption_counts() == 1)
        assert stream.exhausted()

    def test_task_batches_carry_task_id(self):
        stream = ClientStream(0, [(4, _examples(3))], batch_size=2)
        batch = stream.next_batch()
        assert batch.task_id == 4

    def test_shuffle_reproducible(self):
        examples = _examples(12)
        a = ClientStream(0, [(1, examples)], 4, order_rngs=[np.random.default_rng(9)])
        b = ClientStream(0, [(1, examples)], 4, order_rngs=[np.random.default_rng(9)])
        while not a.exhausted():
            ba, bb = a.next_batch(), b.next_batch()
            if ba is None:
                assert bb is None
                continue
            assert np.array_equal(ba.features, bb.features)
            assert np.array_equal(ba.labels, bb.labels)
        assert b.exhausted()


class TestSynthGaussianBlobs:
    def test_degenerate_cluster_collapses_to_center(self):
        rng = np.random.default_rng(0)
        examples = synth_gaussian_blobs(3, 10, 4, class_center_spread=2.0, cluster_sigma=0.0, rng=rng)
        by_class = {}
        for e in examples:
            by_class.setdefault(e.label, []).append(e.features)
        for feats in by_class.values():
            stacked = np.stack(feats)
            assert np.all(np.abs(stacked - stacked[0]) < 1e-6)

    def test_sample_mean_near_center(self):
        n = 1000
        sigma = 0.5
        rng = np.random.default_rng(123)
        centers = rng.normal(0.0, 2.0, size=(2, 6))
        rng2 = np.random.default_rng(123)
        examples = synth_gaussian_blobs(2, n, 6, class_center_spread=2.0, cluster_sigma=sigma, rng=rng2)
        for c in range(2):
            feats = np.stack([e.features for e in examples if e.label == c])
            assert np.all(np.abs(feats.mean(axis=0) - centers[c]) < 4 * sigma / np.sqrt(n))

    def test_deterministic(self):
        a = synth_gaussian_blobs(2, 5, 3, 1.0, 0.5, np.random.default_rng(7))
        b = synth_gaussian_blobs(2, 5, 3, 1.0, 0.5, np.random.default_rng(7))
        for ea, eb in zip(a, b):
            assert ea.label == eb.label and np.array_equal(ea.features, eb.features)

    def test_per_class_sizes(self):
        examples = synth_gaussian_blobs(3, [4, 2, 6], 2, 1.0, 1.0, np.random.default_rng(0))
        counts = {}
        for e in examples:
            counts[e.label] = counts.get(e.label, 0) + 1
        assert counts == {0: 4, 1: 2, 2: 6}


class TestDatasetIO:
    def test_csv_direct_parse(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0.5,-0.25\n")
        (example,) = load_vector_dataset(path, "csv")
        assert example.label == 1
        assert np.array_equal(example.features, np.array([0.5, -0.25]))

    def test_empty_files(self, tmp_path):
        csv_path = tmp_path / "e.csv"
        csv_path.write_text("")
        assert load_vector_dataset(csv_path, "csv") == []
        bin_path = tmp_path / "e.bin"
        bin_path.write_bytes(b"")
        assert load_vector_dataset(bin_path, "bin") == []

    def test_csv_bin_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        examples = [LabeledExample(rng.normal(size=4), int(rng.integers(0, 3))) for _ in range(20)]
        csv1 = tmp_path / "a.csv"
        binp = tmp_path / "a.bin"
        csv2 = tmp_path / "b.csv"
        save_vector_dataset(csv1, examples, "csv")
        save_vector_dataset(binp, load_vector_dataset(csv1, "csv"), "bin")
        save_vector_dataset(csv2, load_vector_dataset(binp, "bin"), "csv")
        out = load_vector_dataset(csv2, "csv")
        assert len(out) == len(examples)
        for a, b in zip(examples, out):
            assert a.label == b.label
            # one trip through 32-bit floats loses at most f32 precision
            assert np.allclose(a.features, b.features, rtol=1e-6, atol=1e-7)

    def test_malformed_row_names_index(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0,2.0\n1,oops,2.0\n")
        with pytest.raises(ValueError, match="row 2"):
            load_vector_dataset(path, "csv")

    def test_dim_mismatch_names_index(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0,2.0\n1,3.0\n")
        with pytest.raises(ValueError, match="row 2"):
            load_vector_dataset(path, "csv")

    def test_truncated_binary_rejected(self, tmp_path):
        examples = [LabeledExample(np.ones(3), 0) for _ in range(4)]
        path = tmp_path / "t.bin"
        save_vector_dataset(path, examples, "bin")
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(ValueError):
            load_vector_dataset(path, "bin")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_vector_dataset(tmp_path / "x", "parquet")
