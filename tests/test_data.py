"""Dataset container, IDX file ingestion, synthetic data, and partitioning."""

import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celtibero import (
    IdxFormatError,
    LabeledDataset,
    gen_synthetic,
    load_idx,
    partition_dirichlet,
    partition_iid,
)
from celtibero import data as data_module
from celtibero.data import _reorder_rows

from .oracles import (
    appended_partition_dirichlet,
    dealt_partition_iid,
    dirichlet_buckets,
    gathered_synthetic,
)


class TestLabeledDataset:
    def test_valid_construction(self):
        data = LabeledDataset([[0.1, 0.2], [0.3, 0.4]], [0, 1], 2)
        assert data.n == 2 and data.d == 2 and data.num_classes == 2
        assert data.features.dtype == np.float64
        assert data.labels.dtype == np.int64

    def test_arrays_are_read_only_copies(self):
        features = np.array([[0.5, 0.5]])
        data = LabeledDataset(features, [1], 2)
        features[0, 0] = 0.9
        assert data.features[0, 0] == 0.5
        with pytest.raises(ValueError):
            data.features[0, 0] = 0.1
        with pytest.raises(ValueError):
            data.labels[0] = 0

    def test_owning_keeps_the_arrays(self):
        features, labels = np.array([[0.5, 0.25]]), np.array([1])
        data = LabeledDataset._owning(features, labels, 2)
        assert data.features is features and data.labels is labels
        assert not features.flags.writeable and not labels.flags.writeable

    def test_class_counts(self):
        # Classes absent from the labels still count toward num_classes.
        data = LabeledDataset([[0.0]] * 5, [0, 2, 0, 2, 2], 4)
        assert np.array_equal(np.bincount(data.labels, minlength=data.num_classes), [2, 0, 3, 0])

    def test_rejections(self):
        with pytest.raises(ValueError):
            LabeledDataset([0.1, 0.2], [0], 2)  # 1-D features
        with pytest.raises(ValueError):
            LabeledDataset([[0.1], [0.2]], [0], 2)  # label count mismatch
        with pytest.raises(ValueError):
            LabeledDataset(np.empty((0, 3)), [], 2)  # empty
        with pytest.raises(ValueError):
            LabeledDataset([[0.1]], [0], 1)  # too few classes
        with pytest.raises(ValueError):
            LabeledDataset([[0.1]], [2], 2)  # label out of range
        with pytest.raises(ValueError, match="labels must lie"):
            LabeledDataset([[0.1]], [-1], 2)  # label below 0
        for bad in (1.5, -0.1, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="feature values must lie"):
                LabeledDataset([[0.5, bad]], [0], 2)

    def test_zero_width_features_are_accepted(self):
        data = LabeledDataset(np.empty((3, 0)), [0, 1, 0], 2)
        assert data.n == 3 and data.d == 0


def write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2, image_magic=0x803,
                   label_magic=0x801, image_count=None, label_count=None):
    image_count = len(pixels) // (rows * cols) if image_count is None else image_count
    label_count = len(labels) if label_count is None else label_count
    images_path = tmp_path / "images-idx3-ubyte"
    labels_path = tmp_path / "labels-idx1-ubyte"
    images_path.write_bytes(
        struct.pack(">IIII", image_magic, image_count, rows, cols) + bytes(pixels)
    )
    labels_path.write_bytes(struct.pack(">II", label_magic, label_count) + bytes(labels))
    return images_path, labels_path


class TestLoadIdx:
    def test_golden_pair(self, tmp_path):
        pixels = [0, 255, 51, 102, 255, 0, 0, 255, 10, 20, 30, 40]
        images_path, labels_path = write_idx_pair(tmp_path, pixels, [7, 0, 9])
        data = load_idx(images_path, labels_path)
        assert data.n == 3 and data.d == 4 and data.num_classes == 10
        expected = np.array(pixels, dtype=np.float64).reshape(3, 4) / 255.0
        assert np.array_equal(data.features, expected)
        assert np.array_equal(data.labels, [7, 0, 9])

    def test_bad_image_magic(self, tmp_path):
        paths = write_idx_pair(tmp_path, [0] * 4, [1], image_magic=0x802)
        with pytest.raises(IdxFormatError, match="bad image magic"):
            load_idx(*paths)

    def test_bad_label_magic(self, tmp_path):
        paths = write_idx_pair(tmp_path, [0] * 4, [1], label_magic=0x803)
        with pytest.raises(IdxFormatError, match="bad label magic"):
            load_idx(*paths)

    def test_truncated_image_header(self, tmp_path):
        images_path = tmp_path / "img"
        images_path.write_bytes(b"\x00\x00\x08\x03\x00")
        labels_path = write_idx_pair(tmp_path, [0] * 4, [1])[1]
        with pytest.raises(IdxFormatError, match="truncated image header"):
            load_idx(images_path, labels_path)

    def test_image_payload_size_mismatch(self, tmp_path):
        paths = write_idx_pair(tmp_path, [0] * 4, [1], image_count=2)
        with pytest.raises(IdxFormatError, match="payload holds 4 bytes, header promises 8"):
            load_idx(*paths)

    def test_label_payload_size_mismatch(self, tmp_path):
        paths = write_idx_pair(tmp_path, [0] * 4, [1], label_count=3)
        with pytest.raises(IdxFormatError, match="payload holds 1 bytes, header promises 3"):
            load_idx(*paths)

    def test_image_label_count_mismatch(self, tmp_path):
        paths = write_idx_pair(tmp_path, [0] * 8, [1, 2, 3])
        with pytest.raises(IdxFormatError, match="count mismatch: 2 images vs 3 labels"):
            load_idx(*paths)

    def test_a_pair_without_images_names_the_image_file(self, tmp_path):
        images_path, labels_path = write_idx_pair(tmp_path, [], [], rows=28, cols=28)
        message = f"{images_path}: holds no images"
        with pytest.raises(IdxFormatError, match=f"^{re.escape(message)}$"):
            load_idx(images_path, labels_path)

    def test_label_out_of_digit_range(self, tmp_path):
        paths = write_idx_pair(tmp_path, [0] * 4, [10])
        with pytest.raises(IdxFormatError, match="labels must lie in 0-9"):
            load_idx(*paths)

    def test_scaling_in_place_keeps_every_bit(self, tmp_path):
        pixels = np.tile(np.arange(256, dtype=np.uint8), 8)
        data = load_idx(*write_idx_pair(tmp_path, pixels, [3] * 8, rows=16, cols=16))
        former = pixels.reshape(8, 256).astype(np.float64) / 255.0
        assert data.features.tobytes() == former.tobytes()

    def test_load_peaks_at_one_float_matrix(self, tmp_path):
        # A second float matrix for the scaled pixels would peak at about 2.1.
        count = 400
        pixels = np.random.default_rng(0).integers(0, 256, count * 784, dtype=np.uint8)
        paths = write_idx_pair(tmp_path, pixels, [5] * count, rows=28, cols=28)
        tracemalloc.start()
        try:
            data = load_idx(*paths)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * data.features.nbytes


def permutation_of_shape(shape, n, rng):
    """A permutation of ``range(n)`` of one of the shapes the reorder must
    handle."""
    if shape == "random":
        return rng.permutation(n)
    if shape == "sorted-chunks":  # a partition's sorted index arrays, end to end
        owner = rng.integers(0, 1 + n // 4, size=n)
        return np.concatenate([np.flatnonzero(owner == k) for k in range(1 + n // 4)])
    if shape == "identity":
        return np.arange(n)
    visit = rng.permutation(n)
    order = np.arange(n)
    if shape == "one-cycle":
        order[visit] = np.roll(visit, -1)
    else:  # "two-cycles": disjoint swaps, with a fixed point when n is odd
        pairs = visit[: n // 2 * 2].reshape(-1, 2)
        order[pairs[:, 0]], order[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
    return order


class TestReorderRows:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 300),
        width=st.integers(1, 50),
        shape=st.sampled_from(["random", "sorted-chunks", "identity", "one-cycle", "two-cycles"]),
        block_rows=st.integers(1, 301),
        cap_slack=st.integers(0, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_gather(self, n, width, shape, block_rows, cap_slack, seed):
        rng = np.random.default_rng(seed)
        order = permutation_of_shape(shape, n, rng)
        matrix = rng.random((n, width))
        want = matrix[order]
        # A cap a few bytes past a whole number of rows moves that many rows.
        with mock.patch.object(data_module, "_ROW_BYTES", block_rows * width * 8 + cap_slack):
            _reorder_rows(matrix, order)
        assert matrix.tobytes() == want.tobytes()

    def test_a_cap_below_one_row_moves_a_row_at_a_time(self):
        rng = np.random.default_rng(1)
        matrix, order = rng.random((40, 3)), rng.permutation(40)
        want = matrix[order]
        with mock.patch.object(data_module, "_ROW_BYTES", 1):
            _reorder_rows(matrix, order)
        assert matrix.tobytes() == want.tobytes()

    def test_peak_stays_under_the_cap(self):
        rng = np.random.default_rng(2)
        matrix = rng.random((4000, 100))
        order = permutation_of_shape("sorted-chunks", 4000, rng)
        cap = matrix.nbytes // 8
        with mock.patch.object(data_module, "_ROW_BYTES", cap):
            tracemalloc.start()
            try:
                _reorder_rows(matrix, order)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # The block plus a few index arrays of one int64 per row.
        assert peak < cap + 4 * order.nbytes


class TestGenSynthetic:
    def test_shapes_range_and_balance(self):
        data = gen_synthetic(4, 1001, 20, 4.0, np.random.default_rng(0))
        assert data.n == 1001 and data.d == 20 and data.num_classes == 4
        assert np.all(data.features >= 0.0) and np.all(data.features <= 1.0)
        counts = np.bincount(data.labels, minlength=data.num_classes)
        assert counts.max() - counts.min() <= 1

    def test_deterministic_given_seed(self):
        a = gen_synthetic(3, 200, 8, 2.0, np.random.default_rng(42))
        b = gen_synthetic(3, 200, 8, 2.0, np.random.default_rng(42))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("classes, samples, features", [(2, 1, 2), (3, 200, 8), (10, 3001, 40)])
    def test_bit_identical_to_former_gather(self, classes, samples, features):
        data = gen_synthetic(classes, samples, features, 2.5, np.random.default_rng(samples))
        want_features, want_labels = gathered_synthetic(
            classes, samples, features, 2.5, np.random.default_rng(samples)
        )
        assert data.features.tobytes() == want_features.tobytes()
        assert np.array_equal(data.labels, want_labels)

    @settings(max_examples=120, deadline=None)
    @given(
        classes=st.integers(2, 6),
        samples=st.integers(1, 120),
        extra_features=st.integers(0, 54),
        separation=st.floats(1e-3, 50.0),
        block=st.sampled_from(["byte", "row", "whole"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_size_never_changes_a_bit(
        self, classes, samples, extra_features, separation, block, seed
    ):
        features = classes + extra_features  # widths 2-60
        cap = {"byte": 1, "row": 8 * features, "whole": 8 * features * samples + 1}[block]
        with mock.patch.object(data_module, "_ROW_BYTES", cap):
            data = gen_synthetic(
                classes, samples, features, separation, np.random.default_rng(seed)
            )
        want_features, want_labels = gathered_synthetic(
            classes, samples, features, separation, np.random.default_rng(seed)
        )
        assert data.features.tobytes() == want_features.tobytes()
        assert np.array_equal(data.labels, want_labels)

    def test_peak_memory_stays_near_one_dataset(self):
        tracemalloc.start()
        try:
            data = gen_synthetic(10, 4000, 200, 4.0, np.random.default_rng(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (data.features.nbytes + data.labels.nbytes)

    def test_classes_linearly_separable_at_high_separation(self):
        data = gen_synthetic(4, 2000, 20, 4.0, np.random.default_rng(1))
        design = np.hstack([data.features, np.ones((data.n, 1))])
        onehot = np.eye(4)[data.labels]
        coef, *_ = np.linalg.lstsq(design, onehot, rcond=None)
        accuracy = float(np.mean(np.argmax(design @ coef, axis=1) == data.labels))
        assert accuracy >= 0.99

    def test_class_centroids_peak_on_own_axis(self):
        data = gen_synthetic(3, 3000, 6, 4.0, np.random.default_rng(2))
        for cls in range(3):
            centroid = data.features[data.labels == cls].mean(axis=0)
            assert int(np.argmax(centroid)) == cls
            assert centroid[cls] == pytest.approx(0.8, abs=0.05)

    def test_rejections(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            gen_synthetic(1, 100, 5, 2.0, rng)
        with pytest.raises(ValueError):
            gen_synthetic(5, 100, 4, 2.0, rng)
        with pytest.raises(ValueError):
            gen_synthetic(2, 0, 5, 2.0, rng)
        with pytest.raises(ValueError):
            gen_synthetic(2, 100, 5, 0.0, rng)


class TestPartitionIid:
    def test_exact_cover_and_even_sizes(self):
        data = gen_synthetic(4, 1000, 8, 2.0, np.random.default_rng(3))
        part = partition_iid(data.labels, data.num_classes, 20, np.random.default_rng(4))
        assert isinstance(part, tuple) and len(part) == 20
        joined = np.sort(np.concatenate(part))
        assert np.array_equal(joined, np.arange(1000))
        sizes = np.array([a.size for a in part])
        assert sizes.min() >= 1 and sizes.max() - sizes.min() <= 1

    def test_per_class_split_is_even(self):
        data = gen_synthetic(4, 1000, 8, 2.0, np.random.default_rng(5))
        part = partition_iid(data.labels, data.num_classes, 20, np.random.default_rng(6))
        for cls in range(4):
            per_client = [int(np.sum(data.labels[a] == cls)) for a in part]
            assert max(per_client) - min(per_client) <= 1

    def test_deterministic_given_seed(self):
        data = gen_synthetic(3, 300, 6, 2.0, np.random.default_rng(7))
        a = partition_iid(data.labels, data.num_classes, 7, np.random.default_rng(8))
        b = partition_iid(data.labels, data.num_classes, 7, np.random.default_rng(8))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_rejections(self):
        data = gen_synthetic(2, 5, 4, 2.0, np.random.default_rng(9))
        with pytest.raises(ValueError):
            partition_iid(data.labels, data.num_classes, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            partition_iid(data.labels, data.num_classes, 6, np.random.default_rng(0))
        with pytest.raises(ValueError, match="1-D"):
            partition_iid(data.labels.reshape(5, 1), 2, 2, np.random.default_rng(0))
        for labels in ([0, 1, 2], [0, -1, 1]):  # a label outside [0, 2)
            with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
                partition_iid(labels, 2, 2, np.random.default_rng(0))
            with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
                partition_dirichlet(labels, 2, 2, 0.5, np.random.default_rng(0))

    def test_matches_one_at_a_time_dealing(self):
        draw = np.random.default_rng(10)
        for case in range(40):
            num_classes = int(draw.integers(2, 8))
            # Uneven class sizes, some classes possibly empty.
            labels = draw.integers(0, num_classes, size=int(draw.integers(1, 400)))
            labels[0] = 0
            if case % 4 == 0:
                labels[labels == num_classes - 1] = 0
            num_clients = int(draw.integers(1, labels.size + 1))
            got = partition_iid(labels, num_classes, num_clients, np.random.default_rng(case))
            want = dealt_partition_iid(
                labels, num_classes, num_clients, np.random.default_rng(case)
            )
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)


class TestPartitionDirichlet:
    def test_exact_cover_and_no_empty_clients(self):
        data = gen_synthetic(5, 800, 10, 2.0, np.random.default_rng(10))
        part = partition_dirichlet(data.labels, 5, 12, 0.5, np.random.default_rng(11))
        assert isinstance(part, tuple) and len(part) == 12
        joined = np.sort(np.concatenate(part))
        assert np.array_equal(joined, np.arange(800))
        assert min(a.size for a in part) >= 1

    def test_low_alpha_concentrates_classes(self):
        data = gen_synthetic(5, 500, 10, 2.0, np.random.default_rng(12))
        part = partition_dirichlet(data.labels, 5, 10, 0.1, np.random.default_rng(13))
        missing = 0
        for a in part:
            counts = np.bincount(data.labels[a], minlength=5)
            missing += int(np.sum(counts == 0))
        assert missing > 0

    def test_high_alpha_approaches_iid(self):
        data = gen_synthetic(4, 4000, 8, 2.0, np.random.default_rng(14))
        part = partition_dirichlet(data.labels, 4, 10, 1000.0, np.random.default_rng(15))
        for a in part:
            proportions = np.bincount(data.labels[a], minlength=4) / a.size
            assert np.all(np.abs(proportions - 0.25) <= 0.03)

    def test_empty_client_repair_with_scarce_samples(self):
        data = gen_synthetic(2, 10, 4, 2.0, np.random.default_rng(16))
        part = partition_dirichlet(data.labels, 2, 10, 0.05, np.random.default_rng(17))
        assert [a.size for a in part] == [1] * 10

    @settings(max_examples=200, deadline=None)
    @given(
        num_classes=st.integers(2, 6),
        samples=st.integers(1, 60),
        clients=st.integers(1, 40),
        alpha=st.sampled_from([0.01, 0.03, 0.1, 0.5, 2.0, 100.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_one_sample_at_a_time_buckets(
        self, num_classes, samples, clients, alpha, seed
    ):
        # Few samples per class across many clients at small alpha leave
        # clients empty, so the repair runs.
        labels = np.random.default_rng(seed).integers(0, num_classes, size=max(samples, clients))
        got = partition_dirichlet(labels, num_classes, clients, alpha, np.random.default_rng(seed))
        want = appended_partition_dirichlet(
            labels, num_classes, clients, alpha, np.random.default_rng(seed)
        )
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_repair_takes_the_largest_clients_last_sample(self):
        # 8 clients for 5 + 5 samples at alpha 0.01: the shares concentrate,
        # clients start empty and the repair fills them one by one.
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
        before = dirichlet_buckets(labels, 2, 8, 0.01, np.random.default_rng(3))
        assert sum(not bucket for bucket in before) >= 2
        got = partition_dirichlet(labels, 2, 8, 0.01, np.random.default_rng(3))
        want = appended_partition_dirichlet(labels, 2, 8, 0.01, np.random.default_rng(3))
        assert [a.tolist() for a in got] == [b.tolist() for b in want]
        assert min(a.size for a in got) == 1

    def test_deterministic_given_seed(self):
        data = gen_synthetic(3, 300, 6, 2.0, np.random.default_rng(18))
        a = partition_dirichlet(data.labels, data.num_classes, 6, 0.5, np.random.default_rng(19))
        b = partition_dirichlet(data.labels, data.num_classes, 6, 0.5, np.random.default_rng(19))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_rejections(self):
        data = gen_synthetic(2, 20, 4, 2.0, np.random.default_rng(20))
        with pytest.raises(ValueError):
            partition_dirichlet(data.labels, data.num_classes, 5, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            partition_dirichlet(data.labels, data.num_classes, 21, 0.5, np.random.default_rng(0))