"""CIFAR-10 binary loader, normalization, and batch iterator contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccaps.data import (
    NUM_CLASSES,
    RECORD_BYTES,
    TEST_FILE,
    TRAIN_FILES,
    Batch,
    DataError,
    DatasetSplit,
    NormalizationStats,
    batch_iterator,
    compute_normalization_stats,
    load_cifar10_binary,
    memory_view,
    standardize,
    to_unit_interval,
)
from synth import write_synthetic_cifar


def test_record_layout_is_3073_bytes():
    assert RECORD_BYTES == 1 + 32 * 32 * 3


def test_full_size_load(full_data_dir):
    train, test = load_cifar10_binary(full_data_dir)
    assert len(train) == 50_000
    assert len(test) == 10_000
    assert train.images.dtype == np.uint8
    assert train.labels.max() < NUM_CLASSES


def test_per_class_counts_sum_to_6000(full_data_dir):
    train, test = load_cifar10_binary(full_data_dir)
    combined = np.concatenate([train.labels, test.labels])
    counts = np.bincount(combined, minlength=NUM_CLASSES)
    assert np.all(counts == 6000)


def test_memory_view_same_records_same_order(small_data_dir):
    train, _ = load_cifar10_binary(small_data_dir)
    memory = memory_view(train)
    assert memory.split_kind == "memory"
    assert memory.images is train.images
    np.testing.assert_array_equal(memory.labels, train.labels)


def test_missing_file_names_the_file(tmp_path):
    with pytest.raises(DataError, match="data_batch_1.bin"):
        load_cifar10_binary(tmp_path)


def test_empty_file_is_an_error_not_a_crash(tmp_path):
    write_synthetic_cifar(tmp_path, n_train=50, n_test=10, seed=1)
    (tmp_path / TRAIN_FILES[2]).write_bytes(b"")
    with pytest.raises(DataError, match="empty file"):
        load_cifar10_binary(tmp_path)


def test_truncated_final_record_is_reported(tmp_path):
    write_synthetic_cifar(tmp_path, n_train=50, n_test=10, seed=2)
    path = tmp_path / TEST_FILE
    path.write_bytes(path.read_bytes()[:-1])  # last record now 3072 bytes
    with pytest.raises(DataError, match="truncated"):
        load_cifar10_binary(tmp_path)


def test_bad_label_byte_reports_file_and_record(tmp_path):
    write_synthetic_cifar(tmp_path, n_train=50, n_test=10, seed=3)
    path = tmp_path / TRAIN_FILES[0]
    raw = bytearray(path.read_bytes())
    raw[3 * RECORD_BYTES] = 11  # corrupt record 3's label
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match=r"data_batch_1.bin: record 3: label byte 11"):
        load_cifar10_binary(tmp_path)


def test_nested_batches_directory_is_found(tmp_path):
    write_synthetic_cifar(tmp_path / "cifar-10-batches-bin", n_train=50, n_test=10, seed=4)
    train, test = load_cifar10_binary(tmp_path)
    assert len(train) == 50 and len(test) == 10


def test_take_keeps_file_order_and_rejects_a_negative_count():
    images = np.arange(10, dtype=np.uint8)[:, None, None, None] * np.ones((1, 3, 32, 32), np.uint8)
    split = DatasetSplit(images, np.arange(10) % 10, "train")
    first = split.take(3)
    np.testing.assert_array_equal(first.images, images[:3])
    np.testing.assert_array_equal(first.labels, [0, 1, 2])
    assert len(split.take(0)) == 0 and len(split.take(99)) == 10
    with pytest.raises(ValueError, match="non-negative"):
        split.take(-1)


# -- normalization -----------------------------------------------------------


def test_normalize_zero_pixels_identity_stats():
    pixels = np.zeros((3, 32, 32), dtype=np.uint8)
    stats = NormalizationStats(mean=np.zeros(3), std=np.ones(3))
    np.testing.assert_array_equal(standardize(to_unit_interval(pixels), stats), np.zeros((3, 32, 32)))


def test_normalize_full_intensity_half_stats():
    pixels = np.full((3, 32, 32), 255, dtype=np.uint8)
    stats = NormalizationStats(mean=np.full(3, 0.5), std=np.full(3, 0.5))
    np.testing.assert_allclose(
        standardize(to_unit_interval(pixels), stats), np.ones((3, 32, 32)), atol=1e-6
    )


def test_stats_require_positive_std():
    with pytest.raises(ValueError, match="positive"):
        NormalizationStats(mean=np.zeros(3), std=np.array([0.5, 0.0, 0.5]))


def test_stats_match_single_pass_oracle(full_data_dir):
    train, _ = load_cifar10_binary(full_data_dir)
    stats = compute_normalization_stats(train)
    # independent single-pass scan, record by record
    total = np.zeros(3)
    total_sq = np.zeros(3)
    for i in range(len(train)):
        img = train.images[i].astype(np.float64) / 255.0
        total += img.sum(axis=(1, 2))
        total_sq += (img * img).sum(axis=(1, 2))
    n = len(train) * 32 * 32
    mean = total / n
    std = np.sqrt(total_sq / n - mean * mean)
    np.testing.assert_allclose(stats.mean, mean, atol=1e-6)
    np.testing.assert_allclose(stats.std, std, atol=1e-6)


def test_standardize_batch_and_single_agree(small_data_dir):
    train, _ = load_cifar10_binary(small_data_dir)
    stats = compute_normalization_stats(train)
    batch = to_unit_interval(train.images[:4])
    whole = standardize(batch, stats)
    one = standardize(to_unit_interval(train.images[2]), stats)
    np.testing.assert_allclose(whole[2], one, atol=1e-7)


# -- batching ----------------------------------------------------------------


def _toy_split(n=23) -> DatasetSplit:
    images = np.arange(n, dtype=np.uint8).reshape(n, 1, 1, 1) * np.ones((n, 3, 32, 32), dtype=np.uint8)
    return DatasetSplit(images, np.arange(n, dtype=np.int64) % NUM_CLASSES, "train")


def test_batch_iterator_rejects_zero_batch():
    with pytest.raises(ValueError):
        list(batch_iterator(_toy_split(), 0, shuffle=False))


def test_unshuffled_iteration_is_file_order_and_repeatable():
    split = _toy_split()
    runs = [list(batch_iterator(split, 5, shuffle=False)) for _ in range(2)]
    for a, b in zip(*runs):
        np.testing.assert_array_equal(a.indices, b.indices)
    flat = np.concatenate([b.indices for b in runs[0]])
    np.testing.assert_array_equal(flat, np.arange(len(split)))


def test_partial_final_batch_is_kept_and_sized():
    batches = list(batch_iterator(_toy_split(23), 5, shuffle=False))
    assert [b.size for b in batches] == [5, 5, 5, 5, 3]


def test_shuffled_iteration_is_seed_deterministic():
    split = _toy_split(40)
    a = [b.indices for b in batch_iterator(split, 7, shuffle=True, seed=5, epoch=2)]
    b = [b.indices for b in batch_iterator(split, 7, shuffle=True, seed=5, epoch=2)]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    c = [b.indices for b in batch_iterator(split, 7, shuffle=True, seed=5, epoch=3)]
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 60), batch_size=st.integers(1, 17), seed=st.integers(0, 99))
def test_shuffled_epoch_covers_split_exactly(n, batch_size, seed):
    split = _toy_split(n)
    seen = np.concatenate([b.indices for b in batch_iterator(split, batch_size, True, seed)])
    assert sorted(seen.tolist()) == list(range(n))


def test_unshuffled_concatenation_reconstructs_split(small_data_dir):
    train, _ = load_cifar10_binary(small_data_dir)
    chunks = [b.images for b in batch_iterator(train, 256, shuffle=False)]
    np.testing.assert_array_equal(np.concatenate(chunks), train.images)


def test_without_labels_hides_labels_for_training():
    split = _toy_split().without_labels()
    assert split.labels is None
    batch = next(iter(batch_iterator(split, 4, shuffle=False)))
    assert isinstance(batch, Batch)
    assert batch.labels is None
