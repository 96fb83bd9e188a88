"""CIFAR-10 binary format: loading, validation, normalization, batching.

The wire format is bit-exact: records of 3073 bytes, one label byte
followed by 1024 red, 1024 green, 1024 blue bytes in row-major order.
Five train files plus one test file make up the official dataset.

This module only reads local files; downloading and checksum verification
live in the CLI. Splits are immutable after construction and safe for
concurrent readers; a batch iterator is consumed by a single caller.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .rngstream import SHUFFLE_STREAM, stream_rng

RECORD_BYTES = 3073  # 1 label byte + 32*32*3 pixel bytes
IMAGE_SHAPE = (3, 32, 32)
NUM_CLASSES = 10
TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
TEST_FILE = "test_batch.bin"


class DataError(Exception):
    """Malformed or missing dataset files."""


@dataclass(frozen=True)
class NormalizationStats:
    """Per-channel mean and standard deviation of pixel values in [0, 1]."""

    mean: np.ndarray  # (3,)
    std: np.ndarray  # (3,)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        if mean.shape != (3,) or std.shape != (3,):
            raise ValueError("normalization stats must be per-channel (3,) arrays")
        if not np.all(std > 0):
            raise ValueError(f"channel std must be positive, got {std}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


@dataclass(frozen=True)
class DatasetSplit:
    """An ordered set of records backed by arrays; labels may be absent.

    The training path never reads labels: `without_labels()` produces the
    images-only view handed to the trainer.
    """

    images: np.ndarray  # uint8 [N, 3, 32, 32]
    labels: np.ndarray | None  # [N] class indices, or None
    split_kind: str  # train | memory | test

    def __post_init__(self):
        if self.images.ndim != 4 or self.images.shape[1:] != IMAGE_SHAPE:
            raise ValueError(f"images must be [N, 3, 32, 32], got {self.images.shape}")
        if self.labels is not None:
            if len(self.labels) != len(self.images):
                raise ValueError("labels and images disagree on record count")
            if len(self.labels) and self.labels.max() >= NUM_CLASSES:
                raise ValueError("label out of range")
        if self.split_kind not in ("train", "memory", "test"):
            raise ValueError(f"unknown split kind {self.split_kind!r}")

    def __len__(self) -> int:
        return len(self.images)

    def take(self, count: int) -> "DatasetSplit":
        """First `count` records in file order; a negative count is an error."""
        if count < 0:
            raise ValueError(f"record count must be non-negative, got {count}")
        labels = None if self.labels is None else self.labels[:count]
        return DatasetSplit(self.images[:count], labels, self.split_kind)

    def without_labels(self) -> "DatasetSplit":
        return DatasetSplit(self.images, None, self.split_kind)


def _read_batch_file(path: Path) -> tuple[np.ndarray, np.ndarray]:
    if not path.is_file():
        raise DataError(f"{path}: missing dataset file")
    raw = path.read_bytes()
    if len(raw) == 0:
        raise DataError(f"{path.name}: empty file, no records")
    if len(raw) % RECORD_BYTES != 0:
        raise DataError(
            f"{path.name}: truncated file, {len(raw)} bytes is not a multiple of {RECORD_BYTES}"
        )
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(-1, RECORD_BYTES)
    labels = arr[:, 0]
    bad = np.nonzero(labels >= NUM_CLASSES)[0]
    if bad.size:
        i = int(bad[0])
        raise DataError(f"{path.name}: record {i}: label byte {int(labels[i])} > 9")
    images = arr[:, 1:].reshape(-1, *IMAGE_SHAPE)
    return labels, images


def _resolve_data_dir(path: str | os.PathLike) -> Path:
    base = Path(path)
    if (base / TRAIN_FILES[0]).is_file():
        return base
    nested = base / "cifar-10-batches-bin"
    if (nested / TRAIN_FILES[0]).is_file():
        return nested
    return base  # let the per-file error name what is missing


def load_cifar10_binary(path: str | os.PathLike) -> tuple[DatasetSplit, DatasetSplit]:
    """Read the six official batch files under `path` (or its
    cifar-10-batches-bin subdirectory) into train and test splits,
    preserving file order."""
    root = _resolve_data_dir(path)
    label_parts, image_parts = [], []
    for name in TRAIN_FILES:
        labels, images = _read_batch_file(root / name)
        label_parts.append(labels)
        image_parts.append(images)
    train = DatasetSplit(
        np.concatenate(image_parts), np.concatenate(label_parts).astype(np.int64), "train"
    )
    labels, images = _read_batch_file(root / TEST_FILE)
    test = DatasetSplit(images, labels.astype(np.int64), "test")
    return train, test


def memory_view(train: DatasetSplit) -> DatasetSplit:
    """The evaluation-time memory split: the train records, file order kept."""
    return DatasetSplit(train.images, train.labels, "memory")


def compute_normalization_stats(split: DatasetSplit, chunk: int = 2048) -> NormalizationStats:
    """Two-moment accumulation over the split's pixels scaled to [0, 1]."""
    total = np.zeros(3, dtype=np.float64)
    total_sq = np.zeros(3, dtype=np.float64)
    count = 0
    for start in range(0, len(split), chunk):
        block = split.images[start : start + chunk].astype(np.float64) / 255.0
        total += block.sum(axis=(0, 2, 3))
        total_sq += (block * block).sum(axis=(0, 2, 3))
        count += block.shape[0] * block.shape[2] * block.shape[3]
    if count == 0:
        raise DataError("cannot compute normalization stats of an empty split")
    mean = total / count
    var = total_sq / count - mean * mean
    return NormalizationStats(mean=mean, std=np.sqrt(np.maximum(var, 1e-12)))


def to_unit_interval(pixels: np.ndarray) -> np.ndarray:
    """uint8 pixels -> float32 in [0, 1]."""
    return pixels.astype(np.float32) / np.float32(255.0)


def standardize(image: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """(x - mean) / std per channel for an image (or batch) in [0, 1] space."""
    mean = stats.mean.astype(image.dtype).reshape(3, 1, 1)
    std = stats.std.astype(image.dtype).reshape(3, 1, 1)
    return (image - mean) / std


@dataclass(frozen=True)
class Batch:
    """One mini-batch: source indices plus the corresponding arrays."""

    indices: np.ndarray
    images: np.ndarray  # uint8 [size, 3, 32, 32]
    labels: np.ndarray | None

    @property
    def size(self) -> int:
        return len(self.indices)


def batch_iterator(
    split: DatasetSplit,
    batch_size: int,
    shuffle: bool,
    seed: int = 0,
    epoch: int = 0,
) -> Iterator[Batch]:
    """Yield the split in batches; the final partial batch is kept.

    shuffle=False walks file order. shuffle=True applies a permutation
    derived from (seed, epoch), so every epoch reshuffles and identical
    seeds replay identical sequences.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = len(split)
    if shuffle:
        order = stream_rng(seed, SHUFFLE_STREAM, epoch).permutation(n)
    else:
        order = np.arange(n)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        labels = None if split.labels is None else split.labels[idx]
        yield Batch(indices=idx, images=split.images[idx], labels=labels)
