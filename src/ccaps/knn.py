"""Weighted k-nearest-neighbour evaluation over a feature bank.

The bank holds the eval-mode conv features ``h`` of the unshuffled train
split, one unit-norm row per image, in file order. This is the first and
only place labels are read. A query image is classified by taking its k
most similar bank rows (cosine, i.e. dot products of unit vectors),
weighting each neighbour by exp(similarity / temperature), and summing
the weights per class. Ranked classes sort by descending score with ties
broken by ascending class index.

The bank is immutable after construction; queries run in fixed-size
chunks so peak memory stays bounded at full dataset scale
(50,000 x 2048 float32 rows ~ 410 MB plus one chunk of similarities).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import l2_normalize
from .data import NUM_CLASSES, DatasetSplit, NormalizationStats, batch_iterator, standardize, to_unit_interval
from .model import CapsuleNetwork

__all__ = [
    "FeatureBank",
    "EvalConfig",
    "EvalResult",
    "extract_features",
    "build_feature_bank",
    "weighted_knn_predict",
    "evaluate",
]

_UNIT_NORM_TOL = 1e-5
_QUERY_CHUNK = 512  # queries scored per similarity block in `evaluate`


@dataclass(frozen=True)
class EvalConfig:
    k: int = 200
    temperature: float = 0.2
    class_count: int = NUM_CLASSES

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.class_count < 2:
            raise ValueError("need at least two classes")


@dataclass(frozen=True)
class FeatureBank:
    features: np.ndarray  # [M, D], unit-norm rows, memory-split file order
    labels: np.ndarray  # [M] class indices

    def __post_init__(self):
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ValueError("features and labels must align")
        if len(self.features) == 0:
            raise ValueError("feature bank is empty")
        norms = np.linalg.norm(self.features, axis=1)
        worst = float(np.abs(norms - 1.0).max())
        if worst > _UNIT_NORM_TOL:
            raise ValueError(f"bank rows must be unit norm, worst error {worst:.2e}")
        if self.labels.min() < 0 or self.labels.max() >= NUM_CLASSES:
            raise ValueError("bank labels out of range")

    def __len__(self) -> int:
        return len(self.features)


@dataclass(frozen=True)
class EvalResult:
    top1: float  # percent, two decimals
    top5: float
    correct1: int
    correct5: int
    total: int
    k: int
    temperature: float


def extract_features(
    net: CapsuleNetwork,
    split: DatasetSplit,
    stats: NormalizationStats,
    batch_size: int = 256,
) -> np.ndarray:
    """Eval-mode h features of every record, file order, [N, feature_dim]."""
    out = np.empty((len(split), net.config.feature_dim), dtype=np.float32)
    row = 0
    for batch in batch_iterator(split, batch_size, shuffle=False):
        x = standardize(to_unit_interval(batch.images), stats)
        fmap = net.conv_block(x, mode="eval")
        out[row : row + batch.size] = l2_normalize(fmap.reshape(batch.size, -1), axis=1).data
        row += batch.size
    return out


def build_feature_bank(
    net: CapsuleNetwork,
    memory_split: DatasetSplit,
    stats: NormalizationStats,
    batch_size: int = 256,
) -> FeatureBank:
    if memory_split.labels is None:
        raise ValueError("the memory split needs labels to build a bank")
    if len(memory_split) == 0:
        raise ValueError("cannot build a bank from an empty split")
    features = extract_features(net, memory_split, stats, batch_size)
    return FeatureBank(features=features, labels=np.asarray(memory_split.labels))


def weighted_knn_predict(
    h: np.ndarray, bank: FeatureBank, cfg: EvalConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Class scores and ranked labels for a batch of queries `h` [Q, D].

    Returns (scores [Q, classes], ranked [Q, classes]); ranked[q, 0] is the
    top-1 prediction.
    """
    if cfg.k > len(bank):
        raise ValueError(f"k={cfg.k} exceeds bank size {len(bank)}")
    if int(bank.labels.max()) >= cfg.class_count:
        raise ValueError(
            f"bank labels reach {int(bank.labels.max())}, beyond class_count={cfg.class_count}"
        )

    sim = h @ bank.features.T  # [Q, M]
    if cfg.k < len(bank):
        top = np.argpartition(-sim, cfg.k - 1, axis=1)[:, : cfg.k]
    else:
        top = np.broadcast_to(np.arange(len(bank)), sim.shape).copy()
    rows = np.arange(len(h))[:, None]
    # float64 keeps exp(1/temperature) finite for any positive temperature
    weights = np.exp(sim[rows, top].astype(np.float64) / cfg.temperature)
    neighbor_labels = bank.labels[top]

    scores = np.zeros((len(h), cfg.class_count), dtype=weights.dtype)
    np.add.at(scores, (np.broadcast_to(rows, top.shape), neighbor_labels), weights)
    # stable argsort on negated scores: ties fall back to ascending class index
    return scores, np.argsort(-scores, axis=1, kind="stable")


def evaluate(
    net: CapsuleNetwork,
    memory_split: DatasetSplit,
    test_split: DatasetSplit,
    stats: NormalizationStats,
    cfg: EvalConfig,
    batch_size: int = 256,
) -> EvalResult:
    """Top-1/top-5 accuracy of weighted kNN voting over the whole test split."""
    if len(test_split) == 0:
        raise ValueError("empty test split")
    if test_split.labels is None:
        raise ValueError("the test split needs labels for scoring")
    bank = build_feature_bank(net, memory_split, stats, batch_size)
    queries = extract_features(net, test_split, stats, batch_size)
    labels = np.asarray(test_split.labels)

    correct1 = 0
    correct5 = 0
    for start in range(0, len(queries), _QUERY_CHUNK):
        chunk = queries[start : start + _QUERY_CHUNK]
        chunk_labels = labels[start : start + len(chunk)]
        _, ranked = weighted_knn_predict(chunk, bank, cfg)
        correct1 += int(np.sum(ranked[:, 0] == chunk_labels))
        correct5 += int(np.sum(np.any(ranked[:, :5] == chunk_labels[:, None], axis=1)))

    total = len(queries)
    return EvalResult(
        top1=round(100.0 * correct1 / total, 2),
        top5=round(100.0 * correct5 / total, 2),
        correct1=correct1,
        correct5=correct5,
        total=total,
        k=cfg.k,
        temperature=cfg.temperature,
    )
