"""Weighted k-nearest-neighbour evaluation over a feature bank.

The bank holds the eval-mode conv features ``h`` of the unshuffled train
split, one unit-norm row per image, in file order. This is the first and
only place labels are read. A query image is classified by taking its k
most similar bank rows (cosine, i.e. dot products of unit vectors),
weighting each neighbour by exp(similarity / temperature), and summing
the weights per class. Ranked classes sort by descending score with ties
broken by ascending class index.

Queries are scored 512 at a time (any number in one call), and each
chunk over blocks of bank rows: as few as hold at most 6,250 rows each,
evened out, so the blocks depend on the bank size alone.
Workers, one per OpenBLAS thread but no more than there are blocks (one
where no OpenBLAS is loaded; see :mod:`ccaps.blas`), share the BLAS
threads evenly: one each when there are at least as many blocks as BLAS
threads. Each takes the next block, computes its similarities with one
GEMM into its own block buffer, and
keeps each query's k best rows of the block (all of a block shorter than
k), selected in place over 16 query rows at a time. A merge then keeps
each query's k best of these candidates, which lie in block order, so
the neighbour set does not depend on the worker count. The neighbours
are in bank order, so the float64 weights are summed in bank order and a
score depends only on the neighbour set. Which of several rows tied at
the k-th similarity is kept is unspecified.

The bank is immutable after construction. Every call runs its chunks
through one worker pool and one set of buffers sized for one chunk, so its
peak memory does not grow with the number of queries, and a chunk's bytes
are those of a call with that chunk alone. A call holds the bank (50,000 x
2048 float32 rows ~ 410 MB, never copied), one [<= 512, <= 6,250]
similarity buffer per worker (26 MB on two workers, against 100 MB for a
whole [512, 50,000] block), k candidates per query of a chunk and block,
and the [Q, classes] scores and ranks.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate
from typing import ClassVar

import numpy as np

from . import blas
from .autodiff import l2_normalize, no_grad
from .data import (
    NUM_CLASSES, DatasetSplit, NormalizationStats, batch_iterator, check_labels, standardize, to_unit_interval,
)
from .model import CapsuleNetwork

__all__ = [
    "FeatureBank",
    "EvalConfig",
    "EvalResult",
    "extract_features",
    "weighted_knn_predict",
    "evaluate",
]

_UNIT_NORM_TOL = 1e-5
_QUERY_CHUNK = 512  # most queries scored at once
_BANK_ROWS = 6_250  # most bank rows per similarity block
_SELECT_ROWS = 16  # query rows per top-k selection block


@dataclass(frozen=True)
class EvalConfig:
    k: int = 200
    temperature: float = 0.2
    class_count: ClassVar[int] = NUM_CLASSES

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (self.temperature > 0 and math.isfinite(self.temperature)):
            raise ValueError(f"temperature must be positive and finite, got {self.temperature!r}")


def _require_unit_rows(rows: np.ndarray, what: str) -> None:
    """Raise unless every row is finite and unit norm; NaN fails the test.

    The squared norms are one pass over `rows`, with no temporary their size.
    """
    worst = float(np.abs(np.sqrt(np.einsum("ij,ij->i", rows, rows)) - 1.0).max())
    if not worst <= _UNIT_NORM_TOL:
        raise ValueError(f"{what} rows must be finite and unit norm, worst error {worst:.2e}")


@dataclass(frozen=True)
class FeatureBank:
    features: np.ndarray  # [M, D], unit-norm rows, memory-split file order
    labels: np.ndarray  # [M] integer class indices

    def __post_init__(self):
        check_labels(self.labels, "bank")
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ValueError("features and labels must align")
        if len(self.features) == 0:
            raise ValueError("feature bank is empty")
        _require_unit_rows(self.features, "bank")

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
    """Eval-mode h features of every record, file order, [N, feature_dim].

    Nothing here is differentiated, so no batch records a graph. Each batch
    is cut into two runs of whole images, one on this thread and one on a
    worker, with half the BLAS threads each (:mod:`ccaps.blas`), and each
    run writes its rows of the output. Eval forwards are pure and a conv
    row's bits do not depend on its block, so the bytes are those of one run.
    """
    out = np.empty((len(split), net.config.feature_dim), dtype=np.float32)

    def rows(lo: int, images: np.ndarray) -> None:
        fmap = net.conv_block(standardize(to_unit_interval(images), stats), mode="eval")
        out[lo : lo + len(images)] = l2_normalize(fmap.reshape(len(images), -1), axis=1).data

    row = 0
    with no_grad(), blas.split(2), ThreadPoolExecutor(1, "ccaps-extract") as pool:
        for batch in batch_iterator(split, batch_size, shuffle=False):
            halves = blas.even_blocks(batch.size, -(-batch.size // 2))
            blas.run(pool, *(functools.partial(rows, row + lo, batch.images[lo:hi]) for lo, hi in halves))
            row += batch.size
    return out


def weighted_knn_predict(
    h: np.ndarray, bank: FeatureBank, cfg: EvalConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Class scores and ranked labels for any number of queries `h` [Q, D].

    Returns (scores [Q, classes], ranked [Q, classes]); ranked[q, 0] is the
    top-1 prediction. The queries are scored `_QUERY_CHUNK` at a time, each
    chunk over blocks of bank rows on up to one worker per BLAS thread, so a
    chunk's bytes are those of a call with that chunk alone.
    """
    if cfg.k > len(bank):
        raise ValueError(f"k={cfg.k} exceeds bank size {len(bank)}")
    m, k, classes = len(bank), cfg.k, cfg.class_count
    blocks = blas.even_blocks(m, _BANK_ROWS)
    # each block's k best rows per query (all of a shorter block), in block order
    starts = list(accumulate((min(k, hi - lo) for lo, hi in blocks), initial=0))
    width, most = starts[-1], min(len(h), _QUERY_CHUNK)
    dtype = np.result_type(h, bank.features)
    chunk_cand = np.empty((most, width), dtype=np.intp)
    chunk_sim = np.empty((most, width), dtype=dtype)
    scores = np.empty((len(h), classes))

    def work(buffer: np.ndarray) -> None:  # on the current chunk's queries, todo and candidates
        for b in todo:
            (lo, hi), at = blocks[b], starts[b]
            n = hi - lo
            kept = starts[b + 1] - at
            sim = np.matmul(queries, bank.features[lo:hi].T, out=buffer[: q * n].reshape(q, n))
            for r in range(0, q, _SELECT_ROWS):
                rows = sim[r : r + _SELECT_ROWS]
                best = np.argpartition(rows, n - kept, axis=1)[:, n - kept :]
                best.sort(axis=1)  # bank order, so the candidates are too
                cand_sim[r : r + _SELECT_ROWS, at : at + kept] = np.take_along_axis(rows, best, axis=1)
                cand[r : r + _SELECT_ROWS, at : at + kept] = best + lo

    workers = min(blas.thread_count(), len(blocks))
    with blas.split(workers), ThreadPoolExecutor(max(1, workers - 1), "ccaps-knn") as pool:
        buffers = np.empty((workers, most * max(hi - lo for lo, hi in blocks)), dtype=dtype)
        for start in range(0, len(h), _QUERY_CHUNK):
            queries = h[start : start + _QUERY_CHUNK]
            q = len(queries)
            cand, cand_sim = chunk_cand[:q], chunk_sim[:q]
            todo = iter(range(len(blocks)))  # shared; each next() is one C call under the GIL
            blas.run(pool, *(functools.partial(work, buffer) for buffer in buffers))
            keep = np.argpartition(cand_sim, width - k, axis=1)[:, width - k :]
            keep.sort(axis=1)  # bank order, so the sums below do not depend on the partition order
            top = np.take_along_axis(cand, keep, axis=1)
            # float64 keeps exp(1/temperature) finite for any positive temperature
            weights = np.exp(np.take_along_axis(cand_sim, keep, axis=1).astype(np.float64) / cfg.temperature)
            slots = (np.arange(q)[:, None] * classes + bank.labels[top]).ravel()
            scores[start : start + q] = np.bincount(slots, weights.ravel(), minlength=q * classes).reshape(q, -1)
    # stable argsort on negated scores: ties fall back to ascending class index
    return scores, np.argsort(-scores, axis=1, kind="stable")


def evaluate(
    net: CapsuleNetwork,
    memory_split: DatasetSplit,
    test_split: DatasetSplit,
    stats: NormalizationStats,
    cfg: EvalConfig,
) -> EvalResult:
    """Top-1/top-5 accuracy of weighted kNN voting over the whole test split."""
    if len(test_split) == 0:
        raise ValueError("empty test split")
    if test_split.labels is None:
        raise ValueError("the test split needs labels for scoring")
    if memory_split.labels is None:
        raise ValueError("the memory split needs labels to build a bank")
    bank = FeatureBank(extract_features(net, memory_split, stats), np.asarray(memory_split.labels))
    queries = extract_features(net, test_split, stats)
    _require_unit_rows(queries, "query")
    labels = np.asarray(test_split.labels)
    _, ranked = weighted_knn_predict(queries, bank, cfg)
    correct1 = int(np.sum(ranked[:, 0] == labels))
    correct5 = int(np.sum(np.any(ranked[:, :5] == labels[:, None], axis=1)))

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
