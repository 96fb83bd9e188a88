"""Brute-force weighted-kNN oracle for the ``knn-50k`` correctness check.

It shares no code with ``ccaps.knn``: similarities are float64 dot
products, the neighbour set comes from a full stable ``argsort`` instead of
``argpartition``, weights are float64 and class scores come from
``bincount``. With the exact inputs of :mod:`inputs` the similarities equal
the program's float32 ones bit for bit, so the ranked classes must match
exactly. Two cases have no single right answer, and the oracle flags them
instead of guessing: an exact tie between the k-th and (k+1)-th neighbour,
and two ranked class scores that differ only by float64 summation order.
"""

from __future__ import annotations

import numpy as np

_SCORE_TIE = 1e-9  # relative score gap that summation order alone can produce


def ranked_top(
    queries: np.ndarray,
    bank: np.ndarray,
    labels: np.ndarray,
    k: int,
    temperature: float,
    classes: int,
    top: int = 5,
    block: int = 4096,
) -> tuple[np.ndarray, np.ndarray]:
    """Ranked top-`top` classes per query, and a flag for queries with no unique answer."""
    q64 = queries.astype(np.float64)
    sims = np.empty((len(queries), len(bank)))
    for start in range(0, len(bank), block):
        sims[:, start : start + block] = q64 @ bank[start : start + block].astype(np.float64).T

    ranked = np.empty((len(queries), top), dtype=np.int64)
    ambiguous = np.zeros(len(queries), dtype=bool)
    for row, sim in enumerate(sims):
        order = np.argsort(-sim, kind="stable")
        nearest = order[:k]
        boundary_tie = k < len(sim) and sim[order[k - 1]] == sim[order[k]]
        scores = np.bincount(labels[nearest], weights=np.exp(sim[nearest] / temperature), minlength=classes)
        by_score = np.argsort(-scores, kind="stable")
        head = scores[by_score[: top + 1]]
        gaps = head[:-1] - head[1:]
        near_tie = np.any((gaps > 0) & (gaps <= _SCORE_TIE * head[:-1]))
        ranked[row] = by_score[:top]
        ambiguous[row] = boundary_tie or near_tie
    return ranked, ambiguous
