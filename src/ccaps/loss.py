"""Temperature-scaled contrastive loss over a batch of paired embeddings.

Rows 0..N-1 of the embedding matrix are the first views, rows N..2N-1 the
matching second views; every other row in the concatenated batch acts as
a negative. Similarity is the dot product of unit-norm rows (cosine).
For each anchor the denominator runs over all 2N-1 other rows, positive
included, and the scalar loss is the mean over all 2N anchors. All
exponentials are max-subtracted.

:func:`nt_xent_op` is the one entry point: an autodiff node whose
hand-derived gradient reuses the softmax terms of the forward pass.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor, _node


def nt_xent_op(z: Tensor, tau: float) -> Tensor:
    """Autodiff node computing the contrastive loss of an embedding tensor.

    Rows are assumed unit norm (the network's normalize stage guarantees
    it up to float32 rounding); only the structure and the temperature
    are checked.
    """
    if not (tau > 0 and math.isfinite(tau)):
        raise ValueError(f"temperature must be positive and finite, got {tau!r}")
    if z.ndim != 2 or len(z.data) < 2 or len(z.data) % 2 != 0:
        raise ValueError(f"embeddings must be [2N, D] with N >= 1, got {z.shape}")
    n2 = len(z.data)
    partner = (np.arange(n2) + n2 // 2) % n2

    logits = (z.data @ z.data.T) / tau
    np.fill_diagonal(logits, -np.inf)  # self-similarity is never a candidate
    rowmax = logits.max(axis=1, keepdims=True)
    expv = np.exp(logits - rowmax)
    denom = expv.sum(axis=1)
    log_denom = rowmax[:, 0] + np.log(denom)
    loss = np.mean(log_denom - logits[np.arange(n2), partner])

    def bw(g):
        p = expv / denom[:, None]
        p[np.arange(n2), partner] -= 1.0
        p /= tau * n2
        return (g * ((p + p.T) @ z.data).astype(z.dtype),)

    return _node(np.asarray(loss, dtype=z.dtype), (z,), bw)
