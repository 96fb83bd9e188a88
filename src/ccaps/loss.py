"""Temperature-scaled contrastive loss over a batch of paired embeddings.

Rows 0..N-1 of the embedding matrix are the first views, rows N..2N-1 the
matching second views; every other row in the concatenated batch acts as
a negative. Similarity is the dot product of unit-norm rows (cosine).
For each anchor the denominator runs over all 2N-1 other rows, positive
included, and the scalar loss is the mean over all 2N anchors. All
exponentials are max-subtracted.

:func:`nt_xent_op` is the one entry point: an autodiff node whose value
and hand-derived gradient come from a single numpy pass.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


def _loss_and_grad(z: np.ndarray, tau: float, want_grad: bool):
    n2 = len(z)
    half = n2 // 2
    partner = (np.arange(n2) + half) % n2

    logits = (z @ z.T) / tau
    np.fill_diagonal(logits, -np.inf)  # self-similarity is never a candidate
    rowmax = logits.max(axis=1, keepdims=True)
    expv = np.exp(logits - rowmax)
    denom = expv.sum(axis=1)
    log_denom = rowmax[:, 0] + np.log(denom)
    loss = float(np.mean(log_denom - logits[np.arange(n2), partner]))

    if not want_grad:
        return loss, None
    p = expv / denom[:, None]
    p[np.arange(n2), partner] -= 1.0
    p /= tau * n2
    grad = (p + p.T) @ z
    return loss, grad


def nt_xent_op(z: Tensor, tau: float) -> Tensor:
    """Autodiff node computing the contrastive loss of an embedding tensor.

    Rows are assumed unit norm (the network's normalize stage guarantees
    it up to float32 rounding); only the structure and the temperature
    are checked.
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if z.ndim != 2 or len(z.data) < 2 or len(z.data) % 2 != 0:
        raise ValueError(f"embeddings must be [2N, D] with N >= 1, got {z.shape}")
    loss, grad = _loss_and_grad(z.data, tau, want_grad=z.requires_grad or bool(z._parents))
    out = Tensor(np.asarray(loss, dtype=z.dtype))
    if grad is not None:
        out._parents = (z,)
        out._backward = lambda g: z._accum(g * grad.astype(z.dtype))
    return out
