"""Routing by agreement in plain numpy: the reference oracle.

Procedure 1 of Sabour et al. (arXiv:1710.09829) written line by line over
the votes' own [B, M, P, D] layout, one iteration at a time, with its own
softmax and squash. It shares no code with the fused
``autodiff.routing_by_agreement`` node it checks; the node's gradients are
checked against central differences of this forward. Run it in float64.
"""

import numpy as np


def softmax(x: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def squash(s: np.ndarray) -> np.ndarray:
    """v = |s|^2 / (1 + |s|^2) * s / |s| over the last axis; zero stays zero."""
    sq = (s * s).sum(axis=-1, keepdims=True)
    norm = np.sqrt(sq)
    scale = np.divide(sq, (1.0 + sq) * norm, out=np.zeros_like(norm), where=norm > 0)
    return scale * s


def reference_routing(u_hat: np.ndarray, iterations: int):
    """Votes [B, M, P, D] -> (y [B, P, D], logits [B, M, P], couplings per iteration)."""
    b = np.zeros(u_hat.shape[:3])
    couplings = []
    for _ in range(iterations):
        c = softmax(b, axis=2)  # line 4: each child's couplings over the parents
        s = np.einsum("bmp,bmpd->bpd", c, u_hat)  # line 5: weighted sum of votes
        y = squash(s)  # line 6
        b = b + np.einsum("bmpd,bpd->bmp", u_hat, y)  # line 7: agreement
        couplings.append(c)
    return y, b, couplings
