"""The vote path as one GEMM over every parent, then a layout copy: the
oracle for ``capsule_votes`` and ``class_capsules``.

Forward: one batched GEMM ``[M, B, D_in] @ [M, D_in, P * D_out]`` makes
the votes as ``[M, B, P * D_out]``, and a transposing copy lays them out as
routing's ``[B, P, M, D_out]``. Backward: one ``[M, B, P * D_out]`` copy of
the vote gradient feeds the du GEMM (over K = P * D_out, against the same
weight relayout) and the dw GEMM. The nodes write their votes with one GEMM
per parent instead, straight into routing's layout; their bits must equal
these.

Routing itself is ``autodiff``'s ``_route`` and ``_route_backward``, which
``routing_reference`` checks, so what this oracle tells apart is the votes.
"""

import numpy as np

from ccaps.autodiff import _route, _route_backward


def reference_votes(u: np.ndarray, weight: np.ndarray):
    """(votes [B, P, M, D_out], poses [M, B, D_in], weights [M, D_in, P * D_out])."""
    parents, children, d_in, d_out = weight.shape
    batch = u.shape[0]
    w2 = weight.transpose(1, 2, 0, 3).reshape(children, d_in, parents * d_out)
    um = np.ascontiguousarray(u.transpose(1, 0, 2))
    votes = np.matmul(um, w2).transpose(1, 0, 2).reshape(batch, children, parents, d_out)
    return np.ascontiguousarray(votes.transpose(0, 2, 1, 3)), um, w2


def reference_votes_backward(g: np.ndarray, um: np.ndarray, w2: np.ndarray):
    """(du [B, M, D_in], dw [P, M, D_in, D_out]) for the [B, M, P, D_out] vote gradient."""
    children, batch, d_in = um.shape
    _, _, parents, d_out = g.shape
    g_m = np.ascontiguousarray(g.reshape(batch, children, parents * d_out).transpose(1, 0, 2))
    du = np.matmul(g_m, w2.swapaxes(1, 2)).transpose(1, 0, 2)
    dw = np.matmul(um.swapaxes(1, 2), g_m).reshape(children, d_in, parents, d_out).transpose(2, 0, 1, 3)
    return du, dw


def reference_class_capsules(u: np.ndarray, weight: np.ndarray, iterations: int, g: np.ndarray):
    """(votes [B, M, P, D_out], poses, per-iteration couplings [B, M, P], du, dw)
    for the pose gradient `g`."""
    votes, um, w2 = reference_votes(u, weight)
    routed = _route(votes, iterations)
    du, dw = reference_votes_backward(_route_backward(g, *routed), um, w2)
    couplings = [c.transpose(0, 2, 1) for c in routed[1]]
    return votes.transpose(0, 2, 1, 3), routed[3][-1], couplings, du, dw
