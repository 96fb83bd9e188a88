"""Routing by agreement built from generic graph nodes: the reference oracle.

This is the per-iteration graph that ``model.dynamic_routing`` built
before routing became one fused node (reshape, broadcast multiply, sum,
softmax, squash and add for every iteration). Its gradients come from the
generic nodes' backward rules, so it checks the fused kernel's
hand-derived backward independently. Run it in float64. The softmax node
it needs lives here too, since no model code uses it.
"""

import numpy as np

from ccaps.autodiff import Tensor, _as_tensor, _node, _softmax, squash
from ccaps.model import RoutingState


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically safe softmax along `axis` (max-subtracted)."""
    x = _as_tensor(x)
    value = _softmax(x.data, axis)
    out = _node(value, (x,))
    if out._parents:
        def bw(g):
            x._accum(value * (g - (g * value).sum(axis=axis, keepdims=True)))
        out._backward = bw
    return out


def generic_routing(u_hat: Tensor, iterations: int) -> tuple[Tensor, RoutingState]:
    batch, children, parents, dim = u_hat.shape
    b = Tensor(np.zeros((batch, children, parents), dtype=u_hat.dtype))
    history = []
    y = None
    for _ in range(iterations):
        c = softmax(b, axis=2)
        history.append(c.data.copy())
        s = (c.reshape(batch, children, parents, 1) * u_hat).sum(axis=1)
        y = squash(s, axis=-1)
        agreement = (u_hat * y.reshape(batch, 1, parents, dim)).sum(axis=-1)
        b = b + agreement
    state = RoutingState(
        logits=b.data.copy(), couplings=history[-1], coupling_history=tuple(history)
    )
    return y, state
