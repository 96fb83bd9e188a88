"""The network's forward built from the single-op kernels: the oracle for
the layer nodes.

``CapsuleNetwork.conv_block`` runs each conv-block layer as one
``conv_bn_relu`` node and ``class_caps`` runs votes and routing as one
``class_capsules`` node. This module chains the single-op nodes they
replace (``conv2d`` -> ``batch_norm2d`` -> ``relu``, and
``capsule_votes`` -> ``routing_by_agreement``) over the same parameters,
so the layer nodes, and every step built on them, can be checked against
it byte for byte.
"""

from __future__ import annotations

from ccaps.autodiff import (
    Tensor,
    batch_norm2d,
    capsule_votes,
    conv2d,
    l2_normalize,
    routing_by_agreement,
)
from ccaps.model import CapsuleNetwork, ForwardOutput


def chain_layer(
    x, weight, gamma, beta, running_mean, running_var, training,
    stride=1, padding=1, momentum=0.1, eps=1e-5, update_running=True,
) -> Tensor:
    """``conv_bn_relu`` as three nodes, with its arguments."""
    t = conv2d(x, weight, stride=stride, padding=padding)
    t = batch_norm2d(t, gamma, beta, running_mean, running_var, training, momentum, eps, update_running)
    return t.relu()


def chain_conv_block(net: CapsuleNetwork, x, mode: str = "eval", update_running: bool = True) -> Tensor:
    cfg = net.config
    t = x if isinstance(x, Tensor) else Tensor(x)
    for i, stride in enumerate(cfg.conv_strides, start=1):
        t = chain_layer(
            t,
            net.params[f"conv{i}.weight"],
            net.params[f"conv{i}.bn.gamma"],
            net.params[f"conv{i}.bn.beta"],
            net.buffers[f"conv{i}.bn.running_mean"],
            net.buffers[f"conv{i}.bn.running_var"],
            training=mode == "train",
            stride=stride,
            padding=cfg.padding,
            momentum=cfg.bn_momentum,
            eps=cfg.bn_eps,
            update_running=update_running,
        )
    return t


def chain_class_caps(net: CapsuleNetwork, u: Tensor, iterations: int):
    """(poses, couplings) from the votes node and the routing node."""
    return routing_by_agreement(capsule_votes(u, net.params["class_caps.weight"]), iterations)


def chain_forward(
    net: CapsuleNetwork, x, mode: str = "eval", routing_iterations: int = 3, update_running: bool = True
) -> ForwardOutput:
    """``net.forward`` with every layer node replaced by its chain."""
    feature_map = chain_conv_block(net, x, mode, update_running)
    batch = feature_map.shape[0]
    h = l2_normalize(feature_map.reshape(batch, net.config.feature_dim), axis=1)
    y, _ = chain_class_caps(net, net.primary_caps(feature_map), routing_iterations)
    z = l2_normalize(y.reshape(batch, net.config.embedding_dim), axis=1)
    return ForwardOutput(h=h, z=z)
