"""Finite-difference gradient checks through whole network stages.

These run the reduced architecture in float64; the engine's per-kernel
checks live in test_autodiff.py. The full end-to-end sweep over every
parameter coordinate is part of the acceptance suite. Each test builds a
fresh network, so every gradient slot starts empty.
"""

import numpy as np
import pytest

from ccaps.autodiff import Tensor, concat
from ccaps.loss import nt_xent_op
from ccaps.model import CapsuleNetwork, ModelConfig

REDUCED = ModelConfig(
    image_size=8,
    conv_channels=(4, 8),
    conv_strides=(1, 2),
    primary_channels=8,
    capsule_dim=4,
    num_classes=3,
    class_capsule_dim=4,
)


def make_net(seed=0):
    return CapsuleNetwork(REDUCED, seed=seed, dtype=np.float64)


def siamese_loss(net: CapsuleNetwork, x1: np.ndarray, x2: np.ndarray, iters=3) -> float:
    o1 = net.forward(x1, mode="train", routing_iterations=iters, update_running=False)
    o2 = net.forward(x2, mode="train", routing_iterations=iters, update_running=False)
    z = concat([o1.z, o2.z], axis=0)
    return nt_xent_op(z, 0.2)


def test_end_to_end_gradients_on_sampled_coordinates():
    net = make_net(1)
    rng = np.random.default_rng(2)
    x1 = rng.normal(size=(4, 3, 8, 8))
    x2 = rng.normal(size=(4, 3, 8, 8))

    siamese_loss(net, x1, x2).backward()

    step = 1e-5
    checked = 0
    for name, tensor in net.trainable().items():
        flat = tensor.data.reshape(-1)
        gflat = tensor.grad.reshape(-1)
        idx = rng.choice(flat.size, size=min(4, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + step
            hi = float(siamese_loss(net, x1, x2).data)
            flat[i] = orig - step
            lo = float(siamese_loss(net, x1, x2).data)
            flat[i] = orig
            numeric = (hi - lo) / (2 * step)
            denom = max(abs(numeric), abs(gflat[i]), 1e-8)
            assert abs(gflat[i] - numeric) / denom < 1e-4, (name, i)
            checked += 1
    assert checked >= 30


def test_gradient_flows_through_every_routing_iteration():
    # with > 1 iteration, coupling updates depend on the votes; the vote
    # weight gradient must therefore differ between 1 and 3 iterations
    rng = np.random.default_rng(4)
    x1 = rng.normal(size=(4, 3, 8, 8))
    x2 = rng.normal(size=(4, 3, 8, 8))

    grads = {}
    for iters in (1, 3):
        net = make_net(3)
        siamese_loss(net, x1, x2, iters=iters).backward()
        grads[iters] = net.params["class_caps.weight"].grad.copy()
    assert not np.allclose(grads[1], grads[3])


def test_unused_parameter_gets_no_gradient():
    net = make_net(5)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 3, 8, 8))
    h = net.conv_block(Tensor(x), mode="train", update_running=False)
    h.backward(rng.normal(size=h.shape))
    # conv-block-only loss: capsule weights never touched
    assert net.params["class_caps.weight"].grad is None
    assert net.params["primary.weight"].grad is None
    assert net.params["conv1.weight"].grad is not None


def test_backward_is_linear_in_the_loss():
    rng = np.random.default_rng(8)
    x1 = rng.normal(size=(4, 3, 8, 8))
    x2 = rng.normal(size=(4, 3, 8, 8))
    # a random projection: sum(z * z) would be constant over unit-norm rows
    w = rng.normal(size=(4, REDUCED.embedding_dim))

    def grad_with_scale(a, b):
        # a * l1 + b * sum(z * w) as one backward over both losses joined
        net = make_net(7)
        l1 = siamese_loss(net, x1, x2, iters=2)
        z = net.forward(x1, mode="eval").z
        both = concat([l1.reshape(1), z.reshape(w.size)])
        both.backward(np.concatenate([[a], b * w.ravel()]))
        return {k: t.grad.copy() for k, t in net.trainable().items()}

    g_mixed = grad_with_scale(2.0, -0.5)
    g_a = grad_with_scale(1.0, 0.0)
    g_b = grad_with_scale(0.0, 1.0)
    for name in g_mixed:
        np.testing.assert_allclose(
            g_mixed[name], 2.0 * g_a[name] - 0.5 * g_b[name], atol=1e-10, err_msg=name
        )


def test_input_gradient_through_train_mode_batch_norm():
    net = make_net(9)
    rng = np.random.default_rng(10)
    x = rng.normal(size=(4, 3, 8, 8))
    proj = rng.normal(size=(4, 8, 4, 4))

    def value(arr):
        out = net.conv_block(Tensor(arr), mode="train", update_running=False)
        return float((out.data * proj).sum())

    t = Tensor(x.copy(), requires_grad=True)
    net.conv_block(t, mode="train", update_running=False).backward(proj)

    step = 1e-5
    for i, j, a, b in [(0, 0, 2, 3), (1, 2, 0, 0), (3, 1, 7, 5)]:
        xp, xm = x.copy(), x.copy()
        xp[i, j, a, b] += step
        xm[i, j, a, b] -= step
        numeric = (value(xp) - value(xm)) / (2 * step)
        assert t.grad[i, j, a, b] == pytest.approx(numeric, rel=1e-5, abs=1e-9)
