"""Engine-level checks: every kernel's backward against central finite differences.

Each loss is a projection of a node's output, handed to ``backward`` as the
output gradient (see gradcheck.py).
"""

import itertools

import numpy as np
import pytest

from ccaps import autodiff
from ccaps.autodiff import (
    Tensor,
    _softmax,
    batch_norm2d,
    capsule_votes,
    concat,
    conv2d,
    l2_normalize,
    no_grad,
    squash,
)
from ccaps.model import CapsuleNetwork, ModelConfig
from gradcheck import check_grad

RNG = np.random.default_rng(1234)


def test_same_tensor_used_twice_accumulates():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    out = concat([x, x])
    out.backward(np.array([1.0, 10.0, 100.0, 1000.0]))
    np.testing.assert_allclose(x.grad, [101.0, 1010.0])


def test_reshape_transpose_sum_grads():
    x = RNG.normal(size=(2, 3, 4))
    proj = RNG.normal(size=(4, 6))
    check_grad(lambda t: squash(t.transpose(2, 0, 1).reshape(4, 6), axis=1), x, proj)


def test_relu_grad_away_from_kink():
    x = RNG.normal(size=(20,))
    x[np.abs(x) < 1e-3] = 0.5
    check_grad(lambda t: t.relu(), x, RNG.normal(size=x.shape))


def test_concat_grad_routes_slices():
    a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
    g = RNG.normal(size=(6, 3))
    concat([a, b], axis=0).backward(g)
    np.testing.assert_array_equal(a.grad, g[:2])
    np.testing.assert_array_equal(b.grad, g[2:])


def test_softmax_rows_sum_to_one_and_grad():
    # the softmax routing runs; its gradient is checked through routing's backward
    x = RNG.normal(size=(5, 7))
    y = _softmax(x, axis=1)
    np.testing.assert_allclose(y.sum(axis=1), np.ones(5), atol=1e-12)
    np.testing.assert_allclose(y, np.exp(x) / np.exp(x).sum(axis=1, keepdims=True), atol=1e-12)


def test_softmax_shift_invariance():
    x = RNG.normal(size=(3, 4))
    a = _softmax(x, axis=1)
    b = _softmax(x + 1000.0, axis=1)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_squash_grad_matches_fd():
    x = RNG.normal(size=(4, 6))
    w = RNG.normal(size=(4, 6))
    check_grad(lambda t: squash(t, axis=1), x, w, rtol=1e-5)


def test_squash_grad_zero_at_origin():
    x = Tensor(np.zeros((2, 5)), requires_grad=True)
    squash(x, axis=1).backward(np.ones((2, 5)))
    assert np.all(np.isfinite(x.grad))
    np.testing.assert_allclose(x.grad, 0.0)


def test_l2_normalize_grad_matches_fd():
    x = RNG.normal(size=(3, 8)) + 0.1
    w = RNG.normal(size=(3, 8))
    check_grad(lambda t: l2_normalize(t, axis=1), x, w, rtol=1e-5)


def test_l2_normalize_zero_row_stays_zero():
    x = np.zeros((1, 4))
    y = l2_normalize(Tensor(x), axis=1)
    np.testing.assert_array_equal(y.data, x)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_grads_match_fd(stride):
    x = RNG.normal(size=(2, 3, 6, 6))
    w = RNG.normal(size=(4, 3, 3, 3))
    proj = RNG.normal(size=(2, 4, 6 // stride, 6 // stride))

    check_grad(lambda t: conv2d(t, Tensor(w), stride=stride, padding=1), x, proj, rtol=1e-5)
    check_grad(lambda t: conv2d(Tensor(x), t, stride=stride, padding=1), w, proj, rtol=1e-5)


def naive_conv2d(x, w, g, stride, pad):
    """Direct-loop cross-correlation: output, and dX, dW for output gradient g."""
    batch, _, height, width = x.shape
    filters, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (height + 2 * pad - k) // stride + 1
    ow = (width + 2 * pad - k) // stride + 1
    out = np.zeros((batch, filters, oh, ow))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for b in range(batch):
        for f in range(filters):
            for i in range(oh):
                for j in range(ow):
                    rows = slice(i * stride, i * stride + k)
                    cols = slice(j * stride, j * stride + k)
                    out[b, f, i, j] = (xp[b, :, rows, cols] * w[f]).sum()
                    dxp[b, :, rows, cols] += g[b, f, i, j] * w[f]
                    dw[f] += g[b, f, i, j] * xp[b, :, rows, cols]
    return out, dxp[:, :, pad : pad + height, pad : pad + width], dw


def test_conv2d_matches_naive_loops():
    layouts = {
        "nchw": lambda shape: RNG.normal(size=shape),
        "nhwc": lambda shape: RNG.normal(size=(shape[0], *shape[2:], shape[1])).transpose(0, 3, 1, 2),
        "strided": lambda shape: RNG.normal(size=(shape[0], 2 * shape[1], shape[2], 3 * shape[3]))[:, ::2, :, 1::3],
    }
    configs = itertools.product([1, 2, 3], [0, 1, 2], [1, 3], [(7, 5), (4, 9)], layouts)
    for stride, pad, k, (height, width), layout in configs:
        x = layouts[layout]((2, 3, height, width))
        w = RNG.normal(size=(4, 3, k, k))
        oh = (height + 2 * pad - k) // stride + 1
        ow = (width + 2 * pad - k) // stride + 1
        g = layouts[layout]((2, 4, oh, ow))
        tx = Tensor(x, requires_grad=True)
        tw = Tensor(w, requires_grad=True)
        out = conv2d(tx, tw, stride=stride, padding=pad)
        out.backward(g)  # conv2d's backward receives g in its own layout
        naive_out, naive_dx, naive_dw = naive_conv2d(x, w, g, stride, pad)
        where = f"stride={stride} pad={pad} k={k} hw={height}x{width} {layout}"
        np.testing.assert_allclose(out.data, naive_out, rtol=0, atol=1e-12, err_msg=where)
        np.testing.assert_allclose(tx.grad, naive_dx, rtol=0, atol=1e-12, err_msg=where)
        np.testing.assert_allclose(tw.grad, naive_dw, rtol=0, atol=1e-12, err_msg=where)


def test_batch_norm_train_grads_match_fd():
    x = RNG.normal(size=(4, 3, 2, 2))
    gamma = np.abs(RNG.normal(size=3)) + 0.5
    beta = RNG.normal(size=3)
    proj = RNG.normal(size=x.shape)

    def bn(t, g, b):
        return batch_norm2d(t, g, b, np.zeros(3), np.ones(3), training=True)

    check_grad(lambda t: bn(t, Tensor(gamma), Tensor(beta)), x, proj, rtol=1e-4, atol=1e-7)
    check_grad(lambda t: bn(Tensor(x), t, Tensor(beta)), gamma, proj, rtol=1e-5, atol=1e-8)
    tb = Tensor(beta.copy(), requires_grad=True)
    bn(Tensor(x), Tensor(gamma), tb).backward(proj)
    np.testing.assert_allclose(tb.grad, proj.sum(axis=(0, 2, 3)), atol=1e-10)


def test_batch_norm_eval_uses_running_stats():
    x = RNG.normal(size=(2, 3, 2, 2))
    rm = RNG.normal(size=3)
    rv = np.abs(RNG.normal(size=3)) + 0.5
    out = batch_norm2d(
        Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), rm.copy(), rv.copy(),
        training=False,
    ).data
    expected = (x - rm.reshape(1, 3, 1, 1)) / np.sqrt(rv.reshape(1, 3, 1, 1) + 1e-5)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_batch_norm_running_update_and_freeze():
    x = RNG.normal(size=(8, 2, 3, 3))
    rm, rv = np.zeros(2), np.ones(2)
    batch_norm2d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, training=True)
    count = 8 * 9
    mu = x.mean(axis=(0, 2, 3))
    unbiased = x.var(axis=(0, 2, 3)) * count / (count - 1)
    np.testing.assert_allclose(rm, 0.1 * mu, atol=1e-12)
    np.testing.assert_allclose(rv, 0.9 + 0.1 * unbiased, atol=1e-12)

    frozen_m, frozen_v = rm.copy(), rv.copy()
    batch_norm2d(
        Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv,
        training=True, update_running=False,
    )
    np.testing.assert_array_equal(rm, frozen_m)
    np.testing.assert_array_equal(rv, frozen_v)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _batch_norm_reference(x, gamma, beta, running_mean, running_var, training, g):
    """Batch norm as numpy's mean and var write it: (y, xhat, dx, dgamma, dbeta)
    for the output gradient g; updates the running buffers like the node."""
    axes = (0, 2, 3)
    count = x.shape[0] * x.shape[2] * x.shape[3]
    if training:
        mu, var = x.mean(axis=axes), x.var(axis=axes)
        running_mean *= 1.0 - 0.1
        running_mean += 0.1 * mu
        running_var *= 1.0 - 0.1
        running_var += 0.1 * (var * (count / (count - 1)))
    else:
        mu, var = running_mean, running_var
    inv4 = (1.0 / np.sqrt(var + 1e-5)).reshape(1, -1, 1, 1)
    xhat = (x - mu.reshape(1, -1, 1, 1)) * inv4
    g4 = gamma.reshape(1, -1, 1, 1)
    y = g4 * xhat + beta.reshape(1, -1, 1, 1)
    dxhat = g * g4
    if training:
        s1 = dxhat.sum(axis=axes, keepdims=True)
        s2 = (dxhat * xhat).sum(axis=axes, keepdims=True)
        dx = inv4 / count * (count * dxhat - s1 - xhat * s2)
    else:
        dx = dxhat * inv4
    return y, xhat, dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("channels_last", [True, False])
def test_batch_norm_float32_matches_mean_var_formula_bit_for_bit(training, channels_last):
    rng = np.random.default_rng(7)
    shape = (6, 7, 5, 5)  # count 150 per channel, not a power of two
    x = (rng.normal(size=(6, 5, 5, 7)) * 3.0 + 1.5).astype(np.float32)
    x = x.transpose(0, 3, 1, 2) if channels_last else np.ascontiguousarray(x.transpose(0, 3, 1, 2))
    assert x.shape == shape
    gamma = rng.uniform(0.5, 2.0, size=7).astype(np.float32)
    beta = rng.normal(size=7).astype(np.float32)
    buffers = rng.normal(size=7).astype(np.float32), rng.uniform(0.5, 2.0, size=7).astype(np.float32)
    g = rng.normal(size=shape).astype(np.float32)

    ref_buffers = tuple(b.copy() for b in buffers)
    y, xhat, dx, dgamma, dbeta = _batch_norm_reference(x, gamma, beta, *ref_buffers, training, g)
    tx, tg, tb = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
    node_buffers = tuple(b.copy() for b in buffers)
    out = batch_norm2d(tx, tg, tb, *node_buffers, training=training)
    out.backward(g)
    assert _same_bits(out.data, y)
    assert out.data.strides == y.strides  # the output keeps the input's memory order
    for got, want in zip((*node_buffers, tx.grad, tg.grad, tb.grad), (*ref_buffers, dx, dgamma, dbeta)):
        assert _same_bits(got, want)
    # with unit scale and zero shift the output is xhat itself
    unit = batch_norm2d(
        Tensor(x), Tensor(np.ones(7, np.float32)), Tensor(np.zeros(7, np.float32)),
        *(b.copy() for b in buffers), training=training,
    )
    assert _same_bits(unit.data, xhat)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("channels_last", [True, False])
@pytest.mark.parametrize("channels", [1, 2, 7, 16, 128])
def test_channel_sum_is_the_sum_over_batch_and_pixels_bit_for_bit(dtype, channels_last, channels):
    rng = np.random.default_rng(channels)
    a = (rng.normal(size=(9, 5, 6, channels)) * 3.0 + 1.5).astype(dtype).transpose(0, 3, 1, 2)
    if not channels_last:
        a = np.ascontiguousarray(a)
    assert _same_bits(autodiff._channel_sum(a), a.sum(axis=(0, 2, 3)))


def test_channel_sum_matches_sum_on_every_batch_norm_input_of_the_default_model(monkeypatch):
    inputs = []
    channel_sum = autodiff._channel_sum

    def checked(a):
        inputs.append((a.shape[1], a.strides[1] == a.itemsize))
        got = channel_sum(a)
        assert _same_bits(got, a.sum(axis=(0, 2, 3)))
        return got

    monkeypatch.setattr(autodiff, "_channel_sum", checked)
    net = CapsuleNetwork(ModelConfig(), seed=0)
    x = np.random.default_rng(9).normal(size=(64, 3, 32, 32)).astype(np.float32)
    out = net.forward(x, "train", 3)
    out.z.backward(np.random.default_rng(10).normal(size=out.z.shape).astype(np.float32))
    # six sums per layer: mean, variance, and the backward's s1, s2, dgamma, dbeta
    layers = len(net.config.conv_channels)
    assert len(inputs) == 6 * layers
    assert all(channels_last for _, channels_last in inputs)  # the einsum path, every call
    assert sorted({c for c, _ in inputs}) == sorted(set(net.config.conv_channels))


def test_relu_propagates_nan_and_masks_its_gradient():
    x = Tensor(np.array([-1.0, 0.0, 2.0, np.nan]), requires_grad=True)
    out = x.relu()
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0, np.nan])
    out.backward(np.array([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 3.0, 0.0])


def test_batch_norm_rejects_batch_of_one_in_training():
    x = Tensor(RNG.normal(size=(1, 2, 3, 3)))
    with pytest.raises(ValueError, match="batch size"):
        batch_norm2d(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), np.zeros(2), np.ones(2), training=True)


def test_capsule_votes_matches_triple_loop():
    u = RNG.normal(size=(2, 5, 3))
    w = RNG.normal(size=(4, 5, 3, 6))
    votes = capsule_votes(Tensor(u), Tensor(w)).data
    naive = np.zeros((2, 5, 4, 6))
    for b in range(2):
        for m in range(5):
            for p in range(4):
                naive[b, m, p] = u[b, m] @ w[p, m]
    np.testing.assert_allclose(votes, naive, atol=1e-12)


def test_capsule_votes_grads_match_fd():
    u = RNG.normal(size=(2, 4, 3))
    w = RNG.normal(size=(3, 4, 3, 5))
    proj = RNG.normal(size=(2, 4, 3, 5))

    check_grad(lambda t: capsule_votes(t, Tensor(w)), u, proj, rtol=1e-5)
    check_grad(lambda t: capsule_votes(Tensor(u), t), w, proj, rtol=1e-5)


def test_gradient_linearity():
    x = RNG.normal(size=(3, 4))
    proj_a = RNG.normal(size=(3, 4))
    proj_b = RNG.normal(size=(3, 4))

    def grad_of(scale_a, scale_b):
        # one backward over both losses, joined into one output
        t = Tensor(x.copy(), requires_grad=True)
        both = concat([squash(t, axis=1).reshape(12), l2_normalize(t, axis=1).reshape(12)])
        both.backward(np.concatenate([scale_a * proj_a.ravel(), scale_b * proj_b.ravel()]))
        return t.grad

    g = grad_of(2.0, -3.0)
    ga = grad_of(1.0, 0.0)
    gb = grad_of(0.0, 1.0)
    np.testing.assert_allclose(g, 2.0 * ga - 3.0 * gb, atol=1e-10)


def test_backward_requires_scalar():
    x = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        squash(x, axis=1).backward()


def test_backward_rejects_gradient_of_the_wrong_shape():
    x = Tensor(RNG.normal(size=(4, 6)), requires_grad=True)
    with pytest.raises(ValueError, match="shape"):
        l2_normalize(x, axis=1).backward(np.ones(6))  # would broadcast
    with pytest.raises(ValueError, match="shape"):
        x.backward(np.ones((2, 4, 6)))  # would store a (2, 4, 6) leaf gradient
    assert x.grad is None

    # a scalar loss takes a 0-d gradient
    y = Tensor(np.array([2.0]), requires_grad=True)
    y.reshape().backward(np.array(3.0))
    np.testing.assert_array_equal(y.grad, [3.0])


def _graph(root):
    """Every tensor reachable from `root` through recorded parents."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def test_backward_frees_the_graph_and_refuses_a_second_walk():
    x = Tensor(RNG.normal(size=(2, 3, 5, 5)), requires_grad=True)
    w = Tensor(RNG.normal(size=(4, 3, 3, 3)), requires_grad=True)
    gamma = Tensor(np.ones(4), requires_grad=True)
    beta = Tensor(np.zeros(4))  # a leaf without requires_grad gets no gradient
    features = batch_norm2d(conv2d(x, w), gamma, beta, np.zeros(4), np.ones(4), training=True).relu()
    out = l2_normalize(squash(features.reshape(2, 4, 25), axis=-1).reshape(2, 100), axis=1)
    nodes = _graph(out)
    interior = [t for t in nodes if t._parents]
    leaves = [t for t in nodes if t.requires_grad]
    assert len(interior) == 7 and len(leaves) == 3

    out.backward(RNG.normal(size=out.shape))
    for node in interior:
        assert node.grad is None and node._parents == ()
        assert not callable(node._backward)  # the closure and what it saved are gone
    kept = [t.grad.copy() for t in leaves]
    assert all(g is not None and np.all(np.isfinite(g)) for g in kept)
    assert beta.grad is None

    with pytest.raises(ValueError, match="earlier backward"):
        out.backward(np.ones(out.shape))
    with pytest.raises(ValueError, match="earlier backward"):
        squash(features, axis=1).backward(np.ones(features.shape))  # a new node over a used one
    for leaf, grad in zip(leaves, kept):
        np.testing.assert_array_equal(leaf.grad, grad)  # a refused walk accumulates nothing


def test_no_graph_when_nothing_requires_grad():
    a = Tensor(RNG.normal(size=(3,)))
    out = concat([squash(a).reshape(1, 3), a.relu().reshape(1, 3)]).transpose(1, 0)
    assert out._parents == ()


def test_no_grad_records_no_node_and_restores_recording(monkeypatch):
    config = ModelConfig(image_size=8, conv_channels=(4, 8), conv_strides=(1, 2),
                         primary_channels=8, capsule_dim=4, class_capsule_dim=4)
    net = CapsuleNetwork(config, seed=0)
    x = Tensor(RNG.normal(size=(2, 3, 8, 8)).astype(np.float32))
    nodes = []
    make_node = autodiff._node

    def spy(data, parents, backward):
        nodes.append(make_node(data, parents, backward))
        return nodes[-1]

    monkeypatch.setattr(autodiff, "_node", spy)
    with no_grad():
        net.forward(x, mode="train", routing_iterations=2)
    assert nodes and all(n._parents == () and n._backward is None for n in nodes)
    with pytest.raises(RuntimeError):  # leaving the block by an error restores recording too
        with no_grad():
            raise RuntimeError
    assert net.forward(x, mode="train", routing_iterations=2).z._parents != ()


def test_float32_graph_stays_float32():
    x = Tensor(RNG.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
    out = squash(x, axis=1)
    assert out.data.dtype == np.float32
    out.backward(np.full((2, 3), 0.5, dtype=np.float32))
    assert x.grad.dtype == np.float32
