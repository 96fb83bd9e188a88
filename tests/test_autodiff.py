"""Engine-level checks: every kernel's backward against central finite differences."""

import itertools

import numpy as np
import pytest

from ccaps.autodiff import (
    Tensor,
    batch_norm2d,
    capsule_votes,
    concat,
    conv2d,
    l2_normalize,
    squash,
)
from routing_reference import softmax

RNG = np.random.default_rng(1234)


def finite_difference(f, x, step=1e-6):
    """Central differences of a scalar-valued f at x, coordinate by coordinate."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * step)
    return grad


def check_grad(build, x, rtol=1e-6, atol=1e-8):
    """build(Tensor) -> scalar Tensor; compares engine grad with finite differences."""
    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    numeric = finite_difference(lambda arr: float(build(Tensor(arr)).data), x.copy())
    np.testing.assert_allclose(t.grad, numeric, rtol=rtol, atol=atol)


def test_add_mul_broadcast_grads():
    a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(RNG.normal(size=(4,)), requires_grad=True)
    out = ((a + b) * b).sum()
    out.backward()
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (4,)
    np.testing.assert_allclose(a.grad, np.broadcast_to(b.data, (3, 4)))
    np.testing.assert_allclose(b.grad, (a.data + 2 * b.data).sum(axis=0))


def test_same_tensor_used_twice_accumulates():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    out = (x * x).sum()
    out.backward()
    np.testing.assert_allclose(x.grad, 2 * x.data)


def test_matmul_grad_matches_fd():
    a = RNG.normal(size=(5, 3))
    b = Tensor(RNG.standard_normal((3, 4)))
    check_grad(lambda t: (t @ b).sum(), a)


def test_matmul_self_transpose_grad():
    z = RNG.normal(size=(4, 3))
    w = RNG.normal(size=(4, 4))

    def build(t):
        s = t @ t.transpose(1, 0)
        return (s * Tensor(w)).sum()

    check_grad(build, z)


def test_reshape_transpose_sum_grads():
    x = RNG.normal(size=(2, 3, 4))

    def build(t):
        r = t.transpose(2, 0, 1).reshape(4, 6)
        return (r * r).sum(axis=1).sum()

    check_grad(build, x)


def test_relu_grad_away_from_kink():
    x = RNG.normal(size=(20,))
    x[np.abs(x) < 1e-3] = 0.5
    check_grad(lambda t: (t.relu() * t.relu()).sum(), x)


def test_mean_matches_sum_scaling():
    x = Tensor(RNG.normal(size=(3, 5)), requires_grad=True)
    x.mean(axis=1).sum().backward()
    np.testing.assert_allclose(x.grad, np.full((3, 5), 1 / 5))


def test_concat_grad_routes_slices():
    a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
    out = concat([a, b], axis=0)
    (out * out).sum().backward()
    np.testing.assert_allclose(a.grad, 2 * a.data)
    np.testing.assert_allclose(b.grad, 2 * b.data)


def test_softmax_rows_sum_to_one_and_grad():
    x = RNG.normal(size=(5, 7))
    y = softmax(Tensor(x), axis=1)
    np.testing.assert_allclose(y.data.sum(axis=1), np.ones(5), atol=1e-12)
    w = RNG.normal(size=(5, 7))
    check_grad(lambda t: (softmax(t, axis=1) * Tensor(w)).sum(), x, rtol=1e-5)


def test_softmax_shift_invariance():
    x = RNG.normal(size=(3, 4))
    a = softmax(Tensor(x), axis=1).data
    b = softmax(Tensor(x + 1000.0), axis=1).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_squash_grad_matches_fd():
    x = RNG.normal(size=(4, 6))
    w = RNG.normal(size=(4, 6))
    check_grad(lambda t: (squash(t, axis=1) * Tensor(w)).sum(), x, rtol=1e-5)


def test_squash_grad_zero_at_origin():
    x = Tensor(np.zeros((2, 5)), requires_grad=True)
    squash(x, axis=1).sum().backward()
    assert np.all(np.isfinite(x.grad))
    np.testing.assert_allclose(x.grad, 0.0)


def test_l2_normalize_grad_matches_fd():
    x = RNG.normal(size=(3, 8)) + 0.1
    w = RNG.normal(size=(3, 8))
    check_grad(lambda t: (l2_normalize(t, axis=1) * Tensor(w)).sum(), x, rtol=1e-5)


def test_l2_normalize_zero_row_stays_zero():
    x = np.zeros((1, 4))
    y = l2_normalize(Tensor(x), axis=1)
    np.testing.assert_array_equal(y.data, x)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_grads_match_fd(stride):
    x = RNG.normal(size=(2, 3, 6, 6))
    w = RNG.normal(size=(4, 3, 3, 3))
    proj = RNG.normal(size=(2, 4, 6 // stride, 6 // stride))

    def loss_x(t):
        return (conv2d(t, Tensor(w), stride=stride, padding=1) * Tensor(proj)).sum()

    check_grad(loss_x, x, rtol=1e-5)

    tw = Tensor(w.copy(), requires_grad=True)
    (conv2d(Tensor(x), tw, stride=stride, padding=1) * Tensor(proj)).sum().backward()
    numeric = finite_difference(
        lambda arr: float((conv2d(Tensor(x), Tensor(arr), stride=stride, padding=1) * Tensor(proj)).data.sum()),
        w.copy(),
    )
    np.testing.assert_allclose(tw.grad, numeric, rtol=1e-5, atol=1e-8)


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
        (out * Tensor(g)).sum().backward()
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

    def build(t):
        rm, rv = np.zeros(3), np.ones(3)
        out = batch_norm2d(t, Tensor(gamma), Tensor(beta), rm, rv, training=True)
        return (out * Tensor(proj)).sum()

    check_grad(build, x, rtol=1e-4, atol=1e-7)

    tg = Tensor(gamma.copy(), requires_grad=True)
    tb = Tensor(beta.copy(), requires_grad=True)
    rm, rv = np.zeros(3), np.ones(3)
    out = batch_norm2d(Tensor(x), tg, tb, rm, rv, training=True)
    (out * Tensor(proj)).sum().backward()
    num_g = finite_difference(
        lambda arr: float(
            (batch_norm2d(Tensor(x), Tensor(arr), Tensor(beta), np.zeros(3), np.ones(3), True) * Tensor(proj)).data.sum()
        ),
        gamma.copy(),
    )
    np.testing.assert_allclose(tg.grad, num_g, rtol=1e-5, atol=1e-8)
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

    check_grad(lambda t: (capsule_votes(t, Tensor(w)) * Tensor(proj)).sum(), u, rtol=1e-5)

    tw = Tensor(w.copy(), requires_grad=True)
    (capsule_votes(Tensor(u), tw) * Tensor(proj)).sum().backward()
    numeric = finite_difference(
        lambda arr: float((capsule_votes(Tensor(u), Tensor(arr)) * Tensor(proj)).data.sum()),
        w.copy(),
    )
    np.testing.assert_allclose(tw.grad, numeric, rtol=1e-5, atol=1e-8)


def test_gradient_linearity():
    x = RNG.normal(size=(3, 4))

    def grad_of(scale_a, scale_b):
        t = Tensor(x.copy(), requires_grad=True)
        v = squash(t, axis=1)
        l1 = (v * v).sum()
        l2 = (softmax(t, axis=1) * t).sum()
        (l1 * scale_a + l2 * scale_b).backward()
        return t.grad

    g = grad_of(2.0, -3.0)
    ga = grad_of(1.0, 0.0)
    gb = grad_of(0.0, 1.0)
    np.testing.assert_allclose(g, 2.0 * ga - 3.0 * gb, atol=1e-10)


def test_backward_requires_scalar():
    x = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2).backward()


def test_no_graph_when_nothing_requires_grad():
    a = Tensor(RNG.normal(size=(3,)))
    out = (a * 2 + 1).sum()
    assert out._parents == ()


def test_float32_graph_stays_float32():
    x = Tensor(RNG.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
    out = (squash(x, axis=1) * 0.5).sum()
    assert out.data.dtype == np.float32
    out.backward()
    assert x.grad.dtype == np.float32
