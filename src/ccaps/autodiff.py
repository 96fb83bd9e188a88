"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps an ndarray and records the node that produced it.
``backward(grad)`` takes an output gradient of the tensor's own shape (one,
for a scalar loss), walks the graph in reverse topological order and
accumulates gradients into every tensor created with ``requires_grad``.
The tests probe a node through a projection: ``out.backward(proj)`` is the
backward of the loss ``sum(out * proj)``.

Every op makes its result with ``_node(data, parents, backward)``, the one
place a graph edge is made: it keeps ``parents`` and ``backward`` only while
recording and only when some parent ``needs_grad`` (a ``requires_grad`` leaf
or a recorded node). ``backward(g)`` maps the output gradient to one
gradient per parent, in parent order, with ``None`` for a parent that needs
none, and ``Tensor.backward`` alone accumulates them.

Only the nodes the capsule network runs exist here, each with a
hand-derived backward: ``reshape``, ``transpose`` and ``relu`` on
:class:`Tensor`, and ``concat``, ``conv2d``, ``batch_norm2d``, ``squash``,
``l2_normalize``, ``capsule_votes`` and ``routing_by_agreement`` (one
node for all of its iterations).

Image tensors have NCHW shapes and NHWC memory: ``conv2d`` returns its
output, and its input gradient, as ``transpose(0, 3, 1, 2)`` views of
channels-last buffers. Batch norm and ReLU are elementwise in memory
order, so the whole conv block, forward and backward, stays channels-last
without a layout copy between layers.

The training forward of batch norm makes seven passes over the activation:
a channel sum for the mean, ``d = x - mu``, its square, a channel sum for
the variance, ``d *= inv`` (which makes ``xhat``), ``gamma * xhat`` into
the square's buffer and ``+= beta``. Its arithmetic is numpy's ``mean`` and
``var``, element for element. The batch-norm backward makes four channel
sums. Each of the six channel sums is ``np.einsum("nchw->c", a)`` when
channels are the contiguous axis, as they are behind every ``conv2d``: it
adds whole C-wide rows in the order ``a.sum(axis=(0, 2, 3))`` does, so the
bits are the same, and it runs about 5x faster at C = 16. Any other layout,
or one channel, takes ``sum`` itself. ReLU is one ``np.maximum`` pass,
which lets NaN through; its backward masks by ``y > 0``.

dtype follows the inputs: float32 in training, float64 in the verification
oracles. Inside ``with no_grad():`` nothing is recorded, which is how
feature extraction runs.

Graphs are single use, and this is enforced. ``backward`` frees each
interior node as soon as it has passed its gradient on: the node drops its
gradient, its closure (with the intermediates the closure saved) and its
parents, so a graph's memory shrinks while it is walked. Leaves keep their
gradients. A second ``backward`` through a used node raises ``ValueError``,
so build a fresh forward for every backward.
"""

from __future__ import annotations

import contextlib
import contextvars

import numpy as np

__all__ = [
    "Tensor",
    "concat",
    "conv2d",
    "batch_norm2d",
    "squash",
    "l2_normalize",
    "capsule_votes",
    "routing_by_agreement",
    "no_grad",
]

# Norms below this are treated as zero when a normalizing division is needed.
_NORM_FLOOR = 1e-12

_RECORDING = contextvars.ContextVar("ccaps_autodiff_recording", default=True)

# The `_backward` of a node that a backward() has freed.
_USED = object()


@contextlib.contextmanager
def no_grad():
    """Inside the block every node is a leaf: no graph, no saved intermediates."""
    token = _RECORDING.set(False)
    try:
        yield
    finally:
        _RECORDING.reset(token)


class Tensor:
    """ndarray plus gradient slot plus a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- bookkeeping ----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def needs_grad(self) -> bool:
        return self.requires_grad or self._backward is not None

    def _accum(self, grad: np.ndarray) -> None:
        self.grad = grad if self.grad is None else self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Accumulate the gradients of ``sum(self * grad)`` into the graph."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        elif np.shape(grad) != self.shape:
            raise ValueError(f"backward(): gradient shape {np.shape(grad)} != tensor shape {self.shape}")
        # iterative post-order DFS; recursion would overflow on deep graphs
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _USED:
                raise ValueError("backward() through a graph an earlier backward() used")
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accum(np.asarray(grad))
        while topo:
            node = topo.pop()  # popped, so a freed node's arrays can go at once
            if node._backward is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                for parent, g in zip(node._parents, node._backward(node.grad)):
                    if g is not None:
                        parent._accum(g)
            node.grad, node._backward, node._parents = None, _USED, ()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- shape ops -------------------------------------------------------

    def reshape(self, *shape):
        return _node(self.data.reshape(shape), (self,), lambda g: (g.reshape(self.data.shape),))

    def transpose(self, *axes):
        inverse = tuple(int(i) for i in np.argsort(axes))
        return _node(self.data.transpose(axes), (self,), lambda g: (g.transpose(inverse),))

    def relu(self):
        y = np.maximum(self.data, 0)
        return _node(y, (self,), lambda g: (g * (y > 0),))


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """The op result; it keeps its parents and backward only when recording
    and some parent needs a gradient."""
    out = Tensor(data)
    if _RECORDING.get() and any(p.needs_grad for p in parents):
        out._parents = parents
        out._backward = backward
    return out


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def bw(g):
        index = [slice(None)] * g.ndim
        grads = []
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            index[axis] = slice(lo, hi)
            grads.append(g[tuple(index)] if t.needs_grad else None)
        return grads

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tensors, bw)


# -- fused kernels ---------------------------------------------------------


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 1) -> Tensor:
    """2D cross-correlation without bias, via im2col and a single GEMM.

    x: [B, C, H, W]; weight: [F, C, k, k] -> [B, F, H_out, W_out].

    Shapes are NCHW, memory is NHWC: the output and the input gradient are
    transposed views of channels-last buffers, so batch norm and ReLU see
    activations and gradients in one layout. Any input layout is accepted.
    The im2col rows are one copy of a strided sliding-window view of the
    zero-padded NHWC input, in (kh, kw, C) column order; the input
    gradient scatter-adds one contiguous [B, H_out, W_out, C] block per
    kernel offset back into a padded NHWC buffer.
    """
    batch, channels, height, width = x.data.shape
    filters, w_channels, kernel, kernel2 = weight.data.shape
    if w_channels != channels or kernel != kernel2:
        raise ValueError(
            f"conv2d: weight {weight.data.shape} incompatible with input {x.data.shape}"
        )
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError("conv2d: kernel larger than padded input")

    padded_shape = (batch, height + 2 * padding, width + 2 * padding, channels)
    padded = np.zeros(padded_shape, dtype=x.data.dtype)
    padded[:, padding : padding + height, padding : padding + width] = x.data.transpose(0, 2, 3, 1)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kernel, kernel), axis=(1, 2))
    cols = (
        windows[:, ::stride, ::stride]
        .transpose(0, 1, 2, 4, 5, 3)
        .reshape(batch * out_h * out_w, kernel * kernel * channels)
    )
    # the (kh, kw, C)-ordered weights are a copy; the backward rebuilds
    # them rather than have every node hold one
    out2 = cols @ weight.data.transpose(0, 2, 3, 1).reshape(filters, -1).T

    def bw(g):
        g2 = g.transpose(0, 2, 3, 1).reshape(-1, filters)
        dw = dx = None
        if weight.needs_grad:
            dw2 = g2.T @ cols
            dw = dw2.reshape(filters, kernel, kernel, channels).transpose(0, 3, 1, 2)
        if x.needs_grad:
            # one GEMM per kernel offset, so each block added is contiguous
            w3 = np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1))
            w3 = w3.reshape(kernel * kernel, filters, channels)
            dcols = np.matmul(g2, w3).reshape(kernel, kernel, batch, out_h, out_w, channels)
            dpadded = np.zeros(padded_shape, dtype=dcols.dtype)
            # overlapping blocks: this order fixes dX's float32 rounding,
            # so changing it changes every training digest
            for j in range(kernel):
                for i in range(kernel):
                    dpadded[
                        :, i : i + stride * out_h : stride, j : j + stride * out_w : stride
                    ] += dcols[i, j]
            dx = dpadded[:, padding : padding + height, padding : padding + width]
            dx = dx.transpose(0, 3, 1, 2)
        return dx, dw

    out = out2.reshape(batch, out_h, out_w, filters).transpose(0, 3, 1, 2)
    return _node(out, (x, weight), bw)


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=(0, 2, 3))`` of an [N, C, H, W] array, bit for bit (see the
    module docstring): einsum only where both add whole contiguous C-wide rows."""
    if a.shape[1] > 1 and a.strides[1] == a.itemsize:
        return np.einsum("nchw->c", a)
    return a.sum(axis=(0, 2, 3))


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
    update_running: bool = True,
) -> Tensor:
    """Per-channel batch normalization over [B, C, H, W].

    Training mode normalizes with biased batch statistics and, when
    `update_running` is set, folds the batch mean / unbiased variance into
    the running buffers (mutated in place). Eval mode normalizes with the
    running buffers and never touches them.
    """
    batch = x.data.shape[0]
    count = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
    g4 = gamma.data.reshape(1, -1, 1, 1)

    if training:
        if batch < 2:
            raise ValueError("batch_norm2d: training mode requires batch size >= 2")
        # numpy's mean and var, except that x - mu is made once and kept:
        # it becomes xhat, and the buffer of its square becomes the output
        mu = _channel_sum(x.data) / count
        xhat = x.data - mu.reshape(1, -1, 1, 1)
        out = np.square(xhat)
        var = _channel_sum(out) / count
        if update_running:
            unbiased = var * (count / (count - 1))
            running_mean *= 1.0 - momentum
            running_mean += momentum * mu
            running_var *= 1.0 - momentum
            running_var += momentum * unbiased
    else:
        xhat = x.data - running_mean.reshape(1, -1, 1, 1)
        out = np.empty_like(xhat)
        var = running_var

    inv4 = (1.0 / np.sqrt(var + eps)).reshape(1, -1, 1, 1)
    xhat *= inv4
    np.multiply(g4, xhat, out=out)
    out += beta.data.reshape(1, -1, 1, 1)

    def bw(g):
        dx = None
        if x.needs_grad:
            dxhat = g * g4
            if training:
                s1 = _channel_sum(dxhat).reshape(1, -1, 1, 1)
                s2 = _channel_sum(dxhat * xhat).reshape(1, -1, 1, 1)
                dx = inv4 / count * (count * dxhat - s1 - xhat * s2)
            else:
                dx = dxhat * inv4
        dgamma = _channel_sum(g * xhat) if gamma.needs_grad else None
        dbeta = _channel_sum(g) if beta.needs_grad else None
        return dx, dgamma, dbeta

    return _node(out, (x, gamma, beta), bw)


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    expv = np.exp(x - x.max(axis=axis, keepdims=True))
    return expv / expv.sum(axis=axis, keepdims=True)


def _squash(x: np.ndarray, axis: int = -1) -> np.ndarray:
    sq = (x * x).sum(axis=axis, keepdims=True)
    return x * (np.sqrt(sq) / (1.0 + sq))


def _squash_backward(x: np.ndarray, g: np.ndarray, axis: int = -1) -> np.ndarray:
    """Vector-Jacobian product of :func:`_squash` at `x` for the output gradient `g`."""
    sq = (x * x).sum(axis=axis, keepdims=True)
    norm = np.sqrt(sq)
    # d(|s|/(1+|s|^2))/d|s| = (1-|s|^2)/(1+|s|^2)^2, chained through |s|
    dot = (g * x).sum(axis=axis, keepdims=True)
    denom = (1.0 + sq) ** 2 * np.maximum(norm, _NORM_FLOOR)
    coef = np.where(sq > 0, (1.0 - sq) / denom, 0.0)
    return g * (norm / (1.0 + sq)) + x * (dot * coef)


def squash(x: Tensor, axis: int = -1) -> Tensor:
    """Capsule nonlinearity v = (|s| * s) / (1 + |s|^2) along `axis`.

    Keeps direction and maps the norm to |s|^2 / (1 + |s|^2), which lies in
    [0, 1). Smooth at the origin: both the value and the gradient vanish as
    s -> 0 and the zero-norm case is handled without dividing by |s|.
    """
    return _node(_squash(x.data, axis), (x,), lambda g: (_squash_backward(x.data, g, axis),))


def l2_normalize(x: Tensor, axis: int = -1) -> Tensor:
    """Scale slices along `axis` to unit Euclidean norm (zero stays zero)."""
    norm = np.sqrt((x.data * x.data).sum(axis=axis, keepdims=True))
    safe = np.maximum(norm, _NORM_FLOOR)
    value = x.data / safe

    def bw(g):
        return ((g - value * (g * value).sum(axis=axis, keepdims=True)) / safe,)

    return _node(value, (x,), bw)


def capsule_votes(u: Tensor, weight: Tensor) -> Tensor:
    """Vote vectors: every child pose times its per-parent transform.

    u: [B, M, D_in] child poses; weight: [P, M, D_in, D_out];
    returns [B, M, P, D_out] with out[b, m, p] = weight[p, m].T-applied u[b, m].
    """
    parents, children, d_in, d_out = weight.data.shape
    batch = u.data.shape[0]
    if u.data.shape[1] != children or u.data.shape[2] != d_in:
        raise ValueError(
            f"capsule_votes: poses {u.data.shape} incompatible with weights {weight.data.shape}"
        )
    # one batched GEMM per child capsule: [M,B,Din] @ [M,Din,P*Dout]
    w2 = weight.data.transpose(1, 2, 0, 3).reshape(children, d_in, parents * d_out)
    um = np.ascontiguousarray(u.data.transpose(1, 0, 2))
    out_m = np.matmul(um, w2)

    def bw(g):
        g_m = np.ascontiguousarray(g.reshape(batch, children, parents * d_out).transpose(1, 0, 2))
        du = dw = None
        if u.needs_grad:
            du = np.matmul(g_m, w2.swapaxes(1, 2)).transpose(1, 0, 2)
        if weight.needs_grad:
            dw2 = np.matmul(um.swapaxes(1, 2), g_m)
            dw = dw2.reshape(children, d_in, parents, d_out).transpose(2, 0, 1, 3)
        return du, dw

    out = out_m.transpose(1, 0, 2).reshape(batch, children, parents, d_out)
    return _node(out, (u, weight), bw)


def routing_by_agreement(u_hat: Tensor, iterations: int) -> tuple[Tensor, tuple[np.ndarray, ...]]:
    """Dynamic routing over votes [B, M, P, D] as one node.

    Returns the parent poses y [B, P, D] and the couplings of every
    iteration, each a [B, M, P] view (softmax over P) of an array the
    backward keeps anyway; read them, do not write them. Logits start at
    zero. The votes are transposed once to [B, P, M, D], so each iteration
    is a softmax and two batched matmuls: s = c @ u, then squash; between
    two iterations the agreement u @ y raises the logits. That is T - 1
    agreement updates: the last poses feed none.

    The backward runs through every iteration from the stored c, s and y.
    With db = dL/d b_t, where c_{t+1} = softmax(b_t), walking t = T..1:
    dy_t = db @ u, ds_t = squash'(s_t) dy_t, dc_t = u @ ds_t, and
    db += c_t * (dc_t - sum_p c_t * dc_t). At t = T, dy_T is the output
    gradient and db is zero. The vote gradient
    sum_t c_t (x) ds_t + db_t (x) y_t is a single batched GEMM.
    """
    if iterations < 1:
        raise ValueError("routing needs at least one iteration")
    u = np.ascontiguousarray(u_hat.data.transpose(0, 2, 1, 3))
    b = np.zeros(u.shape[:3], dtype=u.dtype)
    cs, ss, ys = [], [], []
    for t in range(iterations):
        if t:
            b += np.matmul(u, y[..., None])[..., 0]
        c = _softmax(b, axis=1)
        s = np.matmul(c[:, :, None, :], u)[:, :, 0]
        y = _squash(s)
        cs.append(c)
        ss.append(s)
        ys.append(y)

    def bw(g):
        coefs, vecs = [], []
        db = None
        dy = g
        for t in reversed(range(iterations)):
            if db is not None:
                dy = np.matmul(db[:, :, None, :], u)[:, :, 0]
                coefs.append(db)
                vecs.append(ys[t])
            ds = _squash_backward(ss[t], dy)
            coefs.append(cs[t])
            vecs.append(ds)
            if t:  # the first couplings come from constant logits
                dc = np.matmul(u, ds[..., None])[..., 0]
                step = cs[t] * (dc - (cs[t] * dc).sum(axis=1, keepdims=True))
                db = step if db is None else db + step
        # written through a transposed view so the vote gradient is
        # contiguous in the votes' own layout for the next backward
        du = np.empty(u_hat.shape, dtype=u.dtype)
        np.matmul(np.stack(coefs, axis=-1), np.stack(vecs, axis=-2), out=du.transpose(0, 2, 1, 3))
        return (du,)

    return _node(y, (u_hat,), bw), tuple(c.transpose(0, 2, 1) for c in cs)
