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
hand-derived backward whose closure saves only what that backward reads:

- ``reshape`` and ``transpose`` on :class:`Tensor` (nothing), ``relu``
  (its output y) and ``concat`` (the split offsets);
- ``conv2d``: nothing; at backward time it reads the weights and rebuilds
  the im2col rows from its input, so neither may be written before then;
  its forward and its dX run one block of whole images at a time
  (``blas.even_blocks``), so no whole batch's im2col rows exist outside dW;
- ``batch_norm2d``: xhat and the inverse std;
- ``conv_bn_relu``, one conv-block layer as one node: xhat, the inverse
  std and y (the input and weights are read as in ``conv2d``);
- ``squash``: its input; ``l2_normalize``: its output and the clamped norm;
- ``capsule_votes``: the child poses in GEMM layout (the weights are read
  at backward time); its votes are a view of routing's [B, P, M, D] layout;
- ``routing_by_agreement`` (one node for all of its iterations): the
  [B, P, M, D] votes, and each iteration's couplings, pre-squash sums and
  poses;
- ``class_capsules``, votes then routing as one node: what the two save.
  Its backward writes the vote gradient into the votes' own buffer, in the
  vote GEMM's [M, B, P, D] layout, so the vote backward copies nothing.

The network runs ``conv_bn_relu`` and ``class_capsules``. They call the
same forward and backward helpers as the single-op nodes, in the same
order, so they give the same bits as the chain ``conv2d`` ->
``batch_norm2d`` -> ``relu`` and ``capsule_votes`` ->
``routing_by_agreement``; ``tests/forward_reference.py`` keeps that chain
as their oracle, and the PrimaryCaps conv is a ``conv2d``.

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
which lets NaN through; its backward masks by ``y > 0``. Inside
``conv_bn_relu``, x - mu and then xhat are written into the conv GEMM's
output buffer, the affine output into the variance's scratch buffer (a
new one in eval mode), and ReLU runs in place on it. When no graph is
recorded (eval under ``no_grad``, as feature extraction runs) the affine
output and ReLU go into the conv buffer as well, so such a layer
allocates nothing past its conv.

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

from . import blas

__all__ = [
    "Tensor",
    "concat",
    "conv2d",
    "batch_norm2d",
    "conv_bn_relu",
    "squash",
    "l2_normalize",
    "capsule_votes",
    "routing_by_agreement",
    "class_capsules",
    "no_grad",
]

# Norms below this are treated as zero when a normalizing division is needed.
_NORM_FLOOR = 1e-12

# Most bytes of im2col rows (or of dX's per-offset blocks) a conv holds at
# once in its forward and its dX, in blocks cut by :func:`blas.even_blocks`.
_BLOCK_BYTES = 2 << 20

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


def _recorded(parents: tuple[Tensor, ...]) -> bool:
    """Whether a node over `parents` keeps its graph edge: recording is on
    and some parent needs a gradient."""
    return _RECORDING.get() and any(p.needs_grad for p in parents)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """The op result; it keeps its parents and backward only when
    :func:`_recorded` holds."""
    out = Tensor(data)
    if _recorded(parents):
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
#
# Each kernel's forward and backward arithmetic lives in private helpers
# that take and return ndarrays. The single-op nodes and the two layer
# nodes (`conv_bn_relu`, `class_capsules`) call the same helpers, so each
# float comes from the same numpy call either way.


def _im2col(x: np.ndarray, kernel: int, stride: int, padding: int, out_h: int, out_w: int) -> np.ndarray:
    """The [B * H_out * W_out, k * k * C] im2col rows of the NCHW `x`, in (kh, kw, C)
    order: one copy of a strided sliding-window view of the zero-padded NHWC input."""
    batch, channels, height, width = x.shape
    padded = np.zeros((batch, height + 2 * padding, width + 2 * padding, channels), dtype=x.dtype)
    padded[:, padding : padding + height, padding : padding + width] = x.transpose(0, 2, 3, 1)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kernel, kernel), axis=(1, 2))
    return (
        windows[:, ::stride, ::stride]
        .transpose(0, 1, 2, 4, 5, 3)
        .reshape(batch * out_h * out_w, kernel * kernel * channels)
    )


def _conv_forward(x: np.ndarray, weight: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """The conv output as an NCHW view of an NHWC buffer, one GEMM per block of
    images (:func:`blas.even_blocks`) into that block's rows of the buffer."""
    batch, channels, height, width = x.shape
    filters, w_channels, kernel, kernel2 = weight.shape
    if w_channels != channels or kernel != kernel2:
        raise ValueError(f"conv2d: weight {weight.shape} incompatible with input {x.shape}")
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError("conv2d: kernel larger than padded input")
    # the (kh, kw, C)-ordered weights are a copy; the backward rebuilds
    # them rather than have every node hold one
    w2 = weight.transpose(0, 2, 3, 1).reshape(filters, -1)
    out = np.empty((batch, out_h, out_w, filters), dtype=np.result_type(x, weight))
    for lo, hi in blas.even_blocks(batch, _BLOCK_BYTES // (out_h * out_w * w2.shape[1] * x.itemsize)):
        rows = _im2col(x[lo:hi], kernel, stride, padding, out_h, out_w)
        np.matmul(rows, w2.T, out=out[lo:hi].reshape(-1, filters))
    return out.transpose(0, 3, 1, 2)


def _conv_backward(g, x, weight, stride, padding, need_dx, need_dw):
    """(dx, dw) of :func:`_conv_forward` at the input `x` for the output gradient
    `g`, None where not needed. dW is one GEMM over the whole batch's rebuilt
    im2col rows, which go before dX runs its GEMMs and scatter one block of
    images at a time."""
    batch, channels, height, width = x.shape
    filters, _, kernel, _ = weight.shape
    out_h, out_w = g.shape[2:]
    g2 = g.transpose(0, 2, 3, 1).reshape(-1, filters)
    dw = dx = None
    if need_dw:
        # one reduction over all rows: blocks of it would round differently
        dw2 = g2.T @ _im2col(x, kernel, stride, padding, out_h, out_w)
        dw = dw2.reshape(filters, kernel, kernel, channels).transpose(0, 3, 1, 2)
    if need_dx:
        # one GEMM per kernel offset, so each block added is contiguous
        w3 = np.ascontiguousarray(weight.transpose(2, 3, 0, 1))
        w3 = w3.reshape(kernel * kernel, filters, channels)
        dtype = np.result_type(g2, w3)
        dpadded = np.zeros((batch, height + 2 * padding, width + 2 * padding, channels), dtype=dtype)
        pixels = out_h * out_w
        for lo, hi in blas.even_blocks(batch, _BLOCK_BYTES // (pixels * kernel * kernel * channels * dtype.itemsize)):
            dcols = np.matmul(g2[lo * pixels : hi * pixels], w3)
            dcols = dcols.reshape(kernel, kernel, hi - lo, out_h, out_w, channels)
            block = dpadded[lo:hi]
            # overlapping blocks: this order fixes dX's float32 rounding,
            # so changing it changes every training digest
            for j in range(kernel):
                for i in range(kernel):
                    block[:, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += dcols[i, j]
        dx = dpadded[:, padding : padding + height, padding : padding + width]
        dx = dx.transpose(0, 3, 1, 2)
    return dx, dw


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 1) -> Tensor:
    """2D cross-correlation without bias, via im2col and one GEMM per block of images.

    x: [B, C, H, W]; weight: [F, C, k, k] -> [B, F, H_out, W_out].

    Shapes are NCHW, memory is NHWC: the output and the input gradient are
    transposed views of channels-last buffers, so batch norm and ReLU see
    activations and gradients in one layout. Any input layout is accepted.
    The forward builds the im2col rows (:func:`_im2col`) and runs the GEMM
    one block of whole images at a time (:func:`blas.even_blocks`). The node
    keeps its input, not its rows: dW rebuilds the whole batch's rows, bit
    for bit, so the input, like the weights, must not be written before
    backward. The input gradient, block by block, scatter-adds one
    contiguous [B, H_out, W_out, C] block per kernel offset back into a
    padded NHWC buffer. Every output and gradient element is computed as
    over the whole batch, so the bits do not depend on the blocks.
    """
    out = _conv_forward(x.data, weight.data, stride, padding)

    def bw(g):
        return _conv_backward(g, x.data, weight.data, stride, padding, x.needs_grad, weight.needs_grad)

    return _node(out, (x, weight), bw)


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=(0, 2, 3))`` of an [N, C, H, W] array, bit for bit (see the
    module docstring): einsum only where both add whole contiguous C-wide rows."""
    if a.shape[1] > 1 and a.strides[1] == a.itemsize:
        return np.einsum("nchw->c", a)
    return a.sum(axis=(0, 2, 3))


def _bn_normalize(x, running_mean, running_var, training, momentum, eps, update_running, out=None):
    """(xhat, inv4, square): x - mu goes to `out` (a new array if None) and is
    scaled into xhat there; `square` is the variance's scratch buffer in
    training mode, free for the affine output, and None in eval mode."""
    count = x.shape[0] * x.shape[2] * x.shape[3]
    square = None
    if training:
        if x.shape[0] < 2:
            raise ValueError("batch_norm2d: training mode requires batch size >= 2")
        # numpy's mean and var, except that x - mu is made once and kept
        mu = _channel_sum(x) / count
        xhat = np.subtract(x, mu.reshape(1, -1, 1, 1), out=out)
        square = np.square(xhat)
        var = _channel_sum(square) / count
        if update_running:
            unbiased = var * (count / (count - 1))
            running_mean *= 1.0 - momentum
            running_mean += momentum * mu
            running_var *= 1.0 - momentum
            running_var += momentum * unbiased
    else:
        xhat = np.subtract(x, running_mean.reshape(1, -1, 1, 1), out=out)
        var = running_var
    inv4 = (1.0 / np.sqrt(var + eps)).reshape(1, -1, 1, 1)
    xhat *= inv4
    return xhat, inv4, square


def _bn_affine(xhat, gamma, beta, out):
    """gamma * xhat + beta, written to `out` (which may be xhat itself)."""
    np.multiply(gamma.reshape(1, -1, 1, 1), xhat, out=out)
    out += beta.reshape(1, -1, 1, 1)
    return out


def _bn_backward(g, xhat, inv4, gamma, training, need_dx, need_dgamma, need_dbeta):
    """(dx, dgamma, dbeta) of batch norm for the output gradient `g`."""
    dx = None
    if need_dx:
        dxhat = g * gamma.reshape(1, -1, 1, 1)
        if training:
            count = g.shape[0] * g.shape[2] * g.shape[3]
            s1 = _channel_sum(dxhat).reshape(1, -1, 1, 1)
            s2 = _channel_sum(dxhat * xhat).reshape(1, -1, 1, 1)
            dx = inv4 / count * (count * dxhat - s1 - xhat * s2)
        else:
            dx = dxhat * inv4
    dgamma = _channel_sum(g * xhat) if need_dgamma else None
    dbeta = _channel_sum(g) if need_dbeta else None
    return dx, dgamma, dbeta


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
    xhat, inv4, square = _bn_normalize(
        x.data, running_mean, running_var, training, momentum, eps, update_running
    )
    out = _bn_affine(xhat, gamma.data, beta.data, np.empty_like(xhat) if square is None else square)

    def bw(g):
        return _bn_backward(
            g, xhat, inv4, gamma.data, training, x.needs_grad, gamma.needs_grad, beta.needs_grad
        )

    return _node(out, (x, gamma, beta), bw)


def conv_bn_relu(
    x: Tensor,
    weight: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    stride: int = 1,
    padding: int = 1,
    momentum: float = 0.1,
    eps: float = 1e-5,
    update_running: bool = True,
) -> Tensor:
    """One conv-block layer, ``conv2d -> batch_norm2d -> relu``, as one node.

    Same arguments and the same bits as the chain of the three single-op
    nodes. Batch norm runs in the conv GEMM's own output buffer (x - mu,
    then xhat); the affine output goes to the variance's scratch buffer (a
    new one in eval mode) and ReLU runs in place on it, so the node saves
    only xhat, inv-std and y; as in ``conv2d``, the input and the weights
    must not be written before backward. When no graph is recorded the
    affine output and ReLU run in place on xhat as well.
    """
    parents = (x, weight, gamma, beta)
    conv = _conv_forward(x.data, weight.data, stride, padding)
    xhat, inv4, square = _bn_normalize(
        conv, running_mean, running_var, training, momentum, eps, update_running, out=conv
    )
    if not _recorded(parents):
        square = xhat
    elif square is None:
        square = np.empty_like(xhat)
    y = np.maximum(_bn_affine(xhat, gamma.data, beta.data, square), 0, out=square)

    def bw(g):
        g = g * (y > 0)
        need_conv = x.needs_grad or weight.needs_grad
        dconv, dgamma, dbeta = _bn_backward(
            g, xhat, inv4, gamma.data, training, need_conv, gamma.needs_grad, beta.needs_grad
        )
        dx = dw = None
        if need_conv:
            dx, dw = _conv_backward(dconv, x.data, weight.data, stride, padding, x.needs_grad, weight.needs_grad)
        return dx, dw, dgamma, dbeta

    return _node(y, parents, bw)


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

def _votes_forward(u: np.ndarray, weight: np.ndarray):
    """(votes [B, P, M, D_out] in routing's layout, the [M, B, D_in] poses)."""
    parents, children, d_in, d_out = weight.shape
    batch = u.shape[0]
    if u.shape[1] != children or u.shape[2] != d_in:
        raise ValueError(f"capsule_votes: poses {u.shape} incompatible with weights {weight.shape}")
    um = np.ascontiguousarray(u.transpose(1, 0, 2))
    votes = np.empty((batch, parents, children, d_out), dtype=np.result_type(um, weight))
    for p in range(parents):  # one batched GEMM per parent: [M,B,Din] @ [M,Din,Dout]
        np.matmul(um, weight[p], out=votes[:, p].transpose(1, 0, 2))
    return votes, um


def _votes_backward(g, um, weight, need_du, need_dw):
    """(du, dw) of :func:`_votes_forward` for the [B, M, P, D] vote gradient `g`."""
    children, batch, d_in = um.shape
    parents, _, _, d_out = weight.shape
    # both GEMMs read one [M, B, P * D] layout of g (a view when g is
    # :func:`_route_backward`'s): du as one GEMM over K = P * D_out fixes its bits
    g_m = np.ascontiguousarray(g.reshape(batch, children, parents * d_out).transpose(1, 0, 2))
    du = dw = None
    if need_du:
        w2 = weight.transpose(1, 2, 0, 3).reshape(children, d_in, parents * d_out)
        du = np.matmul(g_m, w2.swapaxes(1, 2)).transpose(1, 0, 2)
        del w2  # the relayout goes before dW allocates
    if need_dw:
        dw2 = np.matmul(um.swapaxes(1, 2), g_m)
        dw = dw2.reshape(children, d_in, parents, d_out).transpose(2, 0, 1, 3)
    return du, dw


def capsule_votes(u: Tensor, weight: Tensor) -> Tensor:
    """Vote vectors: every child pose times its per-parent transform.

    u: [B, M, D_in] child poses; weight: [P, M, D_in, D_out];
    returns [B, M, P, D_out] with out[b, m, p] = weight[p, m].T-applied u[b, m],
    a view of a C-contiguous [B, P, M, D_out] buffer (routing's layout).
    """
    votes, um = _votes_forward(u.data, weight.data)
    return _node(
        votes.transpose(0, 2, 1, 3),
        (u, weight),
        lambda g: _votes_backward(g, um, weight.data, u.needs_grad, weight.needs_grad),
    )


def _route(u: np.ndarray, iterations: int):
    """(u, cs, ss, ys): the C-contiguous [B, P, M, D] votes, read as they
    are, and each iteration's couplings, pre-squash poses and poses."""
    if iterations < 1:
        raise ValueError("routing needs at least one iteration")
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
    return u, cs, ss, ys


def _route_backward(g, u, cs, ss, ys, into=None):
    """The vote gradient of :func:`_route` for the pose gradient `g`: a
    [B, M, P, D] view of an [M, B, P, D] array (the vote GEMM's layout) in
    the memory of `into`, an array of the votes' size and dtype that may be
    the votes `u` themselves (the loop has read them by then), or a new one."""
    coefs, vecs = [], []
    db = None
    dy = g
    for t in reversed(range(len(cs))):
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
    batch, parents, children, dim = u.shape
    buffer = np.empty(u.size, dtype=u.dtype) if into is None else into.reshape(-1)
    du = buffer.reshape(children, batch, parents, dim).transpose(1, 0, 2, 3)
    np.matmul(np.stack(coefs, axis=-1), np.stack(vecs, axis=-2), out=du.transpose(0, 2, 1, 3))
    return du


def routing_by_agreement(u_hat: Tensor, iterations: int) -> tuple[Tensor, tuple[np.ndarray, ...]]:
    """Dynamic routing over votes [B, M, P, D] as one node.

    Returns the parent poses y [B, P, D] and the couplings of every
    iteration, each a [B, M, P] view (softmax over P) of an array the
    backward keeps anyway; read them, do not write them. Logits start at
    zero. The votes are read as [B, P, M, D] (no copy for ``capsule_votes``'s),
    so each iteration is a softmax and two batched matmuls: s = c @ u, then
    squash; between two iterations the agreement u @ y raises the logits.
    That is T - 1 agreement updates: the last poses feed none.

    The backward runs through every iteration from the stored c, s and y.
    With db = dL/d b_t, where c_{t+1} = softmax(b_t), walking t = T..1:
    dy_t = db @ u, ds_t = squash'(s_t) dy_t, dc_t = u @ ds_t, and
    db += c_t * (dc_t - sum_p c_t * dc_t). At t = T, dy_T is the output
    gradient and db is zero. The vote gradient
    sum_t c_t (x) ds_t + db_t (x) y_t is a single batched GEMM, into a new
    array in the vote GEMM's [M, B, P, D] layout: the votes' own buffer may
    still be read through the ``capsule_votes`` output, so it is not reused.
    """
    u, cs, ss, ys = _route(np.ascontiguousarray(u_hat.data.transpose(0, 2, 1, 3)), iterations)
    y = _node(ys[-1], (u_hat,), lambda g: (_route_backward(g, u, cs, ss, ys),))
    return y, tuple(c.transpose(0, 2, 1) for c in cs)


def class_capsules(u: Tensor, weight: Tensor, iterations: int) -> tuple[Tensor, tuple[np.ndarray, ...]]:
    """``capsule_votes`` then ``routing_by_agreement`` as one node.

    Same arguments, results and bits as the two single-op nodes. The
    votes are made in routing's [B, P, M, D] layout and routing reads that
    one buffer, so the node saves the [M, B, D_in] poses and what routing's
    backward reads; the vote backward reads the weights at backward time.
    Routing's backward loop is the last code that reads the votes, so the
    vote gradient goes into their buffer, in the [M, B, P, D] layout both
    vote GEMMs read: one view's backward holds no second vote-sized array.
    """
    votes, um = _votes_forward(u.data, weight.data)
    routed = _route(votes, iterations)
    y, couplings = routed[3][-1], tuple(c.transpose(0, 2, 1) for c in routed[1])

    def bw(g):
        nonlocal routed
        du_hat = _route_backward(g, *routed, into=votes)  # nothing reads the votes after this
        routed = None  # routing's arrays go before the vote backward allocates
        return _votes_backward(du_hat, um, weight.data, u.needs_grad, weight.needs_grad)

    return _node(y, (u, weight), bw), couplings
