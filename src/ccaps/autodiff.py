"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps an ndarray and records the operation that produced
it. Calling ``backward()`` on a scalar result walks the recorded graph in
reverse topological order and accumulates gradients into every tensor
created with ``requires_grad=True``. Only the operations the capsule
network needs exist here; each fused kernel (conv2d, batch norm, squash,
capsule votes, routing by agreement) carries a hand-derived backward.
Routing is one node for all of its iterations: its backward walks the
iterations in reverse from the stored couplings and poses, so no
per-iteration graph is built.

Image tensors have NCHW shapes and NHWC memory: ``conv2d`` returns its
output, and its input gradient, as ``transpose(0, 3, 1, 2)`` views of
channels-last buffers. Batch norm and ReLU are elementwise in memory
order, so the whole conv block, forward and backward, stays channels-last
without a layout copy between layers.

dtype follows the inputs: training runs in float32, verification oracles
construct float64 tensors and get float64 gradients. Graphs are single
use: build a fresh forward pass for every backward.
"""

from __future__ import annotations

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
]

# Norms below this are treated as zero when a normalizing division is needed.
_NORM_FLOOR = 1e-12


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


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

    def _accum(self, grad: np.ndarray) -> None:
        self.grad = grad if self.grad is None else self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Accumulate gradients of this (scalar) tensor into the graph."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
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
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accum(np.asarray(grad))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- elementwise arithmetic ------------------------------------------

    def __add__(self, other):
        # python scalars stay scalars so float32 graphs do not upcast
        if isinstance(other, (int, float)):
            out = _node(self.data + other, (self,))
            if out._parents:
                out._backward = lambda g: self._accum(g)
            return out
        other = _as_tensor(other)
        out = _node(self.data + other.data, (self, other))
        if out._parents:
            def bw(g):
                if self.requires_grad or self._parents:
                    self._accum(_unbroadcast(g, self.data.shape))
                if other.requires_grad or other._parents:
                    other._accum(_unbroadcast(g, other.data.shape))
            out._backward = bw
        return out

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            out = _node(self.data * other, (self,))
            if out._parents:
                out._backward = lambda g: self._accum(g * other)
            return out
        other = _as_tensor(other)
        out = _node(self.data * other.data, (self, other))
        if out._parents:
            def bw(g):
                if self.requires_grad or self._parents:
                    self._accum(_unbroadcast(g * other.data, self.data.shape))
                if other.requires_grad or other._parents:
                    other._accum(_unbroadcast(g * self.data, other.data.shape))
            out._backward = bw
        return out

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-_as_tensor(other))

    def __rsub__(self, other):
        return _as_tensor(other) + (-self)

    def __truediv__(self, other):
        return self * (1.0 / other)

    def __matmul__(self, other):
        other = _as_tensor(other)
        out = _node(np.matmul(self.data, other.data), (self, other))
        if out._parents:
            def bw(g):
                if self.requires_grad or self._parents:
                    self._accum(_unbroadcast(np.matmul(g, other.data.swapaxes(-1, -2)), self.data.shape))
                if other.requires_grad or other._parents:
                    other._accum(_unbroadcast(np.matmul(self.data.swapaxes(-1, -2), g), other.data.shape))
            out._backward = bw
        return out

    # -- shape ops -------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = _node(self.data.reshape(shape), (self,))
        if out._parents:
            def bw(g):
                self._accum(g.reshape(self.data.shape))
            out._backward = bw
        return out

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(int(i) for i in np.argsort(axes))
        out = _node(self.data.transpose(axes), (self,))
        if out._parents:
            def bw(g):
                self._accum(g.transpose(inverse))
            out._backward = bw
        return out

    # -- reductions and nonlinearities ------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out = _node(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out._parents:
            def bw(g):
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                self._accum(np.broadcast_to(g, self.data.shape))
            out._backward = bw
        return out

    def mean(self, axis=None, keepdims: bool = False):
        count = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def relu(self):
        mask = self.data > 0
        out = _node(np.where(mask, self.data, 0), (self,))
        if out._parents:
            def bw(g):
                self._accum(g * mask)
            out._backward = bw
        return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple[Tensor, ...]) -> Tensor:
    """Graph node; parents are dropped when nothing upstream needs grads."""
    tracked = tuple(p for p in parents if p.requires_grad or p._parents)
    out = Tensor(data)
    if tracked:
        out._parents = parents
    return out


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    if out._parents:
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def bw(g):
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad or t._parents:
                    index = [slice(None)] * g.ndim
                    index[axis] = slice(lo, hi)
                    t._accum(g[tuple(index)])
        out._backward = bw
    return out


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
    x, weight = _as_tensor(x), _as_tensor(weight)
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
    out = _node(
        out2.reshape(batch, out_h, out_w, filters).transpose(0, 3, 1, 2), (x, weight)
    )
    if out._parents:
        def bw(g):
            g2 = g.transpose(0, 2, 3, 1).reshape(-1, filters)
            if weight.requires_grad or weight._parents:
                dw2 = g2.T @ cols
                weight._accum(dw2.reshape(filters, kernel, kernel, channels).transpose(0, 3, 1, 2))
            if x.requires_grad or x._parents:
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
                x._accum(dx.transpose(0, 3, 1, 2))
        out._backward = bw
    return out


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
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    batch = x.data.shape[0]
    axes = (0, 2, 3)
    count = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
    g4 = gamma.data.reshape(1, -1, 1, 1)

    if training:
        if batch < 2:
            raise ValueError("batch_norm2d: training mode requires batch size >= 2")
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        if update_running:
            unbiased = var * (count / (count - 1))
            running_mean *= 1.0 - momentum
            running_mean += momentum * mu
            running_var *= 1.0 - momentum
            running_var += momentum * unbiased
    else:
        mu = running_mean
        var = running_var

    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu.reshape(1, -1, 1, 1)) * inv.reshape(1, -1, 1, 1)
    out = _node(g4 * xhat + beta.data.reshape(1, -1, 1, 1), (x, gamma, beta))
    if out._parents:
        inv4 = inv.reshape(1, -1, 1, 1)

        def bw(g):
            if gamma.requires_grad or gamma._parents:
                gamma._accum((g * xhat).sum(axis=axes))
            if beta.requires_grad or beta._parents:
                beta._accum(g.sum(axis=axes))
            if x.requires_grad or x._parents:
                dxhat = g * g4
                if training:
                    s1 = dxhat.sum(axis=axes, keepdims=True)
                    s2 = (dxhat * xhat).sum(axis=axes, keepdims=True)
                    x._accum(inv4 / count * (count * dxhat - s1 - xhat * s2))
                else:
                    x._accum(dxhat * inv4)
        out._backward = bw
    return out


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
    x = _as_tensor(x)
    out = _node(_squash(x.data, axis), (x,))
    if out._parents:
        def bw(g):
            x._accum(_squash_backward(x.data, g, axis))
        out._backward = bw
    return out


def l2_normalize(x: Tensor, axis: int = -1) -> Tensor:
    """Scale slices along `axis` to unit Euclidean norm (zero stays zero)."""
    x = _as_tensor(x)
    norm = np.sqrt((x.data * x.data).sum(axis=axis, keepdims=True))
    safe = np.maximum(norm, _NORM_FLOOR)
    value = x.data / safe
    out = _node(value, (x,))
    if out._parents:
        def bw(g):
            x._accum((g - value * (g * value).sum(axis=axis, keepdims=True)) / safe)
        out._backward = bw
    return out


def capsule_votes(u: Tensor, weight: Tensor) -> Tensor:
    """Vote vectors: every child pose times its per-parent transform.

    u: [B, M, D_in] child poses; weight: [P, M, D_in, D_out];
    returns [B, M, P, D_out] with out[b, m, p] = weight[p, m].T-applied u[b, m].
    """
    u, weight = _as_tensor(u), _as_tensor(weight)
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
    out = _node(
        out_m.transpose(1, 0, 2).reshape(batch, children, parents, d_out), (u, weight)
    )
    if out._parents:
        def bw(g):
            g_m = np.ascontiguousarray(
                g.reshape(batch, children, parents * d_out).transpose(1, 0, 2)
            )
            if u.requires_grad or u._parents:
                du = np.matmul(g_m, w2.swapaxes(1, 2))
                u._accum(du.transpose(1, 0, 2))
            if weight.requires_grad or weight._parents:
                dw2 = np.matmul(um.swapaxes(1, 2), g_m)
                weight._accum(
                    dw2.reshape(children, d_in, parents, d_out).transpose(2, 0, 1, 3)
                )
        out._backward = bw
    return out


def routing_by_agreement(
    u_hat: Tensor, iterations: int
) -> tuple[Tensor, np.ndarray, tuple[np.ndarray, ...]]:
    """Dynamic routing over votes [B, M, P, D] as one node.

    Returns the parent poses y [B, P, D], the final logits [B, M, P] and
    the couplings of every iteration (each [B, M, P], softmax over P); the
    logits and couplings are plain arrays. Logits start at zero. The votes
    are transposed once to [B, P, M, D], so each iteration is a softmax
    and two batched matmuls: s = c @ u, then squash, then agreement u @ y.

    The backward runs through every iteration from the stored c, s and y.
    With db = dL/d(logits after iteration t), walking t = T..1:
    dy_t = db @ u, ds_t = squash'(s_t) dy_t, dc_t = u @ ds_t, and
    db += c_t * (dc_t - sum_p c_t * dc_t). At t = T, dy_T is the output
    gradient and db is zero: the last agreement only feeds the detached
    logits. The vote gradient sum_t c_t (x) ds_t + db_t (x) y_t is a
    single batched GEMM.
    """
    if iterations < 1:
        raise ValueError("routing needs at least one iteration")
    u_hat = _as_tensor(u_hat)
    u = np.ascontiguousarray(u_hat.data.transpose(0, 2, 1, 3))
    b = np.zeros(u.shape[:3], dtype=u.dtype)
    cs, ss, ys = [], [], []
    for _ in range(iterations):
        c = _softmax(b, axis=1)
        s = np.matmul(c[:, :, None, :], u)[:, :, 0]
        y = _squash(s)
        b += np.matmul(u, y[..., None])[..., 0]
        cs.append(c)
        ss.append(s)
        ys.append(y)
    out = _node(y, (u_hat,))
    if out._parents:
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
            u_hat._accum(du)
        out._backward = bw
    history = tuple(np.ascontiguousarray(c.transpose(0, 2, 1)) for c in cs)
    return out, np.ascontiguousarray(b.transpose(0, 2, 1)), history
