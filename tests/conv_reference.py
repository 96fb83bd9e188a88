"""The conv forward and input gradient over the whole batch at once.

``autodiff`` runs the conv forward and dX one block of whole images at a
time (``blas.even_blocks``). These are the same numpy calls over the whole
batch: one im2col block and one GEMM for the forward, one GEMM per kernel
offset and the nine-offset scatter for dX. They are the float32 bit
reference the blocked kernels must match.
"""

import numpy as np


def whole_batch_im2col(x, kernel, stride, padding, out_h, out_w):
    """The [B * H_out * W_out, k * k * C] rows of the NCHW `x`, in (kh, kw, C) order."""
    batch, channels, height, width = x.shape
    padded = np.zeros((batch, height + 2 * padding, width + 2 * padding, channels), dtype=x.dtype)
    padded[:, padding : padding + height, padding : padding + width] = x.transpose(0, 2, 3, 1)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kernel, kernel), axis=(1, 2))
    return (
        windows[:, ::stride, ::stride]
        .transpose(0, 1, 2, 4, 5, 3)
        .reshape(batch * out_h * out_w, kernel * kernel * channels)
    )


def whole_batch_conv_forward(x, weight, stride, padding):
    """The [B, F, H_out, W_out] output of one GEMM over the whole batch's rows."""
    batch, _, height, width = x.shape
    filters, _, kernel, _ = weight.shape
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    w2 = weight.transpose(0, 2, 3, 1).reshape(filters, -1)
    out2 = whole_batch_im2col(x, kernel, stride, padding, out_h, out_w) @ w2.T
    return out2.reshape(batch, out_h, out_w, filters).transpose(0, 3, 1, 2)


def whole_batch_conv_dx(g, x_shape, weight, stride, padding):
    """dX for the output gradient `g`: nine GEMMs over the whole batch, then
    the scatter of each offset's block, j outer and i inner."""
    batch, channels, height, width = x_shape
    filters, _, kernel, _ = weight.shape
    out_h, out_w = g.shape[2:]
    g2 = g.transpose(0, 2, 3, 1).reshape(-1, filters)
    w3 = np.ascontiguousarray(weight.transpose(2, 3, 0, 1)).reshape(kernel * kernel, filters, channels)
    dcols = np.matmul(g2, w3).reshape(kernel, kernel, batch, out_h, out_w, channels)
    dpadded = np.zeros((batch, height + 2 * padding, width + 2 * padding, channels), dtype=dcols.dtype)
    for j in range(kernel):
        for i in range(kernel):
            dpadded[:, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += dcols[i, j]
    return dpadded[:, padding : padding + height, padding : padding + width].transpose(0, 3, 1, 2)
