"""The conv forward and dX in blocks of whole images give the whole-batch bits.

``autodiff._conv_forward`` and ``_conv_backward``'s dX run one block of
whole images at a time (``blas.even_blocks``), so they never hold a whole
batch's im2col rows. Every float32 output and input-gradient element must
have the bits of ``conv_reference``'s whole-batch kernels: on every conv of
the default model and of an odd one, at batch 1, 2, an odd batch whose
blocks are uneven, 64 and 256, on one OpenBLAS thread and on the host's
count. The float64 ``naive_conv2d`` oracle in ``test_autodiff`` checks the
arithmetic itself.
"""

import numpy as np
import pytest

from ccaps import autodiff, blas
from ccaps.model import ModelConfig
from conv_reference import whole_batch_conv_dx, whole_batch_conv_forward
from test_layer_nodes import ODD

CONFIGS = {"default": ModelConfig(), "odd": ODD}


def _convs(config: ModelConfig):
    """(in channels, input size, filters, stride) of each conv-block layer, then PrimaryCaps."""
    convs, channels, size = [], config.in_channels, config.image_size
    for filters, stride in zip(config.conv_channels, config.conv_strides):
        convs.append((channels, size, filters, stride))
        channels, size = filters, (size + 2 * config.padding - config.kernel_size) // stride + 1
    return convs + [(channels, size, config.primary_channels, 1)]


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _blocks(batch, channels, out_size, k):
    return blas.even_blocks(batch, autodiff._BLOCK_BYTES // (out_size * out_size * k * k * channels * 4))


@pytest.mark.parametrize("threads", ["one", "host"])
@pytest.mark.parametrize("batch", [1, 2, 37, 64, 256])
@pytest.mark.parametrize("name", CONFIGS)
def test_blocked_conv_gives_the_whole_batch_bits(name, batch, threads):
    config = CONFIGS[name]
    k, pad = config.kernel_size, config.padding
    rng = np.random.default_rng(batch)
    sizes = []  # each conv's block sizes
    with blas.split(blas.thread_count() if threads == "one" else 1):
        for channels, size, filters, stride in _convs(config):
            # channels-last memory, as every conv input after the first has
            x = rng.normal(size=(batch, size, size, channels)).astype(np.float32).transpose(0, 3, 1, 2)
            weight = rng.normal(0.0, 0.2, size=(filters, channels, k, k)).astype(np.float32)
            out = autodiff._conv_forward(x, weight, stride, pad)
            assert _same_bits(out, whole_batch_conv_forward(x, weight, stride, pad)), (channels, size)
            g = rng.normal(size=out.shape).astype(np.float32)
            dx, dw = autodiff._conv_backward(g, x, weight, stride, pad, True, False)
            assert dw is None and _same_bits(dx, whole_batch_conv_dx(g, x.shape, weight, stride, pad))
            sizes.append({hi - lo for lo, hi in _blocks(batch, channels, out.shape[2], k)})
    if name == "default" and batch == 37:  # uneven blocks on some conv
        assert any(len(s) > 1 for s in sizes), sizes
    if name == "default" and batch >= 64:  # several blocks on some conv
        assert any(max(s) < batch for s in sizes), sizes


@pytest.mark.parametrize("images", [1, 3, 32])
def test_blocks_of_any_size_give_the_whole_batch_bits(images, monkeypatch):
    # a budget of `images` images of the Conv2d-3 shape a block
    channels, size, filters, stride = _convs(ModelConfig())[2]
    monkeypatch.setattr(autodiff, "_BLOCK_BYTES", images * size * size * 9 * channels * 4)
    rng = np.random.default_rng(images)
    x = rng.normal(size=(70, size, size, channels)).astype(np.float32).transpose(0, 3, 1, 2)
    weight = rng.normal(0.0, 0.2, size=(filters, channels, 3, 3)).astype(np.float32)
    out = autodiff._conv_forward(x, weight, stride, 1)
    assert _same_bits(out, whole_batch_conv_forward(x, weight, stride, 1))
    g = rng.normal(size=out.shape).astype(np.float32)
    dx, _ = autodiff._conv_backward(g, x, weight, stride, 1, True, False)
    assert _same_bits(dx, whole_batch_conv_dx(g, x.shape, weight, stride, 1))
    assert len(_blocks(70, channels, size, 3)) == -(-70 // images)
