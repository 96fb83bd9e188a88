"""The layer nodes against the chain of single-op kernels they replace.

``conv_bn_relu`` (one conv-block layer) and ``class_capsules`` (votes, then
routing) must give the bits of ``forward_reference``'s chain in float32:
forward values, couplings, every parameter and input gradient and the
running statistics, in train mode, in eval mode with a recorded graph and
in eval mode under ``no_grad``. In float64 each node's gradients are
checked against finite differences, and a view through the nodes must
peak in memory well below the same view through the chain.

A conv node keeps its input, not its im2col rows, and rebuilds the rows
from that input for dW: the rebuilt rows must be the forward's (which it
made in blocks of whole images), no conv
input may be written between forward and backward (in a threaded training
step too), and a view's graph must not hold the rows.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ccaps import autodiff, blas, train
from ccaps.autodiff import Tensor, class_capsules, concat, conv_bn_relu, no_grad, squash
from ccaps.model import CapsuleNetwork, ModelConfig
from forward_reference import chain_class_caps, chain_forward, chain_layer
from gradcheck import check_grad
from tracemem import traced_bytes

# odd sizes, two stride-2 layers, a 3x3 capsule grid
ODD = ModelConfig(
    image_size=11,
    conv_channels=(5, 7, 6),
    conv_strides=(1, 2, 2),
    primary_channels=12,
    capsule_dim=3,
    num_classes=4,
    class_capsule_dim=5,
)
CASES = [pytest.param(ModelConfig(), 64, id="default-b64"), pytest.param(ODD, 2, id="odd-b2")]
MODES = ["train", "eval", "eval-no-grad"]


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _network(config: ModelConfig) -> CapsuleNetwork:
    """A float32 network whose batch norms are no identity in eval mode."""
    net = CapsuleNetwork(config, seed=3)
    rng = np.random.default_rng(4)
    for name, arr in {**net.buffers, **{k: t.data for k, t in net.params.items()}}.items():
        if name.endswith("running_mean") or name.endswith("beta"):
            arr[...] = rng.normal(0.0, 0.2, size=arr.shape)
        elif name.endswith("running_var") or name.endswith("gamma"):
            arr[...] = rng.uniform(0.5, 1.5, size=arr.shape)
    return net


def _run(forward, config: ModelConfig, batch: int, mode: str):
    """(h, z, gradients by parameter name and "input", buffers) of one
    forward and the backward of a projection of [h, z]."""
    net = _network(config)
    rng = np.random.default_rng(batch)
    size = config.image_size
    images = rng.normal(size=(batch, config.in_channels, size, size)).astype(np.float32)
    x = Tensor(images, requires_grad=True)
    if mode == "eval-no-grad":
        with no_grad():
            out = forward(net, x, "eval", 3)
        assert out.h._parents == () and out.z._parents == ()
        grads = {}
    else:
        out = forward(net, x, mode, 3)
        both = concat([out.h, out.z], axis=1)
        both.backward(rng.normal(size=both.shape).astype(np.float32))
        grads = {name: t.grad for name, t in net.params.items()}
        grads["input"] = x.grad
    return out.h.data, out.z.data, grads, net.buffers


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("config, batch", CASES)
def test_network_through_the_nodes_gives_the_chain_bits(config, batch, mode):
    h, z, grads, buffers = _run(CapsuleNetwork.forward, config, batch, mode)
    ref_h, ref_z, ref_grads, ref_buffers = _run(chain_forward, config, batch, mode)
    assert _same_bits(h, ref_h) and _same_bits(z, ref_z)
    assert grads.keys() == ref_grads.keys()
    for name, grad in grads.items():
        assert grad is not None and _same_bits(grad, ref_grads[name]), name
    for name, buffer in buffers.items():
        assert _same_bits(buffer, ref_buffers[name]), name
    if mode == "train":  # the running statistics moved
        before = _network(config).buffers["conv1.bn.running_mean"]
        assert not np.array_equal(buffers["conv1.bn.running_mean"], before)


@pytest.mark.parametrize("needs", ["x", "weight", "gamma", "beta", "weight gamma beta"])
@pytest.mark.parametrize("training", [True, False])
def test_layer_node_returns_the_chain_gradients_its_parents_need(needs, training):
    rng = np.random.default_rng(5)
    arrays = {
        "x": rng.normal(size=(3, 5, 7, 9)).astype(np.float32),
        "weight": rng.normal(0.0, 0.3, size=(6, 5, 3, 3)).astype(np.float32),
        "gamma": rng.uniform(0.5, 1.5, size=6).astype(np.float32),
        "beta": rng.normal(0.0, 0.2, size=6).astype(np.float32),
    }
    stats = rng.normal(0.0, 0.2, size=6).astype(np.float32), rng.uniform(0.5, 1.5, size=6).astype(np.float32)
    proj = rng.normal(size=(3, 6, 4, 5)).astype(np.float32)
    results = []
    for layer in (conv_bn_relu, chain_layer):
        leaves = {k: Tensor(a, requires_grad=k in needs.split()) for k, a in arrays.items()}
        buffers = tuple(s.copy() for s in stats)
        out = layer(*leaves.values(), *buffers, training=training, stride=2)
        out.backward(proj)
        results.append((out.data, [leaves[k].grad for k in arrays], buffers))
    (y, grads, buffers), (ref_y, ref_grads, ref_buffers) = results
    assert _same_bits(y, ref_y)
    for name, grad, ref in zip(arrays, grads, ref_grads):
        assert (grad is None) == (ref is None) == (name not in needs.split()), name
        assert grad is None or _same_bits(grad, ref), name
    for buffer, ref in zip(buffers, ref_buffers):
        assert _same_bits(buffer, ref)


@pytest.mark.parametrize("recorded", [True, False])
@pytest.mark.parametrize("config, batch", CASES)
def test_class_capsule_node_gives_the_chain_bits(config, batch, recorded):
    rng = np.random.default_rng(6)
    poses = rng.normal(size=(batch, config.num_primary_capsules, config.capsule_dim)).astype(np.float32)
    proj = rng.normal(size=(batch, config.num_classes, config.class_capsule_dim)).astype(np.float32)
    results = []
    for forward in (
        lambda net, u: class_capsules(u, net.params["class_caps.weight"], 3),
        lambda net, u: chain_class_caps(net, u, 3),
    ):
        net = _network(config)
        u = Tensor(squash(Tensor(poses)).data, requires_grad=True)
        if recorded:
            y, couplings = forward(net, u)
            y.backward(proj)
        else:
            with no_grad():
                y, couplings = forward(net, u)
            assert y._parents == ()
        results.append((y.data, couplings, u.grad, net.params["class_caps.weight"].grad))
    (y, couplings, du, dw), (ref_y, ref_couplings, ref_du, ref_dw) = results
    assert _same_bits(y, ref_y)
    assert len(couplings) == len(ref_couplings) == 3
    for c, ref_c in zip(couplings, ref_couplings):
        assert _same_bits(c, ref_c)
    if recorded:
        assert _same_bits(du, ref_du) and _same_bits(dw, ref_dw)
    else:
        assert du is None and dw is None


# -- float64 finite differences ------------------------------------------------


@pytest.mark.parametrize("wrt", ["x", "weight", "gamma", "beta"])
@pytest.mark.parametrize("training", [True, False])
def test_layer_node_grads_match_finite_differences(wrt, training):
    rng = np.random.default_rng(7)
    arrays = {
        "x": rng.normal(size=(2, 3, 5, 5)),
        "weight": rng.normal(0.0, 0.5, size=(4, 3, 3, 3)),
        "gamma": rng.uniform(0.5, 1.5, size=4),
        "beta": rng.normal(0.0, 0.5, size=4),
    }
    running = rng.normal(0.0, 0.2, size=4), rng.uniform(0.5, 1.5, size=4)

    def layer(t):
        args = [t if k == wrt else Tensor(a) for k, a in arrays.items()]
        return conv_bn_relu(*args, *running, training=training, stride=2, update_running=False)

    proj = rng.normal(size=(2, 4, 3, 3))
    check_grad(layer, arrays[wrt], proj)


@pytest.mark.parametrize("wrt", ["u", "weight"])
def test_class_capsule_node_grads_match_finite_differences(wrt):
    rng = np.random.default_rng(8)
    arrays = {"u": rng.normal(size=(2, 5, 3)), "weight": rng.normal(size=(4, 5, 3, 2))}

    def node(t):
        args = [t if k == wrt else Tensor(a) for k, a in arrays.items()]
        return class_capsules(*args, 3)[0]

    check_grad(node, arrays[wrt], rng.normal(size=(2, 4, 2)), rtol=1e-5)


# -- memory --------------------------------------------------------------------


def test_a_view_through_the_nodes_peaks_ten_percent_below_the_chain():
    # the chain's graph also holds every conv and batch-norm output, which
    # no backward reads, and keeps the votes alive through the vote backward
    rng = np.random.default_rng(9)
    x = rng.normal(size=(16, 3, 32, 32)).astype(np.float32)
    g = rng.normal(size=(16, ModelConfig().embedding_dim)).astype(np.float32)
    peaks = {}
    for name, forward in (("nodes", CapsuleNetwork.forward), ("chain", chain_forward)):
        net = CapsuleNetwork(ModelConfig(), seed=0)
        peaks[name] = traced_bytes(lambda: forward(net, x, "train", 3).z.backward(g))[1]
    assert peaks["nodes"] <= 0.9 * peaks["chain"], peaks


def test_a_view_graph_holds_its_conv_inputs_not_their_im2col_rows():
    # at batch 16 the graph holds 13.5 MiB, and the seven convs' im2col
    # rows would add 14.2 MiB more
    config, batch = ModelConfig(), 16
    rng = np.random.default_rng(13)
    x = rng.normal(size=(batch, config.in_channels, config.image_size, config.image_size)).astype(np.float32)
    net = CapsuleNetwork(config, seed=0)
    with blas.split(blas.thread_count()):  # one OpenBLAS thread
        held, _ = traced_bytes(lambda: net.forward(x, "train", 3))
    assert held < 20 * 2**20, held / 2**20


# -- the conv input, saved for backward ------------------------------------------


def _first_image(block: np.ndarray, x: np.ndarray):
    """lo if `block` is the slice ``x[lo:lo + len(block)]`` of `x`'s memory, else None."""
    offset = block.__array_interface__["data"][0] - x.__array_interface__["data"][0]
    lo, rest = divmod(offset, x.strides[0])
    same_layout = block.dtype == x.dtype and block.strides == x.strides and block.shape[1:] == x.shape[1:]
    return lo if same_layout and not rest and 0 <= lo <= len(x) - len(block) else None


@pytest.mark.parametrize("config, batch", CASES)
def test_each_saved_conv_input_rebuilds_the_forward_im2col_rows(config, batch, monkeypatch):
    calls = []  # (input, the other arguments, rows) of every im2col, in call order
    im2col = autodiff._im2col

    def recording_im2col(x, *args):
        rows = im2col(x, *args)
        calls.append((x, args, rows))
        return rows

    monkeypatch.setattr(autodiff, "_im2col", recording_im2col)
    net = _network(config)
    rng = np.random.default_rng(14)
    size = config.image_size
    out = net.forward(rng.normal(size=(batch, config.in_channels, size, size)).astype(np.float32), "train", 3)
    forward = list(calls)
    out.z.backward(rng.normal(size=out.z.shape).astype(np.float32))
    rebuilt = calls[len(forward) :]
    convs = len(config.conv_strides) + 1  # the conv-block layers and PrimaryCaps
    assert len(rebuilt) == convs  # every conv's dW, from its whole saved input
    # the forward ran each conv in blocks of whole images: slices of the
    # saved input, in order, whose rows together are the rebuilt rows
    grouped = 0
    for x, args, rows in rebuilt:
        blocks = [(lo, y, a, r) for y, a, r in forward if (lo := _first_image(y, x)) is not None]
        end = 0
        for lo, y, a, _ in blocks:
            assert lo == end and a == args, (lo, end, args)
            end += len(y)
        assert end == len(x)
        assert _same_bits(rows, np.concatenate([r for *_, r in blocks])), args
        grouped += len(blocks)
    assert grouped == len(forward)  # every forward block belongs to one saved input
    assert batch < 64 or len(forward) > convs  # at batch 64 some conv runs in several blocks


def test_no_conv_input_is_written_between_forward_and_backward(monkeypatch):
    saved = {}  # id of each conv input -> (the input, a copy made at forward)
    read = []  # whether each conv backward found its input's forward bytes
    conv_forward, conv_backward = autodiff._conv_forward, autodiff._conv_backward

    def copying_forward(x, *args):
        saved[id(x)] = (x, x.copy())
        return conv_forward(x, *args)

    def checking_backward(g, x, *args):
        kept, copy = saved[id(x)]
        read.append(kept is x and _same_bits(x, copy))
        return conv_backward(g, x, *args)

    monkeypatch.setattr(autodiff, "_conv_forward", copying_forward)
    monkeypatch.setattr(autodiff, "_conv_backward", checking_backward)
    config = train.TrainConfig()
    net = CapsuleNetwork(config.model, seed=0)
    adam = train.Adam(net.trainable(), config.learning_rate, config.weight_decay)
    rng = np.random.default_rng(15)
    views = rng.normal(size=(2, 16, 3, 32, 32)).astype(np.float32)
    with ThreadPoolExecutor(max_workers=1) as pool:
        loss, ahead = train._train_step(net, adam, config, None, views, 1, 0, pool, None)
    assert np.isfinite(loss) and ahead is None
    assert len(saved) == 14 and read == [True] * 14  # seven convs in each of two views
