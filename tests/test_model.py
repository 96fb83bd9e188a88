"""Capsule network stages against shape math, loop oracles, and invariants."""

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccaps.autodiff import Tensor, capsule_votes, conv2d, routing_by_agreement, squash
from ccaps.checkpoint import canonical_json
from ccaps.model import CapsuleNetwork, ModelConfig
from routing_reference import reference_routing

TINY = ModelConfig(
    image_size=8,
    conv_channels=(4, 8),
    conv_strides=(1, 2),
    primary_channels=16,
    capsule_dim=4,
    num_classes=3,
    class_capsule_dim=4,
)


# -- config-derived shape math -------------------------------------------------


def test_default_spatial_sizes_follow_stride_pattern():
    cfg = ModelConfig()
    assert cfg.conv_spatial_sizes() == (32, 16, 16, 8, 8, 4)
    assert cfg.feature_grid == 4
    assert cfg.feature_dim == 128 * 4 * 4 == 2048
    assert cfg.num_primary_capsules == 512
    assert cfg.embedding_dim == 160


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(primary_channels=30, capsule_dim=16)
    with pytest.raises(ValueError):
        ModelConfig(conv_channels=(8, 8), conv_strides=(2,))
    with pytest.raises(ValueError):
        ModelConfig(image_size=4, padding=0, conv_strides=(2, 2, 2, 2, 2, 2))


def test_config_dict_round_trip():
    # the stored form: dataclasses.asdict through JSON, where tuples become lists
    stored = json.loads(canonical_json(asdict(TINY)))
    assert isinstance(stored["conv_channels"], list)
    assert ModelConfig(**stored) == TINY


# -- squash -------------------------------------------------------------------


def test_squash_at_origin_is_zero():
    out = squash(Tensor(np.zeros((5, 16))), axis=-1)
    np.testing.assert_array_equal(out.data, 0.0)


def test_squash_unit_norm_gives_half():
    v = np.zeros((1, 16))
    v[0, 3] = 1.0
    out = squash(Tensor(v), axis=-1).data
    assert np.linalg.norm(out) == pytest.approx(0.5, abs=1e-12)


def test_squash_large_norm_saturates():
    v = np.zeros((1, 8))
    v[0, 0] = 1e3
    norm = np.linalg.norm(squash(Tensor(v), axis=-1).data)
    assert abs(norm - 0.999999) < 1e-6


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_squash_norm_in_unit_interval_and_direction_preserved(seed):
    rng = np.random.default_rng(seed)
    s = rng.normal(0, rng.uniform(0.1, 30), size=(4, 8))
    v = squash(Tensor(s), axis=-1).data
    norms = np.linalg.norm(v, axis=-1)
    assert np.all(norms >= 0) and np.all(norms < 1)
    assert np.all((v * s).sum(axis=-1) >= 0)


def test_squash_matches_two_factor_form():
    rng = np.random.default_rng(0)
    s = rng.normal(size=(64, 16))
    v = squash(Tensor(s), axis=-1).data
    sq = (s**2).sum(axis=-1, keepdims=True)
    expected = (sq / (1 + sq)) * (s / np.sqrt(sq))
    np.testing.assert_allclose(v, expected, atol=1e-12)


# -- votes ---------------------------------------------------------------------


def test_votes_identity_blocks_copy_child_poses():
    children, parents, dim = 6, 4, 5
    u = np.random.default_rng(1).normal(size=(2, children, dim))
    w = np.zeros((parents, children, dim, dim))
    w[:, :] = np.eye(dim)
    votes = capsule_votes(Tensor(u), Tensor(w)).data
    for p in range(parents):
        np.testing.assert_allclose(votes[:, :, p, :], u, atol=1e-12)


def test_votes_zero_poses_give_zero():
    w = np.random.default_rng(2).normal(size=(3, 5, 4, 6))
    votes = capsule_votes(Tensor(np.zeros((2, 5, 4))), Tensor(w)).data
    np.testing.assert_array_equal(votes, 0.0)


def test_votes_match_triple_loop_oracle():
    rng = np.random.default_rng(3)
    u = rng.normal(size=(3, 7, 4))
    w = rng.normal(size=(5, 7, 4, 6))
    votes = capsule_votes(Tensor(u), Tensor(w)).data
    oracle = np.zeros((3, 7, 5, 6))
    for b in range(3):
        for m in range(7):
            for p in range(5):
                for o in range(6):
                    oracle[b, m, p, o] = sum(u[b, m, i] * w[p, m, i, o] for i in range(4))
    np.testing.assert_allclose(votes, oracle, atol=1e-10)


# -- dynamic routing -----------------------------------------------------------


def test_routing_rejects_zero_iterations():
    with pytest.raises(ValueError):
        routing_by_agreement(Tensor(np.zeros((1, 2, 3, 4))), 0)


def test_single_iteration_couplings_are_uniform():
    rng = np.random.default_rng(4)
    u_hat = Tensor(rng.normal(size=(2, 8, 10, 6)))
    _, (couplings,) = routing_by_agreement(u_hat, 1)
    np.testing.assert_allclose(couplings, 0.1, atol=1e-12)


def test_identical_votes_keep_couplings_uniform():
    rng = np.random.default_rng(5)
    per_child = rng.normal(size=(1, 6, 1, 4))
    u_hat = Tensor(np.repeat(per_child, 5, axis=2))  # same vote for every parent
    _, couplings = routing_by_agreement(u_hat, 4)
    for c in couplings:
        np.testing.assert_allclose(c, 1 / 5, atol=1e-12)


def test_coupling_simplex_after_every_iteration():
    rng = np.random.default_rng(6)
    u_hat = Tensor(rng.normal(size=(3, 12, 7, 5)))
    _, couplings = routing_by_agreement(u_hat, 5)
    assert len(couplings) == 5
    for c in couplings:
        assert np.all(c >= 0)
        np.testing.assert_allclose(c.sum(axis=2), 1.0, atol=1e-10)


def test_routing_matches_transcription_oracle_toy_size():
    rng = np.random.default_rng(7)
    u_hat = rng.normal(size=(4, 3, 5))  # 4 children, 3 parents
    y, couplings = routing_by_agreement(Tensor(u_hat[None]), 3)
    oy, _, oc = reference_routing(u_hat[None], 3)
    np.testing.assert_allclose(y.data, oy, atol=1e-10)
    for c, ref_c in zip(couplings, oc, strict=True):
        np.testing.assert_allclose(c, ref_c, atol=1e-10)


def test_routing_parent_permutation_equivariance():
    rng = np.random.default_rng(8)
    u_hat = rng.normal(size=(2, 6, 5, 4))
    perm = rng.permutation(5)
    y, couplings = routing_by_agreement(Tensor(u_hat), 3)
    yp, couplings_p = routing_by_agreement(Tensor(u_hat[:, :, perm, :]), 3)
    np.testing.assert_allclose(yp.data, y.data[:, perm, :], atol=1e-12)
    for cp, c in zip(couplings_p, couplings, strict=True):
        np.testing.assert_allclose(cp, c[:, :, perm], atol=1e-12)


# -- network stages ------------------------------------------------------------


def test_conv_block_output_shape_default():
    net = CapsuleNetwork(ModelConfig(), seed=0)
    x = np.random.default_rng(9).normal(size=(2, 3, 32, 32)).astype(np.float32)
    out = net.conv_block(Tensor(x), mode="eval")
    assert out.shape == (2, 128, 4, 4)


def test_conv_block_zero_input_zero_output():
    net = CapsuleNetwork(ModelConfig(), seed=0)
    out = net.conv_block(Tensor(np.zeros((2, 3, 32, 32), dtype=np.float32)), mode="eval")
    np.testing.assert_array_equal(out.data, 0.0)  # beta=0 running stats at init


def test_conv_block_train_rejects_batch_of_one():
    net = CapsuleNetwork(TINY, seed=0)
    with pytest.raises(ValueError):
        net.conv_block(Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32)), mode="train")


def test_conv_block_stays_channels_last_forward_and_backward(monkeypatch):
    # NCHW shapes over NHWC memory: a layer that hands back an NCHW buffer
    # makes every elementwise pass below it mix the two layouts. The six
    # conv-block layers are conv_bn_relu nodes and the seventh conv is the
    # PrimaryCaps conv2d: each is hooked for its input and output, its
    # backward for the gradient it gets and the input gradient it returns,
    # and the conv backward inside all seven for the gradient it gets.
    from ccaps import autodiff, model

    activations, node_grads, input_grads, conv_grads = [], [], [], []

    def recording(kernel):
        def node(x, *args, **kwargs):
            activations.append(("input", x.data))
            out = kernel(x, *args, **kwargs)
            activations.append(("output", out.data))
            inner = out._backward

            def bw(g):
                node_grads.append(g)
                grads = inner(g)
                input_grads.append(grads[0])
                return grads

            out._backward = bw
            return out

        return node

    conv_backward = autodiff._conv_backward

    def recording_conv_backward(g, *args):
        conv_grads.append(g)
        return conv_backward(g, *args)

    monkeypatch.setattr(model, "conv_bn_relu", recording(autodiff.conv_bn_relu))
    monkeypatch.setattr(model, "conv2d", recording(autodiff.conv2d))
    monkeypatch.setattr(autodiff, "_conv_backward", recording_conv_backward)
    net = CapsuleNetwork(ModelConfig(), seed=0)
    x = np.random.default_rng(11).normal(size=(2, 3, 32, 32)).astype(np.float32)
    out = net.conv_block(Tensor(x, requires_grad=True), mode="train", update_running=False)
    u = net.primary_caps(out)  # the PrimaryCaps conv is the seventh
    u.backward(2 * u.data)  # the gradient of sum(u ** 2)

    assert len(activations) == 2 * 7
    assert len(node_grads) == len(input_grads) == len(conv_grads) == 7
    for i, (what, a) in enumerate(activations[1:], start=1):  # [0] is the NCHW image batch
        assert a.transpose(0, 2, 3, 1).flags.c_contiguous, (i, what, a.shape)
    for g in conv_grads:
        assert g.transpose(0, 2, 3, 1).flags.c_contiguous, g.shape
    # a conv's input gradient is a view into the padded NHWC buffer of its
    # scatter, and so is the gradient the layer below it gets
    for g in node_grads + input_grads:
        strides = g.transpose(0, 2, 3, 1).strides
        assert strides[3] == g.itemsize and list(strides) == sorted(strides, reverse=True), g.shape


def test_primary_caps_norms_below_one_and_reshape_inverts():
    net = CapsuleNetwork(TINY, seed=1, dtype=np.float64)
    rng = np.random.default_rng(10)
    x = rng.normal(size=(3, 3, 8, 8))
    fmap = net.conv_block(Tensor(x), mode="eval")
    u = net.primary_caps(fmap)
    assert u.shape == (3, TINY.num_primary_capsules, TINY.capsule_dim)
    norms = np.linalg.norm(u.data, axis=-1)
    assert np.all(norms < 1.0)

    # the reshape is the index bijection: capsule g*G*G + i*G + j of image b
    # is channel group g of the capsule convolution at grid cell (i, j)
    conv_out = conv2d(fmap, net.params["primary.weight"], stride=1, padding=1).data
    grid, dim = TINY.feature_grid, TINY.capsule_dim
    for b in range(3):
        for g in range(TINY.capsule_groups):
            for i in range(grid):
                for j in range(grid):
                    pose = squash(Tensor(conv_out[b, g * dim : (g + 1) * dim, i, j])).data
                    np.testing.assert_allclose(
                        u.data[b, g * grid * grid + i * grid + j], pose, rtol=1e-12, atol=0
                    )


def test_forward_outputs_are_unit_norm():
    net = CapsuleNetwork(TINY, seed=2)
    x = np.random.default_rng(11).normal(size=(4, 3, 8, 8)).astype(np.float32)
    out = net.forward(x, mode="eval", routing_iterations=3)
    np.testing.assert_allclose(np.linalg.norm(out.h.data, axis=1), 1.0, atol=1e-6)
    np.testing.assert_allclose(np.linalg.norm(out.z.data, axis=1), 1.0, atol=1e-6)
    assert net.class_caps(net.primary_caps(net.conv_block(x, mode="eval")), 3).shape == (4, 3, 4)
    assert out.z.shape == (4, TINY.embedding_dim)


def test_identical_images_identical_embeddings():
    net = CapsuleNetwork(TINY, seed=3, dtype=np.float64)
    rng = np.random.default_rng(12)
    one = rng.normal(size=(1, 3, 8, 8))
    x = np.concatenate([one, one, rng.normal(size=(1, 3, 8, 8))])
    out = net.forward(x, mode="eval")
    np.testing.assert_allclose(out.z.data[0], out.z.data[1], atol=1e-12)


def test_eval_forward_is_batch_size_independent():
    net = CapsuleNetwork(TINY, seed=4, dtype=np.float64)
    rng = np.random.default_rng(13)
    x = rng.normal(size=(5, 3, 8, 8))
    full = net.forward(x, mode="eval")
    single = net.forward(x[2:3], mode="eval")
    np.testing.assert_allclose(single.z.data[0], full.z.data[2], atol=1e-6)
    np.testing.assert_allclose(single.h.data[0], full.h.data[2], atol=1e-6)


def test_eval_forward_leaves_running_stats_untouched():
    net = CapsuleNetwork(TINY, seed=5)
    before = {k: v.copy() for k, v in net.buffers.items()}
    x = np.random.default_rng(14).normal(size=(2, 3, 8, 8)).astype(np.float32)
    net.forward(x, mode="eval")
    for k, v in net.buffers.items():
        np.testing.assert_array_equal(v, before[k])


def test_train_forward_updates_running_stats_unless_frozen():
    net = CapsuleNetwork(TINY, seed=6)
    x = np.random.default_rng(15).normal(size=(4, 3, 8, 8)).astype(np.float32)
    before = net.buffers["conv1.bn.running_mean"].copy()
    net.forward(x, mode="train", update_running=False)
    np.testing.assert_array_equal(net.buffers["conv1.bn.running_mean"], before)
    net.forward(x, mode="train", update_running=True)
    assert not np.array_equal(net.buffers["conv1.bn.running_mean"], before)


def test_from_state_round_trips_and_validates():
    net = CapsuleNetwork(TINY, seed=7)
    state = net.state_arrays()
    clone = CapsuleNetwork.from_state(TINY, state)
    x = np.random.default_rng(16).normal(size=(2, 3, 8, 8)).astype(np.float32)
    a = net.forward(x, mode="eval").z.data
    b = clone.forward(x, mode="eval").z.data
    np.testing.assert_array_equal(a, b)

    for name, bad in (("conv1.bn.gamma", np.ones(1, np.float32)), ("primary.weight", state["primary.weight"].T)):
        with pytest.raises(ValueError, match=name):  # a (1,) gamma would broadcast silently
            CapsuleNetwork.from_state(TINY, {**state, name: bad})
    with pytest.raises(ValueError, match="conv1.weight"):
        CapsuleNetwork.from_state(TINY, {**state, "conv1.weight": state["conv1.weight"].astype(np.int64)})

    state.pop("conv1.weight")
    with pytest.raises(ValueError, match="missing"):
        CapsuleNetwork.from_state(TINY, state)


def test_parameter_init_is_seed_deterministic():
    a = CapsuleNetwork(TINY, seed=8).state_arrays()
    b = CapsuleNetwork(TINY, seed=8).state_arrays()
    c = CapsuleNetwork(TINY, seed=9).state_arrays()
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])
    assert any(not np.array_equal(a[k], c[k]) for k in a)
