"""The capsule votes have one layout: routing's [B, P, M, D].

``capsule_votes`` and ``class_capsules`` write the votes with one batched
GEMM per parent straight into the layout routing reads. They must give the
bits of ``votes_reference`` (one GEMM over every parent, then a layout
copy): votes, poses, every iteration's couplings, du and dw, in float32
and float64. ``capsule_votes`` returns a view of routing's layout, and
routing reads the votes as they are, so a view's forward peaks at most a
little above the graph it leaves.
"""

import numpy as np
import pytest

from ccaps import blas
from ccaps.autodiff import Tensor, capsule_votes, class_capsules, routing_by_agreement
from ccaps.model import CapsuleNetwork, ModelConfig
from tracemem import traced_bytes, traced_steps
from votes_reference import reference_class_capsules

# (B, M, P, D_in, D_out): the default model at three batches, then odd sizes
SHAPES = [
    (64, 512, 10, 16, 16),
    (128, 512, 10, 16, 16),
    (1, 512, 10, 16, 16),
    (2, 27, 4, 3, 5),
    (3, 7, 5, 4, 6),
    (2, 9, 1, 2, 3),
]


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("shape", SHAPES, ids=["x".join(map(str, s)) for s in SHAPES])
def test_the_vote_nodes_give_the_bits_of_one_gemm_then_a_layout_copy(shape, dtype):
    batch, children, parents, d_in, d_out = shape
    rng = np.random.default_rng(sum(shape))
    u0 = rng.normal(0.0, 0.5, size=(batch, children, d_in)).astype(dtype)
    w0 = rng.normal(0.0, 0.1, size=(parents, children, d_in, d_out)).astype(dtype)
    g = rng.normal(size=(batch, parents, d_out)).astype(dtype)
    ref_votes, ref_y, ref_couplings, ref_du, ref_dw = reference_class_capsules(u0, w0, 3, g)

    def chain(u, w):
        votes = capsule_votes(u, w)
        assert _same_bits(votes.data, ref_votes)
        assert votes.data.transpose(0, 2, 1, 3).flags.c_contiguous  # routing's layout, no copy
        return routing_by_agreement(votes, 3)

    for route in (lambda u, w: class_capsules(u, w, 3), chain):
        u, w = Tensor(u0, requires_grad=True), Tensor(w0, requires_grad=True)
        y, couplings = route(u, w)
        y.backward(g)
        assert _same_bits(y.data, ref_y)
        assert len(couplings) == 3
        for c, ref_c in zip(couplings, ref_couplings):
            assert _same_bits(c, ref_c)
        assert _same_bits(u.grad, ref_du) and _same_bits(w.grad, ref_dw)


def test_a_view_forward_peaks_less_than_half_a_vote_array_above_its_graph():
    # a second layout of the votes, or a copy pass routing makes, would be
    # a whole vote array alive on top of what the graph keeps
    config, batch = ModelConfig(), 16
    rng = np.random.default_rng(10)
    x = rng.normal(size=(batch, config.in_channels, config.image_size, config.image_size)).astype(np.float32)
    votes_bytes = batch * config.num_classes * config.num_primary_capsules * config.class_capsule_dim * 4
    net = CapsuleNetwork(config, seed=0)
    with blas.split(blas.thread_count()):  # one OpenBLAS thread
        held, peak = traced_bytes(lambda: net.forward(x, "train", 3))
    assert peak - held < votes_bytes / 2, (peak, held, votes_bytes)


def test_a_view_backward_peaks_less_than_one_and_a_half_vote_arrays_above_its_graph():
    # the vote gradient goes into the votes' own buffer in the vote GEMM's
    # layout, so neither a second vote-sized array nor a relayout of the
    # gradient is ever alive beside the votes
    config, batch = ModelConfig(), 16
    rng = np.random.default_rng(11)
    x = rng.normal(size=(batch, config.in_channels, config.image_size, config.image_size)).astype(np.float32)
    g = rng.normal(size=(batch, config.embedding_dim)).astype(np.float32)
    votes_bytes = batch * config.num_classes * config.num_primary_capsules * config.class_capsule_dim * 4
    net = CapsuleNetwork(config, seed=0)
    with blas.split(blas.thread_count()):  # one OpenBLAS thread
        (held, _), (_, peak) = traced_steps(
            lambda _: net.forward(x, "train", 3), lambda out: out.z.backward(g)
        )
    assert peak < held + 1.5 * votes_bytes, (peak / 2**20, held / 2**20, votes_bytes / 2**20)
