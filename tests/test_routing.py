"""The fused routing node against the plain-numpy reference, in float64."""

import numpy as np
import pytest

from ccaps.autodiff import Tensor, routing_by_agreement
from ccaps.model import CapsuleNetwork, ModelConfig
from gradcheck import check_grad, finite_difference
from routing_reference import reference_routing

# fourth-order differences of the oracle agree with the node to ~3e-11 here
STEP = 1e-4


def _fused(u_hat: np.ndarray, proj: np.ndarray, iterations: int):
    t = Tensor(u_hat.copy(), requires_grad=True)
    y, couplings = routing_by_agreement(t, iterations)
    y.backward(proj)
    return y.data, couplings, t.grad


def _reference_grad(u_hat: np.ndarray, proj: np.ndarray, iterations: int) -> np.ndarray:
    def loss(arr):
        return float((reference_routing(arr, iterations)[0] * proj).sum())

    return finite_difference(loss, u_hat.copy(), step=STEP)


@pytest.mark.parametrize("iterations", [1, 2, 3, 5])
def test_fused_routing_matches_generic_reference(iterations):
    rng = np.random.default_rng(100 + iterations)
    u_hat = rng.normal(size=(3, 24, 6, 5))
    proj = rng.normal(size=(3, 6, 5))
    y, couplings, grad = _fused(u_hat, proj, iterations)
    ref_y, _, ref_couplings = reference_routing(u_hat, iterations)

    np.testing.assert_allclose(y, ref_y, rtol=0, atol=1e-12)
    # coupling t is the softmax of the logits after t - 1 agreement updates
    assert len(couplings) == len(ref_couplings) == iterations
    for c, ref_c in zip(couplings, ref_couplings):
        np.testing.assert_allclose(c, ref_c, rtol=0, atol=1e-12)
        assert not c.flags.owndata  # a view of what the backward keeps, not a copy
    np.testing.assert_allclose(grad, _reference_grad(u_hat, proj, iterations), rtol=0, atol=1e-10)


def test_routing_node_grads_match_central_differences():
    rng = np.random.default_rng(200)
    u_hat = rng.normal(size=(2, 5, 3, 4))
    proj = rng.normal(size=(2, 3, 4))
    check_grad(lambda t: routing_by_agreement(t, 3)[0], u_hat, proj, rtol=1e-5)


def test_parent_with_all_zero_votes_has_finite_gradients():
    rng = np.random.default_rng(300)
    u_hat = rng.normal(size=(2, 8, 4, 5))
    u_hat[:, :, 1, :] = 0.0  # squash sees s = 0 for parent 1 in every iteration
    proj = rng.normal(size=(2, 4, 5))
    y, _, grad = _fused(u_hat, proj, 3)
    ref_y = reference_routing(u_hat, 3)[0]
    ref_grad = _reference_grad(u_hat, proj, 3)
    np.testing.assert_allclose(y, ref_y, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(y[:, 1], 0.0)
    assert np.all(np.isfinite(grad))
    # the zero votes' gradient is zero: squash'(0) = 0 and y = 0 there; squash
    # is only once differentiable at 0, so the differences are O(STEP) there
    zero = np.zeros(u_hat.shape, dtype=bool)
    zero[:, :, 1] = True
    np.testing.assert_array_equal(grad[zero], 0.0)
    np.testing.assert_allclose(ref_grad[zero], 0.0, rtol=0, atol=STEP)
    np.testing.assert_allclose(grad[~zero], ref_grad[~zero], rtol=0, atol=1e-10)


def test_eval_forward_records_routing_node_for_trainable_weights():
    config = ModelConfig(
        image_size=8, conv_channels=(4, 8), conv_strides=(1, 2), primary_channels=8,
        capsule_dim=4, num_classes=3, class_capsule_dim=4,
    )
    net = CapsuleNetwork(config, seed=0, dtype=np.float64)
    rng = np.random.default_rng(400)
    x = rng.normal(size=(2, 3, 8, 8))
    y = net.class_caps(net.primary_caps(net.conv_block(x, mode="eval")), 3)
    assert y._parents and y._backward is not None
    y.backward(rng.normal(size=y.shape))
    grad = net.params["class_caps.weight"].grad
    assert grad is not None and np.any(grad != 0)
