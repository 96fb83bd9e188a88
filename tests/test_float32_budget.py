"""How far a float32 training step is from the same step in float64.

One default-model Siamese step at batch 64 (two augmented views, NT-Xent
at tau = 0.2, both views in one graph) runs in float32 and in float64 from
the same initial arrays, cast through ``CapsuleNetwork.from_state``, on the
same views. The relative L2 error of the float32 ``h``, ``z``, loss and
every parameter gradient is checked against the reference below, measured
on the kernels as they are. A kernel change that keeps every bit
reproduces it; one that changes float32 bits reports its own errors, and
the bound is set from this reference.

The float64 step follows the float32 step's ReLU masks: where a float32
layer output is 0 the float64 one is set to 0, and where the float32 one is
positive and the float64 one is not, it takes the float32 value (``y`` is
what the layer's backward masks by, so both passes follow). Without that,
one element whose pre-activation lies within rounding of 0 switches a
mask, and its kink, not rounding, sets the errors of every gradient below
it: one such element in layer 4 put 11 of the 20 gradients at ~1e-3
against ~1e-5, and which elements flip changes with every draw and every
kernel change. The flipped masks are counted per layer as a reading of
their own.
"""

import numpy as np
import pytest

from ccaps import model, train
from ccaps.autodiff import concat
from ccaps.data import Batch, DatasetSplit, compute_normalization_stats
from ccaps.loss import nt_xent_op
from ccaps.model import CapsuleNetwork
from synth import synthetic_images

# relative L2 error of each float32 result against the mask-following
# float64 step, to two significant digits
REFERENCE = {
    "h": 5.6e-06,
    "z": 6.3e-06,
    "loss": 5.4e-08,
    "conv1.weight.grad": 9.8e-06,
    "conv1.bn.gamma.grad": 8.2e-06,
    "conv1.bn.beta.grad": 1.1e-05,
    "conv2.weight.grad": 9.7e-06,
    "conv2.bn.gamma.grad": 1.4e-05,
    "conv2.bn.beta.grad": 1.1e-05,
    "conv3.weight.grad": 9.6e-06,
    "conv3.bn.gamma.grad": 1.2e-05,
    "conv3.bn.beta.grad": 1.1e-05,
    "conv4.weight.grad": 9.9e-06,
    "conv4.bn.gamma.grad": 7.4e-06,
    "conv4.bn.beta.grad": 7.9e-06,
    "conv5.weight.grad": 9.8e-06,
    "conv5.bn.gamma.grad": 1.2e-05,
    "conv5.bn.beta.grad": 9.3e-06,
    "conv6.weight.grad": 1e-05,
    "conv6.bn.gamma.grad": 1.2e-05,
    "conv6.bn.beta.grad": 8.3e-06,
    "primary.weight.grad": 1.1e-05,
    "class_caps.weight.grad": 1.1e-05,
}
# an error may sit this factor above its reference (worse accuracy) or
# below it (a stale reference, or a step that did not run in float32)
FACTOR = 2.0
# most ReLU masks of a layer's two view outputs that may differ between the
# steps; this draw flips one, in conv4 (the views of seeds 17-24 flipped
# 1-5 a step, in layers 1-6). A less accurate forward flips more.
MOST_FLIPS = 4


def _views(config: train.TrainConfig) -> np.ndarray:
    """The step's two float32 views of 64 synthetic images, as training makes them."""
    rng = np.random.default_rng(17)
    split = DatasetSplit(synthetic_images(np.arange(64) % 10, rng), None, "train")
    batch = Batch(indices=np.arange(64), images=split.images)
    return train._two_view_batch((1, 0, batch), config, compute_normalization_stats(split))


def _step(config: train.TrainConfig, arrays, views, dtype) -> dict[str, np.ndarray]:
    """h, z and the loss of one step at `dtype`, and every parameter's gradient."""
    net = CapsuleNetwork.from_state(config.model, {k: a.astype(dtype) for k, a in arrays.items()})
    iterations = config.routing_iterations
    out_i = net.forward(views[0].astype(dtype), "train", iterations, update_running=True)
    out_j = net.forward(views[1].astype(dtype), "train", iterations, update_running=False)
    loss = nt_xent_op(concat([out_i.z, out_j.z], axis=0), config.temperature)
    loss.backward()
    results = {
        "h": np.concatenate([out_i.h.data, out_j.h.data]),
        "z": np.concatenate([out_i.z.data, out_j.z.data]),
        "loss": loss.data,
    }
    results.update({f"{name}.grad": t.grad for name, t in net.params.items()})
    assert all(a.dtype == dtype for a in results.values())
    return results


class _FollowMasks:
    """``conv_bn_relu`` as the network calls it: in the float32 step it keeps
    each call's output; in the float64 step, called in the same order, it
    gives each output the float32 output's ReLU mask and counts, per layer,
    the elements whose mask it changed."""

    def __init__(self, conv_bn_relu, layers: int):
        self.conv_bn_relu, self.layers = conv_bn_relu, layers
        self.outputs: list[np.ndarray] = []
        self.calls = 0
        self.flips = {f"conv{i}": 0 for i in range(1, layers + 1)}

    def __call__(self, *args, **kwargs):
        out = self.conv_bn_relu(*args, **kwargs)
        y = out.data  # the buffer the node's backward masks by
        if y.dtype == np.float32:
            self.outputs.append(y.copy())
            return out
        y32 = self.outputs[self.calls]
        on32, on64 = y32 > 0, y > 0
        self.flips[f"conv{self.calls % self.layers + 1}"] += int(np.count_nonzero(on32 != on64))
        y[~on32] = 0
        y[on32 & ~on64] = y32[on32 & ~on64]
        self.calls += 1
        return out


@pytest.fixture(scope="module")
def measured() -> tuple[dict[str, float], dict[str, int]]:
    """(relative error of each float32 result, flipped masks per layer)."""
    config = train.TrainConfig()
    assert config.temperature == 0.2
    arrays = CapsuleNetwork(config.model, seed=config.seed).state_arrays()
    views = _views(config)
    masks = _FollowMasks(model.conv_bn_relu, len(config.model.conv_channels))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "conv_bn_relu", masks)
        single = _step(config, arrays, views, np.float32)
        exact = _step(config, arrays, views, np.float64)
    assert masks.calls == len(masks.outputs) == 2 * masks.layers
    errors = {
        name: float(np.linalg.norm(single[name] - exact[name]) / np.linalg.norm(exact[name]))
        for name in exact
    }
    return errors, masks.flips


@pytest.fixture(scope="module")
def errors(measured) -> dict[str, float]:
    return measured[0]


def test_the_reference_names_every_result(errors):
    assert set(errors) == set(REFERENCE)


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_a_float32_step_stays_within_its_error_budget(errors, name):
    assert REFERENCE[name] / FACTOR <= errors[name] <= REFERENCE[name] * FACTOR, errors[name]


@pytest.mark.parametrize("layer", [f"conv{i}" for i in range(1, 7)])
def test_a_float32_step_flips_few_relu_masks(measured, layer):
    flips = measured[1]
    assert flips[layer] <= MOST_FLIPS, flips
