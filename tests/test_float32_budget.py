"""How far a float32 training step is from the same step in float64.

One default-model Siamese step at batch 64 (two augmented views, NT-Xent
at tau = 0.2, both views in one graph) runs in float64 and in float32 from
the same initial arrays, cast through ``CapsuleNetwork.from_state``, on the
same views. The relative L2 error of the float32 ``h``, ``z``, loss and
every parameter gradient is checked against the reference below, measured
on the kernels as they are. A kernel change that keeps every bit
reproduces it; one that changes float32 bits reports its own errors, and
the bound is set from this reference.
"""

import numpy as np
import pytest

from ccaps import train
from ccaps.autodiff import concat
from ccaps.data import Batch, DatasetSplit, compute_normalization_stats
from ccaps.loss import nt_xent_op
from ccaps.model import CapsuleNetwork
from synth import synthetic_images

# relative L2 error of each float32 result, to two significant digits
REFERENCE = {
    "h": 5.6e-06,
    "z": 6.3e-06,
    "loss": 5.5e-08,
    "conv1.weight.grad": 0.0014,
    "conv1.bn.gamma.grad": 0.0011,
    "conv1.bn.beta.grad": 0.0012,
    "conv2.weight.grad": 0.0013,
    "conv2.bn.gamma.grad": 0.00098,
    "conv2.bn.beta.grad": 0.0009,
    "conv3.weight.grad": 0.0012,
    "conv3.bn.gamma.grad": 0.0016,
    "conv3.bn.beta.grad": 0.001,
    "conv4.weight.grad": 0.0015,
    "conv4.bn.gamma.grad": 7.4e-06,
    "conv4.bn.beta.grad": 0.0012,
    "conv5.weight.grad": 9.8e-06,
    "conv5.bn.gamma.grad": 1.2e-05,
    "conv5.bn.beta.grad": 9.3e-06,
    "conv6.weight.grad": 1e-05,
    "conv6.bn.gamma.grad": 1.2e-05,
    "conv6.bn.beta.grad": 8.2e-06,
    "primary.weight.grad": 1.1e-05,
    "class_caps.weight.grad": 1.1e-05,
}
# an error may sit this factor above its reference (worse accuracy) or
# below it (a stale reference, or a step that did not run in float32)
FACTOR = 2.0


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


@pytest.fixture(scope="module")
def errors() -> dict[str, float]:
    config = train.TrainConfig()
    assert config.temperature == 0.2
    arrays = CapsuleNetwork(config.model, seed=config.seed).state_arrays()
    views = _views(config)
    exact = _step(config, arrays, views, np.float64)
    single = _step(config, arrays, views, np.float32)
    return {
        name: float(np.linalg.norm(single[name] - exact[name]) / np.linalg.norm(exact[name]))
        for name in exact
    }


def test_the_reference_names_every_result(errors):
    assert set(errors) == set(REFERENCE)


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_a_float32_step_stays_within_its_error_budget(errors, name):
    assert REFERENCE[name] / FACTOR <= errors[name] <= REFERENCE[name] * FACTOR, errors[name]
