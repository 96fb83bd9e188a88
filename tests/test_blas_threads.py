"""The bytes do not depend on how many threads OpenBLAS runs.

One default-model view (forward, and backward of the embedding, at batch
64) and feature extraction over 256 images must give the same bytes on one
OpenBLAS thread as on the host's count. The view runs directly, not
through ``train``: a training step gives each of its two views half the
threads, so on a two-thread host both runs would use one thread per view.
"""

import hashlib

import numpy as np
import pytest

from ccaps import blas
from ccaps.autodiff import Tensor
from ccaps.data import DatasetSplit, compute_normalization_stats
from ccaps.knn import extract_features
from ccaps.model import CapsuleNetwork, ModelConfig
from synth import synthetic_images


def _digests() -> dict[str, str]:
    """sha256 of the view's outputs, gradients and running statistics, and
    of the features extracted after it."""
    config = ModelConfig()
    rng = np.random.default_rng(12)
    net = CapsuleNetwork(config, seed=0)
    x = Tensor(rng.normal(size=(64, config.in_channels, 32, 32)).astype(np.float32), requires_grad=True)
    out = net.forward(x, "train", 3)
    out.z.backward(rng.normal(size=out.z.shape).astype(np.float32))
    arrays = {"h": out.h.data, "z": out.z.data, "input.grad": x.grad, **net.buffers}
    arrays.update({f"{name}.grad": t.grad for name, t in net.params.items()})
    split = DatasetSplit(synthetic_images(np.arange(256) % 10, rng), None, "memory")
    arrays["features"] = extract_features(net, split, compute_normalization_stats(split))
    return {name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in arrays.items()}


@pytest.mark.skipif(blas.openblas_threads() is None, reason="needs a loaded OpenBLAS")
def test_a_view_and_an_extraction_give_the_same_bytes_on_one_blas_thread_and_on_all():
    host = blas.thread_count()
    if host == 1:
        pytest.skip("OpenBLAS runs one thread on this host")
    with blas.split(host):  # one thread
        assert blas.thread_count() == 1
        one = _digests()
    assert blas.thread_count() == host
    assert _digests() == one
