"""The sequential Siamese training loop: the oracle for ``train.train``.

Each step runs view i, then view j, through one network on one thread,
joins both embeddings in one graph and calls ``loss.backward()`` once, so
every parameter's two per-view gradients are summed by the engine. Each
view runs ``forward_reference.chain_forward``, the chain of single-op
kernels, not ``net.forward`` and its layer nodes. The threaded step in
``train.train`` must give the same bytes.
"""

from __future__ import annotations

import numpy as np

from ccaps.augment import two_view_batch
from ccaps.autodiff import concat
from ccaps.data import batch_iterator, compute_normalization_stats, standardize, to_unit_interval
from ccaps.loss import nt_xent_op
from ccaps.model import CapsuleNetwork
from ccaps.rngstream import AUGMENT_STREAM, stream_rng
from ccaps.train import Adam
from forward_reference import chain_forward


def sequential_step(net, adam, config, stats, batch, epoch) -> float:
    rngs = [stream_rng(config.seed, AUGMENT_STREAM, epoch, int(i)) for i in batch.indices]
    views = two_view_batch(to_unit_interval(batch.images), rngs, config.augment)
    view_i, view_j = standardize(views, stats)
    iterations = config.routing_iterations
    out_i = chain_forward(net, view_i, mode="train", routing_iterations=iterations, update_running=True)
    out_j = chain_forward(net, view_j, mode="train", routing_iterations=iterations, update_running=False)
    loss = nt_xent_op(concat([out_i.z, out_j.z], axis=0), config.temperature)
    adam.zero_grad()
    loss.backward()
    adam.step()
    return float(loss.data)


def sequential_train(config, split) -> tuple[list[float], dict[str, np.ndarray]]:
    """Epoch losses and the final network and Adam arrays of a fresh run."""
    data = split.without_labels()
    stats = compute_normalization_stats(data)
    net = CapsuleNetwork(config.model, seed=config.seed)
    adam = Adam(net.trainable(), config.learning_rate, config.weight_decay)
    losses = []
    for epoch in range(1, config.epochs + 1):
        batches = batch_iterator(data, config.batch_size, shuffle=True, seed=config.seed, epoch=epoch)
        steps = [sequential_step(net, adam, config, stats, b, epoch) for b in batches if b.size >= 2]
        losses.append(float(np.mean(steps)))
    arrays = net.state_arrays()
    arrays.update(adam.state_arrays())
    return losses, arrays
