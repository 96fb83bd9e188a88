"""The capsule network: conv feature block, primary capsules, vote
prediction, dynamic routing by agreement, class capsules.

The default configuration (strides 1,2,1,2,1,2 over channels
3->16->32->32->64->64->128, then a 128->512 capsule convolution) maps a
32x32 input to a 4x4 grid, i.e. 512 child capsules of 16 dimensions and
ten 16-dimensional class capsules. Every stage is built from the
differentiable kernels in :mod:`ccaps.autodiff`, so one ``backward()``
call on a loss yields exact gradients through batch norm, squash and all
routing iterations.

Two embeddings come out of a forward pass:

* ``h`` - flattened, L2-normalized conv features, consumed by the kNN
  feature-bank evaluation;
* ``z`` - flattened, L2-normalized class-capsule poses, consumed by the
  contrastive loss.

Both normalizations make plain dot products cosine similarities, which is
what the loss and the evaluator assume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    batch_norm2d,
    capsule_votes,
    conv2d,
    l2_normalize,
    routing_by_agreement,
    squash,
)
from .rngstream import INIT_STREAM, stream_rng

__all__ = [
    "ModelConfig",
    "RoutingState",
    "ForwardOutput",
    "CapsuleNetwork",
    "dynamic_routing",
    "squash",
]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; every size below derives from these."""

    in_channels: int = 3
    image_size: int = 32
    conv_channels: tuple[int, ...] = (16, 32, 32, 64, 64, 128)
    conv_strides: tuple[int, ...] = (1, 2, 1, 2, 1, 2)
    kernel_size: int = 3
    padding: int = 1
    primary_channels: int = 512
    capsule_dim: int = 16
    num_classes: int = 10
    class_capsule_dim: int = 16
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5

    def __post_init__(self):
        object.__setattr__(self, "conv_channels", tuple(self.conv_channels))
        object.__setattr__(self, "conv_strides", tuple(self.conv_strides))
        if len(self.conv_channels) != len(self.conv_strides):
            raise ValueError("conv_channels and conv_strides must have equal length")
        if self.primary_channels % self.capsule_dim != 0:
            raise ValueError("primary_channels must be a multiple of capsule_dim")
        if min(self.conv_spatial_sizes()) < 1:
            raise ValueError("strides reduce the spatial size below 1x1")

    def conv_spatial_sizes(self) -> tuple[int, ...]:
        """Spatial size after each conv layer (square inputs)."""
        size = self.image_size
        sizes = []
        for stride in self.conv_strides:
            size = (size + 2 * self.padding - self.kernel_size) // stride + 1
            sizes.append(size)
        return tuple(sizes)

    @property
    def feature_grid(self) -> int:
        return self.conv_spatial_sizes()[-1]

    @property
    def feature_dim(self) -> int:
        """Length of the flattened conv feature vector h."""
        return self.conv_channels[-1] * self.feature_grid**2

    @property
    def capsule_groups(self) -> int:
        return self.primary_channels // self.capsule_dim

    @property
    def num_primary_capsules(self) -> int:
        return self.capsule_groups * self.feature_grid**2

    @property
    def embedding_dim(self) -> int:
        """Length of the flattened class-capsule vector z."""
        return self.num_classes * self.class_capsule_dim


@dataclass
class RoutingState:
    """Final routing-by-agreement state (plain arrays, detached).

    `couplings` are the coefficients that produced the returned parent
    poses; `coupling_history` holds the coefficients of every iteration so
    invariants can be checked per step.
    """

    logits: np.ndarray  # b, [B, children, parents]
    couplings: np.ndarray  # c of the final iteration, same shape
    coupling_history: tuple[np.ndarray, ...] = ()


@dataclass
class ForwardOutput:
    h: Tensor  # [B, feature_dim], unit rows
    y: Tensor  # [B, num_classes, class_capsule_dim]
    z: Tensor  # [B, embedding_dim], unit rows
    routing: RoutingState


def dynamic_routing(u_hat: Tensor, iterations: int) -> tuple[Tensor, RoutingState]:
    """Routing by agreement over votes [B, children, parents, dim].

    Logits start at zero on every call. Each iteration takes the softmax
    over the parent axis (each child distributes its output across
    parents), forms coupling-weighted vote sums, squashes them into parent
    poses, and raises the logit of every child-parent pair whose vote
    agrees with the parent pose. All iterations run as one
    :func:`~ccaps.autodiff.routing_by_agreement` node, whose hand-derived
    backward carries gradients through every iteration.
    """
    y, logits, history = routing_by_agreement(u_hat, iterations)
    return y, RoutingState(logits=logits, couplings=history[-1], coupling_history=history)


def _init_arrays(config: ModelConfig, seed: int, dtype) -> dict[str, np.ndarray]:
    """Fan-in scaled normal init for weights; identity init for batch norm."""
    rng = stream_rng(seed, INIT_STREAM)
    k = config.kernel_size
    arrays: dict[str, np.ndarray] = {}
    in_c = config.in_channels
    for i, out_c in enumerate(config.conv_channels, start=1):
        std = np.sqrt(2.0 / (in_c * k * k))
        arrays[f"conv{i}.weight"] = rng.normal(0.0, std, size=(out_c, in_c, k, k))
        arrays[f"conv{i}.bn.gamma"] = np.ones(out_c)
        arrays[f"conv{i}.bn.beta"] = np.zeros(out_c)
        arrays[f"conv{i}.bn.running_mean"] = np.zeros(out_c)
        arrays[f"conv{i}.bn.running_var"] = np.ones(out_c)
        in_c = out_c
    std = np.sqrt(2.0 / (in_c * k * k))
    arrays["primary.weight"] = rng.normal(
        0.0, std, size=(config.primary_channels, in_c, k, k)
    )
    arrays["class_caps.weight"] = rng.normal(
        0.0,
        1.0 / np.sqrt(config.capsule_dim),
        size=(
            config.num_classes,
            config.num_primary_capsules,
            config.capsule_dim,
            config.class_capsule_dim,
        ),
    )
    return {name: arr.astype(dtype) for name, arr in arrays.items()}


class CapsuleNetwork:
    """Parameter store plus the forward pipeline.

    One instance owns a single parameter set; Siamese training is two
    forward calls against the same instance. Eval-mode forwards are pure
    (running statistics are never touched), so concurrent readers are safe.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        arrays = _init_arrays(config, seed, self.dtype)
        self._adopt(arrays)

    @classmethod
    def from_state(cls, config: ModelConfig, arrays: dict[str, np.ndarray]) -> "CapsuleNetwork":
        net = cls.__new__(cls)
        net.config = config
        expected = set(_init_arrays(config, 0, np.float32))
        if set(arrays) != expected:
            missing = expected - set(arrays)
            extra = set(arrays) - expected
            raise ValueError(f"state mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        net.dtype = np.dtype(arrays["conv1.weight"].dtype)
        net._adopt({k: np.array(v) for k, v in arrays.items()})
        return net

    def _adopt(self, arrays: dict[str, np.ndarray]) -> None:
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, np.ndarray] = {}
        for name, arr in arrays.items():
            if name.endswith(("running_mean", "running_var")):
                self.buffers[name] = arr
            else:
                self.params[name] = Tensor(arr, requires_grad=True)

    # -- state ------------------------------------------------------------

    def trainable(self) -> dict[str, Tensor]:
        return dict(self.params)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Copies of every parameter and buffer, keyed by canonical name."""
        out = {name: t.data.copy() for name, t in self.params.items()}
        out.update({name: arr.copy() for name, arr in self.buffers.items()})
        return out

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    # -- stages -----------------------------------------------------------

    def conv_block(self, x, mode: str = "eval", update_running: bool = True) -> Tensor:
        """Six conv -> batch norm -> relu stages; returns the feature map."""
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        t = x if isinstance(x, Tensor) else Tensor(x)
        if t.shape[1] != self.config.in_channels:
            raise ValueError(f"expected {self.config.in_channels} input channels, got {t.shape[1]}")
        training = mode == "train"
        for i, stride in enumerate(self.config.conv_strides, start=1):
            t = conv2d(t, self.params[f"conv{i}.weight"], stride=stride, padding=self.config.padding)
            t = batch_norm2d(
                t,
                self.params[f"conv{i}.bn.gamma"],
                self.params[f"conv{i}.bn.beta"],
                self.buffers[f"conv{i}.bn.running_mean"],
                self.buffers[f"conv{i}.bn.running_var"],
                training=training,
                momentum=self.config.bn_momentum,
                eps=self.config.bn_eps,
                update_running=update_running,
            )
            t = t.relu()
        return t

    def primary_caps(self, feature_map: Tensor) -> Tensor:
        """Capsule convolution, then group channels into squashed pose vectors.

        [B, C, G, G] -> conv -> [B, primary_channels, G, G]
        -> [B, groups, dim, G, G] -> [B, groups*G*G, dim] -> squash.
        """
        cfg = self.config
        t = conv2d(feature_map, self.params["primary.weight"], stride=1, padding=cfg.padding)
        batch, _, grid_h, grid_w = t.shape
        if (grid_h, grid_w) != (cfg.feature_grid, cfg.feature_grid):
            raise ValueError(f"unexpected primary grid {grid_h}x{grid_w}")
        u = (
            t.reshape(batch, cfg.capsule_groups, cfg.capsule_dim, grid_h, grid_w)
            .transpose(0, 1, 3, 4, 2)
            .reshape(batch, cfg.num_primary_capsules, cfg.capsule_dim)
        )
        return squash(u, axis=-1)

    def class_caps(self, u: Tensor, routing_iterations: int) -> tuple[Tensor, RoutingState]:
        """Child poses [B, M, D] -> class capsules [B, classes, class_dim].

        Votes come from one batched GEMM (:func:`capsule_votes`); routing
        is the single fused node behind :func:`dynamic_routing`.
        """
        u_hat = capsule_votes(u, self.params["class_caps.weight"])
        return dynamic_routing(u_hat, routing_iterations)

    def forward(
        self,
        x,
        mode: str = "eval",
        routing_iterations: int = 3,
        update_running: bool = True,
    ) -> ForwardOutput:
        feature_map = self.conv_block(x, mode=mode, update_running=update_running)
        batch = feature_map.shape[0]
        h = l2_normalize(feature_map.reshape(batch, self.config.feature_dim), axis=1)
        u = self.primary_caps(feature_map)
        y, state = self.class_caps(u, routing_iterations)
        z = l2_normalize(y.reshape(batch, self.config.embedding_dim), axis=1)
        return ForwardOutput(h=h, y=y, z=z, routing=state)
