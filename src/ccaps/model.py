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

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    class_capsules,
    conv2d,
    conv_bn_relu,
    l2_normalize,
    routing_by_agreement,
    squash,
)
from .rngstream import INIT_STREAM, stream_rng

__all__ = [
    "ModelConfig",
    "ForwardOutput",
    "CapsuleNetwork",
    "dynamic_routing",
]


_SIZE_FIELDS = (
    "in_channels", "image_size", "kernel_size", "primary_channels",
    "capsule_dim", "num_classes", "class_capsule_dim",
)


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
        if not self.conv_channels or len(self.conv_channels) != len(self.conv_strides):
            raise ValueError("conv_channels and conv_strides must be non-empty and of equal length")
        # every value is checked before the first division, so a bad stored
        # config raises ValueError here and nothing else later
        bounds = [(name, getattr(self, name), 1) for name in _SIZE_FIELDS]
        bounds += [(f"conv_channels[{i}]", c, 1) for i, c in enumerate(self.conv_channels)]
        bounds += [(f"conv_strides[{i}]", s, 1) for i, s in enumerate(self.conv_strides)]
        bounds.append(("padding", self.padding, 0))
        for name, value, least in bounds:
            if not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not (self.bn_eps > 0 and math.isfinite(self.bn_eps)):
            raise ValueError(f"bn_eps must be positive and finite, got {self.bn_eps!r}")
        if not 0 <= self.bn_momentum <= 1:
            raise ValueError(f"bn_momentum must be in [0, 1], got {self.bn_momentum!r}")
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
class ForwardOutput:
    h: Tensor  # [B, feature_dim], unit rows
    z: Tensor  # [B, embedding_dim], unit rows


def dynamic_routing(u_hat: Tensor, iterations: int) -> tuple[Tensor, tuple[np.ndarray, ...]]:
    """:func:`~ccaps.autodiff.routing_by_agreement`, under the name the
    benchmark's step replica calls; nothing in the package calls it."""
    return routing_by_agreement(u_hat, iterations)


def _state_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter and buffer, in init order."""
    k = config.kernel_size
    shapes: dict[str, tuple[int, ...]] = {}
    in_c = config.in_channels
    for i, out_c in enumerate(config.conv_channels, start=1):
        shapes[f"conv{i}.weight"] = (out_c, in_c, k, k)
        for name in ("gamma", "beta", "running_mean", "running_var"):
            shapes[f"conv{i}.bn.{name}"] = (out_c,)
        in_c = out_c
    shapes["primary.weight"] = (config.primary_channels, in_c, k, k)
    shapes["class_caps.weight"] = (
        config.num_classes,
        config.num_primary_capsules,
        config.capsule_dim,
        config.class_capsule_dim,
    )
    return shapes


def _init_arrays(config: ModelConfig, seed: int, dtype) -> dict[str, np.ndarray]:
    """Fan-in scaled normal init for weights; identity init for batch norm."""
    rng = stream_rng(seed, INIT_STREAM)
    arrays: dict[str, np.ndarray] = {}
    for name, shape in _state_shapes(config).items():
        if name.endswith(("gamma", "running_var")):
            arr = np.ones(shape)
        elif name.endswith(("beta", "running_mean")):
            arr = np.zeros(shape)
        elif name == "class_caps.weight":
            arr = rng.normal(0.0, 1.0 / np.sqrt(config.capsule_dim), size=shape)
        else:  # conv weight [out, in, k, k]: fan-in is in * k * k
            arr = rng.normal(0.0, np.sqrt(2.0 / math.prod(shape[1:])), size=shape)
        arrays[name] = arr.astype(dtype)
    return arrays


class CapsuleNetwork:
    """Parameter store plus the forward pipeline.

    One instance owns a single parameter set. Siamese training runs the
    second view through :meth:`twin`, so the two views can run at once.
    Eval-mode forwards are pure (running statistics are never touched), so
    concurrent readers are safe.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        arrays = _init_arrays(config, seed, dtype)
        self._adopt(arrays)

    @classmethod
    def from_state(cls, config: ModelConfig, arrays: dict[str, np.ndarray]) -> "CapsuleNetwork":
        net = cls.__new__(cls)
        net.config = config
        expected = _state_shapes(config)
        if set(arrays) != set(expected):
            missing = set(expected) - set(arrays)
            extra = set(arrays) - set(expected)
            raise ValueError(f"state mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, arr in arrays.items():
            arr = np.asarray(arr)
            if arr.shape != expected[name] or arr.dtype.kind != "f":
                raise ValueError(f"state {name!r}: {arr.dtype} {arr.shape}, expected float {expected[name]}")
        dtypes = sorted({str(np.asarray(arr).dtype) for arr in arrays.values()})
        if len(dtypes) > 1:  # one network runs in one precision
            raise ValueError(f"state arrays mix dtypes {dtypes}; they must share one")
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

    def twin(self) -> "CapsuleNetwork":
        """A network over this one's parameter arrays and running buffers,
        with its own leaf Tensors, so its gradients land apart from ours.

        Run it with ``update_running=False``: a train-mode forward then
        neither reads nor writes the shared buffers.
        """
        twin = CapsuleNetwork.__new__(CapsuleNetwork)
        twin.config = self.config
        twin.params = {name: Tensor(t.data, requires_grad=True) for name, t in self.params.items()}
        twin.buffers = self.buffers
        return twin

    # -- state ------------------------------------------------------------

    def trainable(self) -> dict[str, Tensor]:
        return dict(self.params)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Copies of every parameter and buffer, keyed by canonical name."""
        out = {name: t.data.copy() for name, t in self.params.items()}
        out.update({name: arr.copy() for name, arr in self.buffers.items()})
        return out

    # -- stages -----------------------------------------------------------

    def conv_block(self, x, mode: str = "eval", update_running: bool = True) -> Tensor:
        """Six conv -> batch norm -> relu layers, one :func:`conv_bn_relu`
        node each; returns the feature map."""
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        t = x if isinstance(x, Tensor) else Tensor(x)
        if t.shape[1] != self.config.in_channels:
            raise ValueError(f"expected {self.config.in_channels} input channels, got {t.shape[1]}")
        for i, stride in enumerate(self.config.conv_strides, start=1):
            t = conv_bn_relu(
                t,
                self.params[f"conv{i}.weight"],
                self.params[f"conv{i}.bn.gamma"],
                self.params[f"conv{i}.bn.beta"],
                self.buffers[f"conv{i}.bn.running_mean"],
                self.buffers[f"conv{i}.bn.running_var"],
                training=mode == "train",
                stride=stride,
                padding=self.config.padding,
                momentum=self.config.bn_momentum,
                eps=self.config.bn_eps,
                update_running=update_running,
            )
        return t

    def primary_caps(self, feature_map: Tensor) -> Tensor:
        """Capsule convolution, then group channels into squashed pose vectors.

        [B, C, G, G] -> conv -> [B, primary_channels, G, G]
        -> [B, groups, dim, G, G] -> [B, groups*G*G, dim] -> squash.
        The regrouping reads the conv output's NHWC memory, so it copies
        once, and hands the conv an NHWC gradient.
        """
        cfg = self.config
        t = conv2d(feature_map, self.params["primary.weight"], stride=1, padding=cfg.padding)
        batch, _, grid_h, grid_w = t.shape
        if (grid_h, grid_w) != (cfg.feature_grid, cfg.feature_grid):
            raise ValueError(f"unexpected primary grid {grid_h}x{grid_w}")
        u = (
            t.transpose(0, 2, 3, 1)
            .reshape(batch, grid_h, grid_w, cfg.capsule_groups, cfg.capsule_dim)
            .transpose(0, 3, 1, 2, 4)
            .reshape(batch, cfg.num_primary_capsules, cfg.capsule_dim)
        )
        return squash(u, axis=-1)

    def class_caps(self, u: Tensor, routing_iterations: int) -> Tensor:
        """Child poses [B, M, D] -> class capsules [B, classes, class_dim].

        Votes (one batched GEMM per class, in routing's layout) and routing
        by agreement are the single node :func:`class_capsules`.
        """
        return class_capsules(u, self.params["class_caps.weight"], routing_iterations)[0]

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
        y = self.class_caps(u, routing_iterations)
        z = l2_normalize(y.reshape(batch, self.config.embedding_dim), axis=1)
        return ForwardOutput(h=h, z=z)
