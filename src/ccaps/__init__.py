"""Contrastive capsule networks: self-supervised training and evaluation.

A Siamese capsule network (conv feature block, primary capsules, dynamic
routing by agreement) trained with a temperature-scaled contrastive loss
on unlabeled images, evaluated with weighted-kNN voting over a feature
bank, plus an exact parameter/FLOP profiler. Built on numpy with its own
reverse-mode kernels; see the CLI (`ccaps`) for the operator surface.

Each job has one entry point, the one the program itself runs: `train`
(also to resume, via `resume_from`), `nt_xent_op` for the loss,
`standardize(to_unit_interval(pixels), stats)` for input conditioning,
`evaluate` for kNN accuracy, and `count_params`/`count_flops` for the
profile.
"""

from .augment import AugmentConfig, two_view_batch, two_views
from .autodiff import Tensor, squash
from .data import (
    DataError,
    DatasetSplit,
    NormalizationStats,
    batch_iterator,
    compute_normalization_stats,
    load_cifar10_binary,
    memory_view,
    standardize,
    to_unit_interval,
)
from .knn import (
    EvalConfig,
    EvalResult,
    FeatureBank,
    build_feature_bank,
    evaluate,
    weighted_knn_predict,
)
from .loss import nt_xent_op
from .model import (
    CapsuleNetwork,
    ForwardOutput,
    ModelConfig,
    RoutingState,
    dynamic_routing,
)
from .profiler import count_flops, count_params, layer_reports
from .train import (
    Adam,
    CheckpointRecord,
    MetricsRow,
    TrainConfig,
    TrainResult,
    train,
)

__version__ = "0.1.0"
