"""Contrastive capsule networks: self-supervised training and evaluation.

A Siamese capsule network (conv feature block, primary capsules, dynamic
routing by agreement) trained with a temperature-scaled contrastive loss
on unlabeled images, evaluated with weighted-kNN voting over a feature
bank, plus an exact parameter/FLOP profiler. Built on numpy with its own
reverse-mode kernels; see the CLI (`ccaps`) for the operator surface.
"""

from .augment import AugmentConfig, apply_pipeline, two_views
from .autodiff import Tensor, squash
from .data import (
    DataError,
    DatasetSplit,
    ImageRecord,
    NormalizationStats,
    batch_iterator,
    compute_normalization_stats,
    load_cifar10_binary,
    memory_view,
    normalize,
)
from .knn import (
    EvalConfig,
    EvalResult,
    FeatureBank,
    build_feature_bank,
    evaluate,
    weighted_knn_predict,
)
from .loss import EmbeddingBatch, nt_xent, nt_xent_backward, similarity_matrix
from .model import (
    CapsuleNetwork,
    ForwardOutput,
    ModelConfig,
    RoutingState,
    dynamic_routing,
)
from .profiler import audit_reported_totals, count_flops, count_params, layer_reports
from .train import (
    Adam,
    CheckpointRecord,
    MetricsRow,
    TrainConfig,
    TrainResult,
    resume,
    train,
)

__version__ = "0.1.0"
