"""End-to-end contrastive training.

Each step draws two augmented views of every image in the batch, runs both
through the *same* parameter store (one network instance, two forward
calls), computes the temperature-scaled contrastive loss over the
concatenated embeddings, backpropagates, and applies one Adam update.
Labels never enter this path: the split is stripped to images before the
loop starts.

Batch-norm running statistics advance once per step: the first view's
pass updates them, the second view's pass runs with updates frozen.

Determinism: model init, epoch shuffles, and per-image augmentation all
draw from streams derived from (seed, stream id, epoch, image index), so
identical configs replay identical runs, and resuming from an epoch
checkpoint continues bit-for-bit as if uninterrupted. In deterministic
mode the metrics CSV records 0.0 seconds per epoch so the file itself is
byte-reproducible.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .augment import AugmentConfig, two_views
from .autodiff import Tensor, concat
from .checkpoint import CheckpointError, config_hash, save_checkpoint
from .data import (
    DatasetSplit,
    NormalizationStats,
    batch_iterator,
    compute_normalization_stats,
    standardize,
    to_unit_interval,
)
from .loss import nt_xent_op
from .model import CapsuleNetwork, ModelConfig
from .rngstream import AUGMENT_STREAM, stream_rng

__all__ = [
    "TrainConfig",
    "MetricsRow",
    "CheckpointRecord",
    "TrainResult",
    "TrainingError",
    "CheckpointMismatchError",
    "Adam",
    "train",
    "network_from_record",
    "write_metrics_csv",
    "read_metrics_csv",
    "MetricsError",
]


class TrainingError(Exception):
    """Aborted training run (non-finite loss, bad state)."""


class CheckpointMismatchError(Exception):
    """Checkpoint was produced under a different configuration."""


@dataclass(frozen=True)
class TrainConfig:
    temperature: float = 0.2
    routing_iterations: int = 3
    epochs: int = 50
    batch_size: int = 128
    learning_rate: float = 1e-3
    weight_decay: float = 1e-6
    seed: int = 0
    checkpoint_every: int = 0  # epochs between snapshots; 0 = final only
    eval_every: int = 0  # epochs between kNN evaluations; 0 = never
    deterministic: bool = True
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.routing_iterations < 1:
            raise ValueError("routing_iterations must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (batch norm needs it)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.checkpoint_every < 0 or self.eval_every < 0:
            raise ValueError("cadences must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        """Inverse of :meth:`to_dict`, also for a dict read back from JSON.

        A stored ``augment.seed`` (a removed field) is dropped. Any other
        missing or unknown key, or a value the configs reject, raises
        :class:`CheckpointError`.
        """
        try:
            kwargs = _field_values(cls, data, "config")
            augment = {k: v for k, v in dict(kwargs["augment"]).items() if k != "seed"}
            kwargs["augment"] = AugmentConfig(**_field_values(AugmentConfig, augment, "config.augment"))
            kwargs["model"] = ModelConfig(**_field_values(ModelConfig, kwargs["model"], "config.model"))
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"stored config is invalid: {exc}") from exc

    def trajectory_dict(self) -> dict:
        """The fields that determine the numeric trajectory of a run.

        Operational fields (total epochs, checkpoint/eval cadence, the
        deterministic timing flag) do not change any computed step, so a
        resumed run may alter them; everything else must match.
        """
        d = self.to_dict()
        for key in ("epochs", "checkpoint_every", "eval_every", "deterministic"):
            d.pop(key)
        return d

    def hash(self) -> str:
        return config_hash(self.trajectory_dict())


def _field_values(cls, data, where: str) -> dict:
    """`data` as keyword arguments for `cls`; it must name every field and no other."""
    if not isinstance(data, dict):
        raise CheckpointError(f"stored {where} is not a mapping")
    names = {f.name for f in fields(cls)}
    problems = [f"no {k!r} key" for k in sorted(names - set(data))]
    problems += [f"unknown key {k!r}" for k in sorted(set(data) - names)]
    if problems:
        raise CheckpointError(f"stored {where}: {', '.join(problems)}")
    return dict(data)


@dataclass
class MetricsRow:
    epoch: int
    loss: float
    seconds: float
    top1: float | None = None
    top5: float | None = None


@dataclass
class CheckpointRecord:
    """Everything needed to continue or evaluate a run."""

    arrays: dict[str, np.ndarray]
    meta: dict

    @property
    def epoch(self) -> int:
        return int(self.meta["epoch"])

    def save(self, path) -> Path:
        return save_checkpoint(path, self.arrays, self.meta)

    @classmethod
    def load(cls, path) -> "CheckpointRecord":
        from .checkpoint import load_checkpoint

        arrays, meta = load_checkpoint(path)
        return cls(arrays=arrays, meta=meta)


@dataclass
class TrainResult:
    checkpoint: CheckpointRecord
    metrics: list[MetricsRow]
    interrupted: bool = False


class Adam:
    """Adam with coupled L2 weight decay and bias correction.

    The decay term is added to the gradient (classic Adam-with-L2, not the
    decoupled variant); update denominator is sqrt(v_hat) + eps. A
    parameter whose gradient slot is empty contributes a zero gradient, so
    with weight decay its magnitude still shrinks.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        learning_rate: float,
        weight_decay: float = 0.0,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.steps = 0
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def step(self) -> None:
        """One update of every parameter; a non-finite gradient anywhere
        raises :class:`TrainingError` before any state changes."""
        for name, p in self.params.items():
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise TrainingError(f"non-finite gradient in {name!r}")
        self.steps += 1
        bc1 = 1.0 - self.beta1**self.steps
        bc2 = 1.0 - self.beta2**self.steps
        for name, p in self.params.items():
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            p.data -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {f"adam.m.{k}": v.copy() for k, v in self.m.items()}
        out.update({f"adam.v.{k}": v.copy() for k, v in self.v.items()})
        return out

    def load_state(self, arrays: dict[str, np.ndarray], steps: int) -> None:
        self.steps = steps
        for k in self.m:
            self.m[k] = np.array(arrays[f"adam.m.{k}"])
            self.v[k] = np.array(arrays[f"adam.v.{k}"])


def _two_view_batch(batch, config: TrainConfig, stats: NormalizationStats, epoch: int):
    """Augment every image twice; streams keyed by (seed, epoch, image index)."""
    n = batch.size
    shape = batch.images.shape[1:]
    view_i = np.empty((n, *shape), dtype=np.float32)
    view_j = np.empty((n, *shape), dtype=np.float32)
    for pos in range(n):
        rng = stream_rng(config.seed, AUGMENT_STREAM, epoch, int(batch.indices[pos]))
        image = to_unit_interval(batch.images[pos])
        vi, vj = two_views(image, config.augment, rng)
        view_i[pos] = standardize(vi, stats)
        view_j[pos] = standardize(vj, stats)
    return view_i, view_j


def _train_step(
    net: CapsuleNetwork,
    adam: Adam,
    config: TrainConfig,
    stats: NormalizationStats,
    batch,
    epoch: int,
    batch_index: int,
) -> float:
    """One Siamese step on `batch`; returns the loss.

    The step's graph lives only in this frame, so it is freed on return,
    before the next step builds its own.
    """
    view_i, view_j = _two_view_batch(batch, config, stats, epoch)
    out_i = net.forward(
        view_i, mode="train",
        routing_iterations=config.routing_iterations, update_running=True,
    )
    out_j = net.forward(
        view_j, mode="train",
        routing_iterations=config.routing_iterations, update_running=False,
    )
    loss = nt_xent_op(concat([out_i.z, out_j.z], axis=0), config.temperature)
    value = float(loss.data)
    if not np.isfinite(value):
        raise TrainingError(f"non-finite loss at epoch {epoch}, batch {batch_index}")
    adam.zero_grad()
    loss.backward()
    adam.step()
    return value


def _build_record(
    net: CapsuleNetwork,
    adam: Adam,
    stats: NormalizationStats,
    config: TrainConfig,
    epoch: int,
) -> CheckpointRecord:
    arrays = net.state_arrays()
    arrays.update(adam.state_arrays())
    arrays["norm.mean"] = stats.mean.copy()
    arrays["norm.std"] = stats.std.copy()
    meta = {
        "kind": "train-state",
        "epoch": epoch,
        "adam_steps": adam.steps,
        "config": config.to_dict(),
        "config_hash": config.hash(),
    }
    return CheckpointRecord(arrays=arrays, meta=meta)


def network_from_record(record: CheckpointRecord):
    """Rebuild (network, stats, config) from a checkpoint record."""
    if "config" not in record.meta:
        raise CheckpointError("checkpoint metadata has no 'config' key")
    config = TrainConfig.from_dict(record.meta["config"])
    model_arrays = {
        k: v for k, v in record.arrays.items() if not k.startswith(("adam.", "norm."))
    }
    net = CapsuleNetwork.from_state(config.model, model_arrays)
    stats = NormalizationStats(mean=record.arrays["norm.mean"], std=record.arrays["norm.std"])
    return net, stats, config


def train(
    config: TrainConfig,
    data: DatasetSplit,
    *,
    eval_hook: Callable[[CheckpointRecord, int], tuple[float, float]] | None = None,
    checkpoint_dir: str | Path | None = None,
    metrics_path: str | Path | None = None,
    resume_from: CheckpointRecord | None = None,
    progress: Callable[[MetricsRow], None] | None = None,
) -> TrainResult:
    """Run (or continue) a training job.

    `eval_hook(record, epoch) -> (top1, top5)` is called every
    `config.eval_every` epochs when provided; the kNN evaluator plugs in
    here so this module stays label-free.
    """
    data = data.without_labels()
    if len(data) < 2:
        raise TrainingError("need at least 2 training images")

    if resume_from is not None:
        if resume_from.meta.get("config_hash") != config.hash():
            raise CheckpointMismatchError(
                "checkpoint was written under a different config; refusing to resume"
            )
        net, stats, _ = network_from_record(resume_from)
        adam = Adam(net.trainable(), config.learning_rate, config.weight_decay)
        adam.load_state(resume_from.arrays, int(resume_from.meta["adam_steps"]))
        start_epoch = resume_from.epoch
        if start_epoch >= config.epochs:
            return TrainResult(checkpoint=resume_from, metrics=[])
    else:
        stats = compute_normalization_stats(data)
        net = CapsuleNetwork(config.model, seed=config.seed)
        adam = Adam(net.trainable(), config.learning_rate, config.weight_decay)
        start_epoch = 0

    checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if checkpoint_dir is not None:
        checkpoint_dir.mkdir(parents=True, exist_ok=True)

    rows: list[MetricsRow] = []
    record = resume_from
    interrupted = False
    try:
        for epoch in range(start_epoch + 1, config.epochs + 1):
            t0 = time.perf_counter()
            batch_losses = []
            for batch_index, batch in enumerate(
                batch_iterator(data, config.batch_size, shuffle=True, seed=config.seed, epoch=epoch)
            ):
                if batch.size < 2:
                    continue  # batch norm cannot take a single sample
                batch_losses.append(_train_step(net, adam, config, stats, batch, epoch, batch_index))

            if not batch_losses:
                raise TrainingError("no usable batches (all smaller than 2 images)")
            row = MetricsRow(
                epoch=epoch,
                loss=float(np.mean(batch_losses)),
                seconds=0.0 if config.deterministic else time.perf_counter() - t0,
            )
            record = _build_record(net, adam, stats, config, epoch)
            if eval_hook is not None and config.eval_every and epoch % config.eval_every == 0:
                row.top1, row.top5 = eval_hook(record, epoch)
            rows.append(row)
            if progress is not None:
                progress(row)
            if (
                checkpoint_dir is not None
                and config.checkpoint_every
                and epoch % config.checkpoint_every == 0
            ):
                record.save(checkpoint_dir / f"epoch_{epoch:04d}.ckpt")
    except KeyboardInterrupt:
        interrupted = True
        if record is None:
            raise  # nothing completed yet, nothing worth writing

    if checkpoint_dir is not None:
        record.save(checkpoint_dir / "final.ckpt")
    if metrics_path is not None:
        output_rows = rows
        if resume_from is not None and Path(metrics_path).exists():
            # keep the pre-resume history so the file reads as one run
            previous = read_metrics_csv(metrics_path)
            output_rows = [r for r in previous if r.epoch <= start_epoch] + rows
        write_metrics_csv(metrics_path, output_rows)
    return TrainResult(checkpoint=record, metrics=rows, interrupted=interrupted)


# -- metrics CSV ---------------------------------------------------------------

METRICS_HEADER = "epoch,loss,seconds,top1,top5"


class MetricsError(Exception):
    """Malformed metrics CSV."""


def write_metrics_csv(path: str | Path, rows: list[MetricsRow]) -> Path:
    path = Path(path)
    lines = [METRICS_HEADER]
    for row in rows:
        top1 = "" if row.top1 is None else f"{row.top1:.2f}"
        top5 = "" if row.top5 is None else f"{row.top5:.2f}"
        lines.append(f"{row.epoch},{row.loss!r},{row.seconds:.3f},{top1},{top5}")
    partial = path.with_name(path.name + ".partial")
    partial.write_text("\n".join(lines) + "\n")
    partial.replace(path)
    return path


def read_metrics_csv(path: str | Path) -> list[MetricsRow]:
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise MetricsError(f"{path}: line 1: expected header {METRICS_HEADER!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise MetricsError(f"{path}: line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            rows.append(
                MetricsRow(
                    epoch=int(parts[0]),
                    loss=float(parts[1]),
                    seconds=float(parts[2]),
                    top1=float(parts[3]) if parts[3] else None,
                    top5=float(parts[4]) if parts[4] else None,
                )
            )
        except ValueError as exc:
            raise MetricsError(f"{path}: line {lineno}: {exc}") from exc
    return rows
