"""End-to-end contrastive training.

Each step draws two augmented views of every image in the batch and runs
them through the *same* parameter arrays on two threads: the calling
thread runs view i through the network, a worker thread runs view j
through the network's :meth:`~ccaps.model.CapsuleNetwork.twin`. The
temperature-scaled contrastive loss over the concatenated embeddings is
computed on the calling thread with the two embeddings as leaves; then each
thread backpropagates its own view, and one Adam update follows. Labels
never enter this path: the split is stripped to images before the loop
starts.

The views share no work until the loss, and most of a view is
single-threaded numpy, so the two threads overlap. While both run, each
view's BLAS calls get half of the process's OpenBLAS threads (at least
one) through :func:`ccaps.blas.split`, restored after every step; where no
OpenBLAS is loaded the threads run unpinned. The worker lives only as long
as the :func:`train` call. Each parameter gets exactly one gradient from
each view, and the calling thread adds the two (``a + b == b + a`` in IEEE
arithmetic), so a step gives the bits of one sequential backward through
both views.

The worker has a third job: once both backwards of a step have returned,
it augments the next step's batch, while the calling thread sums the
gradients, steps Adam and, at an epoch's end, runs the record, eval hook,
``progress`` and checkpoints. The bits hold because each image's
augmentation stream is keyed by (seed, epoch, image index), and the job
reads only inputs nothing changes. A run that stops early waits for views
in flight and discards them.

Batch-norm running statistics advance once per step: view i's thread
alone updates them, view j's pass runs with updates frozen and, in train
mode, never reads them.

Process-wide allocator settings: on glibc, the first :func:`train` call
sets, for the rest of the process's life, a 256 MiB mmap threshold, a 1 GiB
trim threshold and one malloc arena. With glibc's defaults the graph a step
frees while ``backward`` walks it went back to the kernel, and the next
step faulted it in again: 9-20k pages and 55-90 ms of system time per
default-model step at batch 64 on a 2-vCPU host, against about one page
with the settings. Each call ends with one ``malloc_trim(0)``, which hands
back the heap that is free at that point. The call's frame still holds the
network, the Adam moments, the record and the last views, so what they free
once it returns stays in the heap: one epoch on 64 images went from 205 to
96 MB at the trim, and to 41 MB only at a later trim.

Determinism: model init, epoch shuffles, and per-image augmentation all
draw from streams derived from (seed, stream id, epoch, image index), so
identical configs replay identical runs, and resuming from an epoch
checkpoint continues bit-for-bit as if uninterrupted. The metrics CSV
holds no wall-clock field, so the file itself is byte-reproducible.
"""

from __future__ import annotations

import ctypes
import functools
import math
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import blas
from .augment import AugmentConfig, two_view_batch
from .autodiff import Tensor, concat
from .checkpoint import CheckpointError, config_hash, load_checkpoint, save_checkpoint, write_atomic
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
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if not (self.temperature > 0 and math.isfinite(self.temperature)):
            raise ValueError(f"temperature must be positive and finite, got {self.temperature!r}")
        for name in ("learning_rate", "weight_decay"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
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

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        """Inverse of :func:`dataclasses.asdict`, also for a dict read back from JSON.

        A stored ``deterministic`` or ``augment.seed`` (removed fields) is
        dropped. Any other missing or unknown key, or a value the configs
        reject, raises :class:`CheckpointError`.
        """
        try:
            kwargs = _field_values(cls, data, "config", dropped=("deterministic",))
            augment = _field_values(AugmentConfig, kwargs["augment"], "config.augment", dropped=("seed",))
            kwargs["augment"] = AugmentConfig(**augment)
            kwargs["model"] = ModelConfig(**_field_values(ModelConfig, kwargs["model"], "config.model"))
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"stored config is invalid: {exc}") from exc

    def trajectory_dict(self) -> dict:
        """The fields that determine the numeric trajectory of a run.

        Operational fields (total epochs, checkpoint/eval cadence) do not
        change any computed step, so a resumed run may alter them;
        everything else must match.
        """
        d = asdict(self)
        for key in ("epochs", "checkpoint_every", "eval_every"):
            d.pop(key)
        return d

    def hash(self) -> str:
        return config_hash(self.trajectory_dict())


def _field_values(cls, data, where: str, dropped=()) -> dict:
    """`data` without its `dropped` keys as keyword arguments for `cls`; it
    must name every field and no other."""
    if not isinstance(data, dict):
        raise CheckpointError(f"stored {where} is not a mapping")
    data = {k: v for k, v in data.items() if k not in dropped}
    names = {f.name for f in fields(cls)}
    problems = [f"no {k!r} key" for k in sorted(names - set(data))]
    problems += [f"unknown key {k!r}" for k in sorted(set(data) - names)]
    if problems:
        raise CheckpointError(f"stored {where}: {', '.join(problems)}")
    return data


@dataclass
class MetricsRow:
    epoch: int
    loss: float
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
        arrays, meta = load_checkpoint(path)
        return cls(arrays=arrays, meta=meta)


@dataclass
class TrainResult:
    checkpoint: CheckpointRecord
    metrics: list[MetricsRow]
    interrupted: bool = False


# Adam's moment decay rates and denominator floor: the usual values, fixed.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with coupled L2 weight decay and bias correction.

    The decay term is added to the gradient (classic Adam-with-L2, not the
    decoupled variant); update denominator is sqrt(v_hat) + eps. A
    parameter whose gradient slot is empty contributes a zero gradient, so
    with weight decay its magnitude still shrinks.
    """

    def __init__(self, params: dict[str, Tensor], learning_rate: float, weight_decay: float = 0.0):
        self.params = params
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
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
        bc1 = 1.0 - ADAM_BETA1**self.steps
        bc2 = 1.0 - ADAM_BETA2**self.steps
        for name, p in self.params.items():
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * grad * grad
            p.data -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {f"adam.m.{k}": v.copy() for k, v in self.m.items()}
        out.update({f"adam.v.{k}": v.copy() for k, v in self.v.items()})
        return out

    def load_state(self, arrays: dict[str, np.ndarray], steps: int) -> None:
        """Adopt stored moments; one whose shape or dtype differs from its
        parameter's raises :class:`CheckpointError` before any state changes."""
        m = {k: _moment(arrays, f"adam.m.{k}", p.data) for k, p in self.params.items()}
        v = {k: _moment(arrays, f"adam.v.{k}", p.data) for k, p in self.params.items()}
        self.steps, self.m, self.v = steps, m, v


def _moment(arrays: dict[str, np.ndarray], key: str, param: np.ndarray) -> np.ndarray:
    arr = np.array(arrays[key])
    if arr.shape != param.shape or arr.dtype != param.dtype:
        raise CheckpointError(
            f"checkpoint array {key!r} is {arr.dtype} {arr.shape}; "
            f"its parameter is {param.dtype} {param.shape}"
        )
    return arr


def _two_view_batch(step, config: TrainConfig, stats: NormalizationStats):
    """Augment every image of a step's batch twice; streams keyed by (seed, epoch, image index)."""
    epoch, _, batch = step
    rngs = [stream_rng(config.seed, AUGMENT_STREAM, epoch, int(i)) for i in batch.indices]
    views = two_view_batch(to_unit_interval(batch.images), rngs, config.augment)
    return standardize(views, stats)


def _glibc():
    """The process's C library if it is glibc (it has ``mallopt`` and ``malloc_trim``), or None."""
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt.argtypes, libc.mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        libc.malloc_trim.argtypes, libc.malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
    except (OSError, AttributeError, TypeError):
        return None
    return libc


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8  # glibc <malloc.h>
# Above the largest array a step allocates: the default model's votes and
# routing arrays at the paper's batch of 512 take 168 MB each (42 MB at
# batch 128, beside Conv2d-3's 37.7 MB im2col block, which only dW's
# backward rebuilds whole: the forward and dX make it in blocks of at
# most 2 MiB). Arrays at or above the threshold are mmapped and faulted
# in again on every step.
_MMAP_THRESHOLD = 256 << 20


@functools.cache
def _keep_heap():
    """Set glibc's allocator once per process (see the module docstring); returns glibc or None.

    A fixed trim threshold alone also stops glibc's moving mmap threshold,
    and without the arena limit the worker's own arena still faults.
    """
    libc = _glibc()
    if libc is not None:
        for param, value in ((_M_MMAP_THRESHOLD, _MMAP_THRESHOLD), (_M_TRIM_THRESHOLD, 1 << 30), (_M_ARENA_MAX, 1)):
            libc.mallopt(param, value)
    return libc


def _train_step(
    net: CapsuleNetwork,
    adam: Adam,
    config: TrainConfig,
    stats: NormalizationStats,
    views,
    epoch: int,
    batch_index: int,
    pool: ThreadPoolExecutor,
    upcoming,
) -> tuple[float, Future | None]:
    """One Siamese step on `views`, view j on `pool`'s worker; returns the
    loss and the future of the `upcoming` step's views, which the worker
    augments while this thread steps Adam.

    The step's graphs live only in this frame and each backward frees its
    own as it walks it, before the next step builds new ones.
    """
    view_i, view_j = views
    twin = net.twin()
    iterations = config.routing_iterations
    with blas.split(2):
        out_i, out_j = blas.run(
            pool,
            lambda: net.forward(view_i, "train", iterations, update_running=True),
            lambda: twin.forward(view_j, "train", iterations, update_running=False),
        )
        z_i = Tensor(out_i.z.data, requires_grad=True)
        z_j = Tensor(out_j.z.data, requires_grad=True)
        loss = nt_xent_op(concat([z_i, z_j], axis=0), config.temperature)
        value = float(loss.data)
        if not np.isfinite(value):
            raise TrainingError(f"non-finite loss at epoch {epoch}, batch {batch_index}")
        loss.backward()
        adam.zero_grad()
        blas.run(pool, lambda: out_i.z.backward(z_i.grad), lambda: out_j.z.backward(z_j.grad))
    ahead = None if upcoming is None else pool.submit(_two_view_batch, upcoming, config, stats)
    for name, p in net.params.items():  # one gradient per view, summed in a fixed order
        g_j = twin.params[name].grad
        if g_j is not None:
            p.grad = g_j if p.grad is None else p.grad + g_j
    try:
        adam.step()
    except TrainingError as exc:
        raise TrainingError(f"{exc} at epoch {epoch}, batch {batch_index}") from None
    return value, ahead


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
        "config": asdict(config),
        "config_hash": config.hash(),
    }
    return CheckpointRecord(arrays=arrays, meta=meta)


def _require(record: CheckpointRecord, arrays=(), meta=()) -> None:
    """Raise :class:`CheckpointError` naming the first array or meta key `record` lacks."""
    for key in arrays:
        if key not in record.arrays:
            raise CheckpointError(f"checkpoint has no {key!r} array")
    for key in meta:
        if key not in record.meta:
            raise CheckpointError(f"checkpoint metadata has no {key!r} key")


def network_from_record(record: CheckpointRecord):
    """Rebuild (network, stats, config) from a checkpoint record."""
    _require(record, arrays=("norm.mean", "norm.std"), meta=("config",))
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

    A run stopped by ``KeyboardInterrupt`` or :class:`TrainingError` after
    at least one completed epoch still writes ``final.ckpt`` for the last
    completed epoch and the metrics rows; an interrupted run then returns
    with ``interrupted`` set, a failed one re-raises its error. Each
    periodic checkpoint is written after the metrics CSV so far, so a run
    killed by any other means keeps the metrics of its last checkpoint.

    On glibc the first call changes the allocator for the whole process,
    and the closing heap trim hands back only what is free while this
    frame still holds its arrays (see the module docstring).
    """
    libc = _keep_heap()
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
        _require(resume_from, arrays=adam.state_arrays(), meta=("adam_steps", "epoch"))
        adam.load_state(resume_from.arrays, int(resume_from.meta["adam_steps"]))
        start_epoch = resume_from.epoch
    else:
        stats = compute_normalization_stats(data)
        net = CapsuleNetwork(config.model, seed=config.seed)
        adam = Adam(net.trainable(), config.learning_rate, config.weight_decay)
        start_epoch = 0

    checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if checkpoint_dir is not None:
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
    rows: list[MetricsRow] = []
    history: list[MetricsRow] = []
    if resume_from is not None and metrics_path is not None and Path(metrics_path).exists():
        # keep the pre-resume history so the file reads as one run
        history = [r for r in read_metrics_csv(metrics_path) if r.epoch <= start_epoch]

    def write_metrics():
        if metrics_path is not None:
            write_metrics_csv(metrics_path, history + rows)

    record = resume_from
    stopped = None  # the KeyboardInterrupt or TrainingError that ended the loop
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ccaps-view-j")
    # every epoch's first batch has 2 or more images: len(data) >= 2 and batch_size >= 2
    steps = (
        (epoch, batch_index, batch)
        for epoch in range(start_epoch + 1, config.epochs + 1)
        for batch_index, batch in enumerate(
            batch_iterator(data, config.batch_size, shuffle=True, seed=config.seed, epoch=epoch)
        )
        if batch.size >= 2  # batch norm cannot take a single sample
    )
    try:
        step = next(steps, None)  # None when a resumed run has no epoch left
        ahead = None if step is None else pool.submit(_two_view_batch, step, config, stats)
        batch_losses = []
        while step is not None:
            epoch, batch_index, _ = step
            step = next(steps, None)
            loss, ahead = _train_step(
                net, adam, config, stats, ahead.result(), epoch, batch_index, pool, step
            )
            batch_losses.append(loss)
            if step is not None and step[0] == epoch:
                continue
            row = MetricsRow(epoch=epoch, loss=float(np.mean(batch_losses)))
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
                write_metrics()  # first, so no checkpoint holds an epoch the CSV lacks
                record.save(checkpoint_dir / f"epoch_{epoch:04d}.ckpt")
            batch_losses = []
    except (KeyboardInterrupt, TrainingError) as exc:
        if record is None:
            raise  # nothing completed yet, nothing worth writing
        stopped = exc
    finally:
        pool.shutdown()  # waits for views in flight: no thread outlives the call
        if libc is not None:
            libc.malloc_trim(0)  # hands back what is free now, not what this frame holds

    write_metrics()
    if checkpoint_dir is not None:
        record.save(checkpoint_dir / "final.ckpt")
    if isinstance(stopped, TrainingError):
        raise stopped
    return TrainResult(checkpoint=record, metrics=rows, interrupted=stopped is not None)


# -- metrics CSV ---------------------------------------------------------------

METRICS_HEADER = "epoch,loss,top1,top5"
# the header of files written while rows had a wall-clock column; it is read and dropped
_SECONDS_HEADER = "epoch,loss,seconds,top1,top5"


class MetricsError(Exception):
    """Malformed metrics CSV."""


def write_metrics_csv(path: str | Path, rows: list[MetricsRow]) -> Path:
    lines = [METRICS_HEADER]
    for row in rows:
        top1 = "" if row.top1 is None else f"{row.top1:.2f}"
        top5 = "" if row.top5 is None else f"{row.top5:.2f}"
        lines.append(f"{row.epoch},{row.loss!r},{top1},{top5}")
    return write_atomic(path, ("\n".join(lines) + "\n").encode())


def read_metrics_csv(path: str | Path) -> list[MetricsRow]:
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or lines[0] not in (METRICS_HEADER, _SECONDS_HEADER):
        raise MetricsError(f"{path}: line 1: expected header {METRICS_HEADER!r}")
    columns = lines[0].split(",")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(columns):
            raise MetricsError(f"{path}: line {lineno}: expected {len(columns)} fields, got {len(parts)}")
        epoch, loss, top1, top5 = (part for name, part in zip(columns, parts) if name != "seconds")
        try:
            rows.append(
                MetricsRow(
                    epoch=int(epoch),
                    loss=float(loss),
                    top1=float(top1) if top1 else None,
                    top5=float(top5) if top5 else None,
                )
            )
        except ValueError as exc:
            raise MetricsError(f"{path}: line {lineno}: {exc}") from exc
    return rows
