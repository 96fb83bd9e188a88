"""The benchmark's workloads, each driving the public API of ``ccaps``.

Every workload offers the same methods to ``run.py``:

* ``setup()`` builds inputs, model and state from the seed, then runs warm-up
  ops; the runner repeats it to time set-up;
* ``gate()`` runs once, untimed, and returns the problems it found;
* ``measure(seconds, tracer)`` runs the closed loop of timed ops and returns
  (ops attempted, op times by traced flag, failed op ids, problems); with a
  tracer every other op is traced;
* ``finish()`` runs end-of-run checks and returns (failed op ids, problems,
  details);
* ``computed_metrics(median)`` derives rates and counts from the median span
  times of a traced run.

Span names match ``profiler.layer_reports`` rows where one exists. A span
whose name is not a per-layer metric still takes its time out of
``trace.residual_s``.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import replace

import numpy as np

from ccaps.augment import two_views
from ccaps.autodiff import Tensor, batch_norm2d, capsule_votes, concat, conv2d, l2_normalize
from ccaps.data import (
    DatasetSplit,
    batch_iterator,
    compute_normalization_stats,
    standardize,
    to_unit_interval,
)
from ccaps.knn import EvalConfig, FeatureBank, extract_features, weighted_knn_predict
from ccaps.loss import nt_xent_op
from ccaps.model import CapsuleNetwork, ModelConfig, dynamic_routing
from ccaps.profiler import layer_reports
from ccaps.rngstream import AUGMENT_STREAM, stream_rng
from ccaps.train import Adam, TrainConfig, TrainingError, network_from_record, train

import inputs
import oracle
from tracing import NULL_TRACER

_UNIT_NORM_TOL = 1e-5


def _input_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _sha256(arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        digest.update(f"{arr.dtype.str}{arr.shape}".encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _digest_pool(reference: dict[int, np.ndarray], pool: int) -> str | None:
    """Digest of every pool entry's first result, in pool order; None if one is missing."""
    if len(reference) < pool:
        return None
    return _sha256(reference[i] for i in range(pool))


def _unit_rows_error(rows: np.ndarray) -> str | None:
    if not np.all(np.isfinite(rows)):
        return "non-finite values"
    worst = float(np.abs(np.linalg.norm(rows, axis=1) - 1.0).max())
    if worst > _UNIT_NORM_TOL:
        return f"rows not unit norm, worst error {worst:.2e}"
    return None


def conv_chain(net: CapsuleNetwork, x: np.ndarray, update_running: bool, tr) -> Tensor:
    """``net.conv_block(x, mode="train")`` call by call; ReLU is timed inside its BatchNorm2d row."""
    cfg = net.config
    t = Tensor(x)
    for i, stride in enumerate(cfg.conv_strides, start=1):
        with tr.span(f"model.Conv2d-{i}.fwd"):
            t = conv2d(t, net.params[f"conv{i}.weight"], stride=stride, padding=cfg.padding)
        with tr.span(f"model.BatchNorm2d-{i}.fwd"):
            t = batch_norm2d(
                t,
                net.params[f"conv{i}.bn.gamma"],
                net.params[f"conv{i}.bn.beta"],
                net.buffers[f"conv{i}.bn.running_mean"],
                net.buffers[f"conv{i}.bn.running_var"],
                training=True,
                momentum=cfg.bn_momentum,
                eps=cfg.bn_eps,
                update_running=update_running,
            ).relu()
    return t


def siamese_forward(net: CapsuleNetwork, x: np.ndarray, iterations: int, update_running: bool, tr):
    """``net.forward(x, mode="train")`` call by call; returns the (h, z) tensors."""
    cfg = net.config
    with tr.span("model.conv_block.fwd"):
        fmap = conv_chain(net, x, update_running, tr)
    batch = fmap.shape[0]
    with tr.span("autodiff.l2_normalize"):
        h = l2_normalize(fmap.reshape(batch, cfg.feature_dim), axis=1)
    with tr.span("model.PrimaryCaps.fwd"):
        u = net.primary_caps(fmap)
    with tr.span("model.ClassCaps.votes.fwd"):
        u_hat = capsule_votes(u, net.params["class_caps.weight"])
    with tr.span("model.Routing.fwd"):
        y, _ = dynamic_routing(u_hat, iterations)
    with tr.span("autodiff.l2_normalize"):
        z = l2_normalize(y.reshape(batch, cfg.embedding_dim), axis=1)
    return h, z


class StepLoop:
    """The inner loop of ``train.train``, one batch per ``step`` call.

    It is rebuilt from public functions so that every stage can be timed;
    the train gate checks that it replays ``train.train`` bit for bit.
    """

    def __init__(self, config: TrainConfig, split: DatasetSplit):
        self.config = config
        self.split = split
        self.stats = compute_normalization_stats(split)
        self.net = CapsuleNetwork(config.model, seed=config.seed)
        self.adam = Adam(self.net.trainable(), config.learning_rate, config.weight_decay)
        self.epoch = 0
        self.epoch_losses: dict[int, list[float]] = {}
        self._batches = iter(())

    def _next_batch(self, tr):
        while True:
            with tr.span("data.batch_iterator"):
                batch = next(self._batches, None)
            if batch is None:
                self.epoch += 1
                self._batches = batch_iterator(
                    self.split, self.config.batch_size, shuffle=True,
                    seed=self.config.seed, epoch=self.epoch,
                )
            elif batch.size >= 2:  # batch norm cannot take a single sample
                return batch

    def _two_view_batch(self, batch, tr) -> np.ndarray:
        views = np.empty((2, batch.size, *batch.images.shape[1:]), dtype=np.float32)
        for pos in range(batch.size):
            with tr.span("rngstream.stream_rng"):
                rng = stream_rng(self.config.seed, AUGMENT_STREAM, self.epoch, int(batch.indices[pos]))
            with tr.span("data.to_unit_interval"):
                image = to_unit_interval(batch.images[pos])
            with tr.span("augment.two_views"):
                view_i, view_j = two_views(image, self.config.augment, rng)
            with tr.span("data.standardize"):
                views[0, pos] = standardize(view_i, self.stats)
            with tr.span("data.standardize"):
                views[1, pos] = standardize(view_j, self.stats)
        return views

    def step(self, tr=NULL_TRACER):
        """One Siamese step; returns (loss, views, [(h, z) per view as arrays])."""
        batch = self._next_batch(tr)
        views = self._two_view_batch(batch, tr)
        outs = [
            siamese_forward(self.net, views[k], self.config.routing_iterations, k == 0, tr)
            for k in (0, 1)
        ]
        with tr.span("autodiff.concat"):
            z = concat([outs[0][1], outs[1][1]], axis=0)
        with tr.span("loss.nt_xent.fwd"):
            loss = nt_xent_op(z, self.config.temperature)
        value = float(loss.data)
        if not np.isfinite(value):
            raise TrainingError(f"non-finite loss at epoch {self.epoch}")
        with tr.span("train.Adam.zero_grad"):
            self.adam.zero_grad()
        with tr.span("autodiff.backward"):
            loss.backward()
        with tr.span("train.Adam.step"):
            self.adam.step()
        self.epoch_losses.setdefault(self.epoch, []).append(value)
        return value, views, [(h.data, z.data) for h, z in outs]


class TrainWorkload:
    """Siamese training steps at batch 64 on the default model, 3 routing iterations.

    Untraced ops are epochs of ``train.train`` itself over 64 images, so an
    epoch is one step plus the epoch's checkpoint record. Each is timed
    through the ``progress`` callback, and the run ends by raising
    ``KeyboardInterrupt`` there, which ``train.train`` handles as an
    interrupted run. The first two epochs of the call are warm-up, before the
    measured window opens: the first holds ``train.train``'s own set-up, the
    second is the first step that allocates while the previous step's graph
    is still held.

    In a traced run a :class:`StepLoop` on the same inputs and config follows
    the same trajectory. After each untraced epoch it runs that epoch's step
    traced; the step's loss must equal the epoch's loss from ``train.train``.

    At the end of the run the network of the hashed checkpoint record
    extracts the features of 256 further images with
    ``knn.extract_features`` at batch 256, untimed; the rows must be unit
    norm, and their digest is reported.
    """

    name = "train-b64"
    items_per_op = 64  # source images; each is seen twice, once per view
    conv_images_per_op = 128
    min_ops = 4
    warmup_epochs = 2
    digest_epoch = 4  # the state is hashed after this many steps
    extract_images = 256
    gate_images = 7  # batches of 3, 3 and a skipped single image
    gate_batch = 3
    gate_epochs = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.config = TrainConfig(epochs=1, batch_size=64, routing_iterations=3, seed=seed)
        self.model = self.config.model
        self.split: DatasetSplit | None = None
        self.digest_record = None

    def setup(self) -> None:
        self.split = None
        images = inputs.ring_images(self.items_per_op, _input_rng(self.seed, 0))
        self.split = DatasetSplit(images, None, "train")
        train(self.config, self.split)  # warm-up: model init and one step

    def gate(self) -> list[str]:
        """The step loop must replay ``train.train``: per-epoch losses and all state bytes."""
        images = inputs.ring_images(self.gate_images, _input_rng(self.seed, 10))
        split = DatasetSplit(images, None, "train")
        config = TrainConfig(
            epochs=self.gate_epochs, batch_size=self.gate_batch, routing_iterations=3, seed=self.seed
        )
        reference = train(config, split)
        loop = StepLoop(config, split)
        full, rest = divmod(self.gate_images, self.gate_batch)
        for _ in range(self.gate_epochs * (full + (rest >= 2))):
            loop.step()
        problems = []
        losses = [float(np.mean(loop.epoch_losses[e])) for e in sorted(loop.epoch_losses)]
        expected = [row.loss for row in reference.metrics]
        if losses != expected:
            problems.append(f"train gate: epoch losses {losses} != train.train {expected}")
        state = loop.net.state_arrays()
        state.update(loop.adam.state_arrays())
        ref = {k: v for k, v in reference.checkpoint.arrays.items() if not k.startswith("norm.")}
        differ = sorted(
            k for k in ref
            if k not in state or state[k].dtype != ref[k].dtype or not np.array_equal(state[k], ref[k])
        )
        if differ or set(state) != set(ref):
            problems.append(f"train gate: state differs from train.train in {differ or 'keys'}")
        return problems

    def measure(self, seconds: float, tracer):
        times = {False: [], True: []}
        failed: set[int] = set()
        problems: list[str] = []
        loop = StepLoop(self.config, self.split) if tracer is not None else None
        config = replace(self.config, epochs=10**6, eval_every=self.digest_epoch)
        next_op = 0
        start = mark = time.perf_counter()

        def keep_record(record, epoch):
            # no evaluation: the hook only keeps the checkpoint record to hash
            if self.digest_record is None:
                self.digest_record = record
            return 0.0, 0.0

        def traced_step(row) -> None:
            nonlocal next_op
            i, next_op = next_op, next_op + 1
            try:
                before = loop.net.state_arrays()
                t0 = time.perf_counter()
                with tracer.op(i):
                    out = loop.step(tracer)
                elapsed = time.perf_counter() - t0
                found = self._check_traced(out, before, row.loss)
            except Exception:
                found = [traceback.format_exc()]
            if found:
                failed.add(i)
                problems.extend(f"op {i}: {p}" for p in found)
            else:
                times[True].append(elapsed)

        def progress(row) -> None:
            nonlocal next_op, mark, start
            timed = row.epoch > self.warmup_epochs
            if timed:
                elapsed = time.perf_counter() - mark
                if np.isfinite(row.loss):
                    times[False].append(elapsed)
                else:
                    failed.add(next_op)
                    problems.append(f"op {next_op}: non-finite epoch loss {row.loss!r}")
                next_op += 1
            if loop is not None:
                if timed:
                    traced_step(row)
                else:
                    loop.step()
            mark = time.perf_counter()
            if row.epoch == self.warmup_epochs:
                start = mark  # the measured window opens after warm-up
            done = row.epoch - self.warmup_epochs >= self.min_ops
            if done and mark - start >= seconds:
                raise KeyboardInterrupt  # train.train ends the run as interrupted

        self.digest_record = None
        try:
            train(config, self.split, eval_hook=keep_record, progress=progress)
        except Exception:
            failed.add(next_op)
            problems.append(f"op {next_op}: {traceback.format_exc()}")
            next_op += 1
        return next_op, times, failed, problems

    def _check_traced(self, out, before: dict, expected_loss: float) -> list[str]:
        loss, views, embeddings = out
        problems = []
        if loss != expected_loss:
            problems.append(f"traced step loss {loss!r} != train.train epoch loss {expected_loss!r}")
        for h, z in embeddings:
            for label, rows in (("h", h), ("z", z)):
                error = _unit_rows_error(rows)
                if error:
                    problems.append(f"{label}: {error}")
        # the traced forward is compared with net.forward under the pre-step weights
        reference = CapsuleNetwork.from_state(self.config.model, before)
        for k, (h, z) in enumerate(embeddings):
            expected = reference.forward(
                views[k], mode="train",
                routing_iterations=self.config.routing_iterations, update_running=False,
            )
            if not (np.array_equal(expected.h.data, h) and np.array_equal(expected.z.data, z)):
                problems.append(f"view {k}: traced forward differs from net.forward")
        return problems

    def finish(self):
        record = self.digest_record
        detail = {f"state_sha256_after_{self.digest_epoch}_steps": None, "features_sha256": None}
        if record is None:
            return set(), ["no checkpoint record to hash"], detail
        detail[f"state_sha256_after_{self.digest_epoch}_steps"] = _sha256(
            record.arrays[k] for k in sorted(record.arrays)
        )
        net, stats, _ = network_from_record(record)
        images = inputs.ring_images(self.extract_images, _input_rng(self.seed, 1))
        split = DatasetSplit(images, None, "test")
        features = extract_features(net, split, stats, self.extract_images)
        error = _unit_rows_error(features)
        detail["features_sha256"] = _sha256([features])
        return set(), [f"extracted features: {error}"] if error else [], detail

    def computed_metrics(self, median) -> dict:
        """Conv-block GFLOP/s from the analytic MACs and the median span time."""
        macs = sum(r.macs for r in layer_reports(self.model) if r.name.startswith("Conv2d"))
        seconds = median("model.conv_block.fwd")
        flop = 2 * macs * self.conv_images_per_op
        return {"model.conv_block.gflops": flop / seconds / 1e9 if seconds > 0 else 0.0}


class KnnWorkload:
    """``knn.weighted_knn_predict`` on 512-query chunks against a 50,000-row bank."""

    name = "knn-50k"
    items_per_op = 512
    bank_rows = 50_000
    pool = 4  # distinct query chunks, cycled
    min_ops = pool
    oracle_queries = 64

    def __init__(self, seed: int):
        self.seed = seed
        self.dim = ModelConfig().feature_dim
        self.cfg = EvalConfig()
        self.reference: dict[int, np.ndarray] = {}
        self.ops_by_chunk: dict[int, list[int]] = {}

    def setup(self) -> None:
        self.bank = self.queries = None  # free the previous 410 MB bank first
        rng = _input_rng(self.seed, 2)
        prototypes = inputs.prototypes(self.dim, rng)
        features, labels = inputs.clustered_rows(self.bank_rows, prototypes, rng)
        self.bank = FeatureBank(features=features, labels=labels)
        self.queries, _ = inputs.clustered_rows(self.pool * self.items_per_op, prototypes, rng)
        weighted_knn_predict(self._chunk(0), self.bank, self.cfg)  # warm-up

    def gate(self) -> list[str]:
        return []

    def measure(self, seconds: float, tracer):
        """Closed loop of ops for `seconds`; with a tracer, every other op is traced."""
        times = {False: [], True: []}
        failed: set[int] = set()
        problems: list[str] = []
        start = time.perf_counter()
        i = 0
        while i < self.min_ops or time.perf_counter() - start < seconds:
            traced = tracer is not None and i % 2 == 1
            tr = tracer if traced else NULL_TRACER
            try:
                t0 = time.perf_counter()
                with tr.op(i):
                    out = self.op(i, tr)
                elapsed = time.perf_counter() - t0
                found = self.check(i, out)
            except Exception:
                found = [traceback.format_exc()]
            if found:
                failed.add(i)
                problems.extend(f"op {i}: {p}" for p in found)
            else:
                times[traced].append(elapsed)
            i += 1
        return i, times, failed, problems

    def _chunk(self, index: int) -> np.ndarray:
        start = index * self.items_per_op
        return self.queries[start : start + self.items_per_op]

    def op(self, i: int, tr):
        chunk = self._chunk(i % self.pool)
        with tr.span("knn.weighted_knn_predict"):
            return weighted_knn_predict(chunk, self.bank, self.cfg)

    def check(self, i: int, out) -> list[str]:
        scores, ranked = out
        chunk = i % self.pool
        self.ops_by_chunk.setdefault(chunk, []).append(i)
        problems = []
        if ranked.shape != (self.items_per_op, self.cfg.class_count) or not np.all(np.isfinite(scores)):
            problems.append(f"chunk {chunk}: malformed scores {scores.shape} or ranking {ranked.shape}")
        expected = self.reference.setdefault(chunk, ranked)
        if not np.array_equal(expected, ranked):
            problems.append(f"chunk {chunk}: ranking differs from its first prediction")
        return problems

    def finish(self):
        """Brute-force oracle on a seeded sample of the queries the measured ops ranked."""
        sample = np.sort(
            _input_rng(self.seed, 3).choice(len(self.queries), self.oracle_queries, replace=False)
        )
        sample = sample[[q // self.items_per_op in self.reference for q in sample]]
        want, ambiguous = oracle.ranked_top(
            self.queries[sample], self.bank.features, self.bank.labels,
            self.cfg.k, self.cfg.temperature, self.cfg.class_count,
        )
        got = np.stack([self.reference[q // self.items_per_op][q % self.items_per_op, :5] for q in sample])
        wrong = ~ambiguous & np.any(got != want, axis=1)
        failed = {
            op for q in sample[wrong] for op in self.ops_by_chunk[q // self.items_per_op]
        }
        detail = {
            "ranked_sha256": _digest_pool(self.reference, self.pool),
            "oracle_checked": int((~ambiguous).sum()),
            "oracle_ambiguous": int(ambiguous.sum()),
            "oracle_mismatched": int(wrong.sum()),
        }
        return failed, [], detail

    def computed_metrics(self, median) -> dict:
        flop = 2 * self.items_per_op * self.bank_rows * self.dim
        seconds = median("knn.weighted_knn_predict")
        return {
            "knn.gflops": flop / seconds / 1e9 if seconds > 0 else 0.0,
            "knn.sim_gflop": flop / 1e9,
            "knn.bank_bytes_read": self.bank_rows * self.dim * np.dtype(np.float32).itemsize,
        }


WORKLOADS = {w.name: w for w in (TrainWorkload, KnnWorkload)}
