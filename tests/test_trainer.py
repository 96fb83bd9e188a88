"""Adam oracle, training determinism, resume equivalence, label hygiene, and the
threaded step against the sequential oracle in step_reference.py."""

import functools
import json
import os
import resource
import subprocess
import sys
import threading
import types
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import ccaps.train as train_mod
from ccaps import blas
from ccaps.augment import AugmentConfig
from ccaps.autodiff import Tensor
from ccaps.checkpoint import CheckpointError, canonical_json
from ccaps.data import load_cifar10_binary
from ccaps.model import CapsuleNetwork, ModelConfig
from ccaps.train import (
    Adam,
    CheckpointMismatchError,
    CheckpointRecord,
    MetricsError,
    MetricsRow,
    TrainConfig,
    TrainingError,
    network_from_record,
    read_metrics_csv,
    train,
    write_metrics_csv,
)
from step_reference import sequential_train

THIN_MODEL = ModelConfig(
    conv_channels=(4, 8, 16),
    conv_strides=(2, 2, 2),
    primary_channels=16,
    capsule_dim=4,
    num_classes=10,
    class_capsule_dim=4,
)


def _config(**overrides) -> TrainConfig:
    defaults = dict(
        epochs=2,
        batch_size=16,
        seed=3,
        model=THIN_MODEL,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def train_subset(small_data_dir):
    split, _ = load_cifar10_binary(small_data_dir)
    return split.take(64)


def test_import_ccaps_train_binds_the_module_not_its_function():
    import ccaps

    assert isinstance(train_mod, types.ModuleType)
    assert ccaps.train is train_mod
    assert train_mod.train is train


# -- Adam ------------------------------------------------------------------------


def test_adam_three_step_hand_trace():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"p": p}, learning_rate=lr)
    g = 0.5

    theta, m, v = 1.0, 0.0, 0.0
    for t in range(1, 4):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        p.grad = np.array([g])
        opt.step()
        assert p.data[0] == pytest.approx(theta, abs=1e-12)


def test_adam_zero_gradient_keeps_parameter_and_decays_moments():
    p = Tensor(np.array([2.0]), requires_grad=True)
    opt = Adam({"p": p}, learning_rate=0.1)
    opt.m["p"][:] = 1.0
    opt.v["p"][:] = 1.0
    p.grad = np.array([0.0])
    opt.step()
    assert p.data[0] != 2.0  # stale momentum still moves it
    assert opt.m["p"][0] == pytest.approx(0.9)
    assert opt.v["p"][0] == pytest.approx(0.999)

    q = Tensor(np.array([2.0]), requires_grad=True)
    opt2 = Adam({"q": q}, learning_rate=0.1)
    q.grad = np.array([0.0])
    opt2.step()
    assert q.data[0] == pytest.approx(2.0, abs=1e-12)  # fresh moments, no motion


def test_adam_weight_decay_shrinks_magnitude_with_zero_gradient():
    p = Tensor(np.array([5.0, -5.0]), requires_grad=True)
    opt = Adam({"p": p}, learning_rate=0.01, weight_decay=0.1)
    for _ in range(5):
        p.grad = np.zeros(2)
        opt.step()
    assert np.all(np.abs(p.data) < 5.0)
    assert np.sign(p.data[0]) == 1 and np.sign(p.data[1]) == -1


def test_adam_rejects_non_finite_gradient():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"p": p}, learning_rate=0.1)
    p.grad = np.array([np.inf])
    with pytest.raises(TrainingError, match="non-finite"):
        opt.step()


def test_adam_non_finite_gradient_leaves_every_state_unchanged():
    a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    b = Tensor(np.array([0.5]), requires_grad=True)
    opt = Adam({"a": a, "b": b}, learning_rate=0.1, weight_decay=0.01)
    a.grad, b.grad = np.array([0.3, -0.2]), np.array([0.1])
    opt.step()
    steps, a_data, b_data, moments = opt.steps, a.data.copy(), b.data.copy(), opt.state_arrays()

    a.grad, b.grad = np.array([0.4, 0.1]), np.array([np.inf])
    with pytest.raises(TrainingError, match="non-finite gradient in 'b'"):
        opt.step()
    assert opt.steps == steps
    np.testing.assert_array_equal(a.data, a_data)
    np.testing.assert_array_equal(b.data, b_data)
    after = opt.state_arrays()
    assert set(after) == set(moments)
    for name, value in moments.items():
        np.testing.assert_array_equal(after[name], value, err_msg=name)


def test_adam_state_round_trip():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = Adam({"p": p}, learning_rate=0.1)
    p.grad = np.array([0.3, -0.2])
    opt.step()
    arrays, steps = opt.state_arrays(), opt.steps

    clone = Adam({"p": Tensor(p.data.copy(), requires_grad=True)}, learning_rate=0.1)
    clone.load_state(arrays, steps)
    np.testing.assert_array_equal(clone.m["p"], opt.m["p"])
    np.testing.assert_array_equal(clone.v["p"], opt.v["p"])
    assert clone.steps == opt.steps


# -- training loop ----------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        _config(temperature=0.0)
    with pytest.raises(ValueError):
        _config(batch_size=1)
    with pytest.raises(ValueError):
        _config(epochs=0)
    with pytest.raises(ValueError):
        _config(routing_iterations=0)


_BAD_RATES = [
    ("learning_rate", float("nan")),
    ("learning_rate", float("inf")),
    ("learning_rate", -1.0),
    ("weight_decay", -1.0),
    ("weight_decay", float("nan")),
    ("temperature", float("nan")),
    ("temperature", float("inf")),
]


@pytest.mark.parametrize("key, value", _BAD_RATES)
def test_config_refuses_a_non_finite_or_negative_rate(key, value):
    with pytest.raises(ValueError, match=key):
        TrainConfig(**{key: value})


@pytest.mark.parametrize("key, value", _BAD_RATES)
def test_config_from_dict_refuses_a_bad_rate_with_a_checkpoint_error(key, value):
    stored = json.loads(json.dumps(asdict(TrainConfig())))  # as a checkpoint stores it
    stored[key] = value
    with pytest.raises(CheckpointError, match=key):
        TrainConfig.from_dict(stored)


def test_config_dict_round_trip():
    cfg = _config(eval_every=2, checkpoint_every=1)
    assert TrainConfig.from_dict(asdict(cfg)) == cfg
    # as read back from a checkpoint, where JSON has turned tuples into lists
    stored = json.loads(canonical_json(asdict(cfg)))
    assert TrainConfig.from_dict(stored) == cfg
    assert TrainConfig.from_dict(stored).hash() == cfg.hash()


def test_config_hashes_are_stable():
    # a checkpoint resumes only under the hash it was written with
    assert TrainConfig().hash() == "53e21cb962ca3d63dd8bda7319ebe5b6ff6101cb399e5d10e073f81a9bc8d32a"
    custom = _config(
        temperature=0.5,
        augment=AugmentConfig(crop_scale_range=(0.3, 0.9), jitter_strengths=(0.1, 0.2, 0.3, 0.05)),
        model=ModelConfig(
            conv_channels=(4, 8, 16), conv_strides=(2, 2, 2),
            primary_channels=16, capsule_dim=4, class_capsule_dim=4,
        ),
    )
    assert custom.hash() == "7a30fe8a87f462137aa3e2a2b34b7f3b60c139685f7809accfbfdde8b4a471c6"


def test_config_from_dict_names_a_missing_or_unknown_key():
    stored = asdict(TrainConfig())
    del stored["model"]["padding"]
    with pytest.raises(CheckpointError, match="config.model: no 'padding' key"):
        TrainConfig.from_dict(stored)
    stored = asdict(TrainConfig())
    stored["augment"]["blur_probability"] = 0.5
    with pytest.raises(CheckpointError, match="config.augment: unknown key 'blur_probability'"):
        TrainConfig.from_dict(stored)
    stored = asdict(TrainConfig())
    stored["temperature"] = "warm"
    with pytest.raises(CheckpointError, match="invalid"):
        TrainConfig.from_dict(stored)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("model", "capsule_dim", 0),  # used to divide by zero
        ("model", "conv_strides", [1, 0, 1, 2, 1, 2]),  # used to divide by zero
        ("model", "kernel_size", 0),
        ("model", "kernel_size", 2.5),
        ("model", "num_classes", 0),
        ("model", "in_channels", 0),
        ("model", "image_size", -32),
        ("model", "primary_channels", 0),
        ("model", "class_capsule_dim", 0),
        ("model", "conv_channels", [16, 0, 32, 64, 64, 128]),
        ("model", "padding", -1),
        ("model", "bn_eps", 0.0),
        ("model", "bn_eps", float("inf")),  # every conv feature came out 0
        ("model", "bn_momentum", 1.5),
        ("model", "capsule_dim", None),
        ("augment", "crop_scale_range", [0.2, 0.5, 1.0]),
        ("augment", "jitter_strengths", [0.4, 0.4, 0.4]),
    ],
)
def test_config_from_dict_refuses_an_out_of_range_value_with_a_checkpoint_error(section, key, value):
    stored = asdict(TrainConfig())
    stored[section][key] = value
    with pytest.raises(CheckpointError, match=key):
        TrainConfig.from_dict(stored)


def test_config_from_dict_drops_the_removed_fields():
    # checkpoints written while TrainConfig had `deterministic` and
    # AugmentConfig a seed field still load
    stored = asdict(TrainConfig())
    stored["deterministic"] = True
    stored["augment"]["seed"] = 3
    assert TrainConfig.from_dict(stored) == TrainConfig()


def test_identical_seeds_identical_metrics_and_csv(train_subset, tmp_path):
    cfg = _config()
    a = train(cfg, train_subset, metrics_path=tmp_path / "a.csv")
    b = train(cfg, train_subset, metrics_path=tmp_path / "b.csv")
    assert [(r.epoch, r.loss) for r in a.metrics] == [(r.epoch, r.loss) for r in b.metrics]
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_zero_learning_rate_leaves_parameters_bitwise_unchanged(train_subset):
    cfg = _config(learning_rate=0.0, weight_decay=0.0, epochs=1)
    from ccaps.model import CapsuleNetwork

    fresh = CapsuleNetwork(cfg.model, seed=cfg.seed)
    before = fresh.state_arrays()
    result = train(cfg, train_subset)
    for name, arr in result.checkpoint.arrays.items():
        if name.startswith(("adam.", "norm.")) or "running" in name:
            continue
        np.testing.assert_array_equal(arr, before[name], err_msg=name)


def test_train_refuses_labelled_access(train_subset):
    # an images-only split must be sufficient end to end
    result = train(_config(epochs=1), train_subset.without_labels())
    assert result.checkpoint.epoch == 1


def test_split_run_equals_straight_run_bitwise(train_subset, tmp_path):
    # interruption flavor: snapshot at epoch 2 of 4, resume, compare to straight
    cfg_snap = _config(epochs=4, checkpoint_every=2)
    train(cfg_snap, train_subset, checkpoint_dir=tmp_path / "snap")
    record = CheckpointRecord.load(tmp_path / "snap" / "epoch_0002.ckpt")
    resumed = train(cfg_snap, train_subset, resume_from=record)
    straight = train(cfg_snap, train_subset)
    a = straight.checkpoint.save(tmp_path / "straight.ckpt")
    b = resumed.checkpoint.save(tmp_path / "resumed.ckpt")
    assert a.read_bytes() == b.read_bytes()

    # extension flavor: train 2, resume to 4, compare to a straight 4-epoch run
    two = train(_config(epochs=2), train_subset)
    extended = train(_config(epochs=4), train_subset, resume_from=two.checkpoint)
    c = train(_config(epochs=4), train_subset).checkpoint.save(tmp_path / "c.ckpt")
    d = extended.checkpoint.save(tmp_path / "d.ckpt")
    assert c.read_bytes() == d.read_bytes()


def test_resume_rejects_trajectory_config_change(train_subset):
    done = train(_config(epochs=1), train_subset)
    with pytest.raises(CheckpointMismatchError):
        train(_config(epochs=2, seed=99), train_subset, resume_from=done.checkpoint)
    with pytest.raises(CheckpointMismatchError):
        train(_config(epochs=2, learning_rate=5e-4), train_subset, resume_from=done.checkpoint)


def test_resumed_metrics_file_reads_as_one_run(train_subset, tmp_path):
    cfg4 = _config(epochs=4)
    straight_path = tmp_path / "straight.csv"
    train(cfg4, train_subset, metrics_path=straight_path)

    resumed_path = tmp_path / "resumed.csv"
    two = train(_config(epochs=2), train_subset, metrics_path=resumed_path)
    train(cfg4, train_subset, metrics_path=resumed_path, resume_from=two.checkpoint)
    assert straight_path.read_bytes() == resumed_path.read_bytes()


def test_resume_at_final_epoch_is_noop(train_subset):
    cfg = _config(epochs=2)
    done = train(cfg, train_subset)
    again = train(cfg, train_subset, resume_from=done.checkpoint)
    assert again.metrics == []
    assert again.checkpoint is done.checkpoint


def test_resumed_epoch_reproduces_recorded_loss(train_subset, tmp_path):
    cfg = _config(epochs=3, checkpoint_every=1)
    full = train(cfg, train_subset, checkpoint_dir=tmp_path)
    record = CheckpointRecord.load(tmp_path / "epoch_0002.ckpt")
    tail = train(cfg, train_subset, resume_from=record)
    assert len(tail.metrics) == 1
    assert tail.metrics[0].loss == full.metrics[2].loss


def _without(record: CheckpointRecord, array: str = "", meta: str = "") -> CheckpointRecord:
    """`record` less one array and/or one meta key."""
    return CheckpointRecord(
        arrays={k: v for k, v in record.arrays.items() if k != array},
        meta={k: v for k, v in record.meta.items() if k != meta},
    )


@pytest.fixture(scope="module")
def one_epoch_record(train_subset) -> CheckpointRecord:
    return train(_config(epochs=1), train_subset).checkpoint


def test_network_from_record_names_a_missing_norm_array(one_epoch_record):
    for name in ("norm.mean", "norm.std"):
        with pytest.raises(CheckpointError, match=name):
            network_from_record(_without(one_epoch_record, array=name))


def test_resume_names_a_missing_meta_key(one_epoch_record, train_subset):
    for key in ("adam_steps", "epoch"):
        with pytest.raises(CheckpointError, match=key):
            train(_config(), train_subset, resume_from=_without(one_epoch_record, meta=key))


def test_resume_names_a_missing_adam_moment(one_epoch_record, train_subset):
    for name in ("adam.m.conv1.weight", "adam.v.class_caps.weight"):
        with pytest.raises(CheckpointError, match=name):
            train(_config(), train_subset, resume_from=_without(one_epoch_record, array=name))


def _with(record: CheckpointRecord, name: str, array: np.ndarray) -> CheckpointRecord:
    """`record` with one array replaced."""
    return CheckpointRecord(arrays={**record.arrays, name: array}, meta=record.meta)


def test_resume_refuses_a_model_array_in_a_second_dtype(one_epoch_record, train_subset):
    widened = one_epoch_record.arrays["conv1.weight"].astype(np.float64)
    with pytest.raises(ValueError, match="mix dtypes"):
        train(_config(), train_subset, resume_from=_with(one_epoch_record, "conv1.weight", widened))


@pytest.mark.parametrize("change", ["dtype", "shape"])
def test_resume_refuses_an_adam_moment_unlike_its_parameter(one_epoch_record, train_subset, change):
    name = "adam.v.conv1.weight"
    moment = one_epoch_record.arrays[name]
    bad = moment.astype(np.float64) if change == "dtype" else moment[:1]
    with pytest.raises(CheckpointError, match=name):
        train(_config(), train_subset, resume_from=_with(one_epoch_record, name, bad))


def test_checkpoint_reload_reproduces_eval_forward_bitwise(train_subset):
    cfg = _config(epochs=1)
    result = train(cfg, train_subset)
    net, stats, _ = network_from_record(result.checkpoint)
    from ccaps.data import standardize, to_unit_interval

    x = standardize(to_unit_interval(train_subset.images[:4]), stats)
    first = net.forward(x, mode="eval", routing_iterations=cfg.routing_iterations)

    clone, stats2, _ = network_from_record(
        CheckpointRecord(
            arrays={k: v.copy() for k, v in result.checkpoint.arrays.items()},
            meta=result.checkpoint.meta,
        )
    )
    second = clone.forward(x, mode="eval", routing_iterations=cfg.routing_iterations)
    np.testing.assert_array_equal(first.z.data, second.z.data)
    np.testing.assert_array_equal(first.h.data, second.h.data)


def test_non_finite_loss_aborts_with_batch_index(train_subset, tmp_path, monkeypatch):
    def poisoned(z, tau):
        return Tensor(np.float32(np.inf))

    monkeypatch.setattr(train_mod, "nt_xent_op", poisoned)
    with pytest.raises(TrainingError, match=r"epoch 1, batch 0"):
        train(_config(epochs=1), train_subset, checkpoint_dir=tmp_path, metrics_path=tmp_path / "m.csv")
    assert list(tmp_path.iterdir()) == []  # no epoch completed, so nothing is written


def test_divergence_keeps_the_completed_epochs_and_resumes_bit_for_bit(
    train_subset, tmp_path, monkeypatch
):
    step = Adam.step

    def poisoned_step(self):
        if self.steps == 10:  # epoch 3, batch 2: four batches of 16 per epoch
            self.params["conv1.weight"].grad[0, 0, 0, 0] = np.inf
        step(self)

    cfg = _config(epochs=4)
    run = tmp_path / "run"
    monkeypatch.setattr(Adam, "step", poisoned_step)
    with pytest.raises(TrainingError, match=r"'conv1.weight' at epoch 3, batch 2$"):
        train(cfg, train_subset, checkpoint_dir=run, metrics_path=run / "m.csv")
    monkeypatch.undo()

    kept = CheckpointRecord.load(run / "final.ckpt")
    assert kept.epoch == 2 and kept.meta["adam_steps"] == 8
    assert [r.epoch for r in read_metrics_csv(run / "m.csv")] == [1, 2]
    # epoch 3 had already updated the weights twice; the record must not see it
    resumed = train(cfg, train_subset, checkpoint_dir=run, metrics_path=run / "m.csv", resume_from=kept)
    straight = tmp_path / "straight"
    train(cfg, train_subset, checkpoint_dir=straight, metrics_path=straight / "m.csv")
    assert resumed.checkpoint.epoch == 4
    assert (run / "final.ckpt").read_bytes() == (straight / "final.ckpt").read_bytes()
    assert (run / "m.csv").read_bytes() == (straight / "m.csv").read_bytes()


def test_a_crashed_run_keeps_the_metrics_of_its_last_checkpoint(train_subset, tmp_path):
    def crash_in_epoch_3(row):
        if row.epoch == 3:  # stands for any uncaught error, or a SIGKILL
            raise RuntimeError("crash")

    cfg = _config(epochs=4, checkpoint_every=2)
    run = tmp_path / "run"
    with pytest.raises(RuntimeError, match="crash"):
        train(cfg, train_subset, checkpoint_dir=run, metrics_path=run / "m.csv", progress=crash_in_epoch_3)
    assert not (run / "final.ckpt").exists()
    assert [r.epoch for r in read_metrics_csv(run / "m.csv")] == [1, 2]

    kept = CheckpointRecord.load(run / "epoch_0002.ckpt")
    train(cfg, train_subset, checkpoint_dir=run, metrics_path=run / "m.csv", resume_from=kept)
    straight = tmp_path / "straight"
    train(cfg, train_subset, checkpoint_dir=straight, metrics_path=straight / "m.csv")
    assert (run / "m.csv").read_bytes() == (straight / "m.csv").read_bytes()


def test_interrupt_writes_final_checkpoint(train_subset, tmp_path):
    calls = []

    def explode_after_first(row):
        calls.append(row)
        raise KeyboardInterrupt

    result = train(
        _config(epochs=5),
        train_subset,
        checkpoint_dir=tmp_path,
        metrics_path=tmp_path / "m.csv",
        progress=explode_after_first,
    )
    assert result.interrupted
    assert result.checkpoint.epoch == 1
    assert (tmp_path / "final.ckpt").exists()
    assert len(read_metrics_csv(tmp_path / "m.csv")) == 1


def _assert_replays_sequential(config, split):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two views' Python as finely as it goes
    try:
        result = train(config, split)
    finally:
        sys.setswitchinterval(interval)
    losses, arrays = sequential_train(config, split)
    assert [row.loss for row in result.metrics] == losses
    got = {k: v for k, v in result.checkpoint.arrays.items() if not k.startswith("norm.")}
    assert set(got) == set(arrays)
    for name, expected in arrays.items():
        assert got[name].dtype == expected.dtype and got[name].tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("iterations", [1, 3])
def test_threaded_step_replays_the_sequential_step(train_subset, iterations):
    # four batches of 16 per epoch
    _assert_replays_sequential(_config(epochs=3, routing_iterations=iterations), train_subset)


def test_threaded_step_replays_the_sequential_step_on_the_default_model(small_data_dir):
    split, _ = load_cifar10_binary(small_data_dir)
    _assert_replays_sequential(TrainConfig(epochs=1, batch_size=64, seed=5), split.take(128))


@pytest.mark.parametrize("way_out", ["return", "worker error", "interrupt"])
def test_train_leaves_no_thread_and_restores_blas_threads(train_subset, monkeypatch, way_out):
    threads, before = threading.active_count(), blas.thread_count()
    forward = CapsuleNetwork.forward
    seen = []  # (thread is the main thread, BLAS threads) at each view's forward
    error = TrainingError("view j failed")

    def watched(self, *args, **kwargs):
        on_main = threading.current_thread() is threading.main_thread()
        seen.append((on_main, blas.thread_count()))
        if way_out == "worker error" and not on_main:
            raise error
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(CapsuleNetwork, "forward", watched)
    if way_out == "worker error":
        with pytest.raises(TrainingError) as raised:
            train(_config(epochs=2), train_subset)
        assert raised.value is error
    else:

        def progress(row):
            if way_out == "interrupt":
                raise KeyboardInterrupt

        result = train(_config(epochs=2), train_subset, progress=progress)
        assert result.interrupted == (way_out == "interrupt")
    assert threading.active_count() == threads
    assert {on_main for on_main, _ in seen} == {True, False}  # one view on each thread
    assert blas.thread_count() == before
    assert {count for _, count in seen} == {max(1, before // 2)}


def test_a_three_image_split_at_batch_two_trains_each_epoch_on_one_batch(train_subset):
    steps = []
    result = train(_config(epochs=3, batch_size=2), train_subset.take(3), progress=steps.append)
    assert [row.epoch for row in steps] == [1, 2, 3]
    assert result.checkpoint.meta["adam_steps"] == 3  # the single image left over is skipped


def test_an_interrupt_with_the_next_views_in_flight_keeps_the_completed_epochs(
    train_subset, tmp_path, monkeypatch
):
    threads = threading.active_count()
    augment = train_mod._two_view_batch
    started, release, finished = threading.Event(), threading.Event(), threading.Event()
    in_flight = []

    def held_epoch_3(step, config, stats):
        if step[0] == 3:
            started.set()
            release.wait(10)  # held until epoch 2's progress has looked
        views = augment(step, config, stats)
        if step[0] == 3:
            finished.set()
        return views

    def interrupt_at_epoch_2(row):
        if row.epoch == 2:
            in_flight.append(started.wait(10) and not finished.is_set())
            release.set()
            raise KeyboardInterrupt

    monkeypatch.setattr(train_mod, "_two_view_batch", held_epoch_3)
    stopped = tmp_path / "stopped"
    result = train(
        _config(epochs=5), train_subset, checkpoint_dir=stopped, metrics_path=stopped / "m.csv",
        progress=interrupt_at_epoch_2,
    )
    assert in_flight == [True]  # epoch 3's views were in flight when progress raised
    assert result.interrupted and finished.is_set()  # train waited for the views it discarded
    assert threading.active_count() == threads
    monkeypatch.undo()

    straight = tmp_path / "straight"
    expected = train(_config(epochs=2), train_subset, checkpoint_dir=straight, metrics_path=straight / "m.csv")
    got, want = result.checkpoint, expected.checkpoint
    assert got.epoch == want.epoch == 2 and set(got.arrays) == set(want.arrays)
    for name, array in want.arrays.items():
        assert got.arrays[name].tobytes() == array.tobytes(), name
    # the stored configs differ only in the operational epoch count
    assert {k: v for k, v in got.meta.items() if k != "config"} == {
        k: v for k, v in want.meta.items() if k != "config"
    }
    assert (stopped / "m.csv").read_bytes() == (straight / "m.csv").read_bytes()


def test_an_augmentation_error_on_the_worker_is_raised_as_itself(train_subset, monkeypatch):
    threads = threading.active_count()
    augment = train_mod._two_view_batch
    error = RuntimeError("augmentation failed")

    def fail_at_epoch_2(step, config, stats):
        if step[0] == 2:  # (epoch, batch index, batch)
            raise error
        return augment(step, config, stats)

    monkeypatch.setattr(train_mod, "_two_view_batch", fail_at_epoch_2)
    with pytest.raises(RuntimeError) as raised:
        train(_config(epochs=3), train_subset)
    assert raised.value is error
    assert threading.active_count() == threads


# Median minor page faults per epoch over epochs 3-6, in a fresh process: the
# settings are process-wide, and a thread that ended earlier in this process
# leaves its glibc arena free for a later worker to take.
_FAULT_PROBE = """
import resource, statistics
import numpy as np
from ccaps.data import DatasetSplit
from ccaps.train import TrainConfig, train
images = np.random.default_rng(7).integers(0, 256, (64, 3, 32, 32), dtype=np.uint8)
faults, last = [], [resource.getrusage(resource.RUSAGE_SELF).ru_minflt]
def progress(row):
    now = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    faults.append(now - last[0])
    last[0] = now
train(TrainConfig(epochs=6, batch_size=64, seed=7), DatasetSplit(images, None, "train"), progress=progress)
print(statistics.median(faults[2:]))
"""
FAULTS_PER_STEP_BOUND = 1000  # under 1 % of the ~110k pages a step allocates; 9-20k without the settings


@pytest.mark.skipif(train_mod._glibc() is None, reason="the heap settings act on glibc only")
def test_a_default_model_step_does_not_fault_its_memory_in_again():
    src = str(Path(train_mod.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < FAULTS_PER_STEP_BOUND


@pytest.mark.skipif(train_mod._glibc() is None, reason="the heap settings act on glibc only")
def test_the_kept_heap_reuses_the_largest_array_of_a_paper_scale_step():
    libc = train_mod._keep_heap()
    model = ModelConfig()
    votes = 512 * model.num_primary_capsules * model.embedding_dim  # float32 votes at batch 512
    faults = []
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        np.ones(votes, np.float32)  # allocated, written and freed
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    libc.malloc_trim(0)
    # mmapped (above the threshold), the second array is faulted in again page by page
    assert faults[1] <= 16, faults


def test_train_without_glibc_writes_the_same_checkpoint_bytes(train_subset, tmp_path, monkeypatch):
    train(_config(epochs=1), train_subset, checkpoint_dir=tmp_path / "set")
    # a fresh once-per-process helper, so the real one keeps its state
    monkeypatch.setattr(train_mod, "_keep_heap", functools.cache(train_mod._keep_heap.__wrapped__))
    monkeypatch.setattr(train_mod, "_glibc", lambda: None)
    train(_config(epochs=1), train_subset, checkpoint_dir=tmp_path / "unset")
    assert (tmp_path / "unset" / "final.ckpt").read_bytes() == (tmp_path / "set" / "final.ckpt").read_bytes()


def test_train_sets_the_heap_once_per_process_and_trims_once_per_call(train_subset, monkeypatch):
    calls = []
    libc = types.SimpleNamespace(
        mallopt=lambda param, value: calls.append(("mallopt", param, value)),
        malloc_trim=lambda pad: calls.append(("malloc_trim", pad)),
    )
    monkeypatch.setattr(train_mod, "_keep_heap", functools.cache(train_mod._keep_heap.__wrapped__))
    monkeypatch.setattr(train_mod, "_glibc", lambda: libc)

    def interrupt(row):
        raise KeyboardInterrupt

    train(_config(epochs=1), train_subset)
    assert train(_config(epochs=2), train_subset, progress=interrupt).interrupted
    assert calls == [
        ("mallopt", train_mod._M_MMAP_THRESHOLD, 256 << 20),
        ("mallopt", train_mod._M_TRIM_THRESHOLD, 1 << 30),
        ("mallopt", train_mod._M_ARENA_MAX, 1),
        ("malloc_trim", 0),
        ("malloc_trim", 0),
    ]


def test_eval_hook_cadence(train_subset):
    seen = []

    def hook(record, epoch):
        seen.append(epoch)
        return 12.5, 50.0

    result = train(_config(epochs=4, eval_every=2), train_subset, eval_hook=hook)
    assert seen == [2, 4]
    assert result.metrics[1].top1 == 12.5
    assert result.metrics[0].top1 is None


# -- metrics csv -------------------------------------------------------------------


def test_metrics_csv_round_trip(tmp_path):
    rows = [
        MetricsRow(epoch=1, loss=4.125),
        MetricsRow(epoch=2, loss=3.5, top1=12.34, top5=55.0),
    ]
    path = write_metrics_csv(tmp_path / "m.csv", rows)
    text = path.read_text()
    assert text.splitlines()[0] == "epoch,loss,top1,top5"
    back = read_metrics_csv(path)
    assert back[0].top1 is None
    assert back[1].top1 == 12.34
    assert back[1].loss == 3.5
    assert back == rows

    # a file written while rows had a wall-clock column reads the same rows
    old = tmp_path / "old.csv"
    old.write_text("epoch,loss,seconds,top1,top5\n1,4.125,0.000,,\n2,3.5,12.625,12.34,55.00\n")
    assert read_metrics_csv(old) == rows


def test_metrics_csv_malformed_row_reports_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("epoch,loss,seconds,top1,top5\n1,2.0,0.0,,\nnot,a,row\n")
    with pytest.raises(MetricsError, match="line 3"):
        read_metrics_csv(path)
    path.write_text("bogus header\n")
    with pytest.raises(MetricsError, match="line 1"):
        read_metrics_csv(path)
