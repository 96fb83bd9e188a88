"""Adam oracle, training determinism, resume equivalence, label hygiene."""

import json

import numpy as np
import pytest

from ccaps.augment import AugmentConfig
from ccaps.autodiff import Tensor
from ccaps.checkpoint import CheckpointError, canonical_json
from ccaps.data import load_cifar10_binary
from ccaps.model import ModelConfig
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
        deterministic=True,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def train_subset(small_data_dir):
    split, _ = load_cifar10_binary(small_data_dir)
    return split.take(64)


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


def test_config_dict_round_trip():
    cfg = _config(eval_every=2, checkpoint_every=1)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    # as read back from a checkpoint, where JSON has turned tuples into lists
    stored = json.loads(canonical_json(cfg.to_dict()))
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
    stored = TrainConfig().to_dict()
    del stored["model"]["padding"]
    with pytest.raises(CheckpointError, match="config.model: no 'padding' key"):
        TrainConfig.from_dict(stored)
    stored = TrainConfig().to_dict()
    stored["augment"]["blur_probability"] = 0.5
    with pytest.raises(CheckpointError, match="config.augment: unknown key 'blur_probability'"):
        TrainConfig.from_dict(stored)
    stored = TrainConfig().to_dict()
    stored["temperature"] = "warm"
    with pytest.raises(CheckpointError, match="invalid"):
        TrainConfig.from_dict(stored)


def test_config_from_dict_drops_the_removed_augment_seed():
    # checkpoints written while AugmentConfig had a seed field still load
    stored = TrainConfig().to_dict()
    stored["augment"]["seed"] = 3
    assert TrainConfig.from_dict(stored) == TrainConfig()


def test_identical_seeds_identical_metrics_and_csv(train_subset, tmp_path):
    cfg = _config()
    a = train(cfg, train_subset, metrics_path=tmp_path / "a.csv")
    b = train(cfg, train_subset, metrics_path=tmp_path / "b.csv")
    assert [(r.epoch, r.loss, r.seconds) for r in a.metrics] == [
        (r.epoch, r.loss, r.seconds) for r in b.metrics
    ]
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


def test_non_finite_loss_aborts_with_batch_index(train_subset, monkeypatch):
    import importlib

    train_mod = importlib.import_module("ccaps.train")

    def poisoned(z, tau):
        return Tensor(np.float32(np.inf))

    monkeypatch.setattr(train_mod, "nt_xent_op", poisoned)
    with pytest.raises(TrainingError, match=r"epoch 1, batch 0"):
        train(_config(epochs=1), train_subset)


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


def test_non_deterministic_mode_records_wall_clock(train_subset):
    result = train(_config(epochs=1, deterministic=False), train_subset)
    assert result.metrics[0].seconds > 0.0

    deterministic = train(_config(epochs=1), train_subset)
    assert deterministic.metrics[0].seconds == 0.0


def test_metrics_csv_round_trip(tmp_path):
    rows = [
        MetricsRow(epoch=1, loss=4.125, seconds=0.0),
        MetricsRow(epoch=2, loss=3.5, seconds=0.0, top1=12.34, top5=55.0),
    ]
    path = write_metrics_csv(tmp_path / "m.csv", rows)
    text = path.read_text()
    assert text.splitlines()[0] == "epoch,loss,seconds,top1,top5"
    back = read_metrics_csv(path)
    assert back[0].top1 is None
    assert back[1].top1 == 12.34
    assert back[1].loss == 3.5


def test_metrics_csv_malformed_row_reports_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("epoch,loss,seconds,top1,top5\n1,2.0,0.0,,\nnot,a,row\n")
    with pytest.raises(MetricsError, match="line 3"):
        read_metrics_csv(path)
    path.write_text("bogus header\n")
    with pytest.raises(MetricsError, match="line 1"):
        read_metrics_csv(path)
