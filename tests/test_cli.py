"""CLI behavior end to end, against a synthetic dataset on disk."""

import hashlib
import io
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tarfile
import threading
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import ccaps
import ccaps.train as train_mod
from ccaps.augment import AugmentConfig
from ccaps.cli import (
    _DEFAULTS,
    CONFIG_KEYS,
    DirectoryLock,
    _TUPLE_KEYS,
    _flat_settings,
    _resolve_settings,
    _train_config,
    build_parser,
    main,
    parse_run_config,
)
from ccaps.checkpoint import CheckpointError
from ccaps.model import ModelConfig
from ccaps.train import CheckpointRecord, TrainConfig, read_metrics_csv
from synth import make_archive, write_synthetic_cifar


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    root = tmp_path_factory.mktemp("fetch-src")
    data = write_synthetic_cifar(root / "raw", n_train=100, n_test=20, seed=21)
    path = make_archive(data, root / "dataset.tar.gz")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return path, digest


def test_fetch_copies_verifies_and_is_idempotent(archive, tmp_path, capsys):
    path, digest = archive
    dest = tmp_path / "data"
    assert main(["fetch", str(path), "--checksum", digest, "--dest", str(dest)]) == 0
    out = capsys.readouterr().out
    assert "fetched and verified" in out
    assert (dest / "cifar-10-batches-bin" / "data_batch_1.bin").exists()

    assert main(["fetch", str(path), "--checksum", digest, "--dest", str(dest)]) == 0
    assert "already fetched" in capsys.readouterr().out


def test_fetch_wrong_checksum_leaves_directory_untouched(archive, tmp_path, capsys):
    path, _ = archive
    dest = tmp_path / "data"
    rc = main(["fetch", str(path), "--checksum", "0" * 64, "--dest", str(dest)])
    assert rc == 1
    assert "checksum mismatch" in capsys.readouterr().err
    assert not dest.exists()


def test_fetch_explicit_scheme_prefix(archive, tmp_path):
    path, _ = archive
    md5 = hashlib.md5(path.read_bytes()).hexdigest()
    dest = tmp_path / "data"
    assert main(["fetch", str(path), "--checksum", f"md5:{md5}", "--dest", str(dest)]) == 0


def test_fetch_rejects_a_file_written_through_a_symlink_member(tmp_path, capsys):
    # each member name passes a name-only check: no "..", not absolute
    source = tmp_path / "hostile.tar"
    with tarfile.open(source, "w") as tar:
        link = tarfile.TarInfo("cifar-10-batches-bin")
        link.type = tarfile.SYMTYPE
        link.linkname = "../outside"
        tar.addfile(link)
        payload = b"written outside --dest\n"
        member = tarfile.TarInfo("cifar-10-batches-bin/escaped.txt")
        member.size = len(payload)
        tar.addfile(member, io.BytesIO(payload))
    (tmp_path / "outside").mkdir()
    digest = hashlib.sha256(source.read_bytes()).hexdigest()

    rc = main(["fetch", str(source), "--checksum", digest, "--dest", str(tmp_path / "data")])
    assert not (tmp_path / "outside" / "escaped.txt").exists()
    assert rc == 1
    assert "archive member" in capsys.readouterr().err


def test_fetch_without_extraction_filters_refuses_before_writing(archive, tmp_path, capsys, monkeypatch):
    path, digest = archive
    dest = tmp_path / "data"
    monkeypatch.delattr(tarfile, "data_filter")  # a Python from before PEP 706
    rc = main(["fetch", str(path), "--checksum", digest, "--dest", str(dest)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "PEP 706" in err, err
    assert not dest.exists() or not any(dest.iterdir())


def test_fetched_directory_passes_loader_validation(archive, tmp_path):
    path, digest = archive
    dest = tmp_path / "data"
    main(["fetch", str(path), "--checksum", digest, "--dest", str(dest)])
    from ccaps.data import load_cifar10_binary

    train, test = load_cifar10_binary(dest)
    assert len(train) == 100 and len(test) == 20


# -- run config ---------------------------------------------------------------


def test_parse_run_config_values_and_comments(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# smoke settings\n"
        "epochs = 2\n"
        "batch_size = 16   # small\n"
        "learning_rate = 1e-3\n"
        "crop_scale_min = 0.5\n"
    )
    values = parse_run_config(cfg)
    assert values == {
        "epochs": 2,
        "batch_size": 16,
        "learning_rate": 1e-3,
        "crop_scale_min": 0.5,
    }


def test_parse_run_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 2\nbogus_key = 5\n")
    from ccaps.cli import CliError

    with pytest.raises(CliError, match=r"line 2: unknown config key 'bogus_key'"):
        parse_run_config(cfg)

    # a removed setting is an unknown key like any other
    cfg.write_text("epochs = 2\ndeterministic = true\n")
    with pytest.raises(CliError, match=r"line 2: unknown config key 'deterministic'"):
        parse_run_config(cfg)


def test_parse_run_config_reports_bad_value_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = soon\n")
    from ccaps.cli import CliError

    with pytest.raises(CliError, match="line 1"):
        parse_run_config(cfg)


def test_every_flagged_key_is_documented(tmp_path, monkeypatch):
    # the README's key list names every config key, each once; every key
    # reaches the resolver from its train flag and from a config file alike,
    # and lands in its own TrainConfig field
    monkeypatch.delenv("CCAPS_DATA_DIR", raising=False)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (listed,) = re.findall(r"^Keys: (.*?)\.$", readme, re.M | re.S)
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(CONFIG_KEYS)
    parser = build_parser()
    defaults = _resolve_settings(parser.parse_args(["train"]), _DEFAULTS)
    assert _train_config(defaults) == TrainConfig()
    assert _train_config(defaults).hash() == TrainConfig().hash()

    # the tuple fields' components, in order
    augment = AugmentConfig(crop_scale_range=(0.3, 0.6), jitter_strengths=(0.1, 0.2, 0.3, 0.4))
    flat = _flat_settings(TrainConfig(augment=augment))
    assert [flat["crop_scale_min"], flat["crop_scale_max"]] == [0.3, 0.6]
    assert [flat[f"jitter_{c}"] for c in ("brightness", "contrast", "saturation", "hue")] == [0.1, 0.2, 0.3, 0.4]

    config_defaults = _flat_settings(TrainConfig())
    for key, parse in CONFIG_KEYS.items():
        # a valid value that differs from the default
        if parse is str:
            value = f"dir/{key}"
        elif parse is int:
            value = defaults[key] + 3
        else:
            value = defaults[key] / 2
        flags = ["--" + key.replace("_", "-"), str(value)]
        from_flag = _resolve_settings(parser.parse_args(["train", *flags]), _DEFAULTS)
        assert from_flag == {**defaults, key: value}, key

        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key} = {value}\n")
        from_file = _resolve_settings(parser.parse_args(["train", "--config", str(cfg)]), _DEFAULTS)
        assert from_file == from_flag, key
        built = _train_config(from_file)
        assert built == _train_config(from_flag), key
        if key in config_defaults:
            assert _flat_settings(built) == {**config_defaults, key: value}, key
        else:
            assert built == TrainConfig(), key


# -- train / eval / plot pipeline ------------------------------------------------


@pytest.fixture(scope="module")
def cli_run(small_data_dir, tmp_path_factory):
    """A short CLI training run shared by the pipeline tests."""
    out = tmp_path_factory.mktemp("cli-run")
    rc = main(
        [
            "train",
            "--data-dir", str(small_data_dir),
            "--checkpoint-dir", str(out / "ckpt"),
            "--metrics-path", str(out / "metrics.csv"),
            "--epochs", "2",
            "--batch-size", "16",
            "--subset", "64",
            "--eval-every", "2",
            "--eval-test-subset", "50",
            "--knn-k", "8",
            "--seed", "1",
        ]
    )
    return rc, out


def test_cli_train_writes_artifacts(cli_run, capsys):
    rc, out = cli_run
    assert rc == 0
    assert (out / "ckpt" / "final.ckpt").exists()
    with DirectoryLock(out / "ckpt"):  # released
        pass
    rows = read_metrics_csv(out / "metrics.csv")
    assert len(rows) == 2
    assert rows[1].top1 is not None  # eval ran at epoch 2


def test_cli_train_streams_epoch_lines(small_data_dir, tmp_path, capsys):
    rc = main(
        [
            "train",
            "--data-dir", str(small_data_dir),
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--epochs", "1",
            "--batch-size", "16",
            "--subset", "32",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "epoch 1  loss" in out


def test_cli_train_missing_data_dir_names_fetch(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CCAPS_DATA_DIR", raising=False)
    rc = main(["train", "--checkpoint-dir", str(tmp_path / "c"), "--epochs", "1"])
    assert rc == 1
    assert "ccaps fetch" in capsys.readouterr().err


def test_cli_train_dry_run_prints_profile(capsys):
    rc = main(["train", "--dry-run"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Conv2d-1" in out and "published" in out


def test_cli_train_accepts_paper_scale_dry_run(capsys):
    rc = main(["train", "--paper-scale", "--dry-run"])
    assert rc == 0


def _small_train_args(data_dir, ckpt):
    return [
        "train",
        "--data-dir", str(data_dir),
        "--checkpoint-dir", str(ckpt),
        "--epochs", "1",
        "--batch-size", "16",
        "--subset", "32",
    ]


def test_cli_train_rejects_a_negative_subset(small_data_dir, tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    rc = main([*_small_train_args(small_data_dir, ckpt), "--subset", "-3"])
    assert rc == 1
    assert "non-negative" in capsys.readouterr().err
    assert not (ckpt / "final.ckpt").exists()


@pytest.mark.parametrize("metrics", ["missing/dir/m.csv", "file/dir/m.csv", "directory"])
def test_cli_train_refuses_a_metrics_path_it_cannot_write_before_training(
    small_data_dir, tmp_path, capsys, metrics
):
    # the CSV is written before final.ckpt: a path found bad at the end lost the run
    (tmp_path / "file").write_text("not a directory\n")
    (tmp_path / "directory").mkdir()
    metrics = tmp_path / metrics
    ckpt = tmp_path / "ckpt"
    rc = main([*_small_train_args(small_data_dir, ckpt), "--metrics-path", str(metrics)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and str(metrics) in captured.err, captured.err
    assert "epoch" not in captured.out and not ckpt.exists()


def test_cli_train_checkpoint_dir_naming_a_file_fails_cleanly(small_data_dir, tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    ckpt.write_text("not a directory\n")
    rc = main(_small_train_args(small_data_dir, ckpt))
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and str(ckpt) in captured.err, captured.err
    assert "epoch" not in captured.out and ckpt.read_text() == "not a directory\n"


def test_cli_train_lock_blocks_concurrent_runs(small_data_dir, tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    with DirectoryLock(ckpt):  # a live holder
        rc = main(_small_train_args(small_data_dir, ckpt))
    assert rc == 1
    assert "lock" in capsys.readouterr().err
    assert not (ckpt / "final.ckpt").exists()


def test_cli_train_lock_left_by_a_dead_run_does_not_block(small_data_dir, tmp_path):
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    (ckpt / ".lock").write_text("999999")  # a run that was SIGKILLed
    assert main(_small_train_args(small_data_dir, ckpt)) == 0
    assert CheckpointRecord.load(ckpt / "final.ckpt").epoch == 1


def test_cli_divergence_exits_3_and_keeps_the_completed_epochs(
    small_data_dir, tmp_path, capsys, monkeypatch
):
    from ccaps.autodiff import Tensor

    loss = train_mod.nt_xent_op
    steps = []

    def diverge_in_epoch_2(z, tau):
        steps.append(None)
        return Tensor(np.float32(np.inf)) if len(steps) == 4 else loss(z, tau)

    monkeypatch.setattr(train_mod, "nt_xent_op", diverge_in_epoch_2)
    ckpt = tmp_path / "ckpt"
    rc = main([*_small_train_args(small_data_dir, ckpt), "--epochs", "3"])  # two batches an epoch
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err.startswith("error:") and "epoch 2, batch 1" in err, err
    assert CheckpointRecord.load(ckpt / "final.ckpt").epoch == 1
    assert [r.epoch for r in read_metrics_csv(ckpt / "metrics.csv")] == [1]
    assert sorted(p.name for p in ckpt.iterdir()) == [".lock", "final.ckpt", "metrics.csv"]
    with DirectoryLock(ckpt):  # released
        pass


def test_cli_sigterm_writes_final_checkpoint_and_releases_lock(small_data_dir, tmp_path):
    ckpt = tmp_path / "ckpt"
    argv = [*_small_train_args(small_data_dir, ckpt), "--epochs", "1000"]  # the last flag wins
    src = str(Path(ccaps.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ccaps.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    watchdog = threading.Timer(300, proc.kill)  # a hung run must not hang the suite
    watchdog.start()
    try:
        for line in proc.stdout:
            if line.startswith("epoch 1 "):
                break
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate()
    finally:
        watchdog.cancel()
        proc.kill()
    assert proc.returncode == 130, err
    assert "interrupted" in err
    assert CheckpointRecord.load(ckpt / "final.ckpt").epoch >= 1
    with DirectoryLock(ckpt):  # a new run can take the lock
        pass


def test_cli_seed_gives_the_api_config_hash(small_data_dir, tmp_path):
    # a CLI checkpoint resumes under the TrainConfig the API builds
    ckpt = tmp_path / "ckpt"
    assert main([*_small_train_args(small_data_dir, ckpt), "--seed", "3"]) == 0
    record = CheckpointRecord.load(ckpt / "final.ckpt")
    assert record.meta["config_hash"] == TrainConfig(seed=3, batch_size=16).hash()


def test_cli_config_file_with_flag_override(small_data_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"data_dir = {small_data_dir}\n"
        f"checkpoint_dir = {tmp_path / 'ckpt'}\n"
        "epochs = 5\n"
        "batch_size = 16\n"
        "subset = 32\n"
        "seed = 2\n"
    )
    rc = main(["train", "--config", str(cfg), "--epochs", "1"])  # flag wins
    assert rc == 0
    record = CheckpointRecord.load(tmp_path / "ckpt" / "final.ckpt")
    assert record.epoch == 1
    assert record.meta["config"]["seed"] == 2


def test_cli_eval_reports_k_and_temperature(cli_run, small_data_dir, capsys):
    _, out = cli_run
    rc = main(
        [
            "eval",
            "--checkpoint", str(out / "ckpt" / "final.ckpt"),
            "--data-dir", str(small_data_dir),
            "--subset", "64",
            "--eval-test-subset", "50",
            "--knn-k", "8",
            "--csv-out", str(out / "eval.csv"),
        ]
    )
    text = capsys.readouterr().out
    assert rc == 0
    assert "k=8" in text and "temperature=0.2" in text
    assert "top-1 accuracy" in text and "top-5 accuracy" in text
    lines = (out / "eval.csv").read_text().splitlines()
    assert lines[0] == "checkpoint,k,temperature,total,top1,top5"
    assert len(lines) == 2


def test_cli_eval_temperature_flag_over_file_over_checkpoint(small_data_dir, tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    assert main([*_small_train_args(small_data_dir, ckpt), "--temperature", "0.5"]) == 0
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("temperature = 0.3\n")
    base = [
        "eval",
        "--checkpoint", str(ckpt / "final.ckpt"),
        "--data-dir", str(small_data_dir),
        "--subset", "32",
        "--eval-test-subset", "20",
        "--knn-k", "5",
    ]
    capsys.readouterr()
    for extra, expected in (
        ([], "temperature=0.5"),
        (["--config", str(cfg)], "temperature=0.3"),
        (["--config", str(cfg), "--temperature", "0.4"], "temperature=0.4"),
    ):
        assert main([*base, *extra]) == 0
        assert expected in capsys.readouterr().out, extra


def test_cli_eval_missing_checkpoint_fails_cleanly(small_data_dir, tmp_path, capsys):
    rc = main(
        [
            "eval",
            "--checkpoint", str(tmp_path / "absent.ckpt"),
            "--data-dir", str(small_data_dir),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_eval_malformed_checkpoint_config_fails_cleanly(cli_run, small_data_dir, tmp_path, capsys, monkeypatch):
    def no_data(*args):
        raise AssertionError("data loaded before the config was checked")

    monkeypatch.setattr("ccaps.cli.load_cifar10_binary", no_data)
    _, out = cli_run
    record = CheckpointRecord.load(out / "ckpt" / "final.ckpt")
    without_config = {k: v for k, v in record.meta.items() if k != "config"}
    unknown_key = {**record.meta, "config": {**record.meta["config"], "blur": 1}}
    config = record.meta["config"]
    zero_capsule_dim = {**record.meta, "config": {**config, "model": {**config["model"], "capsule_dim": 0}}}
    nan_rate = {**record.meta, "config": {**config, "learning_rate": float("nan")}}
    # with bn_eps = inf every conv feature is 0, and only the bank check,
    # after extracting the whole bank, would fail
    inf_eps = {**record.meta, "config": {**config, "model": {**config["model"], "bn_eps": math.inf}}}
    for name, meta, named in (
        ("no-config", without_config, "'config'"),
        ("unknown", unknown_key, "'blur'"),
        ("zero-capsule-dim", zero_capsule_dim, "capsule_dim"),
        ("nan-learning-rate", nan_rate, "learning_rate"),
        ("inf-bn-eps", inf_eps, "bn_eps"),
    ):
        path = CheckpointRecord(arrays=record.arrays, meta=meta).save(tmp_path / f"{name}.ckpt")
        rc = main(["eval", "--checkpoint", str(path), "--data-dir", str(small_data_dir)])
        err = capsys.readouterr().err
        assert rc == 1, name
        assert err.startswith("error:") and named in err, err


@pytest.mark.parametrize("flag, value", [("--learning-rate", "nan"), ("--learning-rate", "-1e-3"),
                                         ("--weight-decay", "-1"), ("--temperature", "inf")])
def test_cli_train_refuses_a_bad_rate_before_training(small_data_dir, tmp_path, capsys, flag, value):
    ckpt = tmp_path / "ckpt"
    rc = main([*_small_train_args(small_data_dir, ckpt), f"{flag}={value}"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and flag[2:].replace("-", "_") in captured.err
    assert "epoch" not in captured.out and not ckpt.exists()


def _stored_config_with(key: str, value) -> dict:
    """The default TrainConfig as a stored dict, with the field or tuple
    component behind config key `key` set to `value`."""
    stored = asdict(TrainConfig())
    for name, components in _TUPLE_KEYS.items():
        if key in components:
            values = list(stored["augment"][name])
            values[components.index(key)] = value
            stored["augment"][name] = values
            return stored
    (stored if key in stored else stored["augment"])[key] = value
    return stored


_FLOAT_KEYS = [key for key, value in _flat_settings(TrainConfig()).items() if isinstance(value, float)]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_every_float_setting_refuses_a_non_finite_value(key, value, capsys):
    stored = _stored_config_with(key, value)
    with pytest.raises(ValueError):  # in the constructor
        augment = AugmentConfig(**stored["augment"])
        TrainConfig(**{**stored, "augment": augment, "model": ModelConfig(**stored["model"])})
    with pytest.raises(CheckpointError):  # from a stored config
        TrainConfig.from_dict(stored)
    rc = main(["train", "--dry-run", f"--{key.replace('_', '-')}={value}"])  # from the CLI
    captured = capsys.readouterr()
    assert rc == 1 and captured.err.startswith("error:"), captured.err
    assert "config valid" not in captured.out


def test_cli_checkpoint_missing_a_record_key_fails_cleanly(cli_run, small_data_dir, tmp_path, capsys):
    _, out = cli_run
    record = CheckpointRecord.load(out / "ckpt" / "final.ckpt")
    arrays = {k: v for k, v in record.arrays.items() if k != "norm.std"}
    no_norm = CheckpointRecord(arrays=arrays, meta=record.meta).save(tmp_path / "no-norm.ckpt")
    rc = main(["eval", "--checkpoint", str(no_norm), "--data-dir", str(small_data_dir)])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error:") and "'norm.std'" in err, err

    meta = {k: v for k, v in record.meta.items() if k != "adam_steps"}
    no_steps = CheckpointRecord(arrays=record.arrays, meta=meta).save(tmp_path / "no-steps.ckpt")
    rc = main(
        [
            "train",
            "--data-dir", str(small_data_dir),
            "--checkpoint-dir", str(tmp_path / "resumed"),
            "--epochs", "3",
            "--batch-size", "16",
            "--subset", "64",
            "--seed", "1",
            "--resume", str(no_steps),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error:") and "'adam_steps'" in err, err


def test_cli_resume_continues_run(cli_run, small_data_dir, tmp_path, capsys):
    _, out = cli_run
    rc = main(
        [
            "train",
            "--data-dir", str(small_data_dir),
            "--checkpoint-dir", str(tmp_path / "resumed"),
            "--epochs", "3",
            "--batch-size", "16",
            "--subset", "64",
            "--eval-every", "2",
            "--eval-test-subset", "50",
            "--knn-k", "8",
            "--seed", "1",
            "--resume", str(out / "ckpt" / "final.ckpt"),
        ]
    )
    assert rc == 0
    record = CheckpointRecord.load(tmp_path / "resumed" / "final.ckpt")
    assert record.epoch == 3


def test_cli_resume_of_a_finished_run_writes_the_files_it_names(cli_run, small_data_dir, tmp_path, capsys):
    _, out = cli_run
    done = tmp_path / "done"
    rc = main(
        [
            "train",
            "--data-dir", str(small_data_dir),
            "--checkpoint-dir", str(done),
            "--epochs", "1",
            "--batch-size", "16",
            "--subset", "64",
            "--seed", "1",
            "--resume", str(out / "ckpt" / "final.ckpt"),
        ]
    )
    printed = capsys.readouterr().out
    assert rc == 0
    assert f"checkpoint: {done / 'final.ckpt'}" in printed and f"metrics: {done / 'metrics.csv'}" in printed
    # no epoch was left: the resumed record is the final one, and the CSV has no row
    assert (done / "final.ckpt").read_bytes() == (out / "ckpt" / "final.ckpt").read_bytes()
    assert read_metrics_csv(done / "metrics.csv") == []


def test_artifacts_of_a_run_with_a_seconds_column_resume_evaluate_and_plot(small_data_dir, tmp_path):
    # what a run wrote while rows had a wall-clock column and TrainConfig a
    # `deterministic` field: a five-column CSV and a checkpoint storing the key
    straight, old = tmp_path / "straight", tmp_path / "old"
    two_epochs = ["--epochs", "2", "--checkpoint-every", "1"]
    assert main([*_small_train_args(small_data_dir, straight), *two_epochs]) == 0
    first = read_metrics_csv(straight / "metrics.csv")[0]
    old.mkdir()
    (old / "metrics.csv").write_text(f"epoch,loss,seconds,top1,top5\n1,{first.loss!r},12.345,,\n")
    shutil.copyfile(old / "metrics.csv", tmp_path / "old.csv")
    record = CheckpointRecord.load(straight / "epoch_0001.ckpt")
    meta = {**record.meta, "config": {**record.meta["config"], "deterministic": False}}
    CheckpointRecord(arrays=record.arrays, meta=meta).save(tmp_path / "old.ckpt")

    resume = ["--resume", str(tmp_path / "old.ckpt")]
    assert main([*_small_train_args(small_data_dir, old), *two_epochs, *resume]) == 0
    a = CheckpointRecord.load(straight / "final.ckpt").arrays
    b = CheckpointRecord.load(old / "final.ckpt").arrays
    assert sorted(a) == sorted(b) and all(np.array_equal(a[k], b[k]) for k in a)
    assert (old / "metrics.csv").read_bytes() == (straight / "metrics.csv").read_bytes()

    evaluate = ["eval", "--checkpoint", str(tmp_path / "old.ckpt"), "--data-dir", str(small_data_dir)]
    assert main([*evaluate, "--subset", "32", "--eval-test-subset", "20"]) == 0
    assert main(["plot", "--metrics", str(tmp_path / "old.csv"), "--out", str(tmp_path / "plots")]) == 0
    assert (tmp_path / "plots" / "loss.svg").exists()


def test_cli_profile_prints_table_and_audit(capsys, tmp_path):
    rc = main(["profile", "--csv", str(tmp_path / "profile.csv")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Conv2d-6" in out
    assert "73,728" in out
    assert "734,800" in out and "780,000" in out
    assert (tmp_path / "profile.csv").read_text().startswith("layer,params,macs")


def test_cli_plot_produces_svgs(cli_run, tmp_path, capsys):
    _, out = cli_run
    rc = main(["plot", "--metrics", str(out / "metrics.csv"), "--out", str(tmp_path / "plots")])
    assert rc == 0
    names = sorted(p.name for p in (tmp_path / "plots").glob("*.svg"))
    assert names == ["loss.svg", "top1.svg", "top5.svg"]


def test_cli_plot_empty_csv_errors(tmp_path, capsys):
    csv = tmp_path / "m.csv"
    csv.write_text("epoch,loss,seconds,top1,top5\n")
    rc = main(["plot", "--metrics", str(csv), "--out", str(tmp_path / "plots")])
    assert rc == 1
    assert "no data rows" in capsys.readouterr().err


def test_cli_plot_malformed_row_reports_line(tmp_path, capsys):
    csv = tmp_path / "m.csv"
    csv.write_text("epoch,loss,seconds,top1,top5\n1,1.0,0.0,,\ngarbage\n")
    rc = main(["plot", "--metrics", str(csv), "--out", str(tmp_path / "plots")])
    assert rc == 1
    assert "line 3" in capsys.readouterr().err


def test_env_var_provides_data_root(small_data_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("CCAPS_DATA_DIR", str(small_data_dir))
    rc = main(
        [
            "train",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--epochs", "1",
            "--batch-size", "16",
            "--subset", "32",
        ]
    )
    assert rc == 0


def test_full_pipeline_from_one_config_file(archive, tmp_path, capsys):
    """fetch -> train -> eval -> plot -> profile, driven by the config file."""
    src, digest = archive
    data_dir = tmp_path / "data"
    assert main(["fetch", str(src), "--checksum", digest, "--dest", str(data_dir)]) == 0

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"data_dir = {data_dir}\n"
        f"checkpoint_dir = {tmp_path / 'run'}\n"
        f"metrics_path = {tmp_path / 'run' / 'metrics.csv'}\n"
        "epochs = 2\n"
        "batch_size = 16\n"
        "subset = 48\n"
        "eval_every = 1\n"
        "eval_test_subset = 12\n"
        "knn_k = 5\n"
        "seed = 4\n"
    )
    assert main(["train", "--config", str(cfg)]) == 0
    last = read_metrics_csv(tmp_path / "run" / "metrics.csv")[-1]
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(tmp_path / "run" / "final.ckpt"), "--config", str(cfg)]) == 0
    # the run's file gives eval the run's bank, queries and k: its in-loop numbers
    out = capsys.readouterr().out
    assert "over 48 bank rows, 12 queries (k=5" in out, out
    assert f"top-1 accuracy: {last.top1:.2f}%" in out and f"top-5 accuracy: {last.top5:.2f}%" in out, out
    assert main(
        ["plot", "--metrics", str(tmp_path / "run" / "metrics.csv"), "--out", str(tmp_path / "plots")]
    ) == 0
    assert main(["profile"]) == 0
    assert (tmp_path / "plots" / "loss.svg").exists()
    assert (tmp_path / "plots" / "top1.svg").exists()


def test_cli_smoke_example_two_epochs_subset_512(small_data_dir, tmp_path):
    rc = main(
        [
            "train",
            "--data-dir", str(small_data_dir),
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--metrics-path", str(tmp_path / "metrics.csv"),
            "--epochs", "2",
            "--subset", "512",
            "--batch-size", "64",
        ]
    )
    assert rc == 0
    assert len(read_metrics_csv(tmp_path / "metrics.csv")) == 2
