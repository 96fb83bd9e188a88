"""CLI behavior end to end, against a synthetic dataset on disk."""

import hashlib
import io
import os
import signal
import subprocess
import sys
import tarfile
import threading
from pathlib import Path

import numpy as np
import pytest

import ccaps
from ccaps.augment import AugmentConfig
from ccaps.cli import (
    _DEFAULTS,
    CONFIG_KEYS,
    DirectoryLock,
    _flat_settings,
    _parse_bool,
    _resolve_settings,
    _train_config,
    build_parser,
    main,
    parse_run_config,
)
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
        "deterministic = true\n"
        "learning_rate = 1e-3\n"
        "crop_scale_min = 0.5\n"
    )
    values = parse_run_config(cfg)
    assert values == {
        "epochs": 2,
        "batch_size": 16,
        "deterministic": True,
        "learning_rate": 1e-3,
        "crop_scale_min": 0.5,
    }


def test_parse_run_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 2\nbogus_key = 5\n")
    from ccaps.cli import CliError

    with pytest.raises(CliError, match=r"line 2: unknown config key 'bogus_key'"):
        parse_run_config(cfg)


def test_parse_run_config_reports_bad_value_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = soon\n")
    from ccaps.cli import CliError

    with pytest.raises(CliError, match="line 1"):
        parse_run_config(cfg)


def test_every_flagged_key_is_documented(tmp_path, monkeypatch):
    # every config key reaches the resolver from its train flag and from a
    # config file alike, and lands in its own TrainConfig field
    monkeypatch.delenv("CCAPS_DATA_DIR", raising=False)
    assert sorted(CONFIG_KEYS) == sorted(
        "data_dir checkpoint_dir metrics_path temperature routing_iterations epochs "
        "batch_size learning_rate weight_decay seed checkpoint_every eval_every "
        "eval_test_subset deterministic subset knn_k crop_scale_min crop_scale_max "
        "flip_probability jitter_brightness jitter_contrast jitter_saturation jitter_hue "
        "jitter_probability grayscale_probability".split()
    )
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
        if parse is _parse_bool:
            value = not defaults[key]
            flags = ["--" + ("" if value else "non-") + key.replace("_", "-")]
        else:
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
    assert "Conv2d-1" in out and "audit" in out


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
            "--memory-subset", "64",
            "--test-subset", "50",
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
        "--memory-subset", "32",
        "--test-subset", "20",
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


def test_cli_eval_malformed_checkpoint_config_fails_cleanly(cli_run, small_data_dir, tmp_path, capsys):
    _, out = cli_run
    record = CheckpointRecord.load(out / "ckpt" / "final.ckpt")
    without_config = {k: v for k, v in record.meta.items() if k != "config"}
    unknown_key = {**record.meta, "config": {**record.meta["config"], "blur": 1}}
    for name, meta, named in (("no-config", without_config, "'config'"), ("unknown", unknown_key, "'blur'")):
        path = CheckpointRecord(arrays=record.arrays, meta=meta).save(tmp_path / f"{name}.ckpt")
        rc = main(["eval", "--checkpoint", str(path), "--data-dir", str(small_data_dir)])
        err = capsys.readouterr().err
        assert rc == 1, name
        assert err.startswith("error:") and named in err, err


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
        "eval_test_subset = 20\n"
        "knn_k = 5\n"
        "seed = 4\n"
    )
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(
        [
            "eval",
            "--checkpoint", str(tmp_path / "run" / "final.ckpt"),
            "--config", str(cfg),
            "--memory-subset", "48",
            "--test-subset", "20",
            "--knn-k", "5",
        ]
    ) == 0
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
            "--deterministic",
        ]
    )
    assert rc == 0
    assert len(read_metrics_csv(tmp_path / "metrics.csv")) == 2
