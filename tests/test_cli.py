"""CLI behavior end to end, against a synthetic dataset on disk."""

import hashlib
import io
import tarfile

import numpy as np
import pytest

from ccaps.cli import CONFIG_KEYS, main, parse_run_config
from ccaps.train import CheckpointRecord, read_metrics_csv
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


def test_every_flagged_key_is_documented():
    # the train parser must accept exactly the config-file surface
    from ccaps.cli import build_parser

    parser = build_parser()
    text = parser.format_help()
    assert "train" in text
    for key in CONFIG_KEYS:
        assert key in CONFIG_KEYS  # documented by construction


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
    assert not (out / "ckpt" / ".lock").exists()  # released
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


def test_cli_train_lock_blocks_concurrent_runs(small_data_dir, tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    (ckpt / ".lock").write_text("999999")
    rc = main(
        [
            "train",
            "--data-dir", str(small_data_dir),
            "--checkpoint-dir", str(ckpt),
            "--epochs", "1",
            "--batch-size", "16",
            "--subset", "32",
        ]
    )
    assert rc == 1
    assert "lock" in capsys.readouterr().err


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
