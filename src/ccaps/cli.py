"""Command-line interface: fetch, train, eval, profile, plot.

Every run is reconstructable from one flat key=value config file; command
line flags mirror the config keys and override them. The CIFAR-10 data
root can also come from the CCAPS_DATA_DIR environment variable. Commands
exit 0 on success, 1 on failure, 130 on interruption; partial files only
ever appear with a ``.partial`` suffix.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys
import tarfile
import tempfile
import urllib.request
from pathlib import Path

from .augment import AugmentConfig
from .checkpoint import CheckpointError
from .data import DataError, load_cifar10_binary, memory_view
from .knn import EvalConfig, evaluate
from .model import ModelConfig
from .plotting import PlotError, plot_metrics_csv
from .profiler import format_profile, profile_csv
from .train import (
    CheckpointMismatchError,
    CheckpointRecord,
    MetricsError,
    TrainConfig,
    TrainingError,
    network_from_record,
    train,
)

DATA_ENV_VAR = "CCAPS_DATA_DIR"
DEFAULT_DATA_URL = "https://www.cs.toronto.edu/~kriz/cifar-10-binary.tar.gz"
# digest published on the dataset homepage for the binary archive
DEFAULT_DATA_CHECKSUM = "c32a1d4ab5d03f1284b67883e8d87530b7f98ca9"
VERIFIED_MARKER = ".ccaps-verified"

PAPER_SCALE_EPOCHS = 500
PAPER_SCALE_BATCH = 512


class CliError(Exception):
    """User-facing command failure."""


# -- run-config file -----------------------------------------------------------


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# every documented config key with its parser; unknown keys are rejected
CONFIG_KEYS = {
    "data_dir": str,
    "checkpoint_dir": str,
    "metrics_path": str,
    "temperature": float,
    "routing_iterations": int,
    "epochs": int,
    "batch_size": int,
    "learning_rate": float,
    "weight_decay": float,
    "seed": int,
    "checkpoint_every": int,
    "eval_every": int,
    "eval_test_subset": int,
    "deterministic": _parse_bool,
    "subset": int,
    "knn_k": int,
    "crop_scale_min": float,
    "crop_scale_max": float,
    "flip_probability": float,
    "jitter_brightness": float,
    "jitter_contrast": float,
    "jitter_saturation": float,
    "jitter_hue": float,
    "jitter_probability": float,
    "grayscale_probability": float,
}


def parse_run_config(path: str | Path) -> dict:
    """Flat `key = value` file; '#' comments; unknown keys are errors."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}: line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise CliError(f"{path}: line {lineno}: unknown config key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise CliError(f"{path}: line {lineno}: bad value for {key}: {exc}") from exc
    return values


_SETTING_DEFAULTS = {
    "temperature": 0.2,
    "routing_iterations": 3,
    "epochs": 50,
    "batch_size": 128,
    "learning_rate": 1e-3,
    "weight_decay": 1e-6,
    "seed": 0,
    "checkpoint_every": 0,
    "eval_every": 0,
    "eval_test_subset": 1000,
    "deterministic": True,
    "subset": 0,
    "knn_k": 200,
    "crop_scale_min": 0.2,
    "crop_scale_max": 1.0,
    "flip_probability": 0.5,
    "jitter_brightness": 0.4,
    "jitter_contrast": 0.4,
    "jitter_saturation": 0.4,
    "jitter_hue": 0.1,
    "jitter_probability": 0.8,
    "grayscale_probability": 0.2,
    "data_dir": None,
    "checkpoint_dir": "checkpoints",
    "metrics_path": None,
}


def _resolve_settings(args: argparse.Namespace) -> dict:
    """defaults < config file < command-line flags."""
    settings = dict(_SETTING_DEFAULTS)
    if getattr(args, "config", None):
        settings.update(parse_run_config(args.config))
    for key in CONFIG_KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            settings[key] = flag_value
    if getattr(args, "paper_scale", False):
        settings["epochs"] = PAPER_SCALE_EPOCHS
        settings["batch_size"] = PAPER_SCALE_BATCH
        settings["subset"] = 0
    if settings["data_dir"] is None:
        settings["data_dir"] = os.environ.get(DATA_ENV_VAR)
    return settings


def _train_config(settings: dict) -> TrainConfig:
    augment = AugmentConfig(
        crop_scale_range=(settings["crop_scale_min"], settings["crop_scale_max"]),
        flip_probability=settings["flip_probability"],
        jitter_strengths=(
            settings["jitter_brightness"],
            settings["jitter_contrast"],
            settings["jitter_saturation"],
            settings["jitter_hue"],
        ),
        jitter_probability=settings["jitter_probability"],
        grayscale_probability=settings["grayscale_probability"],
        seed=settings["seed"],
    )
    return TrainConfig(
        temperature=settings["temperature"],
        routing_iterations=settings["routing_iterations"],
        epochs=settings["epochs"],
        batch_size=settings["batch_size"],
        learning_rate=settings["learning_rate"],
        weight_decay=settings["weight_decay"],
        seed=settings["seed"],
        checkpoint_every=settings["checkpoint_every"],
        eval_every=settings["eval_every"],
        deterministic=settings["deterministic"],
        augment=augment,
        model=ModelConfig(),
    )


def _require_data_dir(settings: dict) -> Path:
    data_dir = settings.get("data_dir")
    if not data_dir:
        raise CliError(
            "no dataset directory: pass --data-dir, set data_dir in the config file, "
            f"or export {DATA_ENV_VAR}; run `ccaps fetch` first to download and verify"
        )
    path = Path(data_dir)
    if not path.exists():
        raise CliError(f"dataset directory {path} does not exist; run `ccaps fetch` first")
    return path


# -- locking -------------------------------------------------------------------


class DirectoryLock:
    """Exclusive lock file guarding a checkpoint directory."""

    def __init__(self, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        self.path = directory / ".lock"

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise CliError(
                f"{self.path} exists: another run owns this checkpoint directory "
                "(delete the lock file if that run is gone)"
            ) from None
        with os.fdopen(fd, "w") as fh:
            fh.write(str(os.getpid()))
        return self

    def __exit__(self, *exc_info):
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


# -- fetch -----------------------------------------------------------------------


def _digest(path: Path, scheme: str) -> str:
    h = hashlib.new(scheme)
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _checksum_scheme(checksum: str) -> tuple[str, str]:
    if ":" in checksum:
        scheme, _, value = checksum.partition(":")
        return scheme, value.lower()
    by_length = {32: "md5", 40: "sha1", 64: "sha256"}
    if len(checksum) not in by_length:
        raise CliError(f"cannot infer checksum scheme from length {len(checksum)}")
    return by_length[len(checksum)], checksum.lower()


def _safe_extract_tar(archive: Path, dest: Path) -> None:
    with tarfile.open(archive, "r:*") as tar:
        for member in tar.getmembers():
            target = Path(member.name)
            if target.is_absolute() or ".." in target.parts:
                raise CliError(f"archive member escapes destination: {member.name}")
        # the data filter (PEP 706) also rejects links that point outside
        # dest, which a name check cannot see
        try:
            tar.extractall(dest, filter="data")
        except tarfile.FilterError as exc:
            raise CliError(f"archive member rejected: {exc}") from exc


def cmd_fetch(args: argparse.Namespace) -> int:
    dest = Path(args.dest or os.environ.get(DATA_ENV_VAR) or "data")
    marker = dest / VERIFIED_MARKER
    if marker.exists():
        try:
            train, test = load_cifar10_binary(dest)
            print(f"already fetched and verified: {dest} ({len(train)} train / {len(test)} test)")
            return 0
        except DataError:
            marker.unlink()  # stale marker, refetch

    source = args.source or DEFAULT_DATA_URL
    scheme, expected = _checksum_scheme(args.checksum)
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "dataset.tar.gz.partial"
        if "://" in source:
            print(f"downloading {source}")
            try:
                urllib.request.urlretrieve(source, archive)
            except OSError as exc:
                raise CliError(f"download failed: {exc}") from exc
        else:
            source_path = Path(source)
            if not source_path.is_file():
                raise CliError(f"source archive {source} not found")
            shutil.copyfile(source_path, archive)

        actual = _digest(archive, scheme)
        if actual != expected:
            raise CliError(
                f"checksum mismatch: {scheme} of archive is {actual}, expected {expected}; "
                "destination left untouched"
            )
        dest.mkdir(parents=True, exist_ok=True)
        _safe_extract_tar(archive, dest)

    train, test = load_cifar10_binary(dest)  # validates the unpacked layout
    marker.write_text("ok\n")
    print(f"fetched and verified: {dest} ({len(train)} train / {len(test)} test)")
    return 0


# -- train -------------------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    config = _train_config(settings)

    if args.dry_run:
        print("config valid; profile of the configured model:\n")
        print(format_profile(config.model))
        return 0

    data_dir = _require_data_dir(settings)
    train_split, test_split = load_cifar10_binary(data_dir)
    if settings["subset"]:
        train_split = train_split.take(settings["subset"])

    eval_hook = None
    if config.eval_every:
        memory = memory_view(train_split)
        test_eval = (
            test_split.take(settings["eval_test_subset"])
            if settings["eval_test_subset"]
            else test_split
        )
        knn_cfg = EvalConfig(
            k=min(settings["knn_k"], len(memory)), temperature=config.temperature
        )

        def eval_hook(record, epoch):
            net, stats, _ = network_from_record(record)
            result = evaluate(net, memory, test_eval, stats, knn_cfg)
            return result.top1, result.top5

    resume_from = None
    if args.resume:
        resume_from = CheckpointRecord.load(args.resume)

    checkpoint_dir = Path(settings["checkpoint_dir"])
    metrics_path = Path(settings["metrics_path"] or checkpoint_dir / "metrics.csv")
    if args.paper_scale:
        print(
            f"paper-scale recipe: {config.epochs} epochs at batch {config.batch_size} "
            "on the full train split; expect a very long run on CPU"
        )

    def progress(row):
        extra = ""
        if row.top1 is not None:
            extra = f"  top1 {row.top1:.2f}%  top5 {row.top5:.2f}%"
        print(f"epoch {row.epoch}  loss {row.loss:.6f}{extra}", flush=True)

    with DirectoryLock(checkpoint_dir):
        result = train(
            config,
            train_split,
            eval_hook=eval_hook,
            checkpoint_dir=checkpoint_dir,
            metrics_path=metrics_path,
            resume_from=resume_from,
            progress=progress,
        )
    print(f"checkpoint: {checkpoint_dir / 'final.ckpt'}")
    print(f"metrics: {metrics_path}")
    if result.interrupted:
        print("interrupted: wrote checkpoint for the last completed epoch", file=sys.stderr)
        return 130
    return 0


# -- eval --------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    record = CheckpointRecord.load(args.checkpoint)
    net, stats, train_config = network_from_record(record)

    data_dir = _require_data_dir(settings)
    train_split, test_split = load_cifar10_binary(data_dir)
    memory = memory_view(train_split.take(args.memory_subset) if args.memory_subset else train_split)
    test = test_split.take(args.test_subset) if args.test_subset else test_split

    # temperature: flag > config file > the checkpoint's training value
    file_values = parse_run_config(args.config) if args.config else {}
    if args.temperature is not None:
        temperature = args.temperature
    elif "temperature" in file_values:
        temperature = file_values["temperature"]
    else:
        temperature = train_config.temperature
    cfg = EvalConfig(k=min(settings["knn_k"], len(memory)), temperature=temperature)
    result = evaluate(net, memory, test, stats, cfg)
    print(
        f"weighted kNN over {len(memory)} bank rows, {result.total} queries "
        f"(k={result.k}, temperature={result.temperature}):"
    )
    print(f"top-1 accuracy: {result.top1:.2f}%  ({result.correct1}/{result.total})")
    print(f"top-5 accuracy: {result.top5:.2f}%  ({result.correct5}/{result.total})")
    if args.csv_out:
        path = Path(args.csv_out)
        header = "checkpoint,k,temperature,total,top1,top5\n"
        line = f"{args.checkpoint},{result.k},{result.temperature},{result.total},{result.top1:.2f},{result.top5:.2f}\n"
        content = (path.read_text() if path.exists() else header) + line
        partial = path.with_name(path.name + ".partial")
        partial.write_text(content)
        partial.replace(path)
        print(f"report row appended to {path}")
    return 0


# -- profile / plot ------------------------------------------------------------------


def cmd_profile(args: argparse.Namespace) -> int:
    config = ModelConfig()
    print(format_profile(config))
    if args.csv:
        path = Path(args.csv)
        partial = path.with_name(path.name + ".partial")
        partial.write_text(profile_csv(config))
        partial.replace(path)
        print(f"\nwrote {path}")
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    written = plot_metrics_csv(args.metrics, args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


# -- argument parsing -----------------------------------------------------------------


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="run-config file (flat key = value lines)")
    parser.add_argument("--data-dir", dest="data_dir", help="CIFAR-10 binary directory")
    parser.add_argument("--checkpoint-dir", dest="checkpoint_dir")
    parser.add_argument("--metrics-path", dest="metrics_path")
    parser.add_argument("--temperature", type=float)
    parser.add_argument("--routing-iterations", dest="routing_iterations", type=int)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--batch-size", dest="batch_size", type=int)
    parser.add_argument("--learning-rate", dest="learning_rate", type=float)
    parser.add_argument("--weight-decay", dest="weight_decay", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--checkpoint-every", dest="checkpoint_every", type=int)
    parser.add_argument("--eval-every", dest="eval_every", type=int)
    parser.add_argument("--eval-test-subset", dest="eval_test_subset", type=int)
    parser.add_argument("--subset", type=int, help="train on the first N images only")
    parser.add_argument("--knn-k", dest="knn_k", type=int)
    parser.add_argument(
        "--deterministic",
        dest="deterministic",
        action="store_true",
        default=None,
        help="seed-replayable run; metrics record 0.0 seconds (default)",
    )
    parser.add_argument(
        "--non-deterministic",
        dest="deterministic",
        action="store_false",
        help="record wall-clock epoch times in the metrics CSV",
    )
    for key in (
        "crop-scale-min",
        "crop-scale-max",
        "flip-probability",
        "jitter-brightness",
        "jitter-contrast",
        "jitter-saturation",
        "jitter-hue",
        "jitter-probability",
        "grayscale-probability",
    ):
        parser.add_argument(f"--{key}", dest=key.replace("-", "_"), type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccaps",
        description="contrastive capsule network: train, evaluate, profile",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fetch = sub.add_parser("fetch", help="download (or copy) and verify the dataset")
    fetch.add_argument("source", nargs="?", help=f"URL or local archive (default: {DEFAULT_DATA_URL})")
    fetch.add_argument("--checksum", default=DEFAULT_DATA_CHECKSUM, help="expected digest, optionally 'scheme:hex'")
    fetch.add_argument("--dest", help=f"destination directory (default: ${DATA_ENV_VAR} or ./data)")
    fetch.set_defaults(func=cmd_fetch)

    tr = sub.add_parser("train", help="run the contrastive training loop")
    _add_train_flags(tr)
    tr.add_argument("--resume", help="checkpoint to continue from")
    tr.add_argument("--dry-run", action="store_true", help="validate config, print the profile, exit")
    tr.add_argument(
        "--paper-scale",
        action="store_true",
        help=f"published full-scale recipe: {PAPER_SCALE_EPOCHS} epochs, batch {PAPER_SCALE_BATCH}, full train split",
    )
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="weighted kNN evaluation of a checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--config", help="run-config file")
    ev.add_argument("--data-dir", dest="data_dir")
    ev.add_argument("--knn-k", dest="knn_k", type=int)
    ev.add_argument("--temperature", type=float)
    ev.add_argument("--memory-subset", type=int, help="bank rows (default: full train split)")
    ev.add_argument("--test-subset", type=int, help="queries (default: full test split)")
    ev.add_argument("--csv-out", help="append the report as a CSV row")
    ev.set_defaults(func=cmd_eval)

    pr = sub.add_parser("profile", help="parameter/FLOP report and published-figure audit")
    pr.add_argument("--csv", help="also write the per-layer table as CSV")
    pr.set_defaults(func=cmd_profile)

    pl = sub.add_parser("plot", help="render metric SVGs from a metrics CSV")
    pl.add_argument("--metrics", required=True)
    pl.add_argument("--out", required=True)
    pl.set_defaults(func=cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        CliError,
        DataError,
        TrainingError,
        CheckpointError,
        CheckpointMismatchError,
        MetricsError,
        PlotError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
