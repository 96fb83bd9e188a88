"""Command-line interface: fetch, train, eval, profile, plot.

Every run is reconstructable from one flat key=value config file; command
line flags mirror the config keys and override them. `eval` scores with
the same kNN recipe as training's eval hook, so `eval --config run.cfg`
reproduces the top-1/top-5 the run reported. The CIFAR-10 data
root can also come from the CCAPS_DATA_DIR environment variable. Commands
exit 0 on success, 1 on failure, 3 when training stops on a non-finite loss
or gradient (the error names the epoch and batch; the last completed
epoch's checkpoint and metrics are kept), 130 on interruption (Ctrl-C, or
SIGTERM while training); partial files only ever appear with a ``.partial``
suffix.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import os
import shutil
import signal
import sys
import tarfile
import tempfile
import time
import urllib.request
from dataclasses import fields, is_dataclass
from pathlib import Path

from .augment import AugmentConfig
from .checkpoint import CheckpointError, write_atomic
from .data import DataError, load_cifar10_binary
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


# The run settings are the fields of TrainConfig and its AugmentConfig under
# their own names; a tuple field takes one key per component.
_TUPLE_KEYS = {
    "crop_scale_range": ("crop_scale_min", "crop_scale_max"),
    "jitter_strengths": ("jitter_brightness", "jitter_contrast", "jitter_saturation", "jitter_hue"),
}
# the settings that are not TrainConfig fields, with their defaults
_RUN_DEFAULTS = {
    "data_dir": None,
    "checkpoint_dir": "checkpoints",
    "metrics_path": None,
    "eval_test_subset": 1000,
    "subset": 0,
    "knn_k": EvalConfig.k,
}


def _flat_settings(config: TrainConfig) -> dict:
    """The config-file keys and values of `config` (its model is not configurable)."""
    flat = {}
    for obj in (config, config.augment):
        for f in fields(obj):
            value = getattr(obj, f.name)
            if f.name in _TUPLE_KEYS:
                flat.update(zip(_TUPLE_KEYS[f.name], value))
            elif not is_dataclass(value):
                flat[f.name] = value
    return flat


def _train_config(settings: dict) -> TrainConfig:
    """Inverse of `_flat_settings`; keys that are not fields are ignored."""

    def build(cls, **nested):
        kwargs = dict(nested)
        for f in fields(cls):
            if f.name in _TUPLE_KEYS:
                kwargs[f.name] = tuple(settings[k] for k in _TUPLE_KEYS[f.name])
            elif f.name in settings:
                kwargs[f.name] = settings[f.name]
        return cls(**kwargs)

    return build(TrainConfig, augment=build(AugmentConfig))


_DEFAULTS = {**_flat_settings(TrainConfig()), **_RUN_DEFAULTS}
# every documented config key with its parser; unknown keys are rejected
CONFIG_KEYS = {key: str if default is None else type(default) for key, default in _DEFAULTS.items()}


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


def _resolve_settings(args: argparse.Namespace, base: dict) -> dict:
    """base < config file < command-line flags; --paper-scale wins over all."""
    settings = dict(base)
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


def _knn_inputs(settings: dict, train_split, test_split):
    """The one kNN recipe of `train`'s eval hook and of `eval`: (bank, queries, EvalConfig).

    The bank is the first `subset` train records and the queries the first
    `eval_test_subset` test records (all of a split for 0); k is `knn_k`,
    at most the bank's size, at the settings' temperature.
    """
    bank = train_split.take(settings["subset"]) if settings["subset"] else train_split
    queries = test_split.take(settings["eval_test_subset"]) if settings["eval_test_subset"] else test_split
    cfg = EvalConfig(k=min(settings["knn_k"], len(bank)), temperature=settings["temperature"])
    return bank, queries, cfg


# -- locking -------------------------------------------------------------------


class DirectoryLock:
    """Exclusive POSIX flock on `.lock` guarding a checkpoint directory.

    The kernel drops the lock however its holder dies, so a leftover file
    never blocks. The file names the last holder's pid for humans and is
    never unlinked, which could let two runs lock different inodes.
    """

    def __init__(self, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        self.path = directory / ".lock"

    def __enter__(self):
        fd = os.open(self.path, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            os.ftruncate(fd, 0)
            os.write(fd, str(os.getpid()).encode())
        except BlockingIOError:
            os.close(fd)
            raise CliError(f"{self.path} is locked: another run owns this checkpoint directory") from None
        except OSError:
            os.close(fd)
            raise
        self._fd = fd
        return self

    def __exit__(self, *exc_info):
        os.close(self._fd)  # releases the lock


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

    if not hasattr(tarfile, "data_filter"):  # PEP 706, which _safe_extract_tar relies on
        raise CliError(
            "fetch needs tarfile extraction filters (PEP 706): "
            "Python 3.10.12, 3.11.4, 3.12 or later"
        )
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
    settings = _resolve_settings(args, _DEFAULTS)
    config = _train_config(settings)

    if args.dry_run:
        print("config valid; profile of the configured model:\n")
        print(format_profile(config.model))
        return 0

    checkpoint_dir = Path(settings["checkpoint_dir"])
    metrics_path = Path(settings["metrics_path"] or checkpoint_dir / "metrics.csv")
    # the CSV is written before final.ckpt, so a path it cannot take would lose the run
    metrics_dir = metrics_path.parent
    writable = metrics_dir == checkpoint_dir or (metrics_dir.is_dir() and os.access(metrics_dir, os.W_OK))
    if metrics_path.is_dir() or not writable:
        raise CliError(f"cannot write metrics to {metrics_path}: it must name a file in a writable directory")

    data_dir = _require_data_dir(settings)
    # the run trains on its kNN bank: the first `subset` train records
    train_split, queries, knn_cfg = _knn_inputs(settings, *load_cifar10_binary(data_dir))

    eval_hook = None
    if config.eval_every:

        def eval_hook(record, epoch):
            net, stats, _ = network_from_record(record)
            result = evaluate(net, train_split, queries, stats, knn_cfg)
            return result.top1, result.top5

    resume_from = None
    if args.resume:
        resume_from = CheckpointRecord.load(args.resume)

    if args.paper_scale:
        print(
            f"paper-scale recipe: {config.epochs} epochs at batch {config.batch_size} "
            "on the full train split; expect a very long run on CPU"
        )

    def progress(row):
        nonlocal clock
        extra = ""
        if row.top1 is not None:
            extra = f"  top1 {row.top1:.2f}%  top5 {row.top5:.2f}%"
        now = time.perf_counter()
        print(f"epoch {row.epoch}  loss {row.loss:.6f}{extra}  {now - clock:.1f}s", flush=True)
        clock = now

    # SIGTERM (preemption) takes the Ctrl-C path: final checkpoint, exit 130
    previous_handler = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        with DirectoryLock(checkpoint_dir):
            clock = time.perf_counter()
            result = train(
                config,
                train_split,
                eval_hook=eval_hook,
                checkpoint_dir=checkpoint_dir,
                metrics_path=metrics_path,
                resume_from=resume_from,
                progress=progress,
            )
    finally:
        signal.signal(signal.SIGTERM, previous_handler)
    print(f"checkpoint: {checkpoint_dir / 'final.ckpt'}")
    print(f"metrics: {metrics_path}")
    if result.interrupted:
        print("interrupted: wrote checkpoint for the last completed epoch", file=sys.stderr)
        return 130
    return 0


# -- eval --------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    record = CheckpointRecord.load(args.checkpoint)
    net, stats, train_config = network_from_record(record)
    # the checkpoint's training values (temperature) replace the defaults;
    # without a config file or flag, eval scores the whole test split
    base = {**_DEFAULTS, **_flat_settings(train_config), "eval_test_subset": 0}
    settings = _resolve_settings(args, base)

    data_dir = _require_data_dir(settings)
    bank, queries, cfg = _knn_inputs(settings, *load_cifar10_binary(data_dir))
    result = evaluate(net, bank, queries, stats, cfg)
    print(
        f"weighted kNN over {len(bank)} bank rows, {result.total} queries "
        f"(k={result.k}, temperature={result.temperature}):"
    )
    print(f"top-1 accuracy: {result.top1:.2f}%  ({result.correct1}/{result.total})")
    print(f"top-5 accuracy: {result.top5:.2f}%  ({result.correct5}/{result.total})")
    if args.csv_out:
        path = Path(args.csv_out)
        header = "checkpoint,k,temperature,total,top1,top5\n"
        line = f"{args.checkpoint},{result.k},{result.temperature},{result.total},{result.top1:.2f},{result.top5:.2f}\n"
        content = (path.read_text() if path.exists() else header) + line
        write_atomic(path, content.encode())
        print(f"report row appended to {path}")
    return 0


# -- profile / plot ------------------------------------------------------------------


def cmd_profile(args: argparse.Namespace) -> int:
    config = ModelConfig()
    print(format_profile(config))
    if args.csv:
        path = write_atomic(args.csv, profile_csv(config).encode())
        print(f"\nwrote {path}")
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    written = plot_metrics_csv(args.metrics, args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


# -- argument parsing -----------------------------------------------------------------


def _add_setting_flag(parser: argparse.ArgumentParser, key: str, help: str | None = None) -> None:
    """`--key-name` for a config key."""
    parser.add_argument("--" + key.replace("_", "-"), dest=key, type=CONFIG_KEYS[key], help=help)


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
    tr.add_argument("--config", help="run-config file (flat key = value lines)")
    for key, default in _DEFAULTS.items():
        _add_setting_flag(tr, key, None if default is None else f"default: {default}")
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
    for key in ("data_dir", "knn_k", "temperature"):
        _add_setting_flag(ev, key)
    _add_setting_flag(ev, "subset", "bank: the first N train records (default: 0, all)")
    _add_setting_flag(ev, "eval_test_subset", "queries: the first N test records (default: 0, all)")
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
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (
        CliError,
        DataError,
        CheckpointError,
        CheckpointMismatchError,
        MetricsError,
        PlotError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
