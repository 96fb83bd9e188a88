"""Versioned binary checkpoint container.

Layout (all integers little-endian):

    bytes 0..7    magic  b"CCAPSCKP"
    bytes 8..11   format version (uint32), currently 1
    bytes 12..19  header length in bytes (uint64)
    header        canonical JSON (sorted keys, no whitespace), UTF-8
    payload       raw array bytes, concatenated in header order

The header carries a manifest (name, dtype, shape, offset, nbytes per
array, sorted by name) plus arbitrary JSON metadata under "meta". Given
identical arrays and metadata the emitted bytes are identical, which is
why this exists instead of an ``.npz`` (zip archives embed timestamps).

Writes are atomic: :func:`write_atomic`, which the CSV, SVG and report
writers share, puts content in ``<path>.partial``, fsyncs it and renames
it into place only when complete, so a crash never leaves a
readable-but-corrupt file at the final path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"CCAPSCKP"
FORMAT_VERSION = 1
_ENTRY_KEYS = frozenset({"name", "dtype", "shape", "offset", "nbytes"})
# The numeric dtypes a manifest may name; object, void and big-endian are refused.
_DTYPES = ("|u1", "|i1", "<u2", "<i2", "<u4", "<i4", "<u8", "<i8", "<f2", "<f4", "<f8")


class CheckpointError(Exception):
    """Unreadable, truncated, or mismatched checkpoint file."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    """Stable identity of a configuration dict."""
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def write_atomic(path: str | os.PathLike, *chunks: bytes) -> Path:
    """Write `chunks` to `path` through a fsynced ``<path>.partial`` and a rename."""
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    with open(partial, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(partial, path)
    return path


def save_checkpoint(path: str | os.PathLike, arrays: dict[str, np.ndarray], meta: dict) -> Path:
    """Write arrays + metadata; byte-identical output for identical state."""
    manifest = []
    offset = 0
    names = sorted(arrays)
    blobs = []
    for name in names:
        arr = np.ascontiguousarray(arrays[name])
        blob = arr.tobytes()
        manifest.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": len(blob),
            }
        )
        blobs.append(blob)
        offset += len(blob)
    header = canonical_json({"arrays": manifest, "meta": meta}).encode()
    return write_atomic(path, MAGIC, struct.pack("<IQ", FORMAT_VERSION, len(header)), header, *blobs)


def load_checkpoint(path: str | os.PathLike) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint fully before returning; corrupt files raise
    :class:`CheckpointError` and hand back nothing partial."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    if len(raw) < len(MAGIC) + 12 or raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version = struct.unpack_from("<I", raw, len(MAGIC))[0]
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    header_len = struct.unpack_from("<Q", raw, len(MAGIC) + 4)[0]
    body_start = len(MAGIC) + 12
    header_end = body_start + header_len
    if header_end > len(raw):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[body_start:header_end].decode())
        manifest = header["arrays"]
        meta = header["meta"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: corrupt header: meta is not a mapping")

    arrays: dict[str, np.ndarray] = {}
    for entry in _checked_manifest(path, manifest, len(raw) - header_end):
        arr = np.frombuffer(raw, entry["dtype"], math.prod(entry["shape"]), header_end + entry["offset"])
        try:  # numpy's own limits on rank and dimension sizes
            arrays[entry["name"]] = arr.reshape(entry["shape"]).copy()
        except ValueError as exc:
            raise CheckpointError(f"{path}: array {entry['name']!r}: {exc}") from exc
    return arrays, meta


def _is_count(value) -> bool:
    return type(value) is int and value >= 0  # JSON true/false are not counts


def _checked_manifest(path: Path, manifest, payload_size: int) -> list[dict]:
    """The manifest, each entry proven to describe a numeric array inside the payload."""
    if not isinstance(manifest, list):
        raise CheckpointError(f"{path}: corrupt manifest: not a list")
    names = set()
    for i, entry in enumerate(manifest):
        if not isinstance(entry, dict) or set(entry) != _ENTRY_KEYS:
            raise CheckpointError(f"{path}: corrupt manifest entry {i}: need exactly {sorted(_ENTRY_KEYS)}")
        name, dtype, shape = entry["name"], entry["dtype"], entry["shape"]
        if not isinstance(name, str) or name in names:
            raise CheckpointError(f"{path}: corrupt manifest entry {i}: bad or repeated name {name!r}")
        names.add(name)
        if dtype not in _DTYPES:
            raise CheckpointError(f"{path}: array {name!r}: dtype {dtype!r} is not allowed")
        if not (isinstance(shape, list) and all(map(_is_count, shape))):
            raise CheckpointError(f"{path}: array {name!r}: bad shape {shape!r}")
        if not (_is_count(entry["offset"]) and _is_count(entry["nbytes"])):
            raise CheckpointError(f"{path}: array {name!r}: offset and nbytes must be counts")
        if entry["nbytes"] != math.prod(shape) * np.dtype(dtype).itemsize:
            raise CheckpointError(f"{path}: array {name!r}: nbytes does not match shape {shape}")
        if entry["offset"] + entry["nbytes"] > payload_size:
            raise CheckpointError(f"{path}: truncated payload at array {name!r}")
    return manifest
