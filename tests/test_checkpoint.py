"""Checkpoint container: round trip, byte stability, corruption handling."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccaps.checkpoint import (
    MAGIC,
    CheckpointError,
    config_hash,
    load_checkpoint,
    save_checkpoint,
)


def _arrays():
    rng = np.random.default_rng(0)
    return {
        "conv1.weight": rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
        "norm.mean": rng.normal(size=3),
        "steps": np.array([17], dtype=np.int64),
    }


def test_round_trip_preserves_dtype_shape_values(tmp_path):
    arrays = _arrays()
    meta = {"epoch": 3, "config": {"seed": 1}}
    path = save_checkpoint(tmp_path / "a.ckpt", arrays, meta)
    loaded, loaded_meta = load_checkpoint(path)
    assert loaded_meta == meta
    assert set(loaded) == set(arrays)
    for k in arrays:
        assert loaded[k].dtype == arrays[k].dtype
        np.testing.assert_array_equal(loaded[k], arrays[k])


def test_identical_state_gives_identical_bytes(tmp_path):
    arrays = _arrays()
    meta = {"epoch": 1}
    a = save_checkpoint(tmp_path / "a.ckpt", arrays, meta)
    b = save_checkpoint(tmp_path / "b.ckpt", arrays, meta)
    assert a.read_bytes() == b.read_bytes()


def test_no_partial_file_left_behind(tmp_path):
    path = save_checkpoint(tmp_path / "a.ckpt", _arrays(), {})
    assert path.exists()
    assert not list(tmp_path.glob("*.partial"))


def test_bad_magic_is_rejected(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncated_payload_is_rejected(tmp_path):
    path = save_checkpoint(tmp_path / "a.ckpt", _arrays(), {"epoch": 2})
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def _with_header(raw: bytes, mutate) -> bytes:
    """The same container with its JSON header replaced by `mutate(header)`."""
    start = len(MAGIC) + 12
    end = start + struct.unpack_from("<Q", raw, len(MAGIC) + 4)[0]
    text = json.dumps(mutate(json.loads(raw[start:end]))).encode()
    return raw[: len(MAGIC) + 4] + struct.pack("<Q", len(text)) + text + raw[end:]


def _first_entry(header, entry):
    return {**header, "arrays": [entry, *header["arrays"][1:]]}


def _set(field, value):
    return lambda h: _first_entry(h, {**h["arrays"][0], field: value})


def _append(**fields):
    return lambda h: {**h, "arrays": [*h["arrays"], {**h["arrays"][0], "name": "extra", **fields}]}


HOSTILE_HEADERS = {
    "negative offset": _set("offset", -8),
    "boolean offset": _set("offset", True),
    "object dtype": _set("dtype", "|O"),
    "shape not matching the bytes": _set("shape", [2, 3]),
    "extra entry key": _set("order", "C"),
    "empty array of huge dimensions": _append(shape=[0, 2**70], nbytes=0),
    "empty array of rank 70": _append(shape=[0] * 70, nbytes=0),
    "missing shape": lambda h: _first_entry(h, {k: v for k, v in h["arrays"][0].items() if k != "shape"}),
    "entry not a mapping": lambda h: _first_entry(h, "conv1.weight"),
    "arrays not a list": lambda h: {**h, "arrays": 5},
    "duplicate name": lambda h: {**h, "arrays": [*h["arrays"], h["arrays"][0]]},
    "meta not a mapping": lambda h: {**h, "meta": [1, 2]},
    "header not a mapping": lambda h: [h],
}


@pytest.mark.parametrize("case", sorted(HOSTILE_HEADERS))
def test_hostile_manifest_raises_checkpoint_error(tmp_path, case):
    raw = save_checkpoint(tmp_path / "a.ckpt", _arrays(), {"epoch": 1}).read_bytes()
    path = tmp_path / "hostile.ckpt"
    path.write_bytes(_with_header(raw, HOSTILE_HEADERS[case]))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats(allow_nan=False)
    | st.sampled_from(["|O", "<f4", "<f8", "<i8", "|u1", ">f4", "V8", "conv1.weight", ""]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(
    entry=st.integers(0, 2),
    field=st.sampled_from(["name", "dtype", "shape", "offset", "nbytes", None]),
    value=JSON_VALUES,
    top=st.sampled_from([None, "arrays", "meta"]),
)
def test_fuzzed_headers_load_or_raise_checkpoint_error(tmp_path_factory, entry, field, value, top):
    folder = tmp_path_factory.mktemp("fuzz")
    raw = save_checkpoint(folder / "a.ckpt", _arrays(), {"epoch": 1}).read_bytes()

    def mutate(header):
        if top is not None:
            header[top] = value
        elif field is None:
            del header["arrays"][entry]
        else:
            header["arrays"][entry][field] = value
        return header

    path = folder / "b.ckpt"
    path.write_bytes(_with_header(raw, mutate))
    try:
        arrays, _ = load_checkpoint(path)
    except CheckpointError:
        return
    for arr in arrays.values():  # whatever loads is well-formed
        assert arr.dtype.kind in "iuf"


def test_missing_file_raises_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_config_hash_is_order_insensitive_and_value_sensitive():
    a = config_hash({"x": 1, "y": [1, 2]})
    b = config_hash({"y": [1, 2], "x": 1})
    c = config_hash({"x": 2, "y": [1, 2]})
    assert a == b
    assert a != c
