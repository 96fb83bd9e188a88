"""Two-view augmentation pipeline: determinism, identity, and range checks."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccaps.augment import (
    AugmentConfig,
    _hsv_to_rgb,
    _resize_bilinear,
    _rgb_to_hsv,
    apply_pipeline,
    two_views,
)

IDENTITY = AugmentConfig(
    crop_scale_range=(1.0, 1.0),
    flip_probability=0.0,
    jitter_probability=0.0,
    grayscale_probability=0.0,
)


def _image(seed=0):
    return np.random.default_rng(seed).uniform(0, 1, size=(3, 32, 32)).astype(np.float32)


def test_identity_config_returns_input():
    img = _image()
    vi, vj = two_views(img, IDENTITY, np.random.default_rng(3))
    np.testing.assert_array_equal(vi, img)
    np.testing.assert_array_equal(vj, img)


def test_same_rng_state_gives_bitwise_identical_views():
    img = _image(1)
    cfg = AugmentConfig()
    a = two_views(img, cfg, np.random.default_rng(42))
    b = two_views(img, cfg, np.random.default_rng(42))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_views_differ_from_each_other():
    img = _image(2)
    vi, vj = two_views(img, AugmentConfig(), np.random.default_rng(0))
    assert not np.array_equal(vi, vj)


def test_flip_only_is_horizontal_mirror_and_involution():
    cfg = AugmentConfig(
        crop_scale_range=(1.0, 1.0),
        flip_probability=1.0,
        jitter_probability=0.0,
        grayscale_probability=0.0,
    )
    img = _image(3)
    flipped = apply_pipeline(img, cfg, np.random.default_rng(0))
    np.testing.assert_array_equal(flipped, img[:, :, ::-1])
    again = apply_pipeline(flipped, cfg, np.random.default_rng(1))
    np.testing.assert_array_equal(again, img)


def test_flip_rate_monte_carlo():
    cfg = AugmentConfig(
        crop_scale_range=(1.0, 1.0),
        flip_probability=0.5,
        jitter_probability=0.0,
        grayscale_probability=0.0,
    )
    img = _image(4)
    rng = np.random.default_rng(123)
    flips = sum(
        not np.array_equal(apply_pipeline(img, cfg, rng), img) for _ in range(10_000)
    )
    assert 0.47 <= flips / 10_000 <= 0.53


def test_grayscale_makes_channels_equal():
    cfg = AugmentConfig(
        crop_scale_range=(1.0, 1.0),
        flip_probability=0.0,
        jitter_probability=0.0,
        grayscale_probability=1.0,
    )
    out = apply_pipeline(_image(5), cfg, np.random.default_rng(0))
    np.testing.assert_array_equal(out[0], out[1])
    np.testing.assert_array_equal(out[1], out[2])


def test_full_scale_crop_is_identity_regardless_of_draws():
    cfg = AugmentConfig(
        crop_scale_range=(1.0, 1.0),
        flip_probability=0.0,
        jitter_probability=0.0,
        grayscale_probability=0.0,
    )
    img = _image(6)
    rng = np.random.default_rng(9)
    for _ in range(200):
        np.testing.assert_array_equal(apply_pipeline(img, cfg, rng), img)


def test_pixel_values_stay_in_unit_interval_fuzz():
    cfg = AugmentConfig()  # every stage active
    rng = np.random.default_rng(77)
    img = _image(7)
    for _ in range(1000):
        out = apply_pipeline(img, cfg, rng)
        assert out.shape == img.shape
        assert out.min() >= 0.0 and out.max() <= 1.0


@settings(max_examples=20, deadline=None)
@given(
    flip=st.floats(0, 1),
    jit=st.floats(0, 1),
    gray=st.floats(0, 1),
    lo=st.floats(0.05, 1.0),
    seed=st.integers(0, 1000),
)
def test_pipeline_never_escapes_unit_interval(flip, jit, gray, lo, seed):
    cfg = AugmentConfig(
        crop_scale_range=(lo, 1.0),
        flip_probability=flip,
        jitter_probability=jit,
        grayscale_probability=gray,
    )
    out = apply_pipeline(_image(8), cfg, np.random.default_rng(seed))
    assert 0.0 <= out.min() and out.max() <= 1.0


def test_no_blur_stage_in_pipeline():
    # no setting turns a blur on, and with every drawn stage off the
    # pipeline returns the image bit for bit, so no stage smooths it
    assert not any("blur" in f.name for f in fields(AugmentConfig))
    img = _image(9)
    np.testing.assert_array_equal(apply_pipeline(img, IDENTITY, np.random.default_rng(9)), img)


def test_resize_same_size_is_exact_copy():
    img = _image(9)
    out = _resize_bilinear(img, 32, 32)
    np.testing.assert_array_equal(out, img)
    assert out is not img


def test_resize_upscale_constant_image_stays_constant():
    img = np.full((3, 8, 8), 0.25, dtype=np.float64)
    out = _resize_bilinear(img, 32, 32)
    np.testing.assert_allclose(out, 0.25, atol=1e-12)


def test_hsv_round_trip():
    rng = np.random.default_rng(10)
    rgb = rng.uniform(0, 1, size=(3, 16, 16))
    back = _hsv_to_rgb(_rgb_to_hsv(rgb))
    np.testing.assert_allclose(back, rgb, atol=1e-10)


def test_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(crop_scale_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        AugmentConfig(crop_scale_range=(0.8, 0.4))
    with pytest.raises(ValueError):
        AugmentConfig(flip_probability=1.5)
