"""Two-view augmentation pipeline: determinism, identity, and range checks,
and the batched pipeline against the per-image oracle bit for bit."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import augment_reference
from ccaps.augment import (
    AugmentConfig,
    _crop_resize,
    _hsv_to_rgb,
    _rgb_to_hsv,
    two_view_batch,
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
    flipped, flipped_too = two_views(img, cfg, np.random.default_rng(0))
    np.testing.assert_array_equal(flipped, img[:, :, ::-1])
    np.testing.assert_array_equal(flipped_too, flipped)
    again, _ = two_views(flipped, cfg, np.random.default_rng(1))
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
        not np.array_equal(view, img) for _ in range(5_000) for view in two_views(img, cfg, rng)
    )
    assert 0.47 <= flips / 10_000 <= 0.53


def test_grayscale_makes_channels_equal():
    cfg = AugmentConfig(
        crop_scale_range=(1.0, 1.0),
        flip_probability=0.0,
        jitter_probability=0.0,
        grayscale_probability=1.0,
    )
    for out in two_views(_image(5), cfg, np.random.default_rng(0)):
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
    for _ in range(100):
        for view in two_views(img, cfg, rng):
            np.testing.assert_array_equal(view, img)


def test_pixel_values_stay_in_unit_interval_fuzz():
    cfg = AugmentConfig()  # every stage active
    rng = np.random.default_rng(77)
    img = _image(7)
    for _ in range(500):
        for out in two_views(img, cfg, rng):
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
    views = two_views(_image(8), cfg, np.random.default_rng(seed))
    assert all(0.0 <= out.min() and out.max() <= 1.0 for out in views)


def test_no_blur_stage_in_pipeline():
    # no setting turns a blur on, and with every drawn stage off the
    # pipeline returns the image bit for bit, so no stage smooths it
    assert not any("blur" in f.name for f in fields(AugmentConfig))
    img = _image(9)
    for view in two_views(img, IDENTITY, np.random.default_rng(9)):
        np.testing.assert_array_equal(view, img)


def test_resize_same_size_is_exact_copy():
    img = _image(9)
    out = _crop_resize(img[None], np.array([[0, 0, 32, 32]]), 32, 32)[0]
    np.testing.assert_array_equal(out, img)
    assert not np.shares_memory(out, img)


def test_resize_upscale_constant_image_stays_constant():
    img = np.full((2, 3, 8, 8), 0.25, dtype=np.float64)
    out = _crop_resize(img, np.array([[0, 0, 8, 8], [2, 1, 5, 6]]), 32, 32)
    assert out.shape == (2, 3, 32, 32)
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


_unit = st.floats(0.0, 1.0)


@settings(max_examples=12, deadline=None)
@given(
    size=st.sampled_from([1, 2, 64]),
    seed=st.integers(0, 2**32 - 1),
    lo=st.floats(0.05, 1.0),
    flip=_unit,
    jitter=_unit,
    gray=_unit,
    strengths=st.tuples(_unit, _unit, _unit, st.floats(0.0, 0.5)),
)
@example(size=64, seed=11, lo=0.2, flip=0.5, jitter=0.8, gray=0.2, strengths=(0.4, 0.4, 0.4, 0.1))
def test_batched_views_equal_the_per_image_oracle_bit_for_bit(size, seed, lo, flip, jitter, gray, strengths):
    cfg = AugmentConfig(
        crop_scale_range=(lo, 1.0),
        flip_probability=flip,
        jitter_strengths=strengths,
        jitter_probability=jitter,
        grayscale_probability=gray,
    )
    pixels = np.random.default_rng(seed).integers(0, 256, size=(size, 3, 32, 32), dtype=np.uint8)
    images = pixels.astype(np.float32) / np.float32(255.0)
    views = two_view_batch(images, [np.random.default_rng([seed, i]) for i in range(size)], cfg)
    assert views.shape == (2, size, 3, 32, 32) and views.dtype == np.float32
    for i in range(size):
        first, second = augment_reference.two_views(images[i], cfg, np.random.default_rng([seed, i]))
        assert views[0, i].tobytes() == first.tobytes()
        assert views[1, i].tobytes() == second.tobytes()


def test_batch_needs_one_generator_per_image():
    with pytest.raises(ValueError, match="one generator per image"):
        two_view_batch(np.zeros((2, 3, 8, 8), np.float32), [np.random.default_rng(0)], AugmentConfig())
