"""Stochastic two-view augmentation for contrastive training.

Pipeline order is fixed: random resized crop -> horizontal flip -> color
jitter -> random grayscale. There is deliberately no blur stage. All
stages operate on float images in [0, 1], channel-first [3, H, W], and
clamp back into [0, 1]. Every draw comes from the caller's Generator, so
a given rng state reproduces the exact same views.

Defaults follow the usual small-image contrastive recipe: crop scale
(0.2, 1.0), flip 0.5, jitter strengths (0.4, 0.4, 0.4, 0.1) applied with
probability 0.8, grayscale 0.2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_ASPECT_RATIO_RANGE = (3.0 / 4.0, 4.0 / 3.0)
_LUMA = np.array([0.299, 0.587, 0.114])  # ITU-R 601


@dataclass(frozen=True)
class AugmentConfig:
    crop_scale_range: tuple[float, float] = (0.2, 1.0)
    flip_probability: float = 0.5
    jitter_strengths: tuple[float, float, float, float] = (0.4, 0.4, 0.4, 0.1)
    jitter_probability: float = 0.8
    grayscale_probability: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "crop_scale_range", tuple(self.crop_scale_range))
        object.__setattr__(self, "jitter_strengths", tuple(self.jitter_strengths))
        lo, hi = self.crop_scale_range
        if not (0.0 < lo <= hi <= 1.0):
            raise ValueError(f"crop_scale_range must satisfy 0 < low <= high <= 1, got {self.crop_scale_range}")
        for name in ("flip_probability", "jitter_probability", "grayscale_probability"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if any(s < 0 for s in self.jitter_strengths):
            raise ValueError("jitter strengths must be non-negative")


def two_views(image: np.ndarray, config: AugmentConfig, rng: np.random.Generator):
    """Two independent samples of the pipeline applied to the same image."""
    return apply_pipeline(image, config, rng), apply_pipeline(image, config, rng)


def apply_pipeline(image: np.ndarray, config: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """One augmented view of `image` ([3, H, W] floats in [0, 1])."""
    out = _random_resized_crop(image, config.crop_scale_range, rng)
    if rng.random() < config.flip_probability:
        out = _horizontal_flip(out)
    if rng.random() < config.jitter_probability:
        out = _color_jitter(out, config.jitter_strengths, rng)
    if rng.random() < config.grayscale_probability:
        out = _to_grayscale(out)
    return np.clip(out, 0.0, 1.0)


# -- stages ------------------------------------------------------------------


def _random_resized_crop(image: np.ndarray, scale_range, rng) -> np.ndarray:
    _, height, width = image.shape
    area = height * width
    crop = None
    for _ in range(10):
        target = area * rng.uniform(*scale_range)
        ratio = np.exp(rng.uniform(np.log(_ASPECT_RATIO_RANGE[0]), np.log(_ASPECT_RATIO_RANGE[1])))
        w = int(round(np.sqrt(target * ratio)))
        h = int(round(np.sqrt(target / ratio)))
        if 0 < w <= width and 0 < h <= height:
            top = int(rng.integers(0, height - h + 1))
            left = int(rng.integers(0, width - w + 1))
            crop = image[:, top : top + h, left : left + w]
            break
    if crop is None:
        crop = image  # no valid aspect draw: fall back to the full frame
    return _resize_bilinear(crop, height, width)


def _resize_bilinear(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resize with edge clamping.

    When the source already has the target size the sample points land
    exactly on pixel centers and the input is returned bit for bit.
    """
    _, h, w = image.shape
    if (h, w) == (out_h, out_w):
        return image.copy()
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    wy = (ys - y0).astype(image.dtype)
    wx = (xs - x0).astype(image.dtype)
    y0c = np.clip(y0, 0, h - 1)
    y1c = np.clip(y0 + 1, 0, h - 1)
    x0c = np.clip(x0, 0, w - 1)
    x1c = np.clip(x0 + 1, 0, w - 1)

    top = image[:, y0c][:, :, x0c] * (1 - wx) + image[:, y0c][:, :, x1c] * wx
    bottom = image[:, y1c][:, :, x0c] * (1 - wx) + image[:, y1c][:, :, x1c] * wx
    return top * (1 - wy[:, None]) + bottom * wy[:, None]


def _horizontal_flip(image: np.ndarray) -> np.ndarray:
    return image[:, :, ::-1].copy()


def _to_grayscale(image: np.ndarray) -> np.ndarray:
    luma = np.tensordot(_LUMA.astype(image.dtype), image, axes=1)
    return np.repeat(luma[None], 3, axis=0)


def _color_jitter(image: np.ndarray, strengths, rng) -> np.ndarray:
    """Brightness/contrast/saturation/hue, each sampled, in random order."""
    sb, sc, ss, sh = strengths
    factors = {
        0: rng.uniform(max(0.0, 1 - sb), 1 + sb),
        1: rng.uniform(max(0.0, 1 - sc), 1 + sc),
        2: rng.uniform(max(0.0, 1 - ss), 1 + ss),
        3: rng.uniform(-sh, sh),
    }
    out = image
    for op in rng.permutation(4):
        if op == 0:
            out = np.clip(out * factors[0], 0.0, 1.0)
        elif op == 1:
            gray_mean = np.tensordot(_LUMA.astype(out.dtype), out, axes=1).mean()
            out = np.clip(factors[1] * out + (1 - factors[1]) * gray_mean, 0.0, 1.0)
        elif op == 2:
            gray = _to_grayscale(out)
            out = np.clip(factors[2] * out + (1 - factors[2]) * gray, 0.0, 1.0)
        else:
            out = _shift_hue(out, factors[3])
    return out


def _shift_hue(image: np.ndarray, delta: float) -> np.ndarray:
    hsv = _rgb_to_hsv(np.clip(image, 0.0, 1.0))
    hsv[0] = (hsv[0] + delta) % 1.0
    return np.clip(_hsv_to_rgb(hsv), 0.0, 1.0)


def _rgb_to_hsv(rgb: np.ndarray) -> np.ndarray:
    r, g, b = rgb
    maxc = rgb.max(axis=0)
    minc = rgb.min(axis=0)
    value = maxc
    delta = maxc - minc
    sat = np.where(maxc > 0, delta / np.where(maxc > 0, maxc, 1), 0.0)
    safe = np.where(delta > 0, delta, 1)
    hue = np.select(
        [maxc == r, maxc == g],
        [((g - b) / safe) % 6.0, (b - r) / safe + 2.0],
        default=(r - g) / safe + 4.0,
    )
    hue = np.where(delta > 0, hue / 6.0, 0.0)
    return np.stack([hue, sat, value])


def _hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    h, s, v = hsv
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    i = i.astype(np.int64) % 6
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b])
