"""Stochastic two-view augmentation for contrastive training.

Pipeline order is fixed: random resized crop -> horizontal flip -> color
jitter -> random grayscale. There is deliberately no blur stage. All
stages operate on float images in [0, 1], channel-first [3, H, W], and
the views are clamped back into [0, 1].

A batch is augmented in two phases:

1. Draw, per image, from that image's own Generator: for its first view
   and then its second, the crop attempts, the flip, the jitter gate with
   its factors and permutation, and the grayscale gate. No pixel is read,
   so a given rng state reproduces the exact same views.
2. Apply, per stage, once over all 2N views: crop-resize through per-view
   bilinear index and weight tables, flip and grayscale by mask, jitter in
   four rounds (round k applies each jittered view's k-th op), one clip.

Every stage is elementwise per view in the image's dtype, so a view does
not depend on the batch it is augmented in: ``two_views`` is the batch of
one.

Defaults follow the usual small-image contrastive recipe: crop scale
(0.2, 1.0), flip 0.5, jitter strengths (0.4, 0.4, 0.4, 0.1) applied with
probability 0.8, grayscale 0.2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LOG_ASPECT_RATIO_RANGE = (np.log(3.0 / 4.0), np.log(4.0 / 3.0))
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
        if len(self.crop_scale_range) != 2 or len(self.jitter_strengths) != 4:
            raise ValueError("crop_scale_range takes 2 values and jitter_strengths 4")
        lo, hi = self.crop_scale_range
        if not (0.0 < lo <= hi <= 1.0):
            raise ValueError(f"crop_scale_range must satisfy 0 < low <= high <= 1, got {self.crop_scale_range}")
        for name in ("flip_probability", "jitter_probability", "grayscale_probability"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if not all(s >= 0 and math.isfinite(s) for s in self.jitter_strengths):
            raise ValueError(f"jitter strengths must be non-negative and finite, got {self.jitter_strengths}")


def two_views(image: np.ndarray, config: AugmentConfig, rng: np.random.Generator):
    """Two independent samples of the pipeline applied to the same image."""
    views = two_view_batch(image[None], [rng], config)
    return views[0, 0], views[1, 0]


def two_view_batch(images: np.ndarray, rngs, config: AugmentConfig) -> np.ndarray:
    """Views [2, N, 3, H, W] of images [N, 3, H, W] in [0, 1].

    ``views[0, n]`` and ``views[1, n]`` are two independent samples of the
    pipeline on image n, drawn from ``rngs[n]``.
    """
    n, _, height, width = images.shape
    if len(rngs) != n:
        raise ValueError(f"need one generator per image, got {len(rngs)} for {n} images")
    firsts, seconds = [], []
    for rng in rngs:  # each image draws its first view, then its second
        firsts.append(_draw(config, rng, height, width))
        seconds.append(_draw(config, rng, height, width))
    # one row per view, first views then second views: ops[v, k] is the
    # k-th jitter op (-1 for none) and factors[v, op] its factor
    boxes, flip, ops, factors, gray = (np.array(column) for column in zip(*firsts, *seconds))
    views = _crop_resize(np.concatenate([images, images]), boxes, height, width)
    views[flip] = views[flip, :, :, ::-1]
    for k in range(4):
        for op, stage in enumerate(_JITTER_STAGES):
            sel = np.flatnonzero(ops[:, k] == op)
            if sel.size:
                views[sel] = stage(views[sel], factors[sel, op])
    views[gray] = _luma(views[gray])
    np.clip(views, 0.0, 1.0, out=views)
    return views.reshape(2, n, *views.shape[1:])


# -- draws ---------------------------------------------------------------------


def _draw(config: AugmentConfig, rng, height: int, width: int):
    """One view's parameters: (crop box, flip, jitter op order, jitter factors, grayscale)."""
    box = _draw_crop(config.crop_scale_range, rng, height, width)
    flip = bool(rng.random() < config.flip_probability)
    order, factors = (-1,) * 4, (0.0,) * 4  # no jitter
    if rng.random() < config.jitter_probability:
        sb, sc, ss, sh = config.jitter_strengths
        factors = (
            rng.uniform(max(0.0, 1 - sb), 1 + sb),  # brightness
            rng.uniform(max(0.0, 1 - sc), 1 + sc),  # contrast
            rng.uniform(max(0.0, 1 - ss), 1 + ss),  # saturation
            rng.uniform(-sh, sh),  # hue shift
        )
        order = tuple(rng.permutation(4).tolist())
    gray = bool(rng.random() < config.grayscale_probability)
    return box, flip, order, factors, gray


def _draw_crop(scale_range, rng, height: int, width: int) -> tuple[int, int, int, int]:
    """(top, left, h, w) of a random crop; the full frame when no aspect draw fits."""
    area = height * width
    for _ in range(10):
        target = area * rng.uniform(*scale_range)
        ratio = np.exp(rng.uniform(*_LOG_ASPECT_RATIO_RANGE))
        w = int(round(np.sqrt(target * ratio)))
        h = int(round(np.sqrt(target / ratio)))
        if 0 < w <= width and 0 < h <= height:
            top = int(rng.integers(0, height - h + 1))
            left = int(rng.integers(0, width - w + 1))
            return top, left, h, w
    return 0, 0, height, width


# -- stages ----------------------------------------------------------------------


def _crop_resize(images: np.ndarray, boxes: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resize of each image's crop box, edges clamped.

    images: [V, C, H, W]; boxes: [V, 4] rows of (top, left, h, w). When a
    box is the whole image at the output size, the sample points land on
    pixel centers with zero weight on the neighbours, so finite inputs come
    back bit for bit.
    """
    top, left, h, w = (boxes[:, i : i + 1] for i in range(4))
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    wy = (ys - y0).astype(images.dtype)[:, None, :, None]
    wx = (xs - x0).astype(images.dtype)[:, None, None, :]
    # flat indices into images: each (view, channel) plane, then row, then column
    views, channels, height, width = images.shape
    planes = (np.arange(views * channels).reshape(views, channels) * (height * width))[:, :, None, None]
    y0c = planes + ((top + np.clip(y0, 0, h - 1)) * width)[:, None, :, None]
    y1c = planes + ((top + np.clip(y0 + 1, 0, h - 1)) * width)[:, None, :, None]
    x0c = (left + np.clip(x0, 0, w - 1))[:, None, None, :]
    x1c = (left + np.clip(x0 + 1, 0, w - 1))[:, None, None, :]
    flat = images.reshape(-1)

    upper = flat.take(y0c + x0c) * (1 - wx) + flat.take(y0c + x1c) * wx
    lower = flat.take(y1c + x0c) * (1 - wx) + flat.take(y1c + x1c) * wx
    return upper * (1 - wy) + lower * wy


def _luma(images: np.ndarray) -> np.ndarray:
    """ITU-R 601 luma of [n, 3, H, W] images as [n, 1, H, W]."""
    n, _, height, width = images.shape
    luma = np.matmul(_LUMA.astype(images.dtype), images.reshape(n, 3, height * width))
    return luma.reshape(n, 1, height, width)


def _per_view(values: np.ndarray, dtype) -> np.ndarray:
    """Per-view scalars in the images' dtype, shaped to broadcast over [n, 3, H, W].

    Factors such as ``1 - f`` are formed in float64 first, then cast: a
    float64 factor would promote the float32 arithmetic of every stage.
    """
    return values.astype(dtype).reshape(-1, 1, 1, 1)


def _brightness(images: np.ndarray, factor: np.ndarray) -> np.ndarray:
    return np.clip(images * _per_view(factor, images.dtype), 0.0, 1.0)


def _contrast(images: np.ndarray, factor: np.ndarray) -> np.ndarray:
    gray_mean = _luma(images).mean(axis=(1, 2, 3)).reshape(-1, 1, 1, 1)
    f, rest = _per_view(factor, images.dtype), _per_view(1 - factor, images.dtype)
    return np.clip(f * images + rest * gray_mean, 0.0, 1.0)


def _saturation(images: np.ndarray, factor: np.ndarray) -> np.ndarray:
    f, rest = _per_view(factor, images.dtype), _per_view(1 - factor, images.dtype)
    return np.clip(f * images + rest * _luma(images), 0.0, 1.0)


def _hue(images: np.ndarray, delta: np.ndarray) -> np.ndarray:
    hsv = _rgb_to_hsv(np.clip(images, 0.0, 1.0))
    # numpy's `% 1.0` without its slow float remainder: fmod(h, 1) is
    # h - trunc(h) exactly, and numpy adds 1 to a negative one
    h = hsv[:, 0] + _per_view(delta, images.dtype)[:, 0]
    frac = h - np.trunc(h)
    hsv[:, 0] = np.where(frac < 0, frac + 1.0, frac)
    return np.clip(_hsv_to_rgb(hsv), 0.0, 1.0)


# jitter ops by the index the permutation draws: brightness, contrast, saturation, hue
_JITTER_STAGES = (_brightness, _contrast, _saturation, _hue)


def _rgb_to_hsv(rgb: np.ndarray) -> np.ndarray:
    """RGB -> HSV along the channel axis -3 of [..., 3, H, W]."""
    r, g, b = rgb[..., 0, :, :], rgb[..., 1, :, :], rgb[..., 2, :, :]
    maxc = rgb.max(axis=-3)
    minc = rgb.min(axis=-3)
    value = maxc
    delta = maxc - minc
    sat = np.where(maxc > 0, delta / np.where(maxc > 0, maxc, 1), 0.0)
    safe = np.where(delta > 0, delta, 1)
    # where red is the max, |g - b| <= delta, so numpy's `% 6.0` only
    # adds 6 to a negative
    red_sector = (g - b) / safe
    hue = np.select(
        [maxc == r, maxc == g],
        [np.where(red_sector < 0, red_sector + 6.0, red_sector), (b - r) / safe + 2.0],
        default=(r - g) / safe + 4.0,
    )
    hue = np.where(delta > 0, hue / 6.0, 0.0)
    return np.stack([hue, sat, value], axis=-3)


# for each hue sector, which of (v, q, p, t) is red, green and blue
_SECTOR_CORNERS = np.array([[0, 1, 2, 2, 3, 0], [3, 0, 0, 1, 2, 2], [2, 2, 3, 0, 0, 1]], dtype=np.intp)


def _hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    """HSV -> RGB along the channel axis -3 of [..., 3, H, W]."""
    h, s, v = hsv[..., 0, :, :], hsv[..., 1, :, :], hsv[..., 2, :, :]
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    sector = i.astype(np.int64) % 6
    # one gather from the stacked corners picks every channel's value
    corners = np.stack([v, q, p, t]).reshape(-1)
    pixel = np.arange(v.size).reshape(v.shape)
    rgb = corners.take((_SECTOR_CORNERS * v.size)[:, sector] + pixel)
    return np.moveaxis(rgb, 0, -3)
