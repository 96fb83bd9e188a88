"""Seeded inputs for the benchmark: ring-texture images and a kNN feature bank.

Images follow the ring-texture recipe the test suite uses for its synthetic
CIFAR-10 files: ten classes of concentric rings that differ only in radial
frequency, with random colour, background gradient, ring phase, centre and
pixel noise. Only uint8 arrays reach the program.

Bank and query rows are unit vectors whose entries are exact multiples of
2**-11. Every product of two entries is then a multiple of 2**-22, and every
partial sum of a dot product stays below 2 in magnitude, so a float32 GEMM
computes each cosine exactly, in any summation order. That makes the float64
brute-force oracle bit-comparable with the program's float32 similarities.
"""

from __future__ import annotations

import numpy as np

NUM_CLASSES = 10
_SIZE = 32
_FREQS = 1.6 + 0.85 * np.arange(NUM_CLASSES)  # ring cycles per image width

_QUANT = 2**11
_NORM_SLACK = 8  # allowed |sum of squared integer entries - _QUANT**2|; |norm - 1| < 1e-6


def ring_images(count: int, rng: np.random.Generator) -> np.ndarray:
    """Balanced ring-texture images, uint8 [count, 3, 32, 32]."""
    labels = rng.permutation(np.arange(count) % NUM_CLASSES)
    yy, xx = np.meshgrid(np.arange(_SIZE), np.arange(_SIZE), indexing="ij")
    cy = rng.uniform(10, 22, size=(count, 1, 1))
    cx = rng.uniform(10, 22, size=(count, 1, 1))
    phase = rng.uniform(0, 2 * np.pi, size=(count, 1, 1))
    radius = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
    rings = np.cos(2 * np.pi * _FREQS[labels][:, None, None] * radius / _SIZE + phase)

    gains = rng.uniform(0.1, 0.45, size=(count, 3, 1, 1))
    base = rng.uniform(0.25, 0.75, size=(count, 3, 1, 1))
    slope_y = rng.uniform(-0.3, 0.3, size=(count, 3, 1, 1))
    slope_x = rng.uniform(-0.3, 0.3, size=(count, 3, 1, 1))
    gradient = slope_y * (yy / _SIZE - 0.5) + slope_x * (xx / _SIZE - 0.5)
    noise = rng.normal(0, 0.05, size=(count, 3, _SIZE, _SIZE))
    img = base + gradient + gains * rings[:, None, :, :] + noise
    return (np.clip(img, 0, 1) * 255).round().astype(np.uint8)


def _exact_unit_rows(x: np.ndarray) -> np.ndarray:
    """Round float32 rows of `x` to multiples of 2**-11 whose norm is 1 within 1e-6.

    Integer-valued float32 arithmetic is exact here: entries stay below
    2**11 and squared norms below 2**24.
    """
    m = np.rint(x * (_QUANT / np.sqrt(np.einsum("ij,ij->i", x, x)))[:, None])
    delta = _QUANT**2 - np.einsum("ij,ij->i", m, m)
    # Walk the columns, moving one entry per unfinished row by +-1 whenever
    # that brings the squared norm closer to _QUANT**2 without overshooting.
    # A few dozen columns settle almost every row, so work on copied blocks.
    rows = np.nonzero(np.abs(delta) > _NORM_SLACK)[0]
    for lo in range(0, m.shape[1], 64):
        if rows.size == 0:
            break
        block = m[rows, lo : lo + 64]
        d = delta[rows]
        for col in range(block.shape[1]):
            c = block[:, col]
            grow = d > 0
            step = np.where(grow, 2 * np.abs(c) + 1, 2 * np.abs(c) - 1)
            move = (np.abs(d) > _NORM_SLACK) & (step <= np.abs(d)) & (grow | (c != 0))
            c += np.where(c >= 0, 1.0, -1.0) * np.where(grow, 1.0, -1.0) * move
            d -= np.where(grow, step, -step) * move
        m[rows, lo : lo + 64] = block
        delta[rows] = d
        rows = rows[np.abs(d) > _NORM_SLACK]
    if np.any(np.abs(delta) > _NORM_SLACK):
        raise RuntimeError("could not bring every row to unit norm")
    return m / np.float32(_QUANT)


def clustered_rows(
    count: int, prototypes: np.ndarray, rng: np.random.Generator, chunk: int = 10000
) -> tuple[np.ndarray, np.ndarray]:
    """Exact unit rows around the class prototypes, and their noisy labels.

    Each row is its cluster's prototype plus uniform noise of the same norm.
    Its label is the cluster's class with probability 0.6 and a uniform
    class otherwise, so a query's neighbourhood votes for several classes
    and the ranked top-5 depends on the weights, not only on the winner.
    """
    classes, dim = prototypes.shape
    # uniform int8 noise has rms ~74 per entry; match its norm
    scaled = (prototypes * (74.0 * np.sqrt(dim))).astype(np.float32)
    rows = np.empty((count, dim), dtype=np.float32)
    clusters = rng.integers(0, classes, size=count)
    labels = np.where(rng.random(count) < 0.6, clusters, rng.integers(0, classes, size=count))
    for start in range(0, count, chunk):
        part = clusters[start : start + chunk]
        noise = np.frombuffer(rng.bytes(len(part) * dim), dtype=np.int8).reshape(len(part), dim)
        rows[start : start + chunk] = _exact_unit_rows(scaled[part] + noise)
    return rows, labels.astype(np.int64)


def prototypes(dim: int, rng: np.random.Generator) -> np.ndarray:
    p = rng.standard_normal((NUM_CLASSES, dim))
    return p / np.linalg.norm(p, axis=1, keepdims=True)
