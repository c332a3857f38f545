"""Gaussian smoothing and Sobel gradients, bit for bit as
``scipy.ndimage`` computes them with ``mode="reflect"``."""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np


def gaussian_kernel(sigma: float, radius: int = 0) -> np.ndarray:
    """A normalised 1-D Gaussian kernel.

    Args:
        sigma: standard deviation in pixels.
        radius: half-width; defaults to ``ceil(3 sigma)``.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if radius <= 0:
        radius = int(np.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-(x ** 2) / (2.0 * sigma ** 2))
    return kernel / kernel.sum()


_blur_kernel = functools.lru_cache(maxsize=16)(gaussian_kernel)


@functools.lru_cache(maxsize=64)
def _reflect_index(length: int, radius: int) -> np.ndarray:
    """Source of positions ``-radius .. length + radius - 1`` of an
    axis in scipy's ``"reflect"`` mode (``d c b a | a b c d | d c``)."""
    index = np.arange(-radius, length + radius) % (2 * length)
    return np.where(index < length, index, 2 * length - 1 - index)


def _correlate_symmetric(padded: np.ndarray, kernel: np.ndarray,
                         step: int) -> np.ndarray:
    """scipy's symmetric 1-D correlation along the axis with neighbours
    *step* flat elements apart: ``centre * w0``, then ``+= (left_j +
    right_j) * w_j`` from the outermost tap in, into a flat buffer laid
    out like *padded*, shifted by ``radius * step``."""
    radius = len(kernel) // 2
    flat = padded.ravel()
    length = flat.size - 2 * radius * step
    windows = [flat[k * step:][:length] for k in range(2 * radius + 1)]
    out = np.empty(flat.size)
    total, pair = out[:length], np.empty(length)
    np.multiply(windows[radius], kernel[radius], out=total)
    for j in range(radius, 0, -1):
        np.add(windows[radius - j], windows[radius + j], out=pair)
        pair *= kernel[radius - j]
        total += pair
    return out


def gaussian_blur(image: np.ndarray, sigma: float = 1.0) -> np.ndarray:
    """Separable Gaussian blur with reflective borders: rows, then
    columns."""
    kernel = _blur_kernel(sigma)
    radius = len(kernel) // 2
    rows, cols = image.shape
    padded = np.asarray(image, dtype=float)[_reflect_index(rows, radius)]
    blurred = _correlate_symmetric(padded, kernel, cols)[:rows * cols]
    padded = blurred.reshape(rows, cols)[:, _reflect_index(cols, radius)]
    blurred = _correlate_symmetric(padded, kernel, 1)
    return blurred.reshape(padded.shape)[:, :cols]


#: Sobel kernels (gradient along x = columns, y = rows).
SOBEL_X = np.array([[-1, 0, 1],
                    [-2, 0, 2],
                    [-1, 0, 1]], dtype=float)
SOBEL_Y = SOBEL_X.T

#: ``(weight, row, col)`` of the flipped kernels' non-zero taps, in
#: ``ndimage.convolve``'s (row-major) order.
_SOBEL_TAPS = tuple(
    tuple((float(k[r, c]), r, c) for r in range(3) for c in range(3)
          if k[r, c])
    for k in (SOBEL_X[::-1, ::-1], SOBEL_Y[::-1, ::-1]))


def sobel_gradients(image: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gradient images (gx, gy) via Sobel operators.

    As ``ndimage.convolve``: from ``0.0`` (``0.0 + -0.0`` is ``+0.0``),
    add ``weight * pixel`` per tap (subtracting is adding the negation).
    """
    rows, cols = image.shape
    width = cols + 2
    padded = np.empty((rows + 2, width))
    padded[1:-1, 1:-1] = image
    padded[0, 1:-1], padded[-1, 1:-1] = padded[1, 1:-1], padded[-2, 1:-1]
    padded[:, 0], padded[:, -1] = padded[:, 1], padded[:, -2]
    flat = padded.ravel()
    gradients = []
    for taps in _SOBEL_TAPS:
        out = np.zeros(rows * width)
        total = out[:flat.size - 2 * width - 2]
        for weight, r, c in taps:
            term = flat[r * width + c:][:total.size]
            if abs(weight) != 1.0:
                term = term * abs(weight)
            (np.add if weight > 0 else np.subtract)(total, term, out=total)
        gradients.append(np.ascontiguousarray(
            out.reshape(rows, width)[:, :cols]))
    return gradients[0], gradients[1]
