"""The Canny edge detector.

The classic pipeline: Gaussian smoothing, Sobel gradients, non-maximum
suppression along the quantised gradient direction, double threshold,
and hysteresis (weak edges survive only when connected to strong
ones).  Matches the role of ``cv2.Canny`` in the paper's line
detection chain.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.vision.filters import gaussian_blur, sobel_gradients


def canny(
    image: np.ndarray,
    low_threshold: float = 0.1,
    high_threshold: float = 0.2,
    sigma: float = 1.0,
) -> np.ndarray:
    """Detect edges in a grayscale image.

    Args:
        image: 2-D array, any numeric range (thresholds are relative
            to the maximum gradient magnitude).
        low_threshold: weak-edge threshold, fraction of max magnitude.
        high_threshold: strong-edge threshold, fraction of max magnitude.
        sigma: Gaussian pre-smoothing standard deviation.

    Returns:
        Boolean edge map of the same shape.
    """
    if image.ndim != 2:
        raise ValueError(f"expected 2-D grayscale image, got {image.shape}")
    if not 0 <= low_threshold <= high_threshold:
        raise ValueError(
            f"thresholds must satisfy 0 <= low <= high, got "
            f"{low_threshold}, {high_threshold}"
        )
    smoothed = gaussian_blur(image, sigma)
    gx, gy = sobel_gradients(smoothed)
    magnitude = np.hypot(gx, gy)
    peak = magnitude.max()
    # Guard against numerically-flat images: convolution round-off on
    # a constant image leaves ~1e-16 gradients that must not count.
    flat_floor = 1e-9 * max(1.0, float(np.abs(image).max()))
    if peak <= flat_floor:
        return np.zeros_like(magnitude, dtype=bool)

    suppressed = _non_maximum_suppression(magnitude, gx, gy)
    strong = suppressed >= high_threshold * peak
    weak = suppressed >= low_threshold * peak
    return _hysteresis(strong, weak)


def _non_maximum_suppression(magnitude: np.ndarray, gx: np.ndarray,
                             gy: np.ndarray) -> np.ndarray:
    """Keep only local maxima along the gradient direction."""
    rows, cols = magnitude.shape
    angle = np.arctan2(gy, gx)  # -pi..pi
    # Quantise to 4 directions: 0 (E-W), 45, 90 (N-S), 135 degrees.
    sector = (np.round(angle / (np.pi / 4.0)).astype(int)) % 4

    padded = np.pad(magnitude, 1, mode="constant")
    center = padded[1:-1, 1:-1]
    # Neighbour pairs per sector, in (row, col) offsets on the padded
    # array relative to the centre window.
    neighbour_offsets = {
        0: ((0, 1), (0, -1)),     # gradient E-W -> compare left/right
        1: ((1, 1), (-1, -1)),    # 45 degrees
        2: ((1, 0), (-1, 0)),     # N-S -> compare up/down
        3: ((1, -1), (-1, 1)),    # 135 degrees
    }
    keep = np.zeros((rows, cols), dtype=bool)
    for s, ((dr1, dc1), (dr2, dc2)) in neighbour_offsets.items():
        mask = sector == s
        n1 = padded[1 + dr1:rows + 1 + dr1, 1 + dc1:cols + 1 + dc1]
        n2 = padded[1 + dr2:rows + 1 + dr2, 1 + dc2:cols + 1 + dc2]
        keep |= mask & (center >= n1) & (center >= n2)
    return np.where(keep, magnitude, 0.0)


def _hysteresis(strong: np.ndarray, weak: np.ndarray) -> np.ndarray:
    """Grow strong edges through connected weak pixels."""
    structure = np.ones((3, 3), dtype=bool)
    labels, count = ndimage.label(weak, structure=structure)
    # Label lookup table: a component survives if any strong pixel
    # lies in it; label 0 is the background.
    keep = np.zeros(count + 1, dtype=bool)
    keep[labels[strong]] = True
    keep[0] = False
    return keep[labels]
