"""Reference oracle for the optimised vision hot paths.

Verbatim copies of the pre-optimisation implementations of
:func:`repro.vision.hough.probabilistic_hough`, its helpers
``_trace_segment`` / ``_neighbour_edge``,
``repro.vision.canny._hysteresis``, and of the Canny stages:
:func:`repro.vision.canny.canny` with its ``_non_maximum_suppression``
over every pixel, and :func:`repro.vision.filters.gaussian_blur` /
:func:`repro.vision.filters.sobel_gradients` as the ``scipy.ndimage``
calls they were.  The copied ``canny`` runs on the copied stages,
hysteresis included.  They are used only by the differential tests
(``tests/test_vision_reference.py``), which assert the optimised code
returns the same output (bit for bit, signed zeros included, for the
filters) and leaves the RNG in the same state.  Do not optimise this file: its value is being the old,
obviously-correct code.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np
from scipy import ndimage

from repro.vision.filters import gaussian_kernel
from repro.vision.hough import LineSegment


def probabilistic_hough(
    edges: np.ndarray,
    threshold: int = 10,
    min_line_length: int = 10,
    max_line_gap: int = 3,
    theta_resolution: float = math.pi / 90.0,
    rng: Optional[np.random.Generator] = None,
    max_lines: int = 32,
) -> List[LineSegment]:
    """Extract line segments from a boolean edge map.

    Args:
        edges: boolean edge image (rows x cols).
        threshold: accumulator votes required to accept a candidate.
        min_line_length: minimum segment length in pixels.
        max_line_gap: largest run of non-edge pixels bridged while
            tracing a segment.
        theta_resolution: accumulator angle step (radians).
        rng: randomness source for the pixel sampling order.
        max_lines: stop after this many segments.

    Returns:
        Detected segments, longest first.
    """
    if edges.dtype != bool:
        edges = edges > 0
    rng = rng or np.random.default_rng(0)
    rows, cols = edges.shape
    remaining = edges.copy()
    points = np.argwhere(remaining)
    if points.size == 0:
        return []
    order = rng.permutation(len(points))

    thetas = np.arange(0.0, math.pi, theta_resolution)
    cos_t = np.cos(thetas)
    sin_t = np.sin(thetas)
    diagonal = int(math.ceil(math.hypot(rows, cols)))
    accumulator = np.zeros((len(thetas), 2 * diagonal + 1), dtype=np.int32)

    segments: List[LineSegment] = []
    for index in order:
        r, c = points[index]
        if not remaining[r, c]:
            continue
        # Vote.
        rhos = np.round(c * cos_t + r * sin_t).astype(int) + diagonal
        accumulator[np.arange(len(thetas)), rhos] += 1
        best_theta = int(np.argmax(accumulator[np.arange(len(thetas)), rhos]))
        if accumulator[best_theta, rhos[best_theta]] < threshold:
            continue
        # Trace the candidate line through the edge map.
        segment_pixels = _trace_segment(
            remaining, r, c, thetas[best_theta], max_line_gap)
        if len(segment_pixels) < 2:
            continue
        # Un-vote and remove the segment's pixels.
        for pr, pc in segment_pixels:
            if remaining[pr, pc]:
                remaining[pr, pc] = False
                p_rhos = np.round(pc * cos_t + pr * sin_t).astype(int) \
                    + diagonal
                np.add.at(accumulator, (np.arange(len(thetas)), p_rhos), -1)
        (r1, c1), (r2, c2) = segment_pixels[0], segment_pixels[-1]
        segment = LineSegment(x1=float(c1), y1=float(r1),
                              x2=float(c2), y2=float(r2))
        if segment.length >= min_line_length:
            segments.append(segment)
            if len(segments) >= max_lines:
                break
    segments.sort(key=lambda s: s.length, reverse=True)
    return segments


def _trace_segment(edges: np.ndarray, r0: int, c0: int, theta: float,
                   max_gap: int) -> List:
    """Walk from (r0, c0) in both directions along the line of angle
    *theta* (normal angle), collecting edge pixels until the gap limit.
    """
    # Direction along the line is perpendicular to the normal (theta).
    dr = math.cos(theta)
    dc = -math.sin(theta)
    # Normalise the dominant axis to unit steps.
    scale = max(abs(dr), abs(dc))
    if scale == 0:
        return [(r0, c0)]
    dr /= scale
    dc /= scale
    rows, cols = edges.shape

    def walk(sign: int) -> List:
        collected = []
        gap = 0
        step = 1
        while True:
            r = int(round(r0 + sign * step * dr))
            c = int(round(c0 + sign * step * dc))
            if not (0 <= r < rows and 0 <= c < cols):
                break
            hit = edges[r, c] or _neighbour_edge(edges, r, c, dr, dc)
            if hit is not None and hit is not False:
                collected.append(hit if isinstance(hit, tuple) else (r, c))
                gap = 0
            else:
                gap += 1
                if gap > max_gap:
                    break
            step += 1
        return collected

    forward = walk(+1)
    backward = walk(-1)
    return list(reversed(backward)) + [(r0, c0)] + forward


def _neighbour_edge(edges: np.ndarray, r: int, c: int,
                    dr: float, dc: float):
    """Allow one-pixel lateral tolerance perpendicular to the walk."""
    if edges[r, c]:
        return (r, c)
    # Perpendicular direction.
    pr, pc = (1, 0) if abs(dc) >= abs(dr) else (0, 1)
    for sign in (-1, 1):
        rr, cc = r + sign * pr, c + sign * pc
        if 0 <= rr < edges.shape[0] and 0 <= cc < edges.shape[1] \
                and edges[rr, cc]:
            return (rr, cc)
    return False


def _hysteresis(strong: np.ndarray, weak: np.ndarray) -> np.ndarray:
    """Grow strong edges through connected weak pixels."""
    structure = np.ones((3, 3), dtype=bool)
    labels, count = ndimage.label(weak, structure=structure)
    if count == 0:
        return np.zeros_like(weak)
    strong_labels = np.unique(labels[strong & (labels > 0)])
    if strong_labels.size == 0:
        return np.zeros_like(weak)
    return np.isin(labels, strong_labels)


def gaussian_blur(image: np.ndarray, sigma: float = 1.0) -> np.ndarray:
    """Separable Gaussian blur with reflective borders."""
    kernel = gaussian_kernel(sigma)
    blurred = ndimage.convolve1d(image.astype(float), kernel, axis=0,
                                 mode="reflect")
    return ndimage.convolve1d(blurred, kernel, axis=1, mode="reflect")


#: Sobel kernels (gradient along x = columns, y = rows).
SOBEL_X = np.array([[-1, 0, 1],
                    [-2, 0, 2],
                    [-1, 0, 1]], dtype=float)
SOBEL_Y = SOBEL_X.T


def sobel_gradients(image: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gradient images (gx, gy) via Sobel operators."""
    img = image.astype(float)
    gx = ndimage.convolve(img, SOBEL_X, mode="reflect")
    gy = ndimage.convolve(img, SOBEL_Y, mode="reflect")
    return gx, gy


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
