"""Reference oracle for the optimised vision hot paths.

Verbatim copies of the pre-optimisation implementations of
:func:`repro.vision.hough.probabilistic_hough`, its helpers
``_trace_segment`` / ``_neighbour_edge``,
:func:`repro.vision.hough.standard_hough` and
``repro.vision.canny._hysteresis``.  They are used only by the
differential tests (``tests/test_vision_reference.py``), which assert
the optimised code returns the same output and leaves the RNG in the
same state.  Do not optimise this file: its value is being the old,
obviously-correct code.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np
from scipy import ndimage

from repro.vision.hough import HoughLine, LineSegment


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


def standard_hough(
    edges: np.ndarray,
    threshold: int = 20,
    theta_resolution: float = math.pi / 180.0,
    max_lines: int = 16,
    suppression_window: int = 2,
) -> List["HoughLine"]:
    """The classic (non-probabilistic) Hough transform.

    Every edge pixel votes for all (rho, theta) bins; accumulator
    peaks above *threshold* become lines (with a small neighbourhood
    suppression so one physical line yields one peak).  Complementary
    to :func:`probabilistic_hough`: returns infinite lines with vote
    counts instead of finite segments.
    """
    if edges.dtype != bool:
        edges = edges > 0
    rows, cols = edges.shape
    points = np.argwhere(edges)
    if points.size == 0:
        return []
    thetas = np.arange(0.0, math.pi, theta_resolution)
    diagonal = int(math.ceil(math.hypot(rows, cols)))
    accumulator = np.zeros((len(thetas), 2 * diagonal + 1),
                           dtype=np.int32)
    cos_t = np.cos(thetas)
    sin_t = np.sin(thetas)
    # Vectorised voting: for each theta, bin all points at once.
    ys = points[:, 0].astype(float)
    xs = points[:, 1].astype(float)
    for index in range(len(thetas)):
        rhos = np.round(xs * cos_t[index]
                        + ys * sin_t[index]).astype(int) + diagonal
        np.add.at(accumulator[index], rhos, 1)

    lines: List[HoughLine] = []
    working = accumulator.copy()
    for _ in range(max_lines):
        peak = int(working.max())
        if peak < threshold:
            break
        theta_index, rho_index = np.unravel_index(
            int(working.argmax()), working.shape)
        lines.append(HoughLine(
            rho=float(rho_index - diagonal),
            theta=float(thetas[theta_index]),
            votes=peak,
        ))
        # Suppress the neighbourhood of the found peak.
        t_lo = max(0, theta_index - suppression_window)
        t_hi = min(len(thetas), theta_index + suppression_window + 1)
        r_lo = max(0, rho_index - 3 * suppression_window)
        r_hi = min(working.shape[1],
                   rho_index + 3 * suppression_window + 1)
        working[t_lo:t_hi, r_lo:r_hi] = 0
    return lines


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
