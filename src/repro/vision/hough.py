"""Progressive Probabilistic Hough Transform (Matas et al., 2000).

The algorithm the paper cites ([17]) and OpenCV implements as
``HoughLinesP``: edge pixels are sampled at random; each sampled pixel
votes in a (rho, theta) accumulator; when a bin crosses the vote
threshold, the corresponding line is traced through the edge map
(tolerating small gaps), the pixels of the found segment are removed,
and the segment is emitted if long enough.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional

import numpy as np


@dataclasses.dataclass(frozen=True)
class LineSegment:
    """A detected line segment in pixel coordinates (x=col, y=row)."""

    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def length(self) -> float:
        """Euclidean length in pixels."""
        return math.hypot(self.x2 - self.x1, self.y2 - self.y1)

    @property
    def angle(self) -> float:
        """Orientation in radians, measured from the +x axis, in
        (-pi/2, pi/2]."""
        angle = math.atan2(self.y2 - self.y1, self.x2 - self.x1)
        if angle <= -math.pi / 2:
            angle += math.pi
        elif angle > math.pi / 2:
            angle -= math.pi
        return angle

    @property
    def midpoint_x(self) -> float:
        """Column coordinate of the segment midpoint."""
        return 0.5 * (self.x1 + self.x2)


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
    diagonal = int(math.ceil(math.hypot(rows, cols)))
    # Every point's accumulator bins, computed once per frame.
    bins = _rho_table(points, thetas, diagonal)
    accumulator = np.zeros(len(thetas) * (2 * diagonal + 1), dtype=np.int64)
    point_index = np.zeros((rows, cols), dtype=np.intp)
    point_index[points[:, 0], points[:, 1]] = np.arange(len(points))

    coords = points.tolist()
    segments: List[LineSegment] = []
    for index in order.tolist():
        r, c = coords[index]
        if not remaining[r, c]:
            continue
        # Vote.
        point_bins = bins[index]
        accumulator[point_bins] += 1
        votes = accumulator[point_bins]
        best_theta = int(votes.argmax())
        if votes[best_theta] < threshold:
            continue
        # Trace the candidate line through the edge map.
        segment_pixels = _trace_segment(
            remaining, r, c, thetas[best_theta], max_line_gap)
        if len(segment_pixels) < 2:
            continue
        # Un-vote and remove the segment's pixels.  They are all live
        # (the walk reads ``remaining``) and distinct (each step moves
        # the dominant axis one pixel); integer counts do not depend
        # on the un-vote order.
        pr, pc = segment_pixels[:, 0], segment_pixels[:, 1]
        remaining[pr, pc] = False
        accumulator -= np.bincount(bins[point_index[pr, pc]].ravel(),
                                   minlength=accumulator.size)
        (r1, c1), (r2, c2) = segment_pixels[0], segment_pixels[-1]
        segment = LineSegment(x1=float(c1), y1=float(r1),
                              x2=float(c2), y2=float(r2))
        if segment.length >= min_line_length:
            segments.append(segment)
            if len(segments) >= max_lines:
                break
    segments.sort(key=lambda s: s.length, reverse=True)
    return segments


def _rho_table(points: np.ndarray, thetas: np.ndarray,
               diagonal: int) -> np.ndarray:
    """The accumulator bin of every (point, theta) vote.

    Row *i* holds the bins point *i* = (row, col) votes for, one per
    theta: rho index ``round(col cos t + row sin t) + diagonal``,
    flattened as ``theta_index * (2 * diagonal + 1) + rho_index`` into
    a 1-D accumulator.  The float ops are the same elementwise ones as
    a per-point ``c * cos_t + r * sin_t``, so the bins are identical.
    """
    # Cast the pixel coordinates up front (exact) and round in place;
    # adding the integral bin offsets before the cast is exact too.
    coords = points.astype(float)
    table = coords[:, 1:2] * np.cos(thetas)
    table += coords[:, 0:1] * np.sin(thetas)
    np.rint(table, out=table)
    table += diagonal + np.arange(len(thetas)) * (2 * diagonal + 1)
    return table.astype(np.intp)


@dataclasses.dataclass(frozen=True)
class HoughLine:
    """An infinite line in normal form: ``x cos t + y sin t = rho``."""

    rho: float
    theta: float
    votes: int

    def x_at_row(self, row: float) -> Optional[float]:
        """The line's column at image *row*, or None if horizontal."""
        cos_t = math.cos(self.theta)
        if abs(cos_t) < 1e-9:
            return None
        return (self.rho - row * math.sin(self.theta)) / cos_t


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
    width = 2 * diagonal + 1
    # Every pixel votes in every theta row: one bincount over the table.
    accumulator = np.bincount(
        _rho_table(points, thetas, diagonal).ravel(),
        minlength=len(thetas) * width).reshape(len(thetas), width)

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
                   max_gap: int) -> np.ndarray:
    """Walk from (r0, c0) in both directions along the line of angle
    *theta* (normal angle), collecting edge pixels until the gap limit.

    Step k (negative backward) visits ``rint(r0 + k*dr), rint(c0 +
    k*dc)`` -- half to even, like ``round``.  A step hits if that pixel
    is an edge, else if its -1 then +1 neighbour across the walk is
    (one-pixel lateral tolerance).  Each direction ends at the image
    border or once more than *max_gap* steps in a row miss.

    Returns the collected pixels as an ``(n, 2)`` array of (row, col)
    in order along the line, (r0, c0) included.
    """
    # Direction along the line is perpendicular to the normal (theta).
    dr = math.cos(theta)
    dc = -math.sin(theta)
    # Normalise the dominant axis to unit steps.
    scale = max(abs(dr), abs(dc))
    if scale == 0:
        return np.array([[r0, c0]])
    dr /= scale
    dc /= scale
    rows, cols = edges.shape
    # The whole line at once, steps -n..n with the start at index n.
    # The dominant axis moves one pixel per step, so n steps reach
    # past the border in both directions.
    n = rows if abs(dr) >= abs(dc) else cols
    steps = np.arange(-n, n + 1)
    r = np.rint(r0 + steps * dr).astype(np.intp)
    c = np.rint(c0 + steps * dc).astype(np.intp)
    # Coordinates are monotone in the step, so the steps on the image
    # are one run around the start; negatives wrap to huge unsigned.
    inside = (r.view(np.uintp) < rows) & (c.view(np.uintp) < cols)
    # Look up on a 1-pixel zero border; steps off the image look at
    # pixel 0 and are masked out by *inside*.
    width = cols + 2
    padded = np.zeros((rows + 2, width), dtype=bool)
    padded[1:-1, 1:-1] = edges
    flat = padded.ravel()
    index = np.where(inside, r * width + c + (width + 1), 0)
    lateral = width if abs(dc) >= abs(dr) else 1
    centre = flat[index]
    before = flat[index - lateral]
    after = flat[index + lateral]
    hit = (centre | before | after) & inside
    side = np.where(centre, 0, np.where(before, -1, 1))
    side[n] = 0
    hit[n] = True
    if lateral == 1:
        c += side
    else:
        r += side
    # Cut each direction at its first run of max_gap + 1 misses.  The
    # start always hits, so no run spans it.
    run = max(max_gap, 0) + 1
    misses = np.zeros(steps.size + 1, dtype=np.intp)
    np.cumsum(~hit, out=misses[1:])
    gaps = np.flatnonzero(misses[run:] - misses[:-run] == run)
    split = int(np.searchsorted(gaps, n))
    lo = gaps[split - 1] + run if split else 0
    hi = gaps[split] if split < gaps.size else steps.size
    keep = np.flatnonzero(hit[lo:hi]) + lo
    return np.column_stack((r[keep], c[keep]))
