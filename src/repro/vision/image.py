"""Synthetic camera frames of the track.

The vehicle's ZED camera sees the floor with a dark guide line.  The
renderer produces the view the Line Detection algorithm consumes: a
grayscale frame where the line's column position varies with the
vehicle's lateral offset and heading error.  A simple pinhole-ish
mapping is used: at the bottom of the image (closest to the vehicle)
the line sits at ``centre + offset``; towards the top it shifts by the
heading error, so steering errors appear as slanted lines -- exactly
the geometry the PID steering loop corrects.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np


@dataclasses.dataclass(frozen=True)
class LineViewConfig:
    """Geometry of the rendered line view."""

    width: int = 96
    height: int = 72
    #: Pixels per metre of lateral offset at the bottom row.
    pixels_per_metre: float = 160.0
    #: Pixels of horizontal shift per radian of heading error across
    #: the full image height.
    pixels_per_radian: float = 220.0
    #: Width of the painted line (pixels).
    line_width_px: float = 6.0
    #: Floor and line intensities (0..1).
    floor_level: float = 0.8
    line_level: float = 0.15
    #: Additive Gaussian pixel noise std-dev.
    noise_std: float = 0.02


def render_line_view(
    lateral_offset: float,
    heading_error: float,
    config: Optional[LineViewConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Render the camera view of the guide line.

    Args:
        lateral_offset: vehicle centre minus line centre, metres
            (positive = vehicle is right of the line, so the line
            appears left of centre).
        heading_error: vehicle heading minus line heading, radians
            (positive = vehicle pointing right of the line).
        config: view geometry.
        rng: noise source (no noise when None and ``noise_std == 0``).

    Returns:
        Float image in [0, 1], shape (height, width); the line may be
        partly or fully out of view for large offsets.
    """
    cfg = config or LineViewConfig()
    rows = np.arange(cfg.height, dtype=float)[:, None]
    cols = np.arange(cfg.width, dtype=float)[None, :]
    # Bottom row (row = height-1) is nearest the vehicle.
    nearness = (cfg.height - 1 - rows) / max(cfg.height - 1, 1)  # 0 bottom
    centre_bottom = cfg.width / 2.0 - lateral_offset * cfg.pixels_per_metre
    centre = centre_bottom - heading_error * cfg.pixels_per_radian * nearness
    half = cfg.line_width_px / 2.0
    # Anti-aliased line profile.
    distance = np.abs(cols - centre)
    line_mask = np.clip(half + 0.5 - distance, 0.0, 1.0)
    image = cfg.floor_level + (cfg.line_level - cfg.floor_level) * line_mask
    if cfg.noise_std > 0:
        noise_rng = rng or np.random.default_rng(0)
        image = image + noise_rng.normal(0.0, cfg.noise_std, image.shape)
    return np.clip(image, 0.0, 1.0)
