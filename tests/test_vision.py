"""Tests for the vision substrate: rendering, Canny, Hough."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vision import (
    LineViewConfig,
    canny,
    gaussian_blur,
    gaussian_kernel,
    probabilistic_hough,
    render_line_view,
    sobel_gradients,
)
from repro.vision.hough import LineSegment


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------


class TestFilters:
    def test_gaussian_kernel_normalised(self):
        kernel = gaussian_kernel(1.5)
        assert kernel.sum() == pytest.approx(1.0)
        assert kernel[len(kernel) // 2] == kernel.max()

    def test_gaussian_kernel_symmetric(self):
        kernel = gaussian_kernel(2.0)
        assert np.allclose(kernel, kernel[::-1])

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            gaussian_kernel(0.0)

    def test_blur_preserves_mean(self):
        rng = np.random.default_rng(1)
        image = rng.random((32, 32))
        blurred = gaussian_blur(image, 1.0)
        assert blurred.mean() == pytest.approx(image.mean(), abs=0.01)

    def test_blur_reduces_variance(self):
        rng = np.random.default_rng(1)
        image = rng.random((32, 32))
        assert gaussian_blur(image, 2.0).var() < image.var()

    def test_sobel_detects_vertical_edge(self):
        image = np.zeros((16, 16))
        image[:, 8:] = 1.0
        gx, gy = sobel_gradients(image)
        assert np.abs(gx).max() > 1.0
        assert np.abs(gy[:, 4]).max() == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# Canny
# ---------------------------------------------------------------------------


class TestCanny:
    def test_blank_image_no_edges(self):
        assert canny(np.zeros((32, 32))).sum() == 0
        assert canny(np.full((32, 32), 0.7)).sum() == 0

    def test_step_edge_detected(self):
        image = np.zeros((32, 32))
        image[:, 16:] = 1.0
        edges = canny(image)
        # A thin vertical edge near column 16.
        columns = np.argwhere(edges)[:, 1]
        assert edges.sum() > 0
        assert np.all(np.abs(columns - 15.5) <= 2)

    def test_non_maximum_suppression_thins_edges(self):
        image = np.zeros((32, 32))
        image[:, 16:] = 1.0
        edges = canny(image)
        # Each row has at most ~2 edge pixels (thin line).
        assert edges.sum(axis=1).max() <= 2

    def test_hysteresis_rejects_isolated_weak_edges(self):
        rng = np.random.default_rng(1)
        # Pure faint noise, thresholds relative: with a strong edge
        # present, the noise should not survive hysteresis.
        image = 0.02 * rng.random((32, 32))
        image[:, 16:] += 1.0
        edges = canny(image, low_threshold=0.2, high_threshold=0.5)
        columns = np.argwhere(edges)[:, 1]
        assert np.all(np.abs(columns - 15.5) <= 2)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            canny(np.zeros((4, 4, 3)))

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            canny(np.zeros((8, 8)), low_threshold=0.5, high_threshold=0.2)

    def test_diagonal_edge(self):
        image = np.fromfunction(lambda r, c: (c > r).astype(float),
                                (32, 32))
        edges = canny(image)
        assert edges.sum() >= 20  # roughly one pixel per row


# ---------------------------------------------------------------------------
# Probabilistic Hough
# ---------------------------------------------------------------------------


def draw_line(shape, x1, y1, x2, y2):
    edges = np.zeros(shape, dtype=bool)
    steps = int(max(abs(x2 - x1), abs(y2 - y1))) + 1
    for t in np.linspace(0.0, 1.0, steps * 2):
        r = int(round(y1 + (y2 - y1) * t))
        c = int(round(x1 + (x2 - x1) * t))
        if 0 <= r < shape[0] and 0 <= c < shape[1]:
            edges[r, c] = True
    return edges


class TestHough:
    def test_empty_edge_map(self):
        assert probabilistic_hough(np.zeros((32, 32), dtype=bool)) == []

    def test_finds_vertical_line(self):
        edges = draw_line((64, 64), 30, 5, 30, 58)
        lines = probabilistic_hough(edges, threshold=10,
                                    min_line_length=30,
                                    rng=np.random.default_rng(1))
        assert lines
        best = lines[0]
        assert abs(abs(math.degrees(best.angle)) - 90) < 10
        assert abs(best.midpoint_x - 30) < 3

    def test_finds_horizontal_line(self):
        edges = draw_line((64, 64), 5, 20, 58, 20)
        lines = probabilistic_hough(edges, threshold=10,
                                    min_line_length=30,
                                    rng=np.random.default_rng(1))
        assert lines
        assert abs(math.degrees(lines[0].angle)) < 10

    def test_finds_two_lines(self):
        edges = draw_line((64, 64), 15, 5, 15, 58)
        edges |= draw_line((64, 64), 45, 5, 45, 58)
        lines = probabilistic_hough(edges, threshold=10,
                                    min_line_length=30,
                                    rng=np.random.default_rng(1))
        mids = sorted(line.midpoint_x for line in lines[:2])
        assert len(lines) >= 2
        assert abs(mids[0] - 15) < 4
        assert abs(mids[1] - 45) < 4

    def test_min_length_filters_short_segments(self):
        edges = draw_line((64, 64), 30, 28, 30, 36)  # ~8 px long
        lines = probabilistic_hough(edges, threshold=5,
                                    min_line_length=20,
                                    rng=np.random.default_rng(1))
        assert lines == []

    def test_bridges_small_gaps(self):
        edges = draw_line((64, 64), 30, 5, 30, 28)
        edges |= draw_line((64, 64), 30, 31, 30, 58)  # 2 px gap
        lines = probabilistic_hough(edges, threshold=10,
                                    min_line_length=40, max_line_gap=3,
                                    rng=np.random.default_rng(1))
        assert lines
        assert lines[0].length >= 40

    def test_respects_max_lines(self):
        edges = np.zeros((64, 64), dtype=bool)
        for x in range(5, 60, 6):
            edges |= draw_line((64, 64), x, 5, x, 58)
        lines = probabilistic_hough(edges, threshold=8,
                                    min_line_length=20, max_lines=3,
                                    rng=np.random.default_rng(1))
        assert len(lines) <= 3

    def test_segment_properties(self):
        seg = LineSegment(0.0, 0.0, 3.0, 4.0)
        assert seg.length == pytest.approx(5.0)
        assert seg.midpoint_x == pytest.approx(1.5)
        assert -math.pi / 2 < seg.angle <= math.pi / 2


# ---------------------------------------------------------------------------
# Renderer
# ---------------------------------------------------------------------------


class TestRenderer:
    def test_centered_line_is_dark_at_centre(self):
        cfg = LineViewConfig(noise_std=0.0)
        image = render_line_view(0.0, 0.0, cfg)
        assert image[-1, cfg.width // 2] < 0.3
        assert image[-1, 5] > 0.7

    def test_offset_moves_line(self):
        cfg = LineViewConfig(noise_std=0.0)
        right_of_line = render_line_view(0.1, 0.0, cfg)
        # Vehicle right of line -> line left of centre.
        left_half = right_of_line[-1, :cfg.width // 2]
        right_half = right_of_line[-1, cfg.width // 2:]
        assert left_half.min() < 0.3
        assert right_half.min() > 0.7

    def test_heading_error_slants_line(self):
        cfg = LineViewConfig(noise_std=0.0)
        image = render_line_view(0.0, 0.2, cfg)
        bottom_dark = int(np.argmin(image[-1]))
        top_dark = int(np.argmin(image[0]))
        assert top_dark < bottom_dark  # slanted

    def test_extreme_offset_no_line(self):
        cfg = LineViewConfig(noise_std=0.0)
        image = render_line_view(2.0, 0.0, cfg)
        assert np.all(image == cfg.floor_level)

    @given(st.floats(-0.15, 0.15), st.floats(-0.25, 0.25))
    @settings(max_examples=30, deadline=None)
    def test_image_in_unit_range(self, offset, heading):
        image = render_line_view(offset, heading,
                                 rng=np.random.default_rng(1))
        assert image.min() >= 0.0
        assert image.max() <= 1.0


class TestPipelineInversion:
    """The full forward (render) + inverse (detect) loop."""

    @pytest.mark.parametrize("offset,heading", [
        (0.0, 0.0), (0.08, 0.0), (-0.08, 0.0),
        (0.0, 0.15), (0.0, -0.15), (0.05, 0.1),
    ])
    def test_estimate_matches_truth(self, offset, heading):
        from repro.sim import Simulator
        from repro.vehicle.line_follow import LineDetectionNode

        sim = Simulator()
        estimates = []
        node = LineDetectionNode(sim, publish=estimates.append,
                                 inference_latency=0.0,
                                 rng=np.random.default_rng(2))
        cfg = node.view
        image = render_line_view(offset, heading, cfg,
                                 rng=np.random.default_rng(1))

        class Frame:
            captured_at = 0.0
            sequence = 0
        frame = Frame()
        frame.image = image
        node.on_frame(frame)
        sim.run()
        assert estimates and estimates[0].line_visible
        estimate = estimates[0]
        assert estimate.lateral_offset == pytest.approx(offset, abs=0.03)
        assert estimate.heading_error == pytest.approx(heading, abs=0.06)
