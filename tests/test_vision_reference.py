"""Differential tests: the optimised vision hot paths against their
pre-optimisation versions in :mod:`tests.reference.vision`.

The optimised code must be byte-identical to the reference: the same
segments in the same order, the same edge map, the same RNG state
after the call, and blurred and gradient images equal bit for bit
(signed zeros included) to ``scipy.ndimage``'s.
"""

import copy
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vision import filters, hough, render_line_view
from repro.vision.image import LineViewConfig
from tests.reference import vision as ref

# ``repro.vision.canny`` the attribute is the function; this is the
# module (its ``_hysteresis`` is patched below).
canny_module = importlib.import_module("repro.vision.canny")

#: The line follower's frame size (``LineViewConfig``), plus small and
#: odd shapes that put most pixels near a border.
SHAPES = st.one_of(
    st.just((72, 96)),
    st.tuples(st.integers(1, 40), st.integers(1, 40)),
)
DENSITIES = st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.25, 0.5])
#: The probabilistic transform's default theta grid.
GRID_THETAS = np.arange(0.0, math.pi, math.pi / 90.0)


def random_edges(shape, density, seed):
    """A reproducible random boolean edge map."""
    return np.random.default_rng(seed).random(shape) < density


def striped_edges(shape, seed):
    """A few random straight lines plus speckle: long segments that
    exercise tracing, gaps and the max_lines cut-off."""
    rng = np.random.default_rng(seed)
    rows, cols = shape
    edges = rng.random(shape) < 0.01
    for _ in range(int(rng.integers(1, 5))):
        r0, c0 = rng.integers(0, rows), rng.integers(0, cols)
        angle = rng.uniform(0.0, math.pi)
        for t in np.linspace(-max(shape), max(shape), 4 * max(shape)):
            r = int(round(r0 + t * math.sin(angle)))
            c = int(round(c0 + t * math.cos(angle)))
            if 0 <= r < rows and 0 <= c < cols and rng.random() > 0.1:
                edges[r, c] = True
    return edges


def assert_same_hough(edges, **kwargs):
    """Run both transforms on copies; compare output and RNG state."""
    seed = kwargs.pop("seed")
    rng_fast = np.random.default_rng(seed)
    rng_ref = copy.deepcopy(rng_fast)
    before = edges.copy()
    fast = hough.probabilistic_hough(edges.copy(), rng=rng_fast, **kwargs)
    slow = ref.probabilistic_hough(edges.copy(), rng=rng_ref, **kwargs)
    assert fast == slow
    assert rng_fast.bit_generator.state == rng_ref.bit_generator.state
    np.testing.assert_array_equal(edges, before)


HOUGH_PARAMS = dict(
    threshold=st.integers(1, 20),
    min_line_length=st.integers(0, 30),
    max_line_gap=st.integers(0, 5),
    max_lines=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
)


class TestProbabilisticHoughDifferential:
    @settings(max_examples=150, deadline=None)
    @given(shape=SHAPES, density=DENSITIES, map_seed=st.integers(0, 2**32 - 1),
           **HOUGH_PARAMS)
    def test_random_maps(self, shape, density, map_seed, **params):
        assert_same_hough(random_edges(shape, density, map_seed), **params)

    @settings(max_examples=100, deadline=None)
    @given(map_seed=st.integers(0, 2**32 - 1),
           max_lines=st.integers(1, 3),
           threshold=st.integers(1, 10),
           max_line_gap=st.integers(0, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_lines_with_early_break(self, map_seed, **params):
        # A small max_lines makes the early ``break`` run.
        assert_same_hough(striped_edges((72, 96), map_seed),
                          min_line_length=5, **params)

    @settings(max_examples=50, deadline=None)
    @given(shape=SHAPES, density=DENSITIES, map_seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from([np.uint8, np.int32, np.float64]),
           theta_resolution=st.sampled_from(
               [math.pi / 90.0, math.pi / 180.0, 0.1, 0.7]),
           **HOUGH_PARAMS)
    def test_non_bool_input(self, shape, density, map_seed, dtype,
                            **params):
        values = np.random.default_rng(map_seed).integers(1, 255, shape)
        edges = np.where(random_edges(shape, density, map_seed),
                         values, 0).astype(dtype)
        assert_same_hough(edges, **params)

    @pytest.mark.parametrize("shape", [(72, 96), (1, 1), (5, 3)])
    def test_empty_map(self, shape):
        assert_same_hough(np.zeros(shape, dtype=bool), seed=3)

    def test_default_rng(self):
        edges = striped_edges((72, 96), 7)
        assert hough.probabilistic_hough(edges) == \
            ref.probabilistic_hough(edges)

    @pytest.mark.parametrize("offset,heading", [
        (0.0, 0.0), (0.04, 0.1), (-0.06, -0.2), (0.1, 0.3)])
    def test_rendered_frames(self, offset, heading):
        cfg = LineViewConfig()
        image = render_line_view(offset, heading, cfg,
                                 rng=np.random.default_rng(5))
        edges = canny_module.canny(image, 0.15, 0.3)
        assert_same_hough(edges, threshold=8, min_line_length=15,
                          max_line_gap=3, seed=11)


class TestTraceSegmentDifferential:
    @settings(max_examples=300, deadline=None)
    @given(shape=SHAPES, density=DENSITIES, map_seed=st.integers(0, 2**32 - 1),
           start=st.tuples(st.floats(0, 1, exclude_max=True),
                           st.floats(0, 1, exclude_max=True)),
           theta=st.one_of(st.floats(0.0, math.pi),
                           st.sampled_from(list(GRID_THETAS))),
           max_gap=st.integers(0, 5))
    def test_matches_reference(self, shape, density, map_seed, start,
                               theta, max_gap):
        edges = random_edges(shape, density, map_seed)
        r0 = int(start[0] * shape[0])
        c0 = int(start[1] * shape[1])
        fast = hough._trace_segment(edges, r0, c0, theta, max_gap)
        slow = ref._trace_segment(edges, r0, c0, theta, max_gap)
        assert [tuple(p) for p in fast.tolist()] == \
            [(int(r), int(c)) for r, c in slow]


    @pytest.mark.parametrize("density", [0.3, 0.7, 1.0])
    def test_half_pixel_steps_round_half_to_even(self, density):
        # At this theta the walk's minor axis moves exactly -0.5 pixel
        # per step, so every other position is a rounding tie.
        theta = 2.0344439357957027
        assert math.cos(theta) / math.sin(theta) == -0.5
        edges = random_edges((72, 96), density, 4)
        for r0, c0 in [(36, 48), (0, 0), (71, 95), (10, 90)]:
            fast = hough._trace_segment(edges, r0, c0, theta, 2)
            slow = ref._trace_segment(edges, r0, c0, theta, 2)
            assert [tuple(p) for p in fast.tolist()] == \
                [(int(r), int(c)) for r, c in slow]


class TestHysteresisDifferential:
    @settings(max_examples=150, deadline=None)
    @given(shape=SHAPES, weak_density=DENSITIES,
           strong_density=st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]),
           subset=st.booleans(),
           map_seed=st.integers(0, 2**32 - 1))
    def test_matches_reference(self, shape, weak_density, strong_density,
                               subset, map_seed):
        rng = np.random.default_rng(map_seed)
        weak = rng.random(shape) < weak_density
        strong = rng.random(shape) < strong_density
        if subset:  # what canny passes: strong pixels are also weak
            strong &= weak
        fast = canny_module._hysteresis(strong, weak)
        slow = ref._hysteresis(strong, weak)
        assert fast.dtype == slow.dtype
        np.testing.assert_array_equal(fast, slow)

    @pytest.mark.parametrize("offset,heading", [
        (0.0, 0.0), (0.05, -0.15), (-0.08, 0.25)])
    def test_rendered_frames(self, monkeypatch, offset, heading):
        image = render_line_view(offset, heading, LineViewConfig(),
                                 rng=np.random.default_rng(9))
        fast = canny_module.canny(image, 0.15, 0.3)
        monkeypatch.setattr(canny_module, "_hysteresis", ref._hysteresis)
        slow = canny_module.canny(image, 0.15, 0.3)
        np.testing.assert_array_equal(fast, slow)


#: Every frame size from a single pixel to the line follower's.
FRAME_SHAPES = st.one_of(
    st.just((72, 96)),
    st.tuples(st.integers(1, 72), st.integers(1, 96)),
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
)
#: Image families: noise, values with signed zeros and exact
#: cancellations, integer pixels, and a single step edge.
IMAGE_KINDS = st.sampled_from(["uniform", "signed", "integer", "step"])
SCALES = st.sampled_from([1.0, 1e-12, 1e6])


def random_image(shape, kind, scale, seed):
    """A reproducible test frame of the given family."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return scale * rng.random(shape)
    if kind == "signed":
        return scale * rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], shape)
    if kind == "integer":
        return rng.integers(0, 256, shape).astype(np.int32)
    image = np.zeros(shape)
    image[:, int(rng.integers(0, shape[1])):] = scale
    return image


def assert_bitwise(fast, slow):
    """Equal shape, dtype, values and sign bits (NaN equal to NaN)."""
    assert fast.shape == slow.shape
    assert fast.dtype == slow.dtype
    np.testing.assert_array_equal(fast, slow)
    numbers = ~np.isnan(slow)
    np.testing.assert_array_equal(np.signbit(fast[numbers]),
                                  np.signbit(slow[numbers]))


def assert_same_canny(image, low, high, sigma=1.0):
    fast = canny_module.canny(image, low, high, sigma)
    slow = ref.canny(image, low, high, sigma)
    assert fast.dtype == slow.dtype == bool
    np.testing.assert_array_equal(fast, slow)


class TestFiltersDifferential:
    @settings(max_examples=300, deadline=None)
    @given(shape=FRAME_SHAPES, kind=IMAGE_KINDS, scale=SCALES,
           seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.5, 2.5))
    def test_blur_and_gradients(self, shape, kind, scale, seed, sigma):
        image = random_image(shape, kind, scale, seed)
        blurred = filters.gaussian_blur(image, sigma)
        assert_bitwise(blurred, ref.gaussian_blur(image, sigma))
        for fast, slow in zip(filters.sobel_gradients(blurred),
                              ref.sobel_gradients(blurred)):
            assert_bitwise(fast, slow)

    @settings(max_examples=200, deadline=None)
    @given(shape=FRAME_SHAPES, kind=IMAGE_KINDS, scale=SCALES,
           seed=st.integers(0, 2**32 - 1))
    def test_gradients_of_raw_frames(self, shape, kind, scale, seed):
        # Unblurred pixels keep their exact zeros, so the signed-zero
        # start of every Sobel sum shows.
        image = random_image(shape, kind, scale, seed)
        for fast, slow in zip(filters.sobel_gradients(image),
                              ref.sobel_gradients(image)):
            assert_bitwise(fast, slow)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixels(self, value):
        image = np.random.default_rng(1).random((12, 17))
        image[4, 5] = value
        with np.errstate(all="ignore"):
            blurred = filters.gaussian_blur(image)
            assert_bitwise(blurred, ref.gaussian_blur(image))
            for fast, slow in zip(filters.sobel_gradients(blurred),
                                  ref.sobel_gradients(blurred)):
                assert_bitwise(fast, slow)


#: Relative thresholds: ordered pairs, with low = 0 and low == high
#: drawn often.
THRESHOLDS = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
    sorted).flatmap(lambda pair: st.sampled_from([
        tuple(pair), (0.0, pair[1]), (pair[1], pair[1]), (0.0, 0.0)]))


class TestCannyDifferential:
    @settings(max_examples=300, deadline=None)
    @given(shape=FRAME_SHAPES, kind=IMAGE_KINDS, scale=SCALES,
           seed=st.integers(0, 2**32 - 1), thresholds=THRESHOLDS,
           sigma=st.floats(0.5, 2.5))
    def test_random_frames(self, shape, kind, scale, seed, thresholds,
                           sigma):
        image = random_image(shape, kind, scale, seed)
        assert_same_canny(image, *thresholds, sigma=sigma)

    @settings(max_examples=150, deadline=None)
    @given(shape=FRAME_SHAPES, offset=st.floats(-0.2, 0.2),
           heading=st.floats(-0.4, 0.4), seed=st.integers(0, 2**32 - 1),
           thresholds=THRESHOLDS)
    def test_rendered_frames(self, shape, offset, heading, seed,
                             thresholds):
        rows, cols = shape
        image = render_line_view(offset, heading,
                                 LineViewConfig(width=cols, height=rows),
                                 rng=np.random.default_rng(seed))
        assert_same_canny(image, *thresholds)

    @pytest.mark.parametrize("offset,heading", [
        (0.0, 0.0), (0.04, 0.1), (-0.06, -0.2), (0.1, 0.3)])
    def test_line_follower_frames(self, offset, heading):
        image = render_line_view(offset, heading, LineViewConfig(),
                                 rng=np.random.default_rng(3))
        assert_same_canny(image, 0.15, 0.3)

    @pytest.mark.parametrize("image", [
        np.zeros((8, 8)), np.full((9, 5), 0.7), np.full((1, 1), 3.0),
        np.full((6, 6), 1e-12), np.arange(30.0).reshape(5, 6) * 1e-12])
    @pytest.mark.parametrize("thresholds", [(0.1, 0.2), (0.0, 0.0),
                                            (0.0, 0.5), (0.3, 0.3)])
    def test_flat_and_tiny_frames(self, image, thresholds):
        assert_same_canny(image, *thresholds)

    @pytest.mark.parametrize("thresholds", [(1.0, 1.0), (0.0, 1.0),
                                            (0.5, 0.5), (0.25, 1.0)])
    def test_magnitude_exactly_at_threshold(self, thresholds):
        # A step edge's magnitudes are exact multiples of each other, so
        # the peak (and its halves) sit exactly on a threshold.
        image = np.zeros((9, 12))
        image[:, 6:] = 1.0
        image[5:, :] = 2.0
        assert_same_canny(image, *thresholds)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("thresholds", [(0.1, 0.2), (0.0, 0.0),
                                            (0.0, 0.4)])
    def test_non_finite_frames(self, value, thresholds):
        image = render_line_view(0.02, 0.1, LineViewConfig(),
                                 rng=np.random.default_rng(4))
        image[30, 40] = value
        with np.errstate(all="ignore"):
            assert_same_canny(image, *thresholds)

    def test_infinite_peak(self):
        # An infinite pixel next to a finite edge: peak is inf, so
        # low * peak is inf (or NaN when low = 0).
        image = np.zeros((10, 10))
        image[:, 5:] = 1.0
        image[2, 2] = np.inf
        with np.errstate(all="ignore"):
            for thresholds in [(0.1, 0.2), (0.0, 0.2), (0.0, 0.0)]:
                assert_same_canny(image, *thresholds)
