"""Image-processing substrate.

The robotic vehicle follows a line on the floor using "Canny edge
detection ... and a probabilistic Hough Lines Transform" (paper,
Section III-B).  The original uses OpenCV; here the same algorithms
are implemented on numpy arrays:

* :mod:`repro.vision.image` -- synthetic camera frames of the track
  (the ZED camera substitute);
* :mod:`repro.vision.filters` -- Gaussian smoothing and Sobel
  gradients;
* :mod:`repro.vision.canny` -- the Canny edge detector;
* :mod:`repro.vision.hough` -- the progressive probabilistic Hough
  transform (Matas, Galambos & Kittler).
"""

from repro.vision.image import LineViewConfig, render_line_view
from repro.vision.filters import gaussian_blur, gaussian_kernel, sobel_gradients
from repro.vision.canny import canny
from repro.vision.hough import LineSegment, probabilistic_hough

__all__ = [
    "LineSegment",
    "LineViewConfig",
    "canny",
    "gaussian_blur",
    "gaussian_kernel",
    "probabilistic_hough",
    "render_line_view",
    "sobel_gradients",
]
