"""Gaussian-spot frame rendering of evolution patterns.

Each site contributes a Gaussian spot weighted by its occupation
probability; the accumulated intensity is normalised to peak 1, gamma
mapped for display, and quantised to 16 bits.  Frames are written as
binary NetPBM PGM (P5) with big-endian samples, which every image viewer
reads and which round-trips bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import BoundsError, DomainError, check_finite, check_positive
from .evolution import ProbabilitySeries, check_distribution
from .lattice import Lattice

PGM_MAXVAL = 65535

#: the largest frame rendered, in pixels: about 8 times the default frame of
#: the largest lattice (sg:7, 3120 x 2709)
MAX_FRAME_PIXELS = 2 ** 26


@dataclass(frozen=True)
class RenderSpec:
    pixels_per_spacing: int = 24
    spot_sigma: float = 0.35
    margin: float = 1.0
    gamma: float = 0.5

    def __post_init__(self):
        check_finite(margin=self.margin)
        check_positive(spot_sigma=self.spot_sigma, gamma=self.gamma)
        if self.pixels_per_spacing < 4:
            raise DomainError(
                f"pixels_per_spacing must be >= 4, got {self.pixels_per_spacing}"
            )
        two_sigma2 = 2.0 * self.spot_sigma * self.spot_sigma  # gaussian_splat divides by it
        if not (two_sigma2 > 0 and math.isfinite(1.0 / two_sigma2)):
            raise DomainError(f"spot_sigma must be large enough for a finite "
                              f"1 / (2 spot_sigma^2), got {self.spot_sigma}")
        if self.margin < 0:
            raise DomainError(f"margin must be >= 0, got {self.margin}")


def frame_geometry(lattice: Lattice, spec: RenderSpec):
    """Image size and world placement for a lattice under a render spec.

    Returns (width, height, x0, y_top) where x0 is the world x of the left
    image edge and y_top the world y of the top edge; image dimensions are
    ceil((bbox + 2 * margin) * pixels_per_spacing) per axis.  DomainError
    when the frame would hold more than MAX_FRAME_PIXELS pixels.
    """
    xmin, ymin = lattice.coords.min(axis=0)
    xmax, ymax = lattice.coords.max(axis=0)
    # the size in floats, checked before it becomes an integer or an image
    # (an int past the float range would not convert: it counts as infinite)
    scale = spec.pixels_per_spacing if spec.pixels_per_spacing < 2 ** 1000 else math.inf
    span_x = (xmax - xmin + 2 * spec.margin) * scale
    span_y = (ymax - ymin + 2 * spec.margin) * scale
    if not span_x * span_y <= MAX_FRAME_PIXELS:  # NaN fails too
        raise DomainError(
            f"pixels_per_spacing {spec.pixels_per_spacing} and margin {spec.margin} give "
            f"a frame of {span_x * span_y:.3g} pixels, above {MAX_FRAME_PIXELS}"
        )
    return (math.ceil(span_x), math.ceil(span_y),
            float(xmin - spec.margin), float(ymax + spec.margin))


def render_intensity(probabilities: np.ndarray, lattice: Lattice,
                     spec: RenderSpec) -> np.ndarray:
    """Raw accumulated spot intensity as a float image (rows top to bottom)."""
    width, height, x0, y_top = frame_geometry(lattice, spec)
    return kernels.gaussian_splat(
        np.ascontiguousarray(lattice.coords[:, 0]),
        np.ascontiguousarray(lattice.coords[:, 1]),
        np.ascontiguousarray(probabilities, dtype=np.float64),
        x0, y_top, 1.0 / spec.pixels_per_spacing, width, height, spec.spot_sigma,
    )


def render_frame(series: ProbabilitySeries, lattice: Lattice, time_index: int,
                 spec: RenderSpec = RenderSpec()) -> np.ndarray:
    """Render one time slice of a series to a 16-bit grayscale image;
    DomainError if that slice is not a probability distribution (see
    ``check_distribution``) or no spot lights any pixel."""
    series.check_lattice(lattice)
    if not 0 <= time_index < series.times.size:
        raise BoundsError(
            f"time index {time_index} out of range 0..{series.times.size - 1}"
        )
    probabilities = series.probabilities[time_index]
    check_distribution(probabilities)
    # one float image, mapped in place
    image = render_intensity(probabilities, lattice, spec)
    peak = image.max()
    # the slice sums to 1, so a zero peak means no spot reaches a pixel centre
    if not peak > 0:
        raise DomainError(
            f"the frame is all black: no spot reaches a pixel centre with spot_sigma "
            f"{spec.spot_sigma} at pixels_per_spacing {spec.pixels_per_spacing}"
        )
    image /= peak
    image **= spec.gamma  # the operator: numpy sends ** 0.5 to sqrt
    image *= PGM_MAXVAL
    return np.round(image, out=image).astype(np.uint16)


def pgm_bytes(image: np.ndarray) -> bytes:
    """Encode a uint16 image as binary PGM (P5), big-endian samples."""
    if image.dtype != np.uint16 or image.ndim != 2:
        raise DomainError(f"expected a 2-d uint16 image, got {image.dtype} {image.shape}")
    height, width = image.shape
    header = f"P5\n{width} {height}\n{PGM_MAXVAL}\n".encode("ascii")
    return header + image.astype(">u2").tobytes()
