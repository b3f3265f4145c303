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
from .errors import BoundsError, DomainError, ShapeError
from .evolution import ProbabilitySeries, check_distribution
from .lattice import Lattice

PGM_MAXVAL = 65535


@dataclass(frozen=True)
class RenderSpec:
    pixels_per_spacing: int = 24
    spot_sigma: float = 0.35
    margin: float = 1.0
    gamma: float = 0.5

    def __post_init__(self):
        if self.pixels_per_spacing < 4:
            raise DomainError(
                f"pixels_per_spacing must be >= 4, got {self.pixels_per_spacing}"
            )
        if not self.spot_sigma > 0:
            raise DomainError(f"spot_sigma must be positive, got {self.spot_sigma}")
        if self.margin < 0:
            raise DomainError(f"margin must be >= 0, got {self.margin}")
        if not self.gamma > 0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")


def frame_geometry(lattice: Lattice, spec: RenderSpec):
    """Image size and world placement for a lattice under a render spec.

    Returns (width, height, x0, y_top) where x0 is the world x of the left
    image edge and y_top the world y of the top edge; image dimensions are
    ceil((bbox + 2 * margin) * pixels_per_spacing) per axis.
    """
    xmin, ymin = lattice.coords.min(axis=0)
    xmax, ymax = lattice.coords.max(axis=0)
    width = math.ceil((xmax - xmin + 2 * spec.margin) * spec.pixels_per_spacing)
    height = math.ceil((ymax - ymin + 2 * spec.margin) * spec.pixels_per_spacing)
    return width, height, float(xmin - spec.margin), float(ymax + spec.margin)


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
    ``check_distribution``)."""
    if series.n_sites != lattice.n_sites:
        raise ShapeError(
            f"series has {series.n_sites} sites but lattice has {lattice.n_sites}"
        )
    if not 0 <= time_index < series.times.size:
        raise BoundsError(
            f"time index {time_index} out of range 0..{series.times.size - 1}"
        )
    probabilities = series.probabilities[time_index]
    check_distribution(probabilities)
    # one float image, mapped in place
    image = render_intensity(probabilities, lattice, spec)
    peak = image.max()
    if peak > 0:
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


def read_pgm(data: bytes) -> np.ndarray:
    """Decode the subset of P5 written by ``pgm_bytes`` (testing aid)."""
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != str(PGM_MAXVAL).encode():
        raise DomainError("not a 16-bit P5 stream produced by this package")
    width, height = (int(x) for x in parts[1].split())
    image = np.frombuffer(parts[3], dtype=">u2", count=width * height)
    return image.reshape(height, width).astype(np.uint16)
