"""Frame rendering and PGM encoding."""

import math

import numpy as np
import pytest

from fractalwalk.errors import BoundsError, DomainError, ShapeError
from fractalwalk.render import (
    PGM_MAXVAL,
    RenderSpec,
    frame_geometry,
    pgm_bytes,
    read_pgm,
    render_frame,
    render_intensity,
)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"pixels_per_spacing": 3},
        {"spot_sigma": 0.0},
        {"margin": -0.5},
        {"gamma": 0.0},
    ],
)
def test_render_spec_validation(kwargs):
    with pytest.raises(DomainError):
        RenderSpec(**kwargs)


def test_frame_geometry_matches_bounding_box(sg2_run):
    spec = RenderSpec(pixels_per_spacing=10, margin=1.0)
    width, height, x0, y_top = frame_geometry(sg2_run.lattice, spec)
    xmin, ymin = sg2_run.lattice.coords.min(axis=0)
    xmax, ymax = sg2_run.lattice.coords.max(axis=0)
    assert width == math.ceil((xmax - xmin + 2.0) * 10)
    assert height == math.ceil((ymax - ymin + 2.0) * 10)
    assert x0 == xmin - 1.0
    assert y_top == ymax + 1.0


def test_render_frame_basics(sg2_run):
    spec = RenderSpec(pixels_per_spacing=6)
    image = render_frame(sg2_run.series, sg2_run.lattice, 0, spec)
    width, height, _, _ = frame_geometry(sg2_run.lattice, spec)
    assert image.dtype == np.uint16
    assert image.shape == (height, width)
    # normalised to full scale before quantisation
    assert image.max() == PGM_MAXVAL


def test_render_frame_deterministic(sg2_run):
    spec = RenderSpec(pixels_per_spacing=6)
    a = render_frame(sg2_run.series, sg2_run.lattice, 5, spec)
    b = render_frame(sg2_run.series, sg2_run.lattice, 5, spec)
    assert np.array_equal(a, b)


def test_render_frame_brightest_near_input_at_launch(sg2_run):
    spec = RenderSpec(pixels_per_spacing=8, spot_sigma=0.3)
    image = render_frame(sg2_run.series, sg2_run.lattice, 0, spec)
    row, col = np.unravel_index(np.argmax(image), image.shape)
    _, _, x0, y_top = frame_geometry(sg2_run.lattice, spec)
    px, py = sg2_run.lattice.coords[sg2_run.input_site]
    # brightest pixel within one spacing of the launch site
    x = x0 + (col + 0.5) / spec.pixels_per_spacing
    y = y_top - (row + 0.5) / spec.pixels_per_spacing
    assert np.hypot(x - px, y - py) < 1.0


def test_render_intensity_mass_scales_linearly(pair):
    spec = RenderSpec(pixels_per_spacing=12, spot_sigma=0.4, margin=2.0)
    one = render_intensity(np.array([1.0, 0.0]), pair, spec)
    half = render_intensity(np.array([0.5, 0.0]), pair, spec)
    assert np.allclose(half, 0.5 * one)


def test_render_frame_index_bounds(sg2_run):
    with pytest.raises(BoundsError):
        render_frame(sg2_run.series, sg2_run.lattice, sg2_run.series.times.size)
    with pytest.raises(BoundsError):
        render_frame(sg2_run.series, sg2_run.lattice, -1)


def test_render_frame_lattice_mismatch(sg2_run, pair):
    with pytest.raises(ShapeError):
        render_frame(sg2_run.series, pair, 0)


def test_pgm_round_trip(sg2_run):
    image = render_frame(sg2_run.series, sg2_run.lattice, 3, RenderSpec(pixels_per_spacing=5))
    data = pgm_bytes(image)
    assert data.startswith(b"P5\n")
    assert np.array_equal(read_pgm(data), image)


def test_pgm_header_records_dimensions():
    image = np.arange(12, dtype=np.uint16).reshape(3, 4)
    data = pgm_bytes(image)
    assert data.split(b"\n")[1] == b"4 3"
    assert data.split(b"\n")[2] == b"65535"


def test_pgm_rejects_wrong_dtype():
    with pytest.raises(DomainError):
        pgm_bytes(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(DomainError):
        pgm_bytes(np.zeros(16, dtype=np.uint16))


def test_read_pgm_rejects_foreign_stream():
    with pytest.raises(DomainError):
        read_pgm(b"P2\n4 4\n255\n" + b"\x00" * 16)
