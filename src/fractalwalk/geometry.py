"""The lattice geometry, without numpy: the kinds, one row per kind, the
generator of a lattice's sites and edges, and a fractal's void map.

One table, ``_GEOMETRY``, holds a row per kind: on integer coordinates the
points it keeps and those of its filled counterpart (none for the
baselines), each a list of (a, b) pairs; the affine map to xy and the
integer steps one spacing long; then its generation range, dimensions and
preset time grid.  The gasket and the carpets are built recursively, as
three or eight copies of the previous generation.  ``sites_and_edges``
gives a lattice's site xy in id order and its sorted edges as flat lists:
the ``lattice`` command writes them as they are, so it runs without
numpy, and ``lattice.generate`` wraps them in arrays.  ``void_map`` groups
the positions a fractal deletes from its filled counterpart into voids.
Both find a point's neighbours through a dict from point to index.

``LatticeKind`` names the kinds.  The command-line parser imports this
module for those names, so it stays light: the rows and ``FractalMeta``
are named tuples, and nothing here loads ``dataclasses``.

The edge rule is purely metric: every pair of sites at exactly one
spacing is coupled, whatever the pair bounds.  For the gasket this
includes pairs that face each other across a removed triangle (midpoints
of the sides of any void of scale 2 or larger sit one spacing apart), so
from generation 2 onward some sites carry five or six neighbours instead
of the four that the smallest-triangle sides alone would give.  At
generation 1 the two rules coincide.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from typing import Callable, NamedTuple

from .errors import BoundsError, StructuralError

SQRT3_2 = math.sqrt(3.0) / 2.0

Points = list[tuple[int, int]]


class LatticeKind(str, Enum):
    SG = "sg"
    SC = "sc"
    DSC = "dsc"
    TRIANGLE = "triangle"
    SQUARE = "square"

    @classmethod
    def parse(cls, name: str) -> "LatticeKind":
        try:
            return cls(name.lower())
        except ValueError:
            raise BoundsError(
                f"unknown lattice kind {name!r}; expected one of "
                + ", ".join(k.value for k in cls)
            ) from None


class FractalMeta(NamedTuple):
    fractal_dimension: float
    spectral_dimension: float


# ---------------------------------------------------------------------------
# point sets on integer coordinates


def _square(side: int) -> Points:
    """Every (i, j) with 0 <= i, j < side: the square of side - 1."""
    return [(i, j) for i in range(side) for j in range(side)]


def _triangle(rows: int) -> Points:
    # barycentric integers u + v <= rows sit at (p, q) = (u + 2 v, u)
    return [(u + 2 * v, u) for u in range(rows + 1) for v in range(rows + 1 - u)]


def _copies(points: Points, shifts) -> Points:
    """Every point moved by every shift, each position once."""
    return list({(a + da, b + db) for da, db in shifts for a, b in points})


def _gasket(generation: int) -> Points:
    """Corners of the 3^g smallest triangles of the gasket of side 2^g:
    generation g is three copies of generation g - 1, at the two base
    corners and below the apex."""
    points = _triangle(1)
    for k in range(generation):
        side = 2 ** k
        points = _copies(points, ((0, 0), (2 * side, 0), (side, side)))
    return points


def _carpet(base: Points, generation: int) -> Points:
    """Generation g of a carpet whose generation 0 is ``base``: eight copies
    of generation g - 1, in every third of the square but the middle one."""
    points = base
    for k in range(generation):
        third = 3 ** k
        points = _copies(points, [(third * i, third * j) for i in range(3)
                                  for j in range(3) if (i, j) != (1, 1)])
    return points


def _id_order(point: tuple[int, int]) -> tuple[int, int]:
    # ids run top row first, left to right inside a row: the apex or the
    # top-left corner is site 0 for every kind
    a, b = point
    return -b, a


# ---------------------------------------------------------------------------
# the geometry table


class _Geometry(NamedTuple):
    """One lattice kind; an integer point (a, b) sits at (a, b) * scale + offset.
    ``grid`` is the (tau_max, steps) of ``evolution.preset_grid``."""

    points: Callable[[int], Points]
    filled: Callable[[int], Points] | None
    scale: tuple[float, float]
    offset: float
    steps: tuple[tuple[int, int], ...]
    generations: tuple[int, int]
    meta: FractalMeta
    grid: tuple[float, int]

    def sites(self, generation: int) -> Points:
        return sorted(self.points(generation), key=_id_order)

    def xy(self, points: Points) -> list[float]:
        """x0, y0, x1, y1, ... of the points, as one flat list."""
        (sa, sb), offset = self.scale, self.offset
        return [v for a, b in points for v in (a * sa + offset, b * sb + offset)]


# triangle family: (p, q) -> (p/2, q sqrt(3)/2); the six offsets solve
# dp^2 + 3 dq^2 = 4.  Square family: (i, j) -> (i, j), and a dual-carpet
# cell (i, j) -> its centre (i + 1/2, j + 1/2).
_TRI_STEPS = ((2, 0), (-2, 0), (1, 1), (-1, 1), (1, -1), (-1, -1))
_GRID_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_TRI_SCALE = (0.5, SQRT3_2)
_GRID_SCALE = (1.0, 1.0)

# The carpet's spectral dimension has no closed form; 1.805 is the accepted
# numerical estimate and is carried for reporting only.
_CARPET_DIMS = FractalMeta(math.log(8) / math.log(3), 1.805)
_PLANE_DIMS = FractalMeta(2.0, 2.0)

_GEOMETRY = {
    # N = 3 (3^g + 1) / 2 inside a triangle of side 2^g, framed exactly by
    # the filled triangle with rows = 2^g
    LatticeKind.SG: _Geometry(
        _gasket, lambda g: _triangle(2 ** g), _TRI_SCALE, 0.0, _TRI_STEPS,
        (1, 7), FractalMeta(math.log(3) / math.log(2), 2 * math.log(3) / math.log(5)),
        (25.0, 501),
    ),
    # corners of the 8^g kept unit squares of a square with side 3^g; the
    # 1 x 1 holes hold no vertex, so they leave the graph unchanged.  The
    # grid ends before the farthest-site event, which lies beyond any
    # realised horizon
    LatticeKind.SC: _Geometry(
        lambda g: _carpet(_square(2), g), lambda g: _square(3 ** g + 1), _GRID_SCALE, 0.0,
        _GRID_STEPS, (1, 4), _CARPET_DIMS, (12.0, 241),
    ),
    # one site per kept square, N = 8^g; side-sharing squares are the
    # unit-distance pairs of the centres
    LatticeKind.DSC: _Geometry(
        lambda g: _carpet([(0, 0)], g), lambda g: _square(3 ** g), _GRID_SCALE, 0.5,
        _GRID_STEPS, (1, 4), _CARPET_DIMS, (25.0, 501),
    ),
    # row k below the apex holds k + 1 sites; side = rows spacings
    LatticeKind.TRIANGLE: _Geometry(
        _triangle, None, _TRI_SCALE, 0.0, _TRI_STEPS, (1, 64), _PLANE_DIMS, (25.0, 501)
    ),
    # (side + 1)^2 vertices
    LatticeKind.SQUARE: _Geometry(
        lambda side: _square(side + 1), None, _GRID_SCALE, 0.0, _GRID_STEPS,
        (1, 64), _PLANE_DIMS, (25.0, 501),
    ),
}

FRACTAL_KINDS = tuple(kind for kind, geo in _GEOMETRY.items() if geo.filled is not None)


def fractal_meta(kind: LatticeKind | str) -> FractalMeta:
    """Fractal and spectral dimensions of a lattice kind (the lattices are planar)."""
    return _GEOMETRY[LatticeKind.parse(kind)].meta


def _check_generation(kind: LatticeKind, generation: int) -> int:
    """``generation`` as an int; BoundsError unless it is an integer (an
    int or a numpy integer, never a float or a string) in the kind's range."""
    lo, hi = _GEOMETRY[kind].generations
    try:
        value = operator.index(generation)
    except TypeError:
        value = None
    if value is None or not lo <= value <= hi:
        raise BoundsError(
            f"{kind.value} generation must be an integer in [{lo}, {hi}], got {generation!r}"
        )
    return value


def sites_and_edges(kind: LatticeKind | str, generation: int):
    """The x and y of every site in id order, as one flat list (x0, y0, x1,
    y1, ...), and the ends of every edge as another (i0, j0, i1, j1, ...).

    Each edge is a pair i < j, and the pairs ascend.  The lists are flat
    because a pair object per site or edge would only be thrown away.  See
    ``lattice.generate`` for what ``generation`` means for each kind.
    """
    kind = LatticeKind.parse(kind)
    geometry = _GEOMETRY[kind]
    sites = geometry.sites(_check_generation(kind, generation))
    row = {point: n for n, point in enumerate(sites)}
    # the steps to a later site, in the order of the sites they reach, so
    # that each site's edges come out ascending
    later = sorted((step for step in geometry.steps if _id_order(step) > (0, 0)),
                   key=_id_order)
    edges = []
    for n, (a, b) in enumerate(sites):
        for da, db in later:
            m = row.get((a + da, b + db))
            if m is not None:
                edges += n, m
    return geometry.xy(sites), edges


_VOID_FREE = "{} generation {} deletes no site of its filled counterpart; no effective void exists"


def check_voids(kind: LatticeKind, generation: int, sites: int) -> None:
    """StructuralError unless fractal ``kind`` at ``generation``, with ``sites``
    sites, deletes a point of its filled counterpart: as its sites are some of
    the counterpart's points, it does exactly when the counterpart has more."""
    if len(_GEOMETRY[kind].filled(generation)) <= sites:
        raise StructuralError(_VOID_FREE.format(kind.value, generation))


def void_map(kind: LatticeKind | str, generation: int):
    """The filled counterpart's positions that a fractal deletes, in
    ascending integer (a, b) order, as one flat xy list (see
    ``sites_and_edges``), and the label of the void (connected by one-step
    adjacency) each lies in: the index of the void's first position.
    StructuralError for a regular kind or a generation that deletes nothing.
    """
    kind = LatticeKind.parse(kind)
    geometry = _GEOMETRY[kind]
    if geometry.filled is None:
        raise StructuralError(
            f"lattice kind {kind.value!r} has no voids; landmarks require "
            "a fractal kind (sg, sc, dsc)"
        )
    g = _check_generation(kind, generation)
    deleted = sorted(set(geometry.filled(g)).difference(geometry.points(g)))
    if not deleted:
        raise StructuralError(_VOID_FREE.format(kind.value, generation))
    index = {point: n for n, point in enumerate(deleted)}
    label = [-1] * len(deleted)
    # ascending, a traversal starts at its void's first position
    for first, point in enumerate(deleted):
        if label[first] >= 0:
            continue
        label[first], stack = first, [point]
        while stack:
            a, b = stack.pop()
            for da, db in geometry.steps:
                n = index.get((a + da, b + db))
                if n is not None and label[n] < 0:
                    label[n] = first
                    stack.append(deleted[n])
    return geometry.xy(deleted), label
