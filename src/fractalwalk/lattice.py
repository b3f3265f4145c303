"""Fractal photonic lattices and their regular counterparts.

A lattice is a planar point set with unit nearest-neighbour spacing and an
edge set over those points.  Five kinds exist: the Sierpinski gasket, the
Sierpinski carpet, the dual carpet (one site per kept square), and the
filled triangle and square baselines of matching geometry.

One table, ``_GEOMETRY``, holds a row per kind: on integer coordinates the
points it keeps and those of its filled counterpart (none for the
baselines), each a pair of int64 arrays (a, b) built from a membership
rule, the affine map to xy and the integer offsets one spacing long; then
its generation range, dimensions and preset time grid.  One
exact integer-key lookup, ``_lookup``, finds the edges of ``generate``, the
filled points a fractal deletes and the adjacency that groups them into the
voids ``landmark_sites`` ranks (``void_map``), and each site's mirror image
in the frame of the mirror's axis (``mirror_permutation``): a file turned
or shifted in the plane keeps the mirror; only edges that break the
reflection lose it.  Float coordinates are produced once at the end.

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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BoundsError, StructuralError, check_site
from .kinds import LatticeKind

SQRT3_2 = math.sqrt(3.0) / 2.0

#: half-width of the accepted edge-length interval around one spacing
DIST_TOL = 1e-6

#: coordinate tolerance for "same position" and farthest-distance ties
COORD_TOL = 1e-9


@dataclass(frozen=True)
class Lattice:
    """Point set plus edge set; site ids are row indices into ``coords``."""

    kind: LatticeKind
    generation: int          # rows for TRIANGLE, side for SQUARE
    coords: np.ndarray       # (N, 2) float64
    edges: np.ndarray        # (E, 2) int64, each row i < j, lexicographically sorted

    def __post_init__(self):
        self.coords.setflags(write=False)
        self.edges.setflags(write=False)

    @property
    def n_sites(self) -> int:
        return self.coords.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n_sites)


@dataclass(frozen=True)
class FractalMeta:
    fractal_dimension: float
    spectral_dimension: float


@dataclass(frozen=True)
class Landmarks:
    """Geometric landmarks of a fractal lattice relative to one input site.

    ``first_void_boundary`` holds the sites within one spacing of the first
    effective void, ``probe_length_a`` the Euclidean distance from the input
    to that void's nearest deleted position, and ``farthest_set`` every site
    at maximal distance from the input (ties included).
    """

    input_site: int
    first_void_boundary: tuple[int, ...]
    probe_length_a: float
    farthest_set: tuple[int, ...]
    farthest_distance: float
    first_void_positions: tuple[tuple[float, float], ...]


# ---------------------------------------------------------------------------
# point sets on integer coordinates, each an (a, b) pair of int64 arrays


def _grid(side: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (i, j) with 0 <= i, j < side, i major: the square of side - 1."""
    return np.divmod(np.arange(side * side, dtype=np.int64), side)


def _triangle_points(rows: int) -> tuple[np.ndarray, np.ndarray]:
    # barycentric integers u + v <= rows sit at (p, q) = (u + 2 v, u)
    u, v = _grid(rows + 1)
    inside = u + v <= rows
    return u[inside] + 2 * v[inside], u[inside]


def _gasket_points(generation: int) -> tuple[np.ndarray, np.ndarray]:
    """Corners of the 3^g smallest triangles of the gasket of side 2^g.

    A point (p, q) of the filled triangle with rows = 2^g has barycentric
    integer coordinates a = q, b = (p - q) / 2, c = (2^(g+1) - p - q) / 2,
    which sum to 2^g, and is a gasket vertex exactly when a & b & c == 0
    (Pascal's triangle mod 2).  This set equals that of the recursive
    construction (three half-size copies at the corners) for every
    generation 1-7.
    """
    side = 2 ** generation
    p, q = _triangle_points(side)
    b = (p - q) // 2
    keep = q & b & (side - q - b) == 0
    return p[keep], q[keep]


def _carpet_cells(generation: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit squares kept by the carpet: no base-3 digit pair equals (1, 1)."""
    i, j = _grid(3 ** generation)
    place = 3 ** np.arange(generation, dtype=np.int64)
    keep = ~((i[:, None] // place % 3 == 1) & (j[:, None] // place % 3 == 1)).any(axis=1)
    return i[keep], j[keep]


def _carpet_points(generation: int) -> tuple[np.ndarray, np.ndarray]:
    # the four corners of every kept cell: each integer key that occurs, ascending
    i, j = _carpet_cells(generation)
    width = 3 ** generation + 1
    corners = ((i * width + j)[:, None] + [0, 1, width, width + 1]).ravel()
    return np.divmod(np.flatnonzero(np.bincount(corners)), width)


def _lookup(a: np.ndarray, b: np.ndarray, qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Row of each query point (qa, qb), of any shape, among the points (a, b);
    -1 where absent.  Both are keyed exactly by a * width + b - min(b)."""
    low = min(b.min(), qb.min())
    width = max(b.max(), qb.max()) - low + 1
    key = a * width + (b - low)
    order = np.argsort(key)
    query = qa * width + (qb - low)
    row = order[np.searchsorted(key, query, sorter=order).clip(max=key.size - 1)]
    return np.where(key[row] == query, row, -1)


# ---------------------------------------------------------------------------
# the geometry table


@dataclass(frozen=True)
class _Geometry:
    """One lattice kind; an integer point (a, b) sits at (a, b) * scale + offset.
    ``grid`` is the (tau_max, steps) of ``evolution.preset_grid``."""

    points: Callable[[int], tuple[np.ndarray, np.ndarray]]
    filled: Callable[[int], tuple[np.ndarray, np.ndarray]] | None
    scale: tuple[float, float]
    offset: float
    steps: tuple[tuple[int, int], ...]
    generations: tuple[int, int]
    meta: FractalMeta
    grid: tuple[float, int]

    def sites(self, generation: int) -> tuple[np.ndarray, np.ndarray]:
        # ids run top row first, left to right inside a row: the apex or
        # the top-left corner is site 0 for every kind
        a, b = self.points(generation)
        order = np.lexsort((a, -b))
        return a[order], b[order]

    def xy(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.column_stack((a, b)) * self.scale + self.offset

    def neighbours(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row of the point one step away, (n, steps), -1 off the point set."""
        da, db = np.array(self.steps, dtype=np.int64).T
        return _lookup(a, b, a[:, None] + da, b[:, None] + db)


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
        _gasket_points, lambda g: _triangle_points(2 ** g), _TRI_SCALE, 0.0, _TRI_STEPS,
        (1, 7), FractalMeta(math.log(3) / math.log(2), 2 * math.log(3) / math.log(5)),
        (25.0, 501),
    ),
    # corners of the 8^g kept unit squares of a square with side 3^g; the
    # 1 x 1 holes hold no vertex, so they leave the graph unchanged.  The
    # grid ends before the farthest-site event, which lies beyond any
    # realised horizon
    LatticeKind.SC: _Geometry(
        _carpet_points, lambda g: _grid(3 ** g + 1), _GRID_SCALE, 0.0, _GRID_STEPS,
        (1, 4), _CARPET_DIMS, (12.0, 241),
    ),
    # one site per kept square, N = 8^g; side-sharing squares are the
    # unit-distance pairs of the centres
    LatticeKind.DSC: _Geometry(
        _carpet_cells, lambda g: _grid(3 ** g), _GRID_SCALE, 0.5, _GRID_STEPS,
        (1, 4), _CARPET_DIMS, (25.0, 501),
    ),
    # row k below the apex holds k + 1 sites; side = rows spacings
    LatticeKind.TRIANGLE: _Geometry(
        _triangle_points, None, _TRI_SCALE, 0.0, _TRI_STEPS, (1, 64), _PLANE_DIMS, (25.0, 501)
    ),
    # (side + 1)^2 vertices
    LatticeKind.SQUARE: _Geometry(
        lambda side: _grid(side + 1), None, _GRID_SCALE, 0.0, _GRID_STEPS,
        (1, 64), _PLANE_DIMS, (25.0, 501),
    ),
}

FRACTAL_KINDS = tuple(kind for kind, geo in _GEOMETRY.items() if geo.filled is not None)


def fractal_meta(kind: LatticeKind | str) -> FractalMeta:
    """Fractal and spectral dimensions of a lattice kind (the lattices are planar)."""
    return _GEOMETRY[LatticeKind.parse(kind)].meta


def _check_generation(kind: LatticeKind, generation: int) -> None:
    lo, hi = _GEOMETRY[kind].generations
    if not isinstance(generation, (int, np.integer)) or not lo <= generation <= hi:
        raise BoundsError(
            f"{kind.value} generation must be an integer in [{lo}, {hi}], got {generation!r}"
        )


def generate(kind: LatticeKind | str, generation: int) -> Lattice:
    """Lattice of the given kind and generation.

    ``generation`` is the subdivision depth for the fractals, the number of
    row intervals for the triangle and the side for the square, in the
    kind's range.  Site counts: gasket 3 (3^g + 1) / 2, dual carpet 8^g,
    triangle (rows + 1)(rows + 2) / 2, square (side + 1)^2.
    Edges are every pair of sites exactly one spacing apart, each row
    (i, j) with i < j, rows sorted.
    """
    kind = LatticeKind.parse(kind)
    _check_generation(kind, generation)
    geometry = _GEOMETRY[kind]
    a, b = geometry.sites(generation)
    i, j = np.arange(a.size, dtype=np.int64)[:, None], geometry.neighbours(a, b)
    pairs = np.sort((i * a.size + j)[j > i])
    return Lattice(kind, generation, geometry.xy(a, b), np.column_stack(np.divmod(pairs, a.size)))


# ---------------------------------------------------------------------------
# connectivity and landmarks


def connectivity_histogram(lattice: Lattice) -> dict[int, int]:
    """Map degree -> number of sites with that degree."""
    values, counts = np.unique(lattice.degrees(), return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def canonical_input(lattice: Lattice) -> int:
    """Default input site: the topmost site, leftmost on ties.

    This is the apex for the triangle family and the top-left corner for
    the square family.
    """
    coords = lattice.coords
    order = np.lexsort((coords[:, 0], -coords[:, 1]))
    return int(order[0])


def _cluster_labels(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    labels = np.empty(values.size, dtype=np.int64)
    labels[order] = np.concatenate(([0], np.cumsum(np.diff(values[order]) > 0.25)))
    return labels


def mirror_permutation(lattice: Lattice) -> np.ndarray:
    """Site permutation of the reflection through the canonical input and
    the centroid: the vertical axis through the gasket and triangle apex,
    the anti-diagonal through the top-left site of the square family.

    ``sigma[i]`` is the site at the mirror image of site i.  It is found
    in the axis frame, where the reflection is (s, t) -> (s, -t), so it
    survives a rotation or translation of the file.  The identity comes
    back when the reflection maps some site more than DIST_TOL away from
    every site, or maps the edge set onto a different one, as an edge
    added or removed off the axis does.
    """
    n = lattice.n_sites
    identity = np.arange(n)
    d = lattice.coords - lattice.coords[canonical_input(lattice)]
    ux, uy = d.mean(axis=0)
    length = math.hypot(ux, uy)
    if length <= DIST_TOL:
        return identity
    s, t = (d @ [[ux, -uy], [uy, ux]]).T / length  # along and across the axis
    # a site and its image share s; labelling t with -t by cluster (a new
    # label past a quarter-spacing gap) gives them one integer key
    along, across = _cluster_labels(s), _cluster_labels(np.concatenate((t, -t)))
    sigma = _lookup(along, across[:n], along, across[n:])
    gap = np.hypot(s[sigma] - s, t[sigma] + t)
    if sigma.min() < 0 or gap.max() > DIST_TOL or not np.array_equal(sigma[sigma], identity):
        return identity

    def keys(edges):
        return np.sort(edges.min(axis=1) * n + edges.max(axis=1))

    if not np.array_equal(keys(sigma[lattice.edges]), keys(lattice.edges)):
        return identity
    return sigma


_NAMED_INPUTS = ("auto", "apex", "corner", "topleft", "top-left")


def resolve_input(lattice: Lattice, selector: str | int) -> int:
    """Turn an input selector (named or raw id) into a site id."""
    if isinstance(selector, (int, np.integer)):
        site = int(selector)
    else:
        name = str(selector).strip().lower()
        if name in _NAMED_INPUTS:
            return canonical_input(lattice)
        try:
            site = int(name)
        except ValueError:
            raise BoundsError(
                f"input selector {selector!r} is neither a site id nor one of "
                + ", ".join(_NAMED_INPUTS)
            ) from None
    return check_site(site, lattice.n_sites)


def void_map(kind: LatticeKind | str, generation: int) -> tuple[np.ndarray, np.ndarray]:
    """The filled counterpart's positions that a fractal deletes, as xy rows
    in ascending integer (a, b) order, and the label of the void (connected
    by one-step adjacency) each lies in: the row of the void's first one.
    StructuralError for a regular kind or a generation that deletes nothing.
    """
    kind = LatticeKind.parse(kind)
    geometry = _GEOMETRY[kind]
    if geometry.filled is None:
        raise StructuralError(
            f"lattice kind {kind.value!r} has no voids; landmarks require "
            "a fractal kind (sg, sc, dsc)"
        )
    _check_generation(kind, generation)
    a, b = geometry.filled(generation)
    deleted = _lookup(*geometry.points(generation), a, b) < 0
    if not deleted.any():
        raise StructuralError(
            f"{kind.value} generation {generation} deletes no site of its filled "
            "counterpart; no effective void exists"
        )
    a, b = a[deleted], b[deleted]
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    # min-label propagation with pointer jumping; a missing neighbour
    # stands in for itself
    label, step = np.arange(a.size), geometry.neighbours(a, b)
    step = np.where(step < 0, label[:, None], step)
    while True:
        hooked = np.minimum(label, label[step].min(axis=1))
        if np.array_equal(hooked, label):
            return geometry.xy(a, b), label
        label = hooked[hooked]


def landmark_sites(lattice: Lattice, input_site: int) -> Landmarks:
    """Locate the first effective void and the farthest sites from the input.

    The first effective void is the removed region nearest to the input
    whose interior strictly contains at least one point of the
    corresponding filled lattice (for the dual carpet, a missing site);
    nearer ties go to the smaller region, then to the region whose first
    position comes first.  ``first_void_boundary`` collects the sites
    within 1 + 1e-6 spacings of that void's deleted positions.

    The lattice's coordinates must be the ones its kind and generation
    generate; a relabelled or edited file raises StructuralError.
    """
    check_site(input_site, lattice.n_sites)
    g = lattice.generation
    deleted_xy, label = void_map(lattice.kind, g)
    geometry = _GEOMETRY[lattice.kind]
    xy = geometry.xy(*geometry.sites(g))
    if xy.shape != lattice.coords.shape or np.abs(xy - lattice.coords).max() > DIST_TOL:
        raise StructuralError(
            f"lattice coordinates differ from those of {lattice.kind.value} "
            f"generation {g} ({lattice.n_sites} sites, {xy.shape[0]} expected)"
        )

    origin = lattice.coords[input_site]
    dist = np.hypot(*(deleted_xy - origin).T)
    first, void, size = np.unique(label, return_inverse=True, return_counts=True)
    nearest = np.full(first.size, np.inf)
    np.minimum.at(nearest, void, dist)
    best = np.lexsort((first, size, nearest))[0]
    void_xy = deleted_xy[label == first[best]]
    probe_length = float(nearest[best])

    diff = lattice.coords[:, None, :] - void_xy[None, :, :]
    site_to_void = np.sqrt((diff ** 2).sum(axis=2)).min(axis=1)
    boundary = tuple(int(i) for i in np.flatnonzero(site_to_void <= 1.0 + DIST_TOL))

    site_dists = np.hypot(*(lattice.coords - origin).T)
    dmax = float(site_dists.max())
    farthest = tuple(int(i) for i in np.flatnonzero(site_dists >= dmax - COORD_TOL))

    return Landmarks(
        input_site=int(input_site),
        first_void_boundary=boundary,
        probe_length_a=probe_length,
        farthest_set=farthest,
        farthest_distance=dmax,
        first_void_positions=tuple((float(x), float(y)) for x, y in void_xy),
    )
