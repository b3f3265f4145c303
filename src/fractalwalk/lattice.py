"""Fractal photonic lattices and their regular counterparts.

A lattice is a planar point set with unit nearest-neighbour spacing and an
edge set over those points.  Five kinds exist: the Sierpinski gasket, the
Sierpinski carpet, the dual carpet (one site per kept square), and the
filled triangle and square baselines of matching geometry.

One table, ``_GEOMETRY``, describes every kind on integer coordinates: the
point set it keeps, the point set of its filled counterpart (none for the
baselines), the affine map to xy, and the integer offsets that are one
spacing long.  ``generate`` builds a lattice from it, and the void map
behind ``landmark_sites`` takes the filled set minus the kept set from the
same entry.  Working on integers keeps deduplication and adjacency exact;
float coordinates are produced once at the end.

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
from enum import Enum
from typing import Callable

import numpy as np

from .errors import BoundsError, StructuralError

SQRT3_2 = math.sqrt(3.0) / 2.0

#: half-width of the accepted edge-length interval around one spacing
DIST_TOL = 1e-6

#: coordinate tolerance for "same position" and farthest-distance ties
COORD_TOL = 1e-9


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


GENERATION_RANGE = {
    LatticeKind.SG: (1, 7),
    LatticeKind.SC: (1, 4),
    LatticeKind.DSC: (1, 4),
    LatticeKind.TRIANGLE: (1, 64),
    LatticeKind.SQUARE: (1, 64),
}


@dataclass(frozen=True)
class Lattice:
    """Point set plus edge set; site ids are row indices into ``coords``."""

    kind: LatticeKind
    generation: int          # rows for TRIANGLE, side for SQUARE
    coords: np.ndarray       # (N, 2) float64
    edges: np.ndarray        # (E, 2) int64, each row i < j, lexicographically sorted
    spacing: float = 1.0

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
        deg = np.zeros(self.n_sites, dtype=np.int64)
        np.add.at(deg, self.edges[:, 0], 1)
        np.add.at(deg, self.edges[:, 1], 1)
        return deg


@dataclass(frozen=True)
class FractalMeta:
    fractal_dimension: float
    spectral_dimension: float
    embedding_dimension: int = 2


# The carpet's spectral dimension has no closed form; 1.805 is the accepted
# numerical estimate and is carried for reporting only.
_META = {
    LatticeKind.SG: FractalMeta(math.log(3) / math.log(2), 2 * math.log(3) / math.log(5)),
    LatticeKind.SC: FractalMeta(math.log(8) / math.log(3), 1.805),
    LatticeKind.DSC: FractalMeta(math.log(8) / math.log(3), 1.805),
    LatticeKind.TRIANGLE: FractalMeta(2.0, 2.0),
    LatticeKind.SQUARE: FractalMeta(2.0, 2.0),
}


def fractal_meta(kind: LatticeKind) -> FractalMeta:
    """Fractal, spectral, and embedding dimensions for a lattice kind."""
    return _META[LatticeKind.parse(kind) if isinstance(kind, str) else kind]


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


def _check_generation(kind: LatticeKind, generation: int) -> None:
    lo, hi = GENERATION_RANGE[kind]
    if not isinstance(generation, (int, np.integer)) or not lo <= generation <= hi:
        raise BoundsError(
            f"{kind.value} generation must be an integer in [{lo}, {hi}], got {generation!r}"
        )


# ---------------------------------------------------------------------------
# point sets on integer coordinates


def _gasket_points(generation: int) -> set[tuple[int, int]]:
    """Corners of the 3^g smallest blue triangles, found recursively.

    The unit upward triangle anchored at (p, q) has corners (p, q),
    (p+2, q), (p+1, q+1); a side-s triangle anchored at (p, q) spans to
    (p+2s, q) with apex (p+s, q+s).
    """
    points: set[tuple[int, int]] = set()

    def rec(p: int, q: int, s: int) -> None:
        if s == 1:
            points.update(((p, q), (p + 2, q), (p + 1, q + 1)))
            return
        h = s // 2
        rec(p, q, h)
        rec(p + s, q, h)
        rec(p + h, q + h, h)

    rec(0, 0, 2 ** generation)
    return points


def _triangle_points(rows: int) -> set[tuple[int, int]]:
    pts = set()
    for q in range(rows + 1):
        for p in range(q, 2 * rows - q + 1, 2):
            pts.add((p, q))
    return pts


def _carpet_cells(generation: int) -> set[tuple[int, int]]:
    """Unit squares kept by the carpet: no base-3 digit pair equals (1, 1)."""
    side = 3 ** generation
    kept = set()
    for i in range(side):
        for j in range(side):
            a, b = i, j
            keep = True
            while a or b:
                if a % 3 == 1 and b % 3 == 1:
                    keep = False
                    break
                a //= 3
                b //= 3
            if keep:
                kept.add((i, j))
    return kept


def _carpet_points(generation: int) -> set[tuple[int, int]]:
    pts = set()
    for (i, j) in _carpet_cells(generation):
        pts.update(((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)))
    return pts


def _square_points(side: int) -> set[tuple[int, int]]:
    return {(i, j) for i in range(side + 1) for j in range(side + 1)}


# ---------------------------------------------------------------------------
# the geometry table


@dataclass(frozen=True)
class _Geometry:
    """One lattice kind; an integer point (a, b) sits at (a, b) * scale + offset."""

    points: Callable[[int], set[tuple[int, int]]]
    filled: Callable[[int], set[tuple[int, int]]] | None
    scale: tuple[float, float]
    offset: float
    steps: tuple[tuple[int, int], ...]

    def sites(self, generation: int) -> tuple[list[tuple[int, int]], np.ndarray]:
        # ids run top row first, left to right inside a row: the apex or
        # the top-left corner is site 0 for every kind
        ordered = sorted(self.points(generation), key=lambda ab: (-ab[1], ab[0]))
        return ordered, self.xy(ordered)

    def xy(self, points) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) * self.scale + self.offset


# triangle family: (p, q) -> (p/2, q sqrt(3)/2); the six offsets solve
# dp^2 + 3 dq^2 = 4.  Square family: (i, j) -> (i, j), and a dual-carpet
# cell (i, j) -> its centre (i + 1/2, j + 1/2).
_TRI_STEPS = ((2, 0), (-2, 0), (1, 1), (-1, 1), (1, -1), (-1, -1))
_GRID_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_TRI_SCALE = (0.5, SQRT3_2)
_GRID_SCALE = (1.0, 1.0)

_GEOMETRY = {
    # N = 3 (3^g + 1) / 2 inside a triangle of side 2^g, framed exactly by
    # the filled triangle with rows = 2^g
    LatticeKind.SG: _Geometry(
        _gasket_points, lambda g: _triangle_points(2 ** g), _TRI_SCALE, 0.0, _TRI_STEPS
    ),
    # corners of the 8^g kept unit squares of a square with side 3^g; the
    # 1 x 1 holes hold no vertex, so they leave the graph unchanged
    LatticeKind.SC: _Geometry(
        _carpet_points, lambda g: _square_points(3 ** g), _GRID_SCALE, 0.0, _GRID_STEPS
    ),
    # one site per kept square, N = 8^g; side-sharing squares are the
    # unit-distance pairs of the centres
    LatticeKind.DSC: _Geometry(
        _carpet_cells, lambda g: _square_points(3 ** g - 1), _GRID_SCALE, 0.5, _GRID_STEPS
    ),
    # row k below the apex holds k + 1 sites; side = rows spacings
    LatticeKind.TRIANGLE: _Geometry(_triangle_points, None, _TRI_SCALE, 0.0, _TRI_STEPS),
    # (side + 1)^2 vertices
    LatticeKind.SQUARE: _Geometry(_square_points, None, _GRID_SCALE, 0.0, _GRID_STEPS),
}

FRACTAL_KINDS = tuple(kind for kind, geo in _GEOMETRY.items() if geo.filled is not None)


def generate(kind: LatticeKind | str, generation: int) -> Lattice:
    """Lattice of the given kind and generation.

    ``generation`` is the subdivision depth for the fractals (sg 1-7, sc and
    dsc 1-4), the number of row intervals for the triangle and the side for
    the square (1-64 each).  Site counts: gasket 3 (3^g + 1) / 2, dual
    carpet 8^g, triangle (rows + 1)(rows + 2) / 2, square (side + 1)^2.
    Edges are every pair of sites exactly one spacing apart, each row
    (i, j) with i < j, rows sorted.
    """
    kind = LatticeKind.parse(kind) if isinstance(kind, str) else kind
    _check_generation(kind, generation)
    geometry = _GEOMETRY[kind]
    ordered, xy = geometry.sites(generation)
    index = {ab: i for i, ab in enumerate(ordered)}
    pairs = set()
    for (a, b), i in index.items():
        for da, db in geometry.steps:
            j = index.get((a + da, b + db), -1)
            if j > i:
                pairs.add((i, j))
    edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    return Lattice(kind, generation, xy, edges)


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

    ``sigma[i]`` is the site at the mirror image of site i.  The identity
    comes back when the reflection maps some site more than DIST_TOL away
    from every site, or maps the edge set onto a different one.
    """
    n = lattice.n_sites
    identity = np.arange(n)
    coords = lattice.coords
    origin = coords[canonical_input(lattice)]
    axis = coords.mean(axis=0) - origin
    length = float(np.hypot(*axis))
    if length <= DIST_TOL:
        return identity
    axis /= length
    d = coords - origin
    image = origin + 2.0 * (d @ axis)[:, None] * axis - d
    # label every x and every y value of sites and images by cluster (a new
    # cluster past a quarter-spacing gap), so an image and its site share a
    # (row, column) key; a site found under another key lies more than a
    # quarter spacing away, which the gap check below refuses
    labels = [_cluster_labels(np.concatenate((coords[:, k], image[:, k]))) for k in (0, 1)]
    key = labels[1] * (labels[0].max() + 1) + labels[0]
    site_key, image_key = key[:n], key[n:]
    order = np.argsort(site_key)
    sigma = order[np.searchsorted(site_key[order], image_key).clip(max=n - 1)]
    gap = np.hypot(*(image - coords[sigma]).T)
    if gap.max() > DIST_TOL or not np.array_equal(sigma[sigma], identity):
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
    if not 0 <= site < lattice.n_sites:
        raise BoundsError(f"site id {site} out of range 0..{lattice.n_sites - 1}")
    return site


def _deleted_positions(lattice: Lattice) -> list[np.ndarray]:
    """Positions of the filled counterpart that the fractal deletes, one
    (k, 2) array per connected void (unit-step adjacency on the filled grid).

    The lattice's coordinates must be the ones its kind and generation
    generate; a relabelled or edited file raises StructuralError.
    """
    geometry = _GEOMETRY[lattice.kind]
    g = lattice.generation
    if geometry.filled is None:
        raise StructuralError(
            f"lattice kind {lattice.kind.value!r} has no voids; landmarks require "
            "a fractal kind (sg, sc, dsc)"
        )
    _check_generation(lattice.kind, g)
    present, xy = geometry.sites(g)
    if xy.shape != lattice.coords.shape or np.abs(xy - lattice.coords).max() > DIST_TOL:
        raise StructuralError(
            f"lattice coordinates differ from those of {lattice.kind.value} "
            f"generation {g} ({lattice.n_sites} sites, {xy.shape[0]} expected)"
        )

    clusters: list[list[tuple[int, int]]] = []
    remaining = geometry.filled(g) - set(present)
    while remaining:
        seed = min(remaining)
        stack = [seed]
        remaining.discard(seed)
        comp = [seed]
        while stack:
            p, q = stack.pop()
            for dp, dq in geometry.steps:
                other = (p + dp, q + dq)
                if other in remaining:
                    remaining.discard(other)
                    stack.append(other)
                    comp.append(other)
        clusters.append(sorted(comp))

    if not clusters:
        raise StructuralError(
            f"{lattice.kind.value} generation {g} deletes no site of its filled "
            "counterpart; no effective void exists"
        )
    return [geometry.xy(comp) for comp in clusters]


def landmark_sites(lattice: Lattice, input_site: int) -> Landmarks:
    """Locate the first effective void and the farthest sites from the input.

    The first effective void is the removed region nearest to the input
    whose interior strictly contains at least one point of the
    corresponding filled lattice (for the dual carpet, a missing site);
    nearer ties go to the smaller region.  ``first_void_boundary`` collects
    the sites within 1 + 1e-6 spacings of that void's deleted positions.
    """
    if not 0 <= input_site < lattice.n_sites:
        raise BoundsError(f"site id {input_site} out of range 0..{lattice.n_sites - 1}")
    origin = lattice.coords[input_site]

    def nearest(xy: np.ndarray) -> float:
        return float(np.hypot(xy[:, 0] - origin[0], xy[:, 1] - origin[1]).min())

    void_xy = min(
        _deleted_positions(lattice),
        key=lambda xy: (nearest(xy), len(xy), tuple(map(tuple, xy))),
    )
    probe_length = nearest(void_xy)

    diff = lattice.coords[:, None, :] - void_xy[None, :, :]
    site_to_void = np.sqrt((diff ** 2).sum(axis=2)).min(axis=1)
    boundary = tuple(int(i) for i in np.flatnonzero(site_to_void <= 1.0 + DIST_TOL))

    site_dists = np.hypot(
        lattice.coords[:, 0] - origin[0], lattice.coords[:, 1] - origin[1]
    )
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
