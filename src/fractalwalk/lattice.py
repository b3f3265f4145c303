"""Fractal photonic lattices and their regular counterparts.

A lattice is a planar point set with unit nearest-neighbour spacing and an
edge set over those points.  Five kinds exist: the Sierpinski gasket, the
Sierpinski carpet, the dual carpet (one site per kept square), and the
filled triangle and square baselines of matching geometry.

The numpy-free ``geometry`` module holds each kind's row, generates a
lattice's sites and edges and maps a fractal's voids, all as lists and
through one dict from integer point to index; ``generate`` wraps the
lattice in arrays, and ``landmark_sites`` ranks the voids.  Each site's
mirror image is found through a dict as well, keyed in the frame of the
mirror's axis (``mirror_permutation``): a lattice turned or shifted in
memory (a file reads only as generated) keeps the mirror; only edges that
break the reflection lose it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import BoundsError, StructuralError, check_site
from .geometry import LatticeKind

#: how far a position may lie from one it is taken for: a mirror image, a generated site
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
    xy, edges = geometry.sites_and_edges(kind, generation)
    return Lattice(kind, generation, np.array(xy).reshape(-1, 2),
                   np.array(edges, dtype=np.int64).reshape(-1, 2))


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
    survives a rotation or translation in memory.  The identity comes
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
    # label past a quarter-spacing gap) gives them one key (along, across)
    along, across = _cluster_labels(s), _cluster_labels(np.concatenate((t, -t)))
    image = dict(zip(zip(along.tolist(), across[:n].tolist()), range(n)))
    sigma = np.array([image.get(key, -1) for key in zip(along.tolist(), across[n:].tolist())])
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


def landmark_sites(lattice: Lattice, input_site: int) -> Landmarks:
    """Locate the first effective void and the farthest sites from the input.

    The first effective void is the removed region nearest to the input
    whose interior strictly contains at least one point of the
    corresponding filled lattice (for the dual carpet, a missing site);
    nearer ties go to the smaller region, then to the region whose first
    position comes first.  ``first_void_boundary`` collects the sites
    within 1 + 1e-6 spacings of that void's deleted positions.

    The lattice's coordinates must be the ones its kind and generation
    generate; a relabelled or edited lattice raises StructuralError.
    """
    check_site(input_site, lattice.n_sites)
    g = lattice.generation
    positions, label = geometry.void_map(lattice.kind, g)
    deleted_xy, label = np.array(positions).reshape(-1, 2), np.array(label)
    row = geometry._GEOMETRY[lattice.kind]
    xy = np.array(row.xy(row.sites(g))).reshape(-1, 2)
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
