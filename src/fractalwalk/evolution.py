"""Quantum and classical walk propagation via spectral decomposition.

The quantum walk evolves an initially localised excitation under
U(t) = exp(-iHt); occupation probabilities follow from one
eigendecomposition of H evaluated over the whole time grid.  The
classical walk applies the heat kernel exp(-Lt) of the graph Laplacian
the same way.

The spectrum is kept in mirror-sector form.  A site permutation sigma
that is an involution and commutes with H (a reflection of the lattice,
``lattice.mirror_permutation``) fixes some sites f and swaps the others
in pairs a <-> b.  The fixed sites e_f and the pair sums
(e_a + e_b)/sqrt 2 span the symmetric sector, the pair differences
(e_a - e_b)/sqrt 2 the antisymmetric one, and H has no element between
the two.  Each sector is a block of about N/2:

    symmetric      S = [[H_ff, sqrt2 H_fa], [sqrt2 H_af, H_aa + H_ab]]
    antisymmetric  A = H_aa - H_ab

Both are scattered into zeroed blocks from the non-zero (row, col, value)
triplets of H.  A ``hamiltonian.Operator`` holds those triplets, so a
walk never forms the N x N H; a dense array is reduced to its non-zero
entries first.  ``spectral_decompose`` solves S and keeps only the O(N + E)
triplets A is scattered from.  A site's amplitudes on the symmetric modes
are its orbit row: its own row of U_s for a fixed site, and its pair's row
times sqrt(1/2) for either site of a pair.  An antisymmetric mode vanishes
on every fixed site, so a walk launched on the mirror axis never leaves
the symmetric sector.  It is contracted over the orbit rows alone and each
pair's probability is copied to both of its sites.  An input off the axis,
or a read of ``Spectrum.eigenvalues`` or ``.eigenvectors``, scatters and
solves A once and assembles the site-space N x N eigenvector matrix V,
which the spectrum then keeps.

Each block is checked as it is solved, before any of its eigenpairs is
used: the largest entry of (U Lambda) U^T - B must stay within
1e-9 * max(1, max|H|) and that of U^T U - I within 1e-10.  The map from
the blocks to the sites is orthogonal, so this bounds V as well: an
entry of (V Lambda) V^T - H is an entry of the symmetric residual, that
entry over sqrt 2, or half the sum or difference of a symmetric and an
antisymmetric one, and V^T V - I is block diagonal.  Without a
permutation every site is fixed: S is all of H and A is empty.  A
spectrum built by hand from site-space eigenpairs is the same case.

Times are dimensionless, tau = C * t; with the default coupling C = 1
they coincide with plain time arguments to exp(-iHt).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .errors import BoundsError, DomainError, NumericalError
from .hamiltonian import Operator
from .lattice import LatticeKind

#: per-kind (tau_max, steps) presets; the carpet grid ends before its
#: farthest-site event, which lies beyond any realised horizon
GRID_PRESETS = {
    LatticeKind.SG: (25.0, 501),
    LatticeKind.SC: (12.0, 241),
    LatticeKind.DSC: (25.0, 501),
    LatticeKind.TRIANGLE: (25.0, 501),
    LatticeKind.SQUARE: (25.0, 501),
}


def time_grid(tau_max: float, steps: int, tau_min: float = 0.0) -> np.ndarray:
    """Uniform time grid over [tau_min, tau_max] with ``steps`` samples."""
    for name, bound in (("tau_min", tau_min), ("tau_max", tau_max)):
        if not np.isfinite(bound):
            raise DomainError(f"{name} must be finite, got {bound}")
    if not tau_max > tau_min >= 0.0:
        raise DomainError(f"need tau_max > tau_min >= 0, got [{tau_min}, {tau_max}]")
    if steps < 2:
        raise DomainError(f"steps must be at least 2, got {steps}")
    return np.linspace(tau_min, tau_max, steps)


def preset_grid(kind: LatticeKind | str) -> np.ndarray:
    kind = LatticeKind.parse(kind) if isinstance(kind, str) else kind
    tau_max, steps = GRID_PRESETS[kind]
    return time_grid(tau_max, steps)


class SeriesKind(str, Enum):
    QUANTUM = "quantum"
    CLASSICAL = "classical"


_NO_SITES = np.empty(0, dtype=np.intp)


class Spectrum:
    """Eigenpairs of a real symmetric matrix, kept in mirror-sector form.

    ``eigenvalues`` (ascending) and ``eigenvectors`` (orthonormal
    site-space columns) are assembled on their first read, which solves
    the antisymmetric block if it is still pending (see the module
    docstring).  ``Spectrum(eigenvalues, eigenvectors)`` takes site-space
    eigenpairs as they are, with every site on the axis.

    ``spectral_decompose`` also keeps its health figures, over the blocks
    solved so far: the largest entry of (U Lambda) U^T - B (``residual``)
    and of U^T U - I (``orthogonality``), and the sizes of the symmetric
    and antisymmetric blocks (``sectors``).  They are None for a spectrum
    built by hand.
    """

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray):
        sites = np.arange(eigenvalues.shape[0])
        self._init(sites, _NO_SITES, _NO_SITES, sites, eigenvalues, eigenvectors)
        self._site = self._sym

    def _init(self, fixed, a, b, orbit, values, rows, anti=None, scale=1.0, health=None):
        """Sites fixed by the mirror, pairs a <-> b, the map from a site to
        its orbit row, the symmetric sector's eigenvalues and orbit rows, the
        antisymmetric block's triplets still to solve (see ``_block``) and
        the tolerance scale max(1, max|H|) its check uses."""
        values.setflags(write=False)
        rows.setflags(write=False)
        self._fixed, self._a, self._b, self._orbit = fixed, a, b, orbit
        self._sym = values, rows
        self._anti, self._scale, self._health = anti, scale, health
        self._site = None

    @property
    def n(self) -> int:
        return self._orbit.size

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._site_space()[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._site_space()[1]

    @property
    def residual(self) -> float | None:
        return None if self._health is None else max(r for r, _ in self._health)

    @property
    def orthogonality(self) -> float | None:
        return None if self._health is None else max(o for _, o in self._health)

    @property
    def sectors(self) -> tuple[int, int] | None:
        return None if self._health is None else (self.n - self._a.size, self._a.size)

    def _orbit_rows(self, site: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eigenvalues, rows and the site -> row map to contract a walk from
        ``site``: the symmetric sector's orbit rows for a site on the mirror
        axis, else the site-space V with one row per site."""
        if self._orbit[site] < self._fixed.size:
            return (*self._sym, self._orbit)
        eigvals, eigvecs = self._site_space()
        return eigvals, eigvecs, np.arange(self.n)

    def _site_space(self) -> tuple[np.ndarray, np.ndarray]:
        if self._site is not None:
            return self._site
        lam_s, rows_s = self._sym
        lam_a, u_a, health = _solve(_block(self._a.size, *self._anti), self._scale)
        self._health.append(health)
        self._anti = None

        nf = self._fixed.size
        eigvals = np.concatenate((lam_s, lam_a))
        order = np.argsort(eigvals, kind="stable")
        eigvecs = np.empty((self.n, self.n))

        def scatter(sites, sym_rows, anti_rows):
            # site rows of V in sector column order, sorted by eigenvalue, 256 at a time
            for lo in range(0, sites.size, 256):
                block = np.concatenate((sym_rows[lo:lo + 256], anti_rows[lo:lo + 256]), axis=1)
                eigvecs[sites[lo:lo + 256]] = np.take(block, order, axis=1)

        scatter(self._fixed, rows_s[:nf], np.zeros((nf, lam_a.size)))
        pair_anti = np.sqrt(0.5) * u_a
        del u_a
        scatter(self._a, rows_s[nf:], pair_anti)
        scatter(self._b, rows_s[nf:], np.negative(pair_anti, out=pair_anti))
        eigvals = eigvals[order]
        eigvals.setflags(write=False)
        eigvecs.setflags(write=False)
        self._site = eigvals, eigvecs
        return self._site


@dataclass(frozen=True)
class ProbabilitySeries:
    """Per-site occupation probabilities over a time grid for one input site."""

    kind: SeriesKind
    input_site: int
    times: np.ndarray          # (T,)
    probabilities: np.ndarray  # (T, N)

    def __post_init__(self):
        self.times.setflags(write=False)
        self.probabilities.setflags(write=False)

    @property
    def n_sites(self) -> int:
        return self.probabilities.shape[1]


RECONSTRUCTION_TOL = 1e-9
ORTHOGONALITY_TOL = 1e-10


def spectral_decompose(h: Operator | np.ndarray,
                       mirror: np.ndarray | None = None) -> Spectrum:
    """Eigendecomposition of a real symmetric matrix by mirror sector.

    ``h`` is an ``Operator`` or a dense square array; the array is tested
    for exact symmetry and reduced to its non-zero triplets.  ``mirror`` is
    a site permutation sigma, an involution that commutes exactly with the
    matrix (see the module docstring); None means the identity.  The
    symmetry test of an operator and the commutation test compare the
    triplets keyed (i, j) with those keyed (j, i) and (sigma i, sigma j),
    values exactly.  Solves the symmetric block now and the antisymmetric
    one on first use, each scattered from the triplets.  Raises DomainError
    if the matrix is not symmetric, an operator repeats an entry or the
    mirror is neither, and NumericalError if a block's reconstruction
    residual exceeds 1e-9 * max(1, max|H|) or its eigenvectors fail
    orthonormality at 1e-10.
    """
    if isinstance(h, Operator):
        n, rows, cols, values = h.n, h.rows, h.cols, h.values
    else:
        matrix = np.asarray(h, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DomainError(f"expected a square matrix, got shape {matrix.shape}")
        if not np.array_equal(matrix, matrix.T):
            raise DomainError("matrix is not symmetric")
        n = matrix.shape[0]
        rows, cols = np.nonzero(matrix)
        values = matrix[rows, cols]
    sites = np.arange(n)
    sigma = sites if mirror is None else np.asarray(mirror)
    if (sigma.shape != (n,) or sigma.dtype.kind not in "iu"
            or n and not 0 <= sigma.min() <= sigma.max() < n
            or not np.array_equal(sigma[sigma], sites)):
        raise DomainError(f"mirror is not an involution of the {n} sites")
    nonzero = values != 0.0
    rows, cols, values = rows[nonzero], cols[nonzero], values[nonzero]

    def keyed(r, c):
        key = r.astype(np.int64) * n + c
        order = np.argsort(key)
        return key[order], values[order]

    entries = keyed(rows, cols)
    if not np.all(np.diff(entries[0]) > 0):
        raise DomainError("operator holds an entry more than once")

    def same(r, c):
        key, value = keyed(r, c)
        return np.array_equal(key, entries[0]) and np.array_equal(value, entries[1])

    if isinstance(h, Operator) and not same(cols, rows):
        raise DomainError("matrix is not symmetric")
    if not same(sigma[rows], sigma[cols]):
        raise DomainError("matrix does not commute with the mirror permutation")

    fixed = np.flatnonzero(sigma == sites)
    a = np.flatnonzero(sigma > sites)
    b = sigma[a]
    nf, npair = fixed.size, a.size
    orbit = np.empty(n, dtype=np.intp)
    orbit[fixed] = np.arange(nf)
    orbit[a] = orbit[b] = np.arange(nf, nf + npair)
    # by the commutation the rows of b sites mirror the others, so only rows
    # of fixed and a sites are read: entries between two of those are
    # written (sqrt 2 times over between a fixed site and a pair), and the
    # (a, b) entries added on top, H_aa + H_ab, or subtracted, H_aa - H_ab
    i, j = orbit[rows], orbit[cols]
    near = (sigma[rows] >= rows) & (sigma[cols] >= cols)
    cross = (sigma[rows] > rows) & (sigma[cols] < cols)
    weights = np.where((i < nf) != (j < nf), np.sqrt(2.0) * values, values)
    scale = max(1.0, float(np.abs(values).max(initial=0.0)))
    lam_s, u_s, health = _solve(_block(nf + npair, (i[near], j[near], weights[near]),
                                         (i[cross], j[cross], values[cross])), scale)
    u_s[nf:] *= np.sqrt(0.5)  # U_s rows become orbit rows: one per fixed site, one per pair
    pairs = near & (i >= nf) & (j >= nf)
    anti = ((i[pairs] - nf, j[pairs] - nf, values[pairs]),
            (i[cross] - nf, j[cross] - nf, -values[cross]))
    spectrum = Spectrum.__new__(Spectrum)
    spectrum._init(fixed, a, b, orbit, lam_s, u_s, anti, scale, [health])
    return spectrum


def _block(size: int, assigned, added) -> np.ndarray:
    """A zeroed size x size block with the (i, j, value) triplets
    ``assigned`` written and then ``added`` added; neither repeats a
    position, so each entry takes the float operations of the dense sum."""
    block = np.zeros((size, size))
    block[assigned[0], assigned[1]] = assigned[2]
    block[added[0], added[1]] += added[2]
    return block


def _solve(block: np.ndarray, scale: float):
    """Eigenpairs of one sector block and their (residual, orthogonality),
    checked against the tolerances before any caller uses them."""
    eigvals, eigvecs = _eigh(block)
    residual = float(np.abs((eigvecs * eigvals) @ eigvecs.T - block).max(initial=0.0))
    ortho = float(np.abs(eigvecs.T @ eigvecs - np.eye(eigvals.size)).max(initial=0.0))
    # written so that a NaN residual fails the check
    if not (residual <= RECONSTRUCTION_TOL * scale and ortho <= ORTHOGONALITY_TOL):
        raise NumericalError(
            f"eigendecomposition out of tolerance: reconstruction {residual:.3e} "
            f"(limit {RECONSTRUCTION_TOL * scale:.3e}), orthogonality {ortho:.3e} "
            f"(limit {ORTHOGONALITY_TOL:.3e})"
        )
    return eigvals, eigvecs, (residual, ortho)


def _eigh(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(block)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigendecomposition failed for a {block.shape[0]}x{block.shape[1]} block: "
            f"{exc}; max|H| = {np.abs(block).max():.3e}"
        ) from exc


def _check_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise DomainError("times must be a non-empty 1-d array")
    if times[0] < 0.0:
        raise DomainError(f"times must start at >= 0, got {times[0]}")
    if times.size > 1 and not np.all(np.diff(times) > 0.0):
        raise DomainError("times must be strictly ascending")
    return times


def _check_input_site(n: int, input_site: int) -> int:
    if not 0 <= input_site < n:
        raise BoundsError(f"input site {input_site} out of range 0..{n - 1}")
    return int(input_site)


ROW_SUM_TOL = 1e-9
CLAMP_TOL = 1e-12


def check_distribution(probs: np.ndarray) -> None:
    """DomainError unless every row of ``probs`` (or ``probs`` itself, if
    1-d) is a probability distribution up to roundoff: no entry below
    -CLAMP_TOL and a sum within ROW_SUM_TOL of 1."""
    # each test is written so that a NaN fails it
    low = probs.min(initial=0.0)
    if not low >= -CLAMP_TOL:
        raise DomainError(f"probability {low:.3e} below the -1e-12 roundoff floor")
    worst = np.abs(probs.sum(axis=-1) - 1.0).max(initial=0.0)
    if not worst <= ROW_SUM_TOL:
        raise DomainError(f"probabilities sum to 1 only within {worst:.3e}, "
                          f"not within {ROW_SUM_TOL:.0e}")


def evolve_quantum(spectrum: Spectrum, input_site: int, times) -> ProbabilitySeries:
    """Quantum occupation probabilities |<j| exp(-iHt) |input>|^2 on a grid."""
    return _evolve(SeriesKind.QUANTUM, kernels.quantum_probabilities, spectrum, input_site, times)


def evolve_classical(spectrum: Spectrum, input_site: int, times) -> ProbabilitySeries:
    """Classical occupation probabilities exp(-Lt) delta_input on a grid.

    ``spectrum`` is the decomposition of the graph Laplacian L.
    """
    return _evolve(
        SeriesKind.CLASSICAL, kernels.classical_probabilities, spectrum, input_site, times
    )


def _evolve(kind: SeriesKind, kernel, spectrum: Spectrum, input_site: int,
            times) -> ProbabilitySeries:
    times = _check_times(times)
    input_site = _check_input_site(spectrum.n, input_site)
    eigvals, rows, orbit = spectrum._orbit_rows(input_site)
    weights = rows[orbit[input_site]]
    # a mode the input does not excite adds exactly nothing
    keep = np.flatnonzero(weights)
    probs = np.take(kernel(eigvals[keep], rows[:, keep], weights[keep], times), orbit, axis=1)
    if times[0] == 0.0:
        # both propagators are the identity at zero time: the launch row is
        # the initial state itself, not V V^T with its last-bit roundoff
        probs[0] = 0.0
        probs[0, input_site] = 1.0
    return ProbabilitySeries(kind, input_site, times, _finalize(probs))


def _finalize(probs: np.ndarray) -> np.ndarray:
    """Clamp roundoff-negative entries and verify row normalisation."""
    low = float(probs.min())
    # each test is written so that a NaN fails it
    if not low >= -CLAMP_TOL:
        raise NumericalError(f"probability {low:.3e} below the -1e-12 roundoff floor")
    probs = np.clip(probs, 0.0, 1.0)
    worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
    if not worst <= ROW_SUM_TOL:
        raise NumericalError(f"probability rows deviate from 1 by {worst:.3e}")
    return probs


def return_amplitude(spectrum: Spectrum, input_site: int, tau: float) -> complex:
    """Return amplitude <input| exp(-iHt) |input> at any real tau."""
    input_site = _check_input_site(spectrum.n, input_site)
    eigvals, rows, orbit = spectrum._orbit_rows(input_site)
    w = rows[orbit[input_site]]
    return complex(np.sum(w * w * np.exp(-1j * eigvals * tau)))
