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
triplets of H, which a ``hamiltonian.Operator`` holds; that is the only
form ``spectral_decompose`` takes, so a walk never forms the N x N H.
The solver writes a block's eigenvectors over the block itself, and the
residual check scatters the triplets once more.  It solves S and keeps
only the O(N + E) triplets A is scattered from.  A
site's amplitudes on the symmetric modes are its orbit row: its own row of
U_s for a fixed site, and its pair's row times sqrt(1/2) for either site
of a pair.  An antisymmetric mode vanishes on every fixed site, so a walk
launched on the mirror axis never leaves the symmetric sector.  It is
contracted over the orbit rows alone and each pair's probability is copied
to both of its sites.  An input off the axis, or a read of
``Spectrum.eigenvalues`` or ``.eigenvectors``, scatters and solves A once
and assembles the site-space N x N eigenvector matrix V, which the
spectrum then keeps.

Each block is checked as it is solved, before any of its eigenpairs is
used: the largest entry of (U Lambda) U^T - B must stay within
1e-9 * max(1, max|H - d I|) and that of U^T U - I within 1e-10, where d
is the mean diagonal entry of H.  A uniform diagonal only shifts every
eigenvalue, so it does not widen the limit.  The map from
the blocks to the sites is orthogonal, so this bounds V as well: an
entry of (V Lambda) V^T - H is an entry of the symmetric residual, that
entry over sqrt 2, or half the sum or difference of a symmetric and an
antisymmetric one, and V^T V - I is block diagonal.  Without a
permutation every site is fixed: S is all of H and A is empty.

The rules of a valid series live here.  A ``ProbabilitySeries``, computed
here or read by ``serialize.read_series``, refuses times that do not
ascend from >= 0, a row count other than the number of times and an input
site out of range.  ``time_grid`` and ``_evolve`` refuse a series of more
than MAX_SERIES_VALUES (times x sites), the grid before it exists.
``check_walk``, which ``serialize.read_walk`` runs on a series read back,
holds it to what every walk on its lattice does: a walk from the mirror
axis stays symmetric about it, a grid from tau 0 starts with the delta at
the input site, and a classical walk's return probability, the heat-kernel
diagonal sum_k v_k^2 exp(-lambda_k t), never rises, nor does the walk
come back to that delta.  A quantum walk can (two sites revive exactly at
tau = pi), so a quantum series shifted in time is not refused.

Times are dimensionless, tau = C * t; with the default coupling C = 1
they coincide with plain time arguments to exp(-iHt).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .errors import DomainError, NumericalError, ShapeError, check_finite, check_site
from .geometry import _GEOMETRY, LatticeKind
from .lattice import mirror_permutation

if TYPE_CHECKING:  # an annotation only: reading a series needs no operator
    from .hamiltonian import Operator

#: the most values (times x sites) a probability series may hold, checked
#: before anything is allocated: render.MAX_FRAME_PIXELS, about 40 times
#: the largest preset series (sg:7, 501 x 3282)
MAX_SERIES_VALUES = 2 ** 26


def time_grid(tau_max: float, steps: int, tau_min: float = 0.0, sites: int = 1) -> np.ndarray:
    """Uniform time grid over [tau_min, tau_max] with ``steps`` samples, for
    a series over ``sites`` sites: its size is checked before the grid exists.
    A series keeps 12 significant digits of each time, so a step above the
    12th digit of tau_max reads back strictly ascending; a step that is a
    normal float keeps the grid itself ascending."""
    check_finite(tau_min=tau_min, tau_max=tau_max)
    if not tau_max > tau_min >= 0.0:
        raise DomainError(f"need tau_max > tau_min >= 0, got [{tau_min}, {tau_max}]")
    if steps < 2:
        raise DomainError(f"steps must be at least 2, got {steps}")
    _check_size(steps, sites)
    step = (tau_max - tau_min) / (steps - 1)
    digit = max(10.0 ** (np.floor(np.log10(tau_max)) - 11), np.finfo(float).tiny)
    if not step > digit:
        raise DomainError(f"grid step {step:.6g} must exceed {digit:.3g}, for the 12 "
                          f"significant digits a series keeps of tau_max {tau_max!r}")
    return np.linspace(tau_min, tau_max, steps)


def _check_size(n_times: int, n_sites: int) -> None:
    if n_times * n_sites > MAX_SERIES_VALUES:
        raise DomainError(f"{n_times} times x {n_sites} sites is a series "
                          f"of more than {MAX_SERIES_VALUES} values")


def preset_grid(kind: LatticeKind | str, tau_max: float | None = None,
                steps: int | None = None, tau_min: float = 0.0, sites: int = 1) -> np.ndarray:
    """``kind``'s preset grid (its row of ``geometry._GEOMETRY``), with
    ``tau_max`` and ``steps`` in its place where given, for ``sites`` sites."""
    preset_max, preset_steps = _GEOMETRY[LatticeKind.parse(kind)].grid
    return time_grid(preset_max if tau_max is None else tau_max,
                     preset_steps if steps is None else steps, tau_min, sites)


class SeriesKind(str, Enum):
    QUANTUM = "quantum"
    CLASSICAL = "classical"


class Spectrum:
    """Eigenpairs of a real symmetric matrix, kept in mirror-sector form.

    Built by ``spectral_decompose``.  ``eigenvalues`` (ascending) and
    ``eigenvectors`` (orthonormal site-space columns) are assembled on
    their first read, which solves the antisymmetric block if it is still
    pending (see the module docstring).

    The health figures cover the blocks solved so far: the largest entry
    of (U Lambda) U^T - B (``residual``) and of U^T U - I
    (``orthogonality``), and the sizes of the symmetric and antisymmetric
    blocks (``sectors``).
    """

    def __init__(self, fixed, a, b, orbit, values, rows, anti, scale, health):
        """Sites fixed by the mirror, pairs a <-> b, the map from a site to
        its orbit row, the symmetric sector's eigenvalues and orbit rows, the
        antisymmetric block's triplets still to solve (see ``_block``), the
        tolerance scale max(1, max|H - d I|) its check uses and the
        symmetric block's (residual, orthogonality)."""
        values.setflags(write=False)
        rows.setflags(write=False)
        self._fixed, self._a, self._b, self._orbit = fixed, a, b, orbit
        self._sym = values, rows
        self._anti, self._scale, self._health = anti, scale, [health]
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
    def residual(self) -> float:
        return max(r for r, _ in self._health)

    @property
    def orthogonality(self) -> float:
        return max(o for _, o in self._health)

    @property
    def sectors(self) -> tuple[int, int]:
        return self.n - self._a.size, self._a.size

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
        lam_a, u_a, health = _solve(self._a.size, *self._anti, self._scale)
        self._health.append(health)
        self._anti = None

        nf = self._fixed.size
        eigvals = np.concatenate((lam_s, lam_a))
        order = np.argsort(eigvals, kind="stable")
        # sector column c of V lands in column[c], sorted by eigenvalue
        column = np.empty_like(order)
        column[order] = np.arange(self.n)
        sym, anti = column[:lam_s.size], column[lam_s.size:]
        eigvecs = np.zeros((self.n, self.n))
        eigvecs[np.ix_(self._fixed, sym)] = rows_s[:nf]
        eigvecs[np.ix_(self._a, sym)] = eigvecs[np.ix_(self._b, sym)] = rows_s[nf:]
        u_a *= np.sqrt(0.5)
        eigvecs[np.ix_(self._a, anti)] = u_a
        eigvecs[np.ix_(self._b, anti)] = np.negative(u_a, out=u_a)
        eigvals = eigvals[order]
        eigvals.setflags(write=False)
        eigvecs.setflags(write=False)
        self._site = eigvals, eigvecs
        return self._site


@dataclass(frozen=True)
class ProbabilitySeries:
    """Per-site occupation probabilities over a time grid for one input
    site.  The field order is the series document's key order."""

    kind: SeriesKind
    input_site: int
    times: np.ndarray          # (T,)
    probabilities: np.ndarray  # (T, N)

    def __post_init__(self):
        """DomainError, ShapeError or BoundsError for a structure no walk gives."""
        _check_times(self.times)
        if self.probabilities.ndim != 2 or len(self.probabilities) != self.times.size:
            raise ShapeError(f"probabilities shape {self.probabilities.shape} does not "
                             f"match {self.times.size} times")
        check_site(self.input_site, self.n_sites)
        self.times.setflags(write=False)
        self.probabilities.setflags(write=False)

    @property
    def n_sites(self) -> int:
        return self.probabilities.shape[1]

    def check_lattice(self, lattice) -> None:
        """ShapeError unless ``lattice`` has the sites of this series."""
        if self.n_sites != lattice.n_sites:
            raise ShapeError(
                f"series has {self.n_sites} sites but lattice has {lattice.n_sites}"
            )

    def check_walk(self, lattice) -> None:
        """DomainError for a series that no walk on ``lattice`` gives (see the
        module docstring), each test within MIRROR_TOL but the classical
        return probability's, which is taken to its 12th significant digit."""
        probs, site = self.probabilities, self.input_site
        sigma = mirror_permutation(lattice)
        if sigma[site] == site:
            gap = np.abs(probs - probs[:, sigma]).max(axis=0)
            i = int(np.argmax(gap > MIRROR_TOL))
            if gap[i] > MIRROR_TOL:
                raise DomainError(f"sites {i} and {sigma[i]} mirror each other about the "
                                  f"input site, but their probabilities differ by {gap[i]:.3g}")
        launch = np.zeros(self.n_sites)
        launch[site] = 1.0
        gap = float(np.abs(probs[0] - launch).max())
        if self.times[0] == 0.0 and not gap <= MIRROR_TOL:
            raise DomainError(f"the row at tau 0 differs from the launch at site {site} "
                              f"by {gap:.3g}")
        if self.kind is not SeriesKind.CLASSICAL:
            return
        # a written value keeps 12 significant digits, and two written values
        # one unit apart differ by that unit only up to binary roundoff
        column = probs[:, site]
        unit = 10.0 ** (np.floor(np.log10(np.maximum(column[1:], np.finfo(float).tiny))) - 11)
        rise = np.diff(column)
        up = np.flatnonzero(rise > 1.5 * unit)
        if up.size:
            k = up[0]
            raise DomainError(f"the classical return probability rises by {rise[k]:.3g} "
                              f"from tau {self.times[k]:.12g} to {self.times[k + 1]:.12g}")
        held = (self.times > 0.0) & (column == 1.0)
        held[held] = (probs[held] == launch).all(axis=1)
        if held.any() and lattice.degrees()[site]:
            raise DomainError(f"the row at tau {self.times[held][0]:.12g} is still the "
                              f"launch at site {site}, which a classical walk leaves at once")


RECONSTRUCTION_TOL = 1e-9
ORTHOGONALITY_TOL = 1e-10
MIRROR_TOL = 1e-9


def spectral_decompose(h: Operator, mirror: np.ndarray | None = None) -> Spectrum:
    """Eigendecomposition of a walk operator by mirror sector.

    ``mirror`` is a site permutation sigma, an involution that commutes
    exactly with ``h`` (see the module docstring); None means the identity.
    The symmetry and commutation tests compare the non-zero triplets keyed
    (i, j) with those keyed (j, i) and (sigma i, sigma j), values exactly.
    Solves the symmetric block now and the antisymmetric one on first use,
    each scattered from the triplets.  Raises DomainError if ``h`` is not
    symmetric or repeats an entry or the mirror is not an involution that
    commutes with it, and NumericalError if a block's reconstruction
    residual exceeds 1e-9 * max(1, max|H - d I|), d the mean diagonal
    entry, or its eigenvectors fail orthonormality at 1e-10.
    """
    n, rows, cols, values = h.n, h.rows, h.cols, h.values
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

    if not same(cols, rows):
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
    diagonal = np.zeros(n)
    on = rows == cols
    diagonal[rows[on]] = values[on]
    diagonal -= diagonal.sum() / max(n, 1)  # d, the mean diagonal entry
    scale = max(1.0, float(np.abs(values[~on]).max(initial=0.0)),
                float(np.abs(diagonal).max(initial=0.0)))
    lam_s, u_s, health = _solve(nf + npair, (i[near], j[near], weights[near]),
                                (i[cross], j[cross], values[cross]), scale)
    u_s[nf:] *= np.sqrt(0.5)  # U_s rows become orbit rows: one per fixed site, one per pair
    pairs = near & (i >= nf) & (j >= nf)
    anti = ((i[pairs] - nf, j[pairs] - nf, values[pairs]),
            (i[cross] - nf, j[cross] - nf, -values[cross]))
    return Spectrum(fixed, a, b, orbit, lam_s, u_s, anti, scale, health)


def _block(size: int, assigned, added) -> np.ndarray:
    """A zeroed size x size block with the (i, j, value) triplets
    ``assigned`` written and then ``added`` added; neither repeats a
    position, so each entry takes the float operations of the dense sum."""
    block = np.zeros((size, size))
    block[assigned[0], assigned[1]] = assigned[2]
    block[added[0], added[1]] += added[2]
    return block


def _solve(size: int, assigned, added, scale: float):
    """Eigenpairs of ``_block(size, assigned, added)`` and their (residual,
    orthogonality), checked before any caller uses them.  The eigenvectors
    overwrite the block, so the residual check scatters it again."""
    try:
        eigvals, eigvecs = _eigh(_block(size, assigned, added))
    except FloatingPointError as exc:
        raise NumericalError(f"eigendecomposition failed for a {size}x{size} block: {exc}; "
                             f"max(1, max|H - d I|) = {scale:.3e}") from exc
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail the test below
        product = (eigvecs * eigvals) @ eigvecs.T
        product -= _block(size, assigned, added)
        residual = float(np.abs(product, out=product).max(initial=0.0))
        gram = eigvecs.T @ eigvecs
        gram.flat[::eigvals.size + 1] -= 1.0  # U^T U - I without an N x N identity
        ortho = float(np.abs(gram, out=gram).max(initial=0.0))
    # written so that a NaN residual fails the check
    if not (residual <= RECONSTRUCTION_TOL * scale and ortho <= ORTHOGONALITY_TOL):
        raise NumericalError(
            f"eigendecomposition out of tolerance: reconstruction {residual:.3e} "
            f"(limit {RECONSTRUCTION_TOL * scale:.3e}), orthogonality {ortho:.3e} "
            f"(limit {ORTHOGONALITY_TOL:.3e})"
        )
    return eigvals, eigvecs, (residual, ortho)


def _eigh(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh``'s gufunc (LAPACK dsyevd), its eigenvectors written
    over ``block`` and returned; a failure to converge raises FloatingPointError.
    The alias is safe: the gufunc copies its input into a Fortran buffer
    before LAPACK runs and writes its output only afterwards."""
    eigvals = np.empty(block.shape[0])
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        np.linalg._umath_linalg.eigh_lo(block, out=(eigvals, block), signature="d->dd")
    return eigvals, block


def _check_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise DomainError("times must be a non-empty 1-d array")
    if times[0] < 0.0:
        raise DomainError(f"times must start at >= 0, got {times[0]}")
    if times.size > 1 and not np.all(np.diff(times) > 0.0):
        raise DomainError("times must be strictly ascending")
    return times


ROW_SUM_TOL = 1e-9
CLAMP_TOL = 1e-12


def check_distribution(probs: np.ndarray) -> None:
    """DomainError unless every row of ``probs`` (or ``probs`` itself, if
    1-d) is a probability distribution up to roundoff: no entry below
    -CLAMP_TOL and a sum within ROW_SUM_TOL of 1."""
    # each test is written so that a NaN, or a sum that overflows, fails it
    low = probs.min(initial=0.0)
    if not low >= -CLAMP_TOL:
        raise DomainError(f"probability {low:.3e} below the -1e-12 roundoff floor")
    with np.errstate(over="ignore", invalid="ignore"):
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
    _check_size(times.size, spectrum.n)
    input_site = check_site(input_site, spectrum.n)
    eigvals, rows, orbit = spectrum._orbit_rows(input_site)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail _finalize
        probs = np.take(kernel(eigvals, rows, rows[orbit[input_site]], times), orbit, axis=1)
    if times[0] == 0.0:
        # both propagators are the identity at zero time: the launch row is
        # the initial state itself, not V V^T with its last-bit roundoff
        probs[0] = 0.0
        probs[0, input_site] = 1.0
    return ProbabilitySeries(kind, input_site, times, _finalize(probs))


def _finalize(probs: np.ndarray) -> np.ndarray:
    """Verify that every computed row is a probability distribution (see
    ``check_distribution``), then clamp the roundoff outside [0, 1].  A
    row that fails is the solver's fault: NumericalError."""
    try:
        check_distribution(probs)
    except DomainError as exc:
        raise NumericalError(str(exc)) from None
    return np.clip(probs, 0.0, 1.0)
