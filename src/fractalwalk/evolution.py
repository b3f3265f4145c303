"""Quantum and classical walk propagation via spectral decomposition.

The quantum walk evolves an initially localised excitation under
U(t) = exp(-iHt); occupation probabilities follow from one
eigendecomposition of H evaluated over the whole time grid.  The
classical walk applies the heat kernel exp(-Lt) of the graph Laplacian
the same way.  ``evolve_oracle`` provides an independent brute-force
propagator (series integration with step halving) used to cross-check
the spectral route in tests.

The decomposition splits by mirror sector.  A site permutation sigma
that is an involution and commutes with H (a reflection of the lattice,
``lattice.mirror_permutation``) fixes some sites and swaps the others in
pairs (a, b).  The fixed sites e_f and the pair sums (e_a + e_b)/sqrt 2
span the symmetric sector, the pair differences (e_a - e_b)/sqrt 2 the
antisymmetric one, and H has no element between the two.  So ``eigh``
runs on two blocks of about N/2 each, read off H by indexing:

    symmetric      [[H_ff, sqrt2 H_fa], [sqrt2 H_af, H_aa + H_ab]]
    antisymmetric  H_aa - H_ab

and the two sets of eigenvectors, mapped back to sites, fill one N x N
matrix in ascending eigenvalue order.  Without a permutation the
symmetric block is all of H and the antisymmetric block is empty.  An
antisymmetric eigenvector vanishes on every fixed site, so a walk from a
site on the mirror axis never excites that half of the spectrum, and
the evolution drops every mode whose input weight is exactly zero.

Times are dimensionless, tau = C * t; with the default coupling C = 1
they coincide with plain time arguments to exp(-iHt).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .errors import BoundsError, DomainError, NumericalError
from .hamiltonian import ClassicalGenerator, Hamiltonian
from .lattice import LatticeKind

#: default dimensionless time grid: tau in [0, 25], 501 uniform samples
DEFAULT_TAU_MAX = 25.0
DEFAULT_STEPS = 501

#: per-kind (tau_max, steps) presets; the carpet grid ends before its
#: farthest-site event, which lies beyond any realised horizon
GRID_PRESETS = {
    LatticeKind.SG: (25.0, 501),
    LatticeKind.SC: (12.0, 241),
    LatticeKind.DSC: (25.0, 501),
    LatticeKind.TRIANGLE: (25.0, 501),
    LatticeKind.SQUARE: (25.0, 501),
}


def time_grid(tau_max: float = DEFAULT_TAU_MAX, steps: int = DEFAULT_STEPS,
              tau_min: float = 0.0) -> np.ndarray:
    """Uniform time grid over [tau_min, tau_max] with ``steps`` samples."""
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


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) and orthonormal eigenvector columns.

    ``spectral_decompose`` also keeps its health figures: the largest
    entry of (V Lambda) V^T - H (``residual``) and of V^T V - I
    (``orthogonality``), and the sizes of the symmetric and antisymmetric
    blocks it solved (``sectors``).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float | None = None
    orthogonality: float | None = None
    sectors: tuple[int, int] | None = None

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


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


def spectral_decompose(h: Hamiltonian | ClassicalGenerator | np.ndarray,
                       mirror: np.ndarray | None = None) -> Spectrum:
    """Eigendecomposition of a real symmetric matrix, with residual checks.

    ``mirror`` is a site permutation sigma, an involution that commutes
    exactly with the matrix (see the module docstring); None means the
    identity.  Raises DomainError if it is neither, and NumericalError if
    the reconstruction residual exceeds 1e-9 * max(1, max|H|) or the
    eigenvector columns fail orthonormality at 1e-10.
    """
    matrix = getattr(h, "matrix", h)
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.array_equal(matrix, matrix.T):
        raise DomainError("matrix is not symmetric")
    n = matrix.shape[0]
    sites = np.arange(n)
    sigma = sites if mirror is None else np.asarray(mirror)
    if (sigma.shape != (n,) or sigma.dtype.kind not in "iu"
            or n and not 0 <= sigma.min() <= sigma.max() < n
            or not np.array_equal(sigma[sigma], sites)):
        raise DomainError(f"mirror is not an involution of the {n} sites")
    fixed = np.flatnonzero(sigma == sites)
    a = np.flatnonzero(sigma > sites)
    b = sigma[a]
    h_fa = matrix[np.ix_(fixed, a)]
    h_aa = matrix[np.ix_(a, a)]
    h_ab = matrix[np.ix_(a, b)]
    # with H symmetric these three say H[sigma i, sigma j] == H[i, j]
    if not (np.array_equal(matrix[np.ix_(fixed, b)], h_fa)
            and np.array_equal(matrix[np.ix_(b, b)], h_aa)
            and np.array_equal(h_ab, h_ab.T)):
        raise DomainError("matrix does not commute with the mirror permutation")

    nf, npair = fixed.size, a.size
    sym = np.empty((nf + npair, nf + npair))
    sym[:nf, :nf] = matrix[np.ix_(fixed, fixed)]
    sym[:nf, nf:] = np.sqrt(2.0) * h_fa
    sym[nf:, :nf] = sym[:nf, nf:].T
    np.add(h_aa, h_ab, out=sym[nf:, nf:])
    anti = np.subtract(h_aa, h_ab, out=h_aa)
    del h_fa, h_aa, h_ab
    lam_s, u_s = _eigh(sym)
    del sym
    lam_a, u_a = _eigh(anti)
    del anti

    eigvals = np.concatenate((lam_s, lam_a))
    order = np.argsort(eigvals, kind="stable")
    eigvals = eigvals[order]
    eigvecs = np.empty((n, n))

    def scatter(rows, sym_rows, anti_rows):
        # site rows of V in sector column order, sorted by eigenvalue, 256 at a time
        for lo in range(0, rows.size, 256):
            block = np.concatenate((sym_rows[lo:lo + 256], anti_rows[lo:lo + 256]), axis=1)
            eigvecs[rows[lo:lo + 256]] = np.take(block, order, axis=1)

    scatter(fixed, u_s[:nf], np.zeros((nf, npair)))
    pair_sym, pair_anti = np.sqrt(0.5) * u_s[nf:], np.sqrt(0.5) * u_a
    del u_s, u_a
    scatter(a, pair_sym, pair_anti)
    scatter(b, pair_sym, np.negative(pair_anti, out=pair_anti))
    del pair_sym, pair_anti

    scale = max(1.0, float(np.abs(matrix).max()))
    residual = float(np.abs((eigvecs * eigvals) @ eigvecs.T - matrix).max())
    ortho = float(np.abs(eigvecs.T @ eigvecs - np.eye(n)).max())
    if residual > RECONSTRUCTION_TOL * scale or ortho > ORTHOGONALITY_TOL:
        raise NumericalError(
            f"eigendecomposition out of tolerance: reconstruction {residual:.3e} "
            f"(limit {RECONSTRUCTION_TOL * scale:.3e}), orthogonality {ortho:.3e} "
            f"(limit {ORTHOGONALITY_TOL:.3e})"
        )
    return Spectrum(eigvals, eigvecs, residual, ortho, (nf + npair, npair))


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
    # a mode the input does not excite (every antisymmetric one, for an
    # input on the mirror axis) adds exactly nothing
    keep = np.flatnonzero(spectrum.eigenvectors[input_site, :])
    weights = spectrum.eigenvectors[input_site, keep]
    probs = kernel(spectrum.eigenvalues[keep], spectrum.eigenvectors[:, keep], weights, times)
    if times[0] == 0.0:
        # both propagators are the identity at zero time: the launch row is
        # the initial state itself, not V V^T with its last-bit roundoff
        probs[0] = 0.0
        probs[0, input_site] = 1.0
    return ProbabilitySeries(kind, input_site, times, _finalize(probs))


def _finalize(probs: np.ndarray) -> np.ndarray:
    """Clamp roundoff-negative entries and verify row normalisation."""
    low = float(probs.min())
    if low < -CLAMP_TOL:
        raise NumericalError(f"probability {low:.3e} below the -1e-12 roundoff floor")
    probs = np.clip(probs, 0.0, 1.0)
    worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
    if worst > ROW_SUM_TOL:
        raise NumericalError(f"probability rows deviate from 1 by {worst:.3e}")
    return probs


def return_amplitude(spectrum: Spectrum, input_site: int, tau: float) -> complex:
    """Return amplitude <input| exp(-iHt) |input> at any real tau."""
    input_site = _check_input_site(spectrum.n, input_site)
    w = spectrum.eigenvectors[input_site, :]
    return complex(np.sum(w * w * np.exp(-1j * spectrum.eigenvalues * tau)))


ORACLE_TOL = 1e-10
_ORACLE_ORDER = 16
_ORACLE_MAX_REFINEMENTS = 24


def evolve_oracle(h: Hamiltonian | np.ndarray, input_site: int, tau: float) -> np.ndarray:
    """Brute-force amplitudes exp(-iH tau) delta_input, independent of eigh.

    Integrates the series propagator over an increasing number of
    sub-steps until two successive refinements agree within 1e-10 in the
    max norm.  Intended for tests; O(refinements * steps * order * N^2).
    """
    matrix = np.asarray(getattr(h, "matrix", h), dtype=np.float64)
    n = matrix.shape[0]
    input_site = _check_input_site(n, input_site)
    if tau < 0:
        raise DomainError(f"oracle requires tau >= 0, got {tau}")

    psi0 = np.zeros(n, dtype=np.complex128)
    psi0[input_site] = 1.0
    row_norm = float(np.abs(matrix).sum(axis=1).max())
    steps = max(1, int(np.ceil(tau * row_norm)))

    previous = None
    for _ in range(_ORACLE_MAX_REFINEMENTS):
        psi = _series_propagate(matrix, psi0, tau, steps)
        if previous is not None and float(np.abs(psi - previous).max()) <= ORACLE_TOL:
            return psi
        previous = psi
        steps *= 2
    raise NumericalError(
        f"oracle propagator did not converge to {ORACLE_TOL} after "
        f"{_ORACLE_MAX_REFINEMENTS} refinements (tau={tau}, n={n})"
    )


def _series_propagate(matrix: np.ndarray, psi: np.ndarray, tau: float, steps: int) -> np.ndarray:
    dt = tau / steps
    for _ in range(steps):
        term = psi
        acc = psi.copy()
        for order in range(1, _ORACLE_ORDER + 1):
            term = (-1j * dt / order) * (matrix @ term)
            acc = acc + term
        psi = acc
    return psi
