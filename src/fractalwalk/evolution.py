"""Quantum and classical walk propagation via spectral decomposition.

The quantum walk evolves an initially localised excitation under
U(t) = exp(-iHt); occupation probabilities follow from one
eigendecomposition of H evaluated over the whole time grid.  The
classical walk applies the heat kernel exp(-Lt) of the graph Laplacian
the same way.  ``evolve_oracle`` provides an independent brute-force
propagator (series integration with step halving) used to cross-check
the spectral route in tests.

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
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

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


def spectral_decompose(h: Hamiltonian | ClassicalGenerator | np.ndarray) -> Spectrum:
    """Eigendecomposition of a real symmetric matrix, with residual checks.

    Raises NumericalError if the reconstruction residual exceeds
    1e-9 * max(1, max|H|) or the eigenvector columns fail orthonormality
    at 1e-10.
    """
    matrix = getattr(h, "matrix", h)
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.allclose(matrix, matrix.T, rtol=0.0, atol=0.0):
        raise DomainError("matrix is not symmetric")
    try:
        eigvals, eigvecs = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigendecomposition failed for {matrix.shape[0]}x{matrix.shape[1]} matrix: "
            f"{exc}; max|H| = {np.abs(matrix).max():.3e}"
        ) from exc

    scale = max(1.0, float(np.abs(matrix).max()))
    residual = float(np.abs((eigvecs * eigvals) @ eigvecs.T - matrix).max())
    ortho = float(np.abs(eigvecs.T @ eigvecs - np.eye(matrix.shape[0])).max())
    if residual > RECONSTRUCTION_TOL * scale or ortho > ORTHOGONALITY_TOL:
        raise NumericalError(
            f"eigendecomposition out of tolerance: reconstruction {residual:.3e} "
            f"(limit {RECONSTRUCTION_TOL * scale:.3e}), orthogonality {ortho:.3e} "
            f"(limit {ORTHOGONALITY_TOL:.3e})"
        )
    return Spectrum(eigenvalues=eigvals, eigenvectors=eigvecs)


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
    weights = np.ascontiguousarray(spectrum.eigenvectors[input_site, :])
    probs = _finalize(kernel(spectrum.eigenvalues, spectrum.eigenvectors, weights, times))
    return ProbabilitySeries(kind, input_site, times, probs)


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
