"""Brute-force propagator the tests check the spectral route against.

It integrates the Schrodinger equation with a truncated Taylor series of
exp(-iH dt) and never calls an eigensolver, so it shares no step with
``evolution.spectral_decompose``.
"""

import numpy as np

from fractalwalk.errors import DomainError, NumericalError
from fractalwalk.evolution import _check_input_site

ORACLE_TOL = 1e-10
_ORACLE_ORDER = 16
_ORACLE_MAX_REFINEMENTS = 24


def evolve_oracle(h, input_site: int, tau: float) -> np.ndarray:
    """Brute-force amplitudes exp(-iH tau) delta_input, independent of eigh.

    Integrates the series propagator over an increasing number of
    sub-steps until two successive refinements agree within 1e-10 in the
    max norm.  O(refinements * steps * order * N^2).
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
