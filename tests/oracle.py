"""Propagators the tests check the spectral route against, and the PGM
decoder they read frames back with.

Neither propagator calls an eigensolver, so they share no step with
``evolution.spectral_decompose``.  ``evolve_oracle`` integrates the
Schrodinger equation with a truncated Taylor series of exp(-iH dt) on the
dense matrix (N <= 200 or so).  ``chebyshev_probabilities`` expands
exp(-iHt) or exp(-Lt) in Chebyshev polynomials of the operator (Tal-Ezer
and Kosloff, J. Chem. Phys. 81, 3967 (1984)) and applies it from the
triplets, so it reaches the largest lattices the tests run.
"""

import numpy as np

from fractalwalk.errors import DomainError, NumericalError, check_site
from fractalwalk.render import PGM_MAXVAL

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
    input_site = check_site(input_site, n)
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


def chebyshev_probabilities(operator, input_site: int, times, classical: bool = False):
    """Occupation probabilities |exp(-iHt) delta_input|^2, or the heat kernel
    exp(-Lt) delta_input if ``classical``, as a (T, N) array.

    The Gershgorin interval [c - a, c + a] of the operator holds its
    spectrum, so H' = (H - c) / a has its spectrum in [-1, 1] and

        exp(-iHt) = exp(-ict) sum_k (2 - [k = 0]) (-i)^k J_k(at) T_k(H')
        exp(-Lt)  = exp(-ct)  sum_k (2 - [k = 0]) (-1)^k I_k(at) T_k(L').

    The vectors T_k(H') delta_input come from the three-term recurrence,
    each product H' psi summed from the triplets with ``np.bincount``; they
    are real, and one set serves every time.  The Bessel factors come from
    ``_bessel_series``.
    """
    n = operator.n
    input_site = check_site(input_site, n)
    times = np.asarray(times, dtype=np.float64)
    rows, cols, values = operator.rows, operator.cols, operator.values
    on = rows == cols
    centre = np.bincount(rows[on], weights=values[on], minlength=n)
    radius = np.bincount(rows[~on], weights=np.abs(values[~on]), minlength=n)
    lo, hi = float((centre - radius).min()), float((centre + radius).max())
    c, a = (hi + lo) / 2.0, max((hi - lo) / 2.0, 1e-3)
    scaled = np.where(on, values - c, values) / a

    def apply(psi):
        return np.bincount(rows, weights=scaled * psi[cols], minlength=n)

    x = a * times
    coefficients = _bessel_series(x, modified=classical)  # (K, T)
    basis = np.empty((coefficients.shape[0], n))
    basis[0] = 0.0
    basis[0, input_site] = 1.0
    basis[1] = apply(basis[0])
    for k in range(2, len(basis)):
        basis[k] = 2.0 * apply(basis[k - 1]) - basis[k - 2]
    k = np.arange(len(basis))[:, None]
    if classical:
        # the series holds exp(-at) I_k(at), so exp(-ct) becomes exp(-(c - a) t)
        weights = np.where(k % 2, -coefficients, coefficients)
        return np.exp(-(c - a) * times)[:, None] * (weights.T @ basis)
    phases = (-1j) ** (k % 4)
    amplitudes = (phases * coefficients).T @ basis
    return np.abs(amplitudes) ** 2


def _bessel_series(x: np.ndarray, modified: bool) -> np.ndarray:
    """(2 - [k = 0]) J_k(x), or (2 - [k = 0]) exp(-x) I_k(x) if ``modified``,
    for k = 0..K-1 down the rows and each x >= 0 along the columns.

    Miller's backward recurrence f_(k-1) = (2k / x) f_k -+ f_(k+1), from
    f = 0, 1 far above the last order kept, gives the sequence up to one
    factor per column; the sums J_0 + 2 sum_k J_2k = 1 and
    I_0 + 2 sum_k I_k = exp(x) fix that factor.  K - 1 = 1.5 x + 40 is far
    past the orders where J_k(x) and exp(-x) I_k(x) drop below 1e-17.
    """
    x = np.asarray(x, dtype=np.float64)
    kept = int(1.5 * x.max(initial=0.0)) + 41
    top = kept + 40
    sign = 1.0 if modified else -1.0
    safe = np.where(x > 0, x, 1.0)
    f = np.zeros((top + 2, x.size))
    f[top] = 1.0
    for k in range(top, 0, -1):
        f[k - 1] = (2.0 * k / safe) * f[k] + sign * f[k + 1]
        big = np.abs(f[k - 1]) > 1e250
        if big.any():
            f[k - 1:, big] *= 1e-250
    if modified:
        norm = f[0] + 2.0 * f[1:].sum(axis=0)
    else:
        norm = f[0] + 2.0 * f[2::2].sum(axis=0)
    series = f[:kept] / norm
    series[1:] *= 2.0
    series[:, x == 0] = 0.0  # J_k(0) = exp(0) I_k(0) = [k = 0]
    series[0, x == 0] = 1.0
    return series


def read_pgm(data: bytes) -> np.ndarray:
    """Decode the subset of P5 that ``render.pgm_bytes`` writes."""
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != str(PGM_MAXVAL).encode():
        raise DomainError("not a 16-bit P5 stream produced by this package")
    width, height = (int(x) for x in parts[1].split())
    image = np.frombuffer(parts[3], dtype=">u2", count=width * height)
    return image.reshape(height, width).astype(np.uint16)
