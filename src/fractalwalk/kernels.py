"""Hot numerical kernels, one numpy implementation each.

Two loops dominate the runtime of a full pipeline: evaluating per-site
occupation probabilities over the whole time grid (T x N^2 work) and
splatting Gaussian spots onto a pixel raster (pixels x N work).  Both are
written as dense matrix products so the work lands in BLAS; time them with
benchmarks/bench_kernels.py.
"""

from __future__ import annotations

import numpy as np

#: there is no compiled backend; perfbench/run.py records this in its machine line
USING_NUMBA = False


def quantum_probabilities(eigvals, eigvecs, weights, times):
    """Occupation probabilities p_j(t) = |sum_k V_jk w_k exp(-i lam_k t)|^2.

    Parameters
    ----------
    eigvals : (n,) float array
        Eigenvalues of the Hamiltonian.
    eigvecs : (N, n) float array
        Orthonormal eigenvectors as columns.
    weights : (n,) float array
        Input-site row of the eigenvector matrix, w_k = V[input, k].
    times : (T,) float array

    Returns
    -------
    (T, N) float array of probabilities.
    """
    # exp(-i lam t) = cos - i sin: one real product gives the real parts
    # (first T rows) and the negated imaginary parts (last T rows)
    phase = np.outer(times, eigvals)
    amps = np.concatenate((np.cos(phase), np.sin(phase))) @ (eigvecs * weights).T
    amps *= amps
    return amps[:len(times)] + amps[len(times):]


def classical_probabilities(eigvals, eigvecs, weights, times):
    """Same contraction for the heat kernel exp(-L t); returns (T, N) floats."""
    decay = np.exp(-np.outer(times, eigvals))
    return decay @ (eigvecs * weights).T


def gaussian_splat(xs, ys, probs, x0, y_top, inv_pps, width, height, sigma):
    """Accumulate probability-weighted Gaussian spots onto a raster.

    Pixel (row r, col c) is centred at world coordinates
    (x0 + (c + 0.5) * inv_pps, y_top - (r + 0.5) * inv_pps); row 0 is the
    top of the image.  Returns a (height, width) float image, unnormalised.

    The spot factorises, exp(-(dx^2 + dy^2) / 2 sigma^2) = gy * gx, so the
    frame is one product (gy * p) @ gx of an (height, n) and an (n, width)
    matrix.
    """
    cols = x0 + (np.arange(width) + 0.5) * inv_pps
    rows = y_top - (np.arange(height) + 0.5) * inv_pps
    inv_two_sigma2 = 1.0 / (2.0 * sigma * sigma)
    gx = np.exp(-((cols[None, :] - np.asarray(xs)[:, None]) ** 2) * inv_two_sigma2)
    gy = np.exp(-((rows[:, None] - np.asarray(ys)[None, :]) ** 2) * inv_two_sigma2)
    return (gy * probs) @ gx
