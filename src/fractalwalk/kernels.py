"""Hot numerical kernels, one numpy implementation each.

Two loops dominate the runtime of a full pipeline: evaluating occupation
probabilities over the whole time grid and splatting Gaussian spots onto a
pixel raster (pixels x N work).  The first contracts n excited modes into
R rows over T times: a (2T x n) by (n x R) product for the quantum walk and
a (T x n) by (n x R) one for the classical walk, where R is the site count
or, for an input on the mirror axis, the number of orbit rows of the
symmetric sector (about N/2).  Both loops are written as dense matrix
products so the work lands in BLAS; ``perfbench/run.py --trace 1`` times
them alone as ``kernels.case_*_s``.
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
    eigvecs : (R, n) float array
        Matrix of rows: row j holds the amplitudes V_jk of the n modes on
        site (or orbit) j.
    weights : (n,) float array
        The input's own row, w_k = V[input, k].
    times : (T,) float array

    Returns
    -------
    (T, R) float array of probabilities, one column per row of ``eigvecs``.
    """
    # exp(-i lam t) = cos - i sin: one real product gives the real parts
    # (first T rows) and the negated imaginary parts (last T rows)
    phase = np.outer(times, eigvals)
    amps = np.concatenate((np.cos(phase), np.sin(phase))) @ (eigvecs * weights).T
    amps *= amps
    return amps[:len(times)] + amps[len(times):]


def classical_probabilities(eigvals, eigvecs, weights, times):
    """Same contraction for the heat kernel exp(-L t); returns (T, R) floats."""
    decay = np.exp(-np.outer(times, eigvals))
    return decay @ (eigvecs * weights).T


#: image rows per product: a band's gy (rows x n) stays small beside gx (n x width)
SPLAT_BAND = 64


def gaussian_splat(xs, ys, probs, x0, y_top, inv_pps, width, height, sigma):
    """Accumulate probability-weighted Gaussian spots onto a raster.

    Pixel (row r, col c) is centred at world coordinates
    (x0 + (c + 0.5) * inv_pps, y_top - (r + 0.5) * inv_pps); row 0 is the
    top of the image.  Returns a (height, width) float image, unnormalised.

    The spot factorises, exp(-(dx^2 + dy^2) / 2 sigma^2) = gy * gx, so the
    frame is the product (gy * p) @ gx of an (height, n) and an (n, width)
    matrix.  It is written into the image SPLAT_BAND rows at a time, so only
    one band of gy is alive beside gx.
    """
    cols = x0 + (np.arange(width) + 0.5) * inv_pps
    rows = y_top - (np.arange(height) + 0.5) * inv_pps
    inv_two_sigma2 = 1.0 / (2.0 * sigma * sigma)
    ys = np.asarray(ys)
    gx = np.exp(-((cols[None, :] - np.asarray(xs)[:, None]) ** 2) * inv_two_sigma2)
    image = np.empty((height, width))
    for top in range(0, height, SPLAT_BAND):
        band = slice(top, top + SPLAT_BAND)
        gy = np.exp(-((rows[band, None] - ys[None, :]) ** 2) * inv_two_sigma2)
        gy *= probs
        np.matmul(gy, gx, out=image[band])
    return image
