"""Hot numerical kernels, one numpy implementation each.

Two loops dominate the runtime of a full pipeline: evaluating occupation
probabilities over the whole time grid and splatting Gaussian spots onto a
pixel raster (pixels x N work).  The first contracts n excited modes into
R rows over T times: a (2T x n) by (n x R) product for the quantum walk and
a (T x n) by (n x R) one for the classical walk, where R is the site count
or, for an input on the mirror axis, the number of orbit rows of the
symmetric sector (about N/2): a mode of zero weight adds exactly nothing,
so the kernel drops it and holds one weighted copy of the rows it keeps.
Both loops are dense matrix products, so the work lands in BLAS;
``perfbench/run.py --trace 1`` times them alone as ``kernels.case_*_s``.
"""

from __future__ import annotations

import numpy as np

#: there is no compiled backend; perfbench/run.py records this in its machine line
USING_NUMBA = False


def quantum_probabilities(eigvals, eigvecs, weights, times):
    """Occupation probabilities p_j(t) = |sum_k V_jk w_k exp(-i lam_k t)|^2.

    ``eigvals`` (n,) are the Hamiltonian's eigenvalues, row j of ``eigvecs``
    (R, n) holds the amplitudes V_jk of the n modes on site (or orbit) j and
    ``weights`` (n,) is the input's own row, w_k = V[input, k].  Returns the
    (T, R) probabilities at ``times`` (T,), one column per row of ``eigvecs``.
    """
    eigvals, scaled = _excited(eigvals, eigvecs, weights)
    # exp(-i lam t) = cos - i sin: one real product gives the real parts
    # (first T rows) and the negated imaginary parts (last T rows)
    waves = np.empty((2, len(times), eigvals.size))
    np.outer(times, eigvals, out=waves[0])  # the phases, then their cosines
    np.sin(waves[0], out=waves[1])
    np.cos(waves[0], out=waves[0])
    amps = waves.reshape(2 * len(times), -1) @ scaled.T
    amps *= amps
    return amps[:len(times)] + amps[len(times):]


def classical_probabilities(eigvals, eigvecs, weights, times):
    """Same contraction for the heat kernel exp(-L t); returns (T, R) floats."""
    eigvals, scaled = _excited(eigvals, eigvecs, weights)
    return np.exp(-np.outer(times, eigvals)) @ scaled.T


def _excited(eigvals, eigvecs, weights):
    """Eigenvalues and weighted rows (one new array) of the modes of non-zero weight."""
    keep = np.flatnonzero(weights)
    scaled = eigvecs[:, keep]
    scaled *= weights[keep]
    return eigvals[keep], scaled


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
