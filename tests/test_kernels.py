"""Probability and splat kernels against direct formulas."""

import subprocess
import sys

import numpy as np

from fractalwalk import kernels


def random_spectrum(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    m = (m + m.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(m)
    return eigvals, eigvecs


def test_splat_matches_per_pixel_formula():
    rng = np.random.default_rng(5)
    xs = rng.uniform(0.0, 4.0, 9)
    ys = rng.uniform(0.0, 4.0, 9)
    probs = rng.uniform(0.0, 1.0, 9)
    x0, y_top, inv_pps, width, height, sigma = -1.0, 5.0, 0.125, 48, 40, 0.35
    image = kernels.gaussian_splat(xs, ys, probs, x0, y_top, inv_pps, width, height, sigma)
    expected = np.zeros((height, width))
    for r in range(height):
        py = y_top - (r + 0.5) * inv_pps
        for c in range(width):
            px = x0 + (c + 0.5) * inv_pps
            for x, y, p in zip(xs, ys, probs):
                d2 = (px - x) ** 2 + (py - y) ** 2
                expected[r, c] += p * np.exp(-d2 / (2.0 * sigma * sigma))
    assert image.shape == (height, width)
    assert np.abs(image - expected).max() < 1e-12


def test_quantum_rows_normalised_for_orthonormal_input():
    eigvals, eigvecs = random_spectrum(8, 6)
    weights = np.ascontiguousarray(eigvecs[2, :])
    times = np.linspace(0.0, 3.0, 11)
    probs = kernels.quantum_probabilities(eigvals, eigvecs, weights, times)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12


def test_quantum_kernel_matches_the_complex_sum():
    # a column subset, as the evolution passes it: N = 8 sites, n = 5 modes
    eigvals, eigvecs = random_spectrum(8, 7)
    keep = np.array([0, 2, 3, 5, 7])
    lam, vecs, weights = eigvals[keep], eigvecs[:, keep], eigvecs[2, keep]
    times = np.linspace(0.0, 3.0, 11)
    probs = kernels.quantum_probabilities(lam, vecs, weights, times)
    expected = np.zeros((times.size, 8))
    for i, t in enumerate(times):
        for j in range(8):
            amp = sum(vecs[j, k] * weights[k] * np.exp(-1j * lam[k] * t) for k in range(5))
            expected[i, j] = abs(amp) ** 2
    assert probs.shape == (11, 8)
    assert np.abs(probs - expected).max() < 1e-14


def test_import_pulls_in_neither_scipy_nor_numba():
    code = (
        "import sys, fractalwalk\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] in ('scipy', 'numba')]\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
