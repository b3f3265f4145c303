"""Timing of the three hot kernels.

Times the kernels on workload-shaped inputs: probability evaluation over
a full preset grid for the generation-4 gasket and the generation-3
carpet, classical evolution on the gasket, and one default-quality frame
splat.  Run from the repository root:

    python benchmarks/bench_kernels.py [--repeats N]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from fractalwalk import kernels
from fractalwalk.evolution import preset_grid, spectral_decompose
from fractalwalk.hamiltonian import build_classical_generator, build_hamiltonian
from fractalwalk.lattice import canonical_input, generate
from fractalwalk.render import RenderSpec, frame_geometry


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def spectral_args(kind: str, generation: int):
    lattice = generate(kind, generation)
    spectrum = spectral_decompose(build_hamiltonian(lattice))
    weights = np.ascontiguousarray(spectrum.eigenvectors[canonical_input(lattice), :])
    times = preset_grid(lattice.kind)
    return lattice, (spectrum.eigenvalues, spectrum.eigenvectors, weights, times)


def classical_args(kind: str, generation: int):
    lattice = generate(kind, generation)
    spectrum = spectral_decompose(build_classical_generator(lattice))
    weights = np.ascontiguousarray(spectrum.eigenvectors[canonical_input(lattice), :])
    times = preset_grid(lattice.kind)
    return spectrum.eigenvalues, spectrum.eigenvectors, weights, times


def splat_args(kind: str, generation: int):
    lattice = generate(kind, generation)
    spec = RenderSpec()
    width, height, x0, y_top = frame_geometry(lattice, spec)
    probs = np.full(lattice.n_sites, 1.0 / lattice.n_sites)
    return (
        np.ascontiguousarray(lattice.coords[:, 0]),
        np.ascontiguousarray(lattice.coords[:, 1]),
        probs, x0, y_top, 1.0 / spec.pixels_per_spacing, width, height,
        spec.spot_sigma,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repetitions per case; the best is reported")
    args = parser.parse_args()

    sg, sg_spectral = spectral_args("sg", 4)
    sc, sc_spectral = spectral_args("sc", 3)
    cases = [
        (f"quantum  sg:4  ({sg.n_sites} sites x 501 times)",
         kernels.quantum_probabilities, sg_spectral),
        (f"quantum  sc:3  ({sc.n_sites} sites x 241 times)",
         kernels.quantum_probabilities, sc_spectral),
        ("classical sg:4 (123 sites x 501 times)",
         kernels.classical_probabilities, classical_args("sg", 4)),
        ("splat    sg:4  (one 24 px/spacing frame)",
         kernels.gaussian_splat, splat_args("sg", 4)),
    ]

    header = f"{'case':<42} {'best':>10}"
    print(header)
    print("-" * len(header))
    for name, fn, fn_args in cases:
        seconds = best_of(lambda: fn(*fn_args), args.repeats)
        print(f"{name:<42} {seconds * 1e3:8.2f}ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
