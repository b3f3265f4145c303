"""Propagation: spectra, closed forms, invariances, oracle agreement."""

import numpy as np
import pytest

from fractalwalk.errors import BoundsError, DomainError, NumericalError
from fractalwalk.evolution import (
    GRID_PRESETS,
    evolve_classical,
    evolve_oracle,
    evolve_quantum,
    preset_grid,
    return_amplitude,
    spectral_decompose,
    time_grid,
)
from fractalwalk.hamiltonian import build_classical_generator, build_hamiltonian
from fractalwalk.lattice import LatticeKind, generate


# --- time grids -----------------------------------------------------------

def test_time_grid_shape_and_endpoints():
    grid = time_grid(5.0, 11)
    assert grid.size == 11
    assert grid[0] == 0.0 and grid[-1] == 5.0
    assert np.all(np.diff(grid) > 0)


def test_time_grid_with_positive_start():
    grid = time_grid(2.0, 5, tau_min=1.0)
    assert grid[0] == 1.0 and grid[-1] == 2.0


@pytest.mark.parametrize("args", [(0.0, 10), (5.0, 1), (2.0, 10, 3.0), (-1.0, 10)])
def test_time_grid_rejects_bad_parameters(args):
    with pytest.raises(DomainError):
        time_grid(*args)


def test_preset_grids():
    for kind in LatticeKind:
        grid = preset_grid(kind)
        tau_max, steps = GRID_PRESETS[kind]
        assert grid.size == steps and grid[-1] == tau_max


# --- spectral decomposition -----------------------------------------------

def test_spectrum_properties():
    h = build_hamiltonian(generate("sg", 2))
    spec = spectral_decompose(h)
    assert np.all(np.diff(spec.eigenvalues) >= 0)
    identity = spec.eigenvectors.T @ spec.eigenvectors
    assert np.abs(identity - np.eye(spec.n)).max() < 1e-10
    rebuilt = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T
    assert np.abs(rebuilt - h.matrix).max() < 1e-9


def test_spectral_decompose_accepts_plain_arrays():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    spec = spectral_decompose(m)
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0])


def test_spectral_decompose_rejects_nonsquare():
    with pytest.raises(DomainError):
        spectral_decompose(np.zeros((3, 2)))


def test_spectral_decompose_rejects_asymmetric():
    with pytest.raises(DomainError):
        spectral_decompose(np.array([[0.0, 1.0], [0.5, 0.0]]))


# --- closed forms on the two-site pair ------------------------------------

def test_two_site_quantum_transfer_is_sin_squared(pair):
    spec = spectral_decompose(build_hamiltonian(pair))
    grid = time_grid(8.0, 257)
    series = evolve_quantum(spec, 0, grid)
    assert np.abs(series.probabilities[:, 1] - np.sin(grid) ** 2).max() < 1e-10
    assert np.abs(series.probabilities[:, 0] - np.cos(grid) ** 2).max() < 1e-10


def test_two_site_classical_relaxation(pair):
    spectrum = spectral_decompose(build_classical_generator(pair))
    grid = time_grid(8.0, 257)
    series = evolve_classical(spectrum, 0, grid)
    expected = (1.0 - np.exp(-2.0 * grid)) / 2.0
    assert np.abs(series.probabilities[:, 1] - expected).max() < 1e-10


# --- invariances ----------------------------------------------------------

def test_onsite_constant_drops_out_of_probabilities():
    lat = generate("sg", 2)
    grid = time_grid(6.0, 61)
    base = evolve_quantum(spectral_decompose(build_hamiltonian(lat, beta=0.0)), 0, grid)
    shifted = evolve_quantum(spectral_decompose(build_hamiltonian(lat, beta=1.7)), 0, grid)
    assert np.abs(base.probabilities - shifted.probabilities).max() < 1e-9


def test_coupling_rescales_time():
    lat = generate("dsc", 1)
    grid = time_grid(3.0, 31)
    slow = evolve_quantum(spectral_decompose(build_hamiltonian(lat, coupling=1.0)), 0, 2.0 * grid[1:])
    fast = evolve_quantum(spectral_decompose(build_hamiltonian(lat, coupling=2.0)), 0, grid[1:])
    assert np.abs(slow.probabilities - fast.probabilities).max() < 1e-9


def test_quantum_rows_are_normalised(sg2_run):
    sums = sg2_run.series.probabilities.sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-9
    assert sg2_run.series.probabilities.min() >= 0.0


def test_classical_rows_are_normalised_and_equilibrate():
    lat = generate("dsc", 1)
    spectrum = spectral_decompose(build_classical_generator(lat))
    series = evolve_classical(spectrum, 0, np.array([0.0, 1.0, 50.0]))
    assert np.abs(series.probabilities.sum(axis=1) - 1.0).max() < 1e-9
    assert np.abs(series.probabilities[-1] - 1.0 / lat.n_sites).max() < 1e-9


@pytest.mark.parametrize("run_name", ["sg4_run", "sc3_run", "dsc3_run"])
def test_walk_is_mirror_symmetric_about_the_input_axis(request, run_name):
    # the gasket mirrors about the vertical axis through its apex, the
    # carpets about the anti-diagonal through their top-left site
    run = request.getfixturevalue(run_name)
    d = run.lattice.coords - run.lattice.coords[run.input_site]
    if run.lattice.kind is LatticeKind.SG:
        mirrored = np.column_stack((-d[:, 0], d[:, 1]))
    else:
        mirrored = np.column_stack((-d[:, 1], -d[:, 0]))
    gap = np.abs(mirrored[:, None, :] - d[None, :, :]).max(axis=2)
    image = gap.argmin(axis=1)
    assert gap[np.arange(len(image)), image].max() < 1e-9
    probs = run.series.probabilities
    assert np.abs(probs - probs[:, image]).max() < 1e-12


# --- oracle agreement -----------------------------------------------------

def test_spectral_route_matches_series_oracle():
    lat = generate("dsc", 1)
    h = build_hamiltonian(lat)
    spec = spectral_decompose(h)
    for tau in (0.3, 1.7, 4.2):
        series = evolve_quantum(spec, 0, np.array([tau]))
        psi = evolve_oracle(h, 0, tau)
        assert np.abs(series.probabilities[0] - np.abs(psi) ** 2).max() < 1e-8


def test_oracle_rejects_negative_time():
    h = build_hamiltonian(generate("dsc", 1))
    with pytest.raises(DomainError):
        evolve_oracle(h, 0, -1.0)


def test_return_amplitude_matches_series(sg2_run):
    idx = 40
    tau = sg2_run.series.times[idx]
    amp = return_amplitude(sg2_run.spectrum, sg2_run.input_site, tau)
    assert abs(amp) ** 2 == pytest.approx(
        sg2_run.series.probabilities[idx, sg2_run.input_site], abs=1e-12
    )


# --- input validation -----------------------------------------------------

def test_times_must_ascend(pair):
    spec = spectral_decompose(build_hamiltonian(pair))
    with pytest.raises(DomainError):
        evolve_quantum(spec, 0, np.array([0.0, 2.0, 1.0]))
    with pytest.raises(DomainError):
        evolve_quantum(spec, 0, np.array([-1.0, 1.0]))


def test_input_site_bounds(pair):
    spec = spectral_decompose(build_hamiltonian(pair))
    with pytest.raises(BoundsError):
        evolve_quantum(spec, 2, np.array([1.0]))


def test_numerical_guard_rejects_corrupt_spectrum(pair):
    spec = spectral_decompose(build_hamiltonian(pair))
    bad = type(spec)(
        eigenvalues=spec.eigenvalues.copy(),
        eigenvectors=spec.eigenvectors * 1.5,  # breaks normalisation
    )
    with pytest.raises(NumericalError):
        evolve_quantum(bad, 0, np.array([0.5, 1.0]))
