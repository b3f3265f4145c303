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
from fractalwalk.lattice import LatticeKind, generate, mirror_permutation


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


MIRROR_RUNS = ["sg4_run", "sc3_run", "dsc3_run"]


@pytest.mark.parametrize(
    "run_name,full", [(name, full) for full in (False, True) for name in MIRROR_RUNS],
    ids=MIRROR_RUNS + [name + "-no_mirror" for name in MIRROR_RUNS],
)
def test_walk_is_mirror_symmetric_about_the_input_axis(request, run_name, full):
    # the gasket mirrors about the vertical axis through its apex, the
    # carpets about the anti-diagonal through their top-left site.  The
    # fixture runs decompose by mirror sector, which builds the symmetry
    # in; the no_mirror cases decompose all of H, where it is physics.
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
    if full:
        spectrum = spectral_decompose(build_hamiltonian(run.lattice))
        assert spectrum.sectors == (run.lattice.n_sites, 0)
        probs = evolve_quantum(spectrum, run.input_site, run.series.times).probabilities
    assert np.abs(probs - probs[:, image]).max() < 1e-12


@pytest.mark.parametrize("classical", [False, True], ids=["quantum", "classical"])
@pytest.mark.parametrize("kind,generation", [("sg", 4), ("sc", 3), ("dsc", 3)])
def test_mirror_sectors_match_the_full_decomposition(kind, generation, classical):
    lattice = generate(kind, generation)
    operator = (build_classical_generator if classical else build_hamiltonian)(lattice)
    sigma = mirror_permutation(lattice)
    split = spectral_decompose(operator, sigma)
    full = spectral_decompose(operator)
    n_pairs = int((sigma != np.arange(lattice.n_sites)).sum()) // 2
    assert split.sectors == (lattice.n_sites - n_pairs, n_pairs) and n_pairs > 0
    scale = max(1.0, float(np.abs(operator.matrix).max()))
    assert np.abs(split.eigenvalues - full.eigenvalues).max() < 1e-12 * scale
    evolve = evolve_classical if classical else evolve_quantum
    times = preset_grid(lattice.kind)
    on_axis = 0
    off_axis = int(np.flatnonzero(sigma != np.arange(lattice.n_sites))[0])
    assert sigma[on_axis] == on_axis
    for site in (on_axis, off_axis):
        gap = evolve(split, site, times).probabilities - evolve(full, site, times).probabilities
        assert np.abs(gap).max() < 1e-12


def test_spectrum_keeps_its_health_figures(sg4_run):
    spectrum = sg4_run.spectrum
    assert spectrum.sectors == (64, 59)
    assert 0.0 < spectrum.residual < 1e-12
    assert 0.0 < spectrum.orthogonality < 1e-12
    with pytest.raises(AttributeError):
        spectrum.residual = 0.0


def _path_matrix(n, edges, diagonal=None):
    m = np.zeros((n, n)) if diagonal is None else np.diag(diagonal)
    for i, j in edges:
        m[i, j] = m[j, i] = 1.0
    return m


# each involution breaks one of the three block identities that commuting
# means: H_fb = H_fa, H_bb = H_aa and H_ab = H_ab^T
@pytest.mark.parametrize("matrix,mirror", [
    (_path_matrix(3, [(0, 1), (1, 2)]), [0, 2, 1]),
    (_path_matrix(3, [(0, 1), (0, 2)], diagonal=[0.0, 1.0, 2.0]), [0, 2, 1]),
    (_path_matrix(4, [(0, 1), (0, 3), (2, 3)]), [1, 0, 3, 2]),
], ids=["fixed_to_pair", "within_pairs", "across_pairs"])
def test_mirror_must_commute_with_the_matrix(matrix, mirror):
    with pytest.raises(DomainError):
        spectral_decompose(matrix, np.array(mirror))


@pytest.mark.parametrize("mirror", [
    [1, 2, 0],        # commutes with the all-ones matrix, but of order three
    [1, 0],           # wrong length
    [0, 1, 3],        # a site that does not exist
    [0.0, 1.0, 2.0],  # not integers
], ids=["three_cycle", "length", "range", "dtype"])
def test_mirror_must_be_an_involution_of_the_sites(mirror):
    with pytest.raises(DomainError):
        spectral_decompose(np.ones((3, 3)), np.array(mirror))


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
