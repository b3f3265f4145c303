"""Propagation: spectra, closed forms, invariances, oracle agreement."""

import functools
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalwalk import evolution
from fractalwalk.cli import walk
from fractalwalk.errors import BoundsError, DomainError, NumericalError, ShapeError
from fractalwalk.evolution import (
    MAX_SERIES_VALUES,
    ProbabilitySeries,
    SeriesKind,
    _block,
    _solve,
    evolve_classical,
    evolve_quantum,
    preset_grid,
    spectral_decompose,
    time_grid,
)
from fractalwalk.geometry import _GEOMETRY
from fractalwalk.hamiltonian import Operator, build_classical_generator, build_hamiltonian
from fractalwalk.lattice import (
    Lattice,
    LatticeKind,
    canonical_input,
    generate,
    mirror_permutation,
)
from fractalwalk.serialize import write_matrix_triplets
from oracle import _bessel_series, chebyshev_probabilities, evolve_oracle


# --- time grids -----------------------------------------------------------

def test_time_grid_shape_and_endpoints():
    grid = time_grid(5.0, 11)
    assert grid.size == 11
    assert grid[0] == 0.0 and grid[-1] == 5.0
    assert np.all(np.diff(grid) > 0)


def test_time_grid_with_positive_start():
    grid = time_grid(2.0, 5, tau_min=1.0)
    assert grid[0] == 1.0 and grid[-1] == 2.0


@pytest.mark.parametrize("args", [(0.0, 10), (5.0, 1), (2.0, 10, 3.0), (-1.0, 10),
                                  (np.inf, 10), (5.0, MAX_SERIES_VALUES + 1),
                                  (5.0, 2 ** 20, 0.0, 65)])
def test_time_grid_rejects_bad_parameters(args):
    with pytest.raises(DomainError):
        time_grid(*args)


def test_a_series_over_too_many_values_is_refused_by_its_grid_and_its_walk(sg4_run):
    # 2^26 / 123 sites: the largest grid the sg:4 walk takes
    steps = MAX_SERIES_VALUES // 123
    message = f"{steps + 1} times x 123 sites is a series of more than {MAX_SERIES_VALUES}"
    assert preset_grid("sg", steps=steps, sites=123).size == steps
    with pytest.raises(DomainError, match=message):
        preset_grid("sg", steps=steps + 1, sites=123)
    # a grid built by the caller is refused before the kernel runs
    with pytest.raises(DomainError, match=message):
        evolve_quantum(sg4_run.spectrum, sg4_run.input_site, time_grid(5.0, steps + 1))


@pytest.mark.parametrize("times,probabilities,input_site,error,message", [
    ([1.0, 0.5], [[0.5, 0.5], [0.5, 0.5]], 0, DomainError, "strictly ascending"),
    ([0.0, 1.0], [[1.0, 0.0]], 0, ShapeError, r"shape \(1, 2\) does not match 2 times"),
    ([0.0], [[1.0, 0.0]], 2, BoundsError, "site id 2 out of range 0..1"),
], ids=["descending-times", "a-row-per-time", "input-site-out-of-range"])
def test_a_series_refuses_a_structure_no_walk_gives(times, probabilities, input_site,
                                                     error, message):
    with pytest.raises(error, match=message):
        ProbabilitySeries(SeriesKind.QUANTUM, input_site, np.array(times),
                          np.array(probabilities))


def test_preset_grids():
    # the kind's row gives (tau_max, steps); a value given takes its place
    for kind in LatticeKind:
        tau_max, steps = _GEOMETRY[kind].grid
        assert np.array_equal(preset_grid(kind), time_grid(tau_max, steps))
        assert np.array_equal(preset_grid(kind, 3.0), time_grid(3.0, steps))
        assert np.array_equal(preset_grid(kind, steps=11, tau_min=1.0),
                              time_grid(tau_max, 11, 1.0))


# --- spectral decomposition -----------------------------------------------

def test_spectrum_properties():
    h = build_hamiltonian(generate("sg", 2))
    spec = spectral_decompose(h)
    # a mirror=None spectrum solves an empty antisymmetric block
    assert spec.sectors == (spec.n, 0)
    empty = np.empty(0, dtype=np.intp)
    assert _block(0, (empty,) * 3, (empty,) * 3).shape == (0, 0)
    assert np.all(np.diff(spec.eigenvalues) >= 0)
    identity = spec.eigenvectors.T @ spec.eigenvectors
    assert np.abs(identity - np.eye(spec.n)).max() < 1e-10
    rebuilt = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T
    assert np.abs(rebuilt - h.matrix).max() < 1e-9


def test_spectral_decompose_rejects_asymmetric():
    with pytest.raises(DomainError):
        spectral_decompose(_as_operator(np.array([[0.0, 1.0], [0.5, 0.0]])))


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


def _count_eigh(monkeypatch, stretch=1.0):
    """Record the size of every block ``evolution._eigh`` solves, and scale
    the first eigenvector it returns by ``stretch``."""
    sizes = []
    eigh = evolution._eigh

    def counted(block):
        sizes.append(block.shape[0])
        values, vectors = eigh(block)
        vectors[:, 0] *= stretch
        return values, vectors

    monkeypatch.setattr(evolution, "_eigh", counted)
    return sizes


@pytest.mark.parametrize("classical", [False, True], ids=["quantum", "classical"])
def test_an_on_axis_walk_solves_only_the_symmetric_block(monkeypatch, classical):
    sizes = _count_eigh(monkeypatch)
    lattice = generate("dsc", 3)
    times = preset_grid(lattice.kind)
    _, spectrum, series = walk(lattice, "auto", times, classical)
    assert series.input_site == canonical_input(lattice)
    assert sizes == [spectrum.sectors[0]]
    off_axis = int(np.flatnonzero(mirror_permutation(lattice) != np.arange(lattice.n_sites))[0])
    (evolve_classical if classical else evolve_quantum)(spectrum, off_axis, times)
    assert spectrum.eigenvectors.shape == (lattice.n_sites, lattice.n_sites)
    assert spectrum.eigenvalues.shape == (lattice.n_sites,)
    assert sizes == list(spectrum.sectors)


def test_the_lazy_block_is_checked_before_use(monkeypatch):
    lattice = generate("sg", 4)
    sigma = mirror_permutation(lattice)
    spectrum = spectral_decompose(build_hamiltonian(lattice), sigma)
    sizes = _count_eigh(monkeypatch, stretch=1.0 + 1e-6)  # orthogonality 2e-6
    times = time_grid(2.0, 5)
    evolve_quantum(spectrum, 0, times)
    assert sizes == []
    off_axis = int(np.flatnonzero(sigma != np.arange(lattice.n_sites))[0])
    with pytest.raises(NumericalError):
        evolve_quantum(spectrum, off_axis, times)
    with pytest.raises(NumericalError):  # the failed solve left nothing behind
        spectrum.eigenvectors
    assert sizes == [spectrum.sectors[1]] * 2
    with pytest.raises(NumericalError):  # and the symmetric block is checked at once
        spectral_decompose(build_hamiltonian(lattice), sigma)


def test_health_figures_cover_the_blocks_solved(monkeypatch):
    lattice = generate("sg", 4)
    spectrum = spectral_decompose(build_hamiltonian(lattice), mirror_permutation(lattice))
    symmetric_only = spectrum.orthogonality
    _count_eigh(monkeypatch, stretch=1.0 + 1e-11)  # within tolerance, far above roundoff
    assert spectrum.eigenvectors.shape == (lattice.n_sites, lattice.n_sites)
    assert symmetric_only < 1e-13
    assert spectrum.orthogonality == pytest.approx(2e-11, rel=1e-3)


@pytest.mark.parametrize("kind,generation", [("sg", 4), ("sc", 3)])
def test_health_figures_are_the_dense_expressions_bit_for_bit(monkeypatch, kind, generation):
    # the orthogonality subtracts 1 from the Gram diagonal in place; each entry
    # takes the float operation of U^T U - I, so the figure must not move
    solved = []
    eigh = evolution._eigh

    def recorded(block):
        copy = block.copy()  # before the eigenvectors overwrite it
        values, vectors = eigh(block)
        solved.append((copy, values.copy(), vectors.copy(order="K")))
        return values, vectors

    monkeypatch.setattr(evolution, "_eigh", recorded)
    lattice = generate(kind, generation)
    spectrum = spectral_decompose(build_hamiltonian(lattice), mirror_permutation(lattice))
    spectrum.eigenvectors
    assert [block.shape[0] for block, _, _ in solved] == list(spectrum.sectors)
    residual = max(float(np.abs((u * lam) @ u.T - block).max(initial=0.0))
                   for block, lam, u in solved)
    ortho = max(float(np.abs(u.T @ u - np.eye(lam.size)).max(initial=0.0))
                for _, lam, u in solved)
    assert spectrum.residual == residual and spectrum.orthogonality == ortho


@pytest.mark.parametrize("kind,generation", [("sc", 3), ("dsc", 3)])
def test_eigh_writes_the_eigenvectors_over_the_block(monkeypatch, kind, generation):
    blocks = []
    eigh = evolution._eigh

    def recorded(block):
        blocks.append(block.copy())
        return eigh(block)

    monkeypatch.setattr(evolution, "_eigh", recorded)
    lattice = generate(kind, generation)
    spectrum = spectral_decompose(build_hamiltonian(lattice), mirror_permutation(lattice))
    monkeypatch.undo()
    (block,) = blocks  # the symmetric block; the antisymmetric one is pending
    want_values, want_vectors = np.linalg.eigh(block.copy())
    values, vectors = evolution._eigh(block)
    assert vectors is block
    assert np.array_equal(values, want_values) and np.array_equal(vectors, want_vectors)
    assert np.array_equal(values, spectrum._sym[0])


def test_a_nan_block_fails_the_eigensolver():
    # the real gufunc, nothing patched: dsyevd does not converge on it
    rows, cols = np.divmod(np.arange(9), 3)
    empty = np.empty(0, dtype=np.intp)
    with pytest.raises(NumericalError, match="eigendecomposition failed for a 3x3 block"):
        _solve(3, (rows, cols, np.full(9, np.nan)), (empty, empty, np.empty(0)), 1.0)


def test_an_on_axis_walk_holds_one_weighted_copy_of_the_orbit_rows(dsc3_run):
    # over two times, the orbit rows scaled by the input's weights are the
    # largest array of the kernel: one R x n copy, not the kept columns and
    # their product as well
    spectrum, site = dsc3_run.spectrum, dsc3_run.input_site
    _, rows, orbit = spectrum._orbit_rows(site)
    weighted = rows.shape[0] * np.count_nonzero(rows[orbit[site]]) * rows.itemsize
    tracemalloc.start()
    try:
        evolve_quantum(spectrum, site, np.array([0.0, 1.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert weighted < peak < 1.5 * weighted


@pytest.mark.parametrize("kind,generation", [("sg", 4), ("sc", 3), ("dsc", 3)])
def test_assembled_eigenvectors_meet_the_site_space_bounds(kind, generation):
    # the blocks are checked, not V; the map between them is orthogonal,
    # so V must still pass the bounds the full decomposition was held to
    lattice = generate(kind, generation)
    h = build_hamiltonian(lattice).matrix
    spectrum = spectral_decompose(_as_operator(h), mirror_permutation(lattice))
    assert spectrum.sectors[1] > 0
    v, lam = spectrum.eigenvectors, spectrum.eigenvalues
    assert np.abs((v * lam) @ v.T - h).max() <= 1e-9 * max(1.0, float(np.abs(h).max()))
    assert np.abs(v.T @ v - np.eye(lattice.n_sites)).max() <= 1e-10
    assert spectrum.residual <= 1e-9 and spectrum.orthogonality <= 1e-10


def _mirror_tied_matrix(lattice, sigma, draw_weight, classical):
    """Adjacency (or Laplacian) of ``lattice`` with a random weight per
    edge, the same on an edge and its mirror image."""
    index = {edge: k for k, edge in enumerate(map(tuple, lattice.edges.tolist()))}
    weights = {}
    m = np.zeros((lattice.n_sites, lattice.n_sites))
    for k, (i, j) in enumerate(lattice.edges.tolist()):
        image = index[tuple(sorted((int(sigma[i]), int(sigma[j]))))]
        orbit = min(k, image)
        if orbit not in weights:
            weights[orbit] = draw_weight()
        m[i, j] = m[j, i] = weights[orbit]
    if classical:
        # sorted rows sum mirror-image sites in the same order, so the
        # diagonal commutes with the mirror exactly
        m = np.diag(np.sort(m, axis=1).sum(axis=1)) - m
    return m


@settings(max_examples=15, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("classical", [False, True], ids=["quantum", "classical"])
@pytest.mark.parametrize("kind,generation", [("sg", 3), ("dsc", 2)])
def test_sector_route_matches_the_full_route_on_random_weights(kind, generation, classical,
                                                               data):
    lattice = generate(kind, generation)
    sigma = mirror_permutation(lattice)
    weight = st.floats(0.25, 2.0)
    m = _mirror_tied_matrix(lattice, sigma, lambda: data.draw(weight), classical)
    split, full = spectral_decompose(_as_operator(m), sigma), spectral_decompose(_as_operator(m))
    assert np.abs(split.eigenvalues - full.eigenvalues).max() < 1e-12
    evolve = evolve_classical if classical else evolve_quantum
    off_axis = data.draw(st.sampled_from(np.flatnonzero(sigma != np.arange(lattice.n_sites)).tolist()))
    times = time_grid(10.0, 41)
    for site in (canonical_input(lattice), off_axis):
        gap = evolve(split, site, times).probabilities - evolve(full, site, times).probabilities
        assert np.abs(gap).max() < 1e-12


def _as_operator(matrix):
    rows, cols = np.nonzero(matrix)
    return Operator(matrix.shape[0], rows, cols, matrix[rows, cols])


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
        spectral_decompose(_as_operator(matrix), np.array(mirror))


@pytest.mark.parametrize("mirror", [
    [1, 2, 0],        # commutes with the all-ones matrix, but of order three
    [1, 0],           # wrong length
    [0, 1, 3],        # a site that does not exist
    [0.0, 1.0, 2.0],  # not integers
], ids=["three_cycle", "length", "range", "dtype"])
def test_mirror_must_be_an_involution_of_the_sites(mirror):
    with pytest.raises(DomainError):
        spectral_decompose(_as_operator(np.ones((3, 3))), np.array(mirror))


@pytest.mark.parametrize("triplets", [
    ([0], [1], [1.0]),                   # no (1, 0) entry
    ([0, 1], [1, 0], [1.0, 0.5]),        # (1, 0) differs
    ([0, 0, 1, 1], [1, 1, 0, 0], [1.0] * 4),  # each entry twice
], ids=["missing", "unequal", "repeated"])
def test_spectral_decompose_rejects_an_asymmetric_operator(triplets):
    rows, cols, values = (np.array(t) for t in triplets)
    with pytest.raises(DomainError):
        spectral_decompose(Operator(2, rows, cols, values))


def _build(lattice, classical):
    if classical:
        return build_classical_generator(lattice, rate=0.7)
    return build_hamiltonian(lattice, beta=0.3, coupling=1.5)


@pytest.mark.parametrize("classical", [False, True], ids=["quantum", "classical"])
@pytest.mark.parametrize("kind,generation", [("sg", 4), ("sc", 3), ("dsc", 3)])
def test_the_triplet_route_is_bit_identical_to_the_dense_route(kind, generation, classical):
    lattice = generate(kind, generation)
    operator = _build(lattice, classical)
    sigma = mirror_permutation(lattice)
    triplets = spectral_decompose(operator, sigma)
    dense = spectral_decompose(_as_operator(operator.matrix), sigma)
    site = canonical_input(lattice)
    for got, want in zip(triplets._orbit_rows(site), dense._orbit_rows(site)):
        assert np.array_equal(got, want)
    assert triplets.sectors == dense.sectors and triplets.sectors[1] > 0
    for spectrum in (triplets, dense):  # the lazily assembled block, solved
        spectrum.eigenvectors
    assert np.array_equal(triplets.eigenvalues, dense.eigenvalues)
    assert np.array_equal(triplets.eigenvectors, dense.eigenvectors)
    assert (triplets.residual, triplets.orthogonality) == (dense.residual, dense.orthogonality)


def _dense_matrix_read(self):
    raise AssertionError("the walk path read Operator.matrix")


# SHA-256 of the dsc:3 matrix dumps at beta 0.3 and coupling 1.5, and at
# rate 0.7, recorded from the dense assembly: the triplet form must keep them
DSC3_DUMPS = {
    False: "7c0da04e34f0064bb3bc9c5a783a862e1da74096670d86988df3258fea0ec0e3",
    True: "53411c0826ef6056b17efbee06b80875f6f577ab4a7ee5db7e8bb0a5b910857f",
}


@pytest.mark.parametrize("classical", [False, True], ids=["quantum", "classical"])
def test_the_walk_path_never_builds_the_dense_matrix(monkeypatch, tmp_path, classical):
    lattice = generate("dsc", 3)
    params = {"rate": 0.7} if classical else {"beta": 0.3, "coupling": 1.5}
    times = time_grid(5.0, 11)
    off_axis = int(np.flatnonzero(mirror_permutation(lattice) != np.arange(lattice.n_sites))[0])
    sizes = _count_eigh(monkeypatch)
    dump = tmp_path / "matrix.txt"
    with monkeypatch.context() as patch:
        patch.setattr(Operator, "matrix", property(_dense_matrix_read))
        for selector in ("auto", off_axis):
            operator, spectrum, _ = walk(lattice, selector, times, classical, **params)
        assert sizes == [spectrum.sectors[0], *spectrum.sectors]  # the lazy block was solved too
        write_matrix_triplets(operator, str(dump))
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == DSC3_DUMPS[classical]


@settings(max_examples=20, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("kind,generation", [("sg", 3), ("dsc", 2)])
def test_one_off_axis_edge_breaks_the_mirror(kind, generation, data):
    lattice = generate(kind, generation)
    sigma = mirror_permutation(lattice)
    edges = set(map(tuple, lattice.edges.tolist()))

    def off_axis(pairs):
        # a pair whose mirror image is another pair
        return sorted(p for p in pairs if tuple(sorted((sigma[p[0]], sigma[p[1]]))) != p)

    if data.draw(st.booleans(), label="add"):
        n = lattice.n_sites
        absent = {(i, j) for i in range(n) for j in range(i + 1, n)} - edges
        edges.add(data.draw(st.sampled_from(off_axis(absent)), label="added"))
    else:
        edges.remove(data.draw(st.sampled_from(off_axis(edges)), label="removed"))
    perturbed = Lattice(lattice.kind, lattice.generation, lattice.coords,
                        np.array(sorted(edges), dtype=np.int64))
    assert np.array_equal(mirror_permutation(perturbed), np.arange(lattice.n_sites))
    operator = _build(perturbed, data.draw(st.booleans(), label="classical"))
    for route in (operator, _as_operator(operator.matrix)):
        with pytest.raises(DomainError):
            spectral_decompose(route, sigma)


# --- site relabelling -----------------------------------------------------

@functools.lru_cache(maxsize=None)
def _canonical_walks(kind, generation):
    """The quantum and the classical walk from the canonical input."""
    lattice = generate(kind, generation)
    times = preset_grid(lattice.kind)
    return lattice, times, [walk(lattice, "auto", times, classical) for classical in (False, True)]


def _relabelled(lattice, perm):
    """The same lattice with site i renamed perm[i], its edges re-sorted."""
    coords = np.empty_like(lattice.coords)
    coords[perm] = lattice.coords
    edges = np.sort(perm[lattice.edges], axis=1)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    return Lattice(lattice.kind, lattice.generation, coords, edges)


@settings(max_examples=20, deadline=None)
@given(case=st.sampled_from([("sg", 4), ("sc", 3), ("dsc", 3)]), data=st.data())
def test_the_walk_does_not_depend_on_the_site_labels(case, data):
    # the input, the mirror and both sectors follow the coordinates, so a
    # relabelled lattice walks the same once its columns are put back
    lattice, times, canonical = _canonical_walks(*case)
    perm = np.array(data.draw(st.permutations(range(lattice.n_sites)), label="perm"))
    relabelled = _relabelled(lattice, perm)
    for classical, (_, spectrum, series) in zip((False, True), canonical):
        _, new_spectrum, new_series = walk(relabelled, "auto", times, classical)
        assert new_series.input_site == perm[series.input_site]
        assert new_spectrum.sectors == spectrum.sectors
        gap = new_series.probabilities[:, perm] - series.probabilities
        assert np.abs(gap).max() < 1e-12


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


@pytest.mark.parametrize("on_axis", [True, False], ids=["canonical", "off-axis"])
def test_return_amplitude_matches_series(sg2_run, on_axis):
    # the series' return column against the eigh-free propagator; an input
    # off the mirror axis takes the antisymmetric solve
    lattice = sg2_run.lattice
    site = (sg2_run.input_site if on_axis else
            int(np.flatnonzero(mirror_permutation(lattice) != np.arange(lattice.n_sites))[0]))
    series = walk(lattice, site, sg2_run.series.times)[2]
    idx = 40
    amp = evolve_oracle(build_hamiltonian(lattice), site, series.times[idx])[site]
    assert abs(amp) ** 2 == pytest.approx(series.probabilities[idx, site], abs=1e-12)


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


# the two below corrupt a spectrum after its block checks passed, so that
# only the row checks of the evolution stand between it and a series

def test_numerical_guard_rejects_corrupt_spectrum(pair):
    bad = spectral_decompose(build_hamiltonian(pair))
    eigenvalues, rows = bad._sym
    bad._sym = eigenvalues, rows * 1.5  # breaks normalisation
    with pytest.raises(NumericalError):
        evolve_quantum(bad, 0, np.array([0.5, 1.0]))


def test_numerical_guard_rejects_a_nan_eigenvalue(pair):
    bad = spectral_decompose(build_hamiltonian(pair))
    eigenvalues, rows = bad._sym
    bad._sym = np.concatenate(([np.nan], eigenvalues[1:])), rows
    with pytest.raises(NumericalError):
        evolve_quantum(bad, 0, np.array([0.5, 1.0]))


def test_spectral_checks_reject_a_nan_eigenvector(monkeypatch):
    _count_eigh(monkeypatch, stretch=np.nan)
    with pytest.raises(NumericalError):
        spectral_decompose(build_hamiltonian(generate("sg", 3)))


@pytest.mark.parametrize("modified", [False, True], ids=["J", "I"])
def test_chebyshev_coefficients_match_scipy(modified):
    from scipy.special import ive, jv
    x = np.array([0.0, 1e-3, 0.2, 5.0, 37.3, 150.0])
    series = _bessel_series(x, modified)
    k = np.arange(len(series))[:, None]
    want = np.where(k > 0, 2.0, 1.0) * (ive(k, x) if modified else jv(k, x))
    assert np.abs(series - want).max() < 1e-13


@pytest.mark.parametrize("classical", [False, True], ids=["quantum", "classical"])
@pytest.mark.parametrize("kind,generation", [("sg", 4), ("sc", 3), ("dsc", 3)])
def test_the_walk_matches_the_chebyshev_oracle(kind, generation, classical):
    # the sector route against a propagator that never solves an eigenproblem,
    # from the canonical input (symmetric block only) and from one off the
    # mirror axis (the lazily solved antisymmetric block as well)
    lattice = generate(kind, generation)
    params = {"rate": 0.7} if classical else {"beta": 0.3, "coupling": 1.5}
    times = preset_grid(lattice.kind)
    operator, spectrum, series = walk(lattice, "auto", times, classical, **params)
    off_axis = int(np.flatnonzero(mirror_permutation(lattice) != np.arange(lattice.n_sites))[0])
    evolve = evolve_classical if classical else evolve_quantum
    for start, probs in ((series.input_site, series.probabilities),
                         (off_axis, evolve(spectrum, off_axis, times).probabilities)):
        oracle = chebyshev_probabilities(operator, start, times, classical)
        assert np.abs(probs - oracle).max() < 1e-12, start
