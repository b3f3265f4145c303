"""Hamiltonian and Laplacian assembly."""

import numpy as np
import pytest

from fractalwalk.errors import DomainError
from fractalwalk.hamiltonian import build_classical_generator, build_hamiltonian
from fractalwalk.lattice import generate
from fractalwalk.serialize import matrix_triplet_text


def test_hamiltonian_matches_edge_set():
    lat = generate("dsc", 1)
    h = build_hamiltonian(lat, beta=0.25, coupling=1.5)
    m = h.matrix
    assert m.shape == (8, 8)
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == 0.25)
    edge_set = {tuple(e) for e in lat.edges.tolist()}
    for i in range(8):
        for j in range(i + 1, 8):
            expected = 1.5 if (i, j) in edge_set else 0.0
            assert m[i, j] == expected


def test_hamiltonian_offdiagonal_count():
    lat = generate("sg", 3)
    h = build_hamiltonian(lat)
    assert int(np.count_nonzero(h.matrix)) == 2 * lat.n_edges


@pytest.mark.parametrize("coupling", [0.0, -1.0])
def test_coupling_must_be_positive(coupling):
    with pytest.raises(DomainError):
        build_hamiltonian(generate("sg", 1), coupling=coupling)


def test_laplacian_rows_sum_to_zero():
    lat = generate("sc", 2)
    # integer degrees at unit rate: row sums cancel exactly
    default = build_classical_generator(lat)
    assert np.all(default.matrix.sum(axis=1) == 0.0)
    scaled = build_classical_generator(lat, rate=0.7)
    assert np.abs(scaled.matrix.sum(axis=1)).max() < 1e-12
    assert np.array_equal(np.diag(scaled.matrix), 0.7 * lat.degrees())


def test_laplacian_is_positive_semidefinite():
    gen = build_classical_generator(generate("sg", 3))
    eigvals = np.linalg.eigvalsh(gen.matrix)
    assert eigvals.min() > -1e-12
    # connected graph: exactly one zero mode
    assert np.sum(np.abs(eigvals) < 1e-10) == 1


@pytest.mark.parametrize("rate", [0.0, -0.5])
def test_rate_must_be_positive(rate):
    with pytest.raises(DomainError):
        build_classical_generator(generate("sg", 1), rate=rate)


def test_matrix_triplets_round_trip():
    lat = generate("dsc", 1)
    h = build_hamiltonian(lat, coupling=2.0)
    triplets = [
        (int(r), int(c), float(v))
        for r, c, v in (line.split() for line in matrix_triplet_text(h).splitlines())
    ]
    assert triplets == sorted(triplets)
    rebuilt = np.zeros_like(h.matrix)
    for r, c, v in triplets:
        rebuilt[r, c] = v
    assert np.array_equal(rebuilt, h.matrix)


def test_matrix_is_frozen():
    h = build_hamiltonian(generate("sg", 1))
    with pytest.raises(ValueError):
        h.matrix[0, 0] = 5.0
    for triplet in (h.rows, h.cols, h.values):
        with pytest.raises(ValueError):
            triplet[0] = 5
