"""Walk operators of a lattice: the quantum Hamiltonian, the classical Laplacian.

Both are the lattice's connectivity matrix with a uniform value on every
edge and a per-site diagonal, so one ``Operator`` type holds either and
one ``_assemble`` builds both.  An operator is kept in triplet form, one
(row, col, value) per entry: each edge in both directions, then the
diagonal.  With nearest-neighbour coupling that is O(N + E) numbers.  The
package reads no other form: ``evolution.spectral_decompose`` scatters its
mirror-sector blocks straight from the triplets, and the matrix dumps sort
and print them.  ``Operator.matrix`` builds the dense N x N matrix on each
read; only the tests and ``perfbench``'s tracer read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_finite, check_positive
from .lattice import Lattice


@dataclass(frozen=True)
class Operator:
    """Real-symmetric walk operator of ``n`` sites as read-only triplets:
    ``values[k]`` at (``rows[k]``, ``cols[k]``), each position at most once,
    zero elsewhere."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for triplet in (self.rows, self.cols, self.values):
            triplet.setflags(write=False)

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix, built on each read (read-only)."""
        m = np.zeros((self.n, self.n))
        m[self.rows, self.cols] = self.values
        m.setflags(write=False)
        return m


def _assemble(lattice: Lattice, edge_value: float, diagonal) -> Operator:
    """``edge_value`` at (i, j) and (j, i) for every edge, ``diagonal`` (a
    scalar or one value per site) on the diagonal, zero elsewhere."""
    n, halves = lattice.n_sites, 2 * lattice.n_edges
    i, j = lattice.edges[:, 0], lattice.edges[:, 1]
    sites = np.arange(n)
    values = np.empty(halves + n)
    values[:halves] = edge_value
    values[halves:] = diagonal
    return Operator(n, np.concatenate((i, j, sites)), np.concatenate((j, i, sites)), values)


def build_hamiltonian(lattice: Lattice, beta: float = 0.0, coupling: float = 1.0) -> Operator:
    """Tight-binding Hamiltonian: ``coupling`` on every edge and the
    uniform on-site constant ``beta`` on the diagonal.  A beta shift is a
    global phase and drops out of all occupation probabilities.  DomainError
    unless beta is finite and the coupling finite and above zero."""
    check_finite(beta=beta)
    check_positive(coupling=coupling)
    return _assemble(lattice, coupling, beta)


def build_classical_generator(lattice: Lattice, rate: float = 1.0) -> Operator:
    """Graph Laplacian L = rate * (Degree - Adjacency) of the classical
    continuous-time walk.  ``rate`` is the per-edge hopping rate, finite and
    above zero (else DomainError); rows sum to zero exactly."""
    check_positive(rate=rate)
    return _assemble(lattice, -rate, rate * lattice.degrees())
