"""Walk operators of a lattice: the quantum Hamiltonian, the classical Laplacian.

Both are the lattice's connectivity matrix with a uniform value on every
edge and a per-site diagonal, so one ``Operator`` type holds either and
one ``_assemble`` builds both.  The builders return a holder of the dense
matrix rather than the bare array: the holder keeps the matrix read-only,
and ``perfbench/trace_child.py`` reads ``.matrix`` from what they return.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .lattice import Lattice


@dataclass(frozen=True)
class Operator:
    """Dense real-symmetric walk operator of a lattice (read-only)."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


def _assemble(lattice: Lattice, edge_value: float, diagonal) -> Operator:
    """``edge_value`` at (i, j) and (j, i) for every edge, ``diagonal`` (a
    scalar or one value per site) on the diagonal, zero elsewhere."""
    n = lattice.n_sites
    m = np.zeros((n, n))
    i, j = lattice.edges[:, 0], lattice.edges[:, 1]
    m[i, j] = edge_value
    m[j, i] = edge_value
    np.fill_diagonal(m, diagonal)
    return Operator(m)


def build_hamiltonian(lattice: Lattice, beta: float = 0.0, coupling: float = 1.0) -> Operator:
    """Tight-binding Hamiltonian: ``coupling`` on every edge and the
    uniform on-site constant ``beta`` on the diagonal.  A beta shift is a
    global phase and drops out of all occupation probabilities; the
    coupling must be positive."""
    if not coupling > 0:
        raise DomainError(f"coupling must be positive, got {coupling}")
    return _assemble(lattice, coupling, beta)


def build_classical_generator(lattice: Lattice, rate: float = 1.0) -> Operator:
    """Graph Laplacian L = rate * (Degree - Adjacency) of the classical
    continuous-time walk.  ``rate`` is the per-edge hopping rate and must be
    positive; rows sum to zero exactly."""
    if not rate > 0:
        raise DomainError(f"rate must be positive, got {rate}")
    return _assemble(lattice, -rate, rate * lattice.degrees())
