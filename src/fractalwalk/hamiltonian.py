"""Tight-binding Hamiltonian and classical-walk generator assembly."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .lattice import Lattice


@dataclass(frozen=True)
class Hamiltonian:
    """Dense real-symmetric tight-binding matrix.

    Diagonal entries all equal ``beta`` (the uniform on-site propagation
    constant); entry (i, j) equals ``coupling`` exactly when (i, j) is a
    lattice edge.
    """

    n: int
    beta: float
    coupling: float
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


@dataclass(frozen=True)
class ClassicalGenerator:
    """Graph Laplacian L = rate * (Degree - Adjacency) for the classical walk."""

    n: int
    rate: float
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


def build_hamiltonian(lattice: Lattice, beta: float = 0.0, coupling: float = 1.0) -> Hamiltonian:
    """Assemble the tight-binding Hamiltonian of a lattice.

    Parameters
    ----------
    lattice : Lattice
    beta : float
        Uniform on-site constant placed on the diagonal.  A beta shift is
        a global phase and drops out of all occupation probabilities.
    coupling : float
        Uniform nearest-neighbour coupling, must be positive.
    """
    if not coupling > 0:
        raise DomainError(f"coupling must be positive, got {coupling}")
    n = lattice.n_sites
    m = np.zeros((n, n))
    i, j = lattice.edges[:, 0], lattice.edges[:, 1]
    m[i, j] = coupling
    m[j, i] = coupling
    np.fill_diagonal(m, beta)
    return Hamiltonian(n=n, beta=float(beta), coupling=float(coupling), matrix=m)


def build_classical_generator(lattice: Lattice, rate: float = 1.0) -> ClassicalGenerator:
    """Assemble the classical continuous-time walk generator of a lattice.

    ``rate`` is the per-edge hopping rate; rows of the resulting Laplacian
    sum to zero exactly.
    """
    if not rate > 0:
        raise DomainError(f"rate must be positive, got {rate}")
    n = lattice.n_sites
    m = np.zeros((n, n))
    i, j = lattice.edges[:, 0], lattice.edges[:, 1]
    m[i, j] = -rate
    m[j, i] = -rate
    deg = lattice.degrees()
    np.fill_diagonal(m, rate * deg)
    return ClassicalGenerator(n=n, rate=float(rate), matrix=m)

