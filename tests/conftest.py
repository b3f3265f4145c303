"""Shared fixtures: generated lattices and cached evolution runs.

The expensive artifacts (one eigendecomposition per instance plus the
full-grid evolutions) are built once per session and reused by both the
unit tests and the acceptance suite.
"""

from types import SimpleNamespace

import numpy as np
import pytest

#: verdict lines recorded by the acceptance tests, replayed after the
#: test summary so they appear in any pytest invocation's output
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from fractalwalk.analysis import build_regime_report
from fractalwalk.cli import walk
from fractalwalk.evolution import evolve_classical, preset_grid, spectral_decompose, time_grid
from fractalwalk.hamiltonian import build_classical_generator
from fractalwalk.lattice import Lattice, LatticeKind, generate
from fractalwalk.observables import build_observable_table


def quantum_run(kind, generation, grid=None, with_report=True):
    """The CLI's quantum walk from the canonical input, plus its table and report."""
    lattice = generate(kind, generation)
    input_site, spectrum, series = walk(
        lattice, "auto", preset_grid(lattice.kind) if grid is None else grid
    )
    table = build_observable_table(series, lattice)
    report = build_regime_report(lattice, series, table) if with_report else None
    return SimpleNamespace(lattice=lattice, input_site=input_site, spectrum=spectrum,
                           series=series, table=table, report=report)


@pytest.fixture(scope="session")
def sg4_run():
    return quantum_run("sg", 4)


@pytest.fixture(scope="session")
def sc3_run():
    return quantum_run("sc", 3)


@pytest.fixture(scope="session")
def sc3_long_run():
    # the carpet's farthest-site event lies beyond its preset horizon;
    # ordering checks need a grid that actually reaches it
    return quantum_run("sc", 3, grid=time_grid(40.0, 801))


@pytest.fixture(scope="session")
def dsc3_run():
    return quantum_run("dsc", 3, with_report=False)


@pytest.fixture(scope="session")
def dsc2_run():
    return quantum_run("dsc", 2)


@pytest.fixture(scope="session")
def tri16_run():
    return quantum_run("triangle", 16, with_report=False)


@pytest.fixture(scope="session")
def sq8_run():
    return quantum_run("square", 8, with_report=False)


@pytest.fixture(scope="session")
def sg2_run():
    # small and fast; the workhorse for API-level tests.  No report: the
    # generation-2 gasket deletes no site, so it has no void landmarks.
    return quantum_run("sg", 2, grid=time_grid(6.0, 121), with_report=False)


@pytest.fixture(scope="session")
def dsc1_run():
    # smallest instance with a full set of landmarks, for report tests
    return quantum_run("dsc", 1, grid=time_grid(12.0, 241))


@pytest.fixture(scope="session")
def sg4_classical(sg4_run):
    spectrum = spectral_decompose(build_classical_generator(sg4_run.lattice))
    times = np.concatenate(([0.0], np.geomspace(0.05, 947.0, 600)))
    return evolve_classical(spectrum, sg4_run.input_site, times)


def two_site_lattice() -> Lattice:
    return Lattice(
        kind=LatticeKind.SQUARE,
        generation=1,
        coords=np.array([[0.0, 0.0], [1.0, 0.0]]),
        edges=np.array([[0, 1]], dtype=np.int64),
    )


@pytest.fixture()
def pair():
    return two_site_lattice()
