"""Observable columns: algebraic cases, bounds, and grid consistency."""

import numpy as np
import pytest

from fractalwalk.errors import BoundsError, DomainError, ShapeError
from fractalwalk.evolution import (
    ProbabilitySeries,
    SeriesKind,
    evolve_quantum,
    spectral_decompose,
    time_grid,
)
from fractalwalk.hamiltonian import build_hamiltonian
from fractalwalk.lattice import generate
from fractalwalk.observables import (
    build_observable_table,
    polya_number,
    return_probability,
    variance,
)

def synthetic_series(times, probabilities, input_site=0):
    return ProbabilitySeries(
        kind=SeriesKind.QUANTUM,
        input_site=input_site,
        times=np.asarray(times, dtype=np.float64),
        probabilities=np.asarray(probabilities, dtype=np.float64),
    )


# --- variance -------------------------------------------------------------

def test_variance_zero_at_launch(sg2_run):
    var = variance(sg2_run.series, sg2_run.lattice, sg2_run.input_site)
    # exact zero up to eigendecomposition roundoff squared
    assert abs(var[0]) < 1e-24


def test_variance_equal_split_on_pair(pair):
    series = synthetic_series([1.0], [[0.5, 0.5]])
    assert variance(series, pair, 0) == pytest.approx(0.5, abs=1e-15)


def test_variance_full_transfer_on_pair(pair):
    spec = spectral_decompose(build_hamiltonian(pair))
    series = evolve_quantum(spec, 0, np.array([np.pi / 2.0]))
    assert variance(series, pair, 0)[0] == pytest.approx(1.0, abs=1e-12)


def test_variance_bounded_by_farthest_site(sg4_run):
    far = sg4_run.report.farthest_distance
    assert np.all(sg4_run.table.variance <= far**2 + 1e-9)


def test_variance_rejects_mismatched_lattice(sg2_run):
    with pytest.raises(ShapeError):
        variance(sg2_run.series, generate("sg", 3), sg2_run.input_site)


def test_variance_rejects_bad_input_site(sg2_run):
    with pytest.raises(BoundsError):
        variance(sg2_run.series, sg2_run.lattice, sg2_run.lattice.n_sites)


# --- Polya number ---------------------------------------------------------

def test_polya_single_step():
    assert polya_number([0.5]) == pytest.approx([0.5])


def test_polya_two_even_steps():
    assert polya_number([0.5, 0.5]) == pytest.approx([0.5, 0.75])


def test_polya_certain_return_saturates():
    out = polya_number([1.0, 0.3])
    assert out[0] == 1.0 and out[1] == 1.0


def test_polya_accepts_roundoff_overshoot():
    out = polya_number([1.0 + 5e-13, -5e-13])
    assert out == pytest.approx([1.0, 1.0])


@pytest.mark.parametrize("bad", [[1.1], [-0.2], [0.5, 2.0]])
def test_polya_rejects_out_of_range(bad):
    with pytest.raises(DomainError):
        polya_number(bad)


def test_polya_monotone_and_bounded(sg2_run):
    polya = sg2_run.table.polya
    assert np.all(np.diff(polya) >= 0.0)
    assert polya.min() >= 0.0 and polya.max() <= 1.0


def test_return_probability_is_input_column(sg2_run):
    ret = return_probability(sg2_run.series)
    assert np.array_equal(ret, sg2_run.series.probabilities[:, sg2_run.input_site])
    assert ret[0] == 1.0


# --- table assembly -------------------------------------------------------

def test_table_pads_polya_at_time_zero(sg2_run):
    table = sg2_run.table
    assert table.times[0] == 0.0
    # the tau = 0 row repeats the first accumulated value
    assert table.polya[0] == table.polya[1]


def test_table_columns_align(sg2_run):
    table = sg2_run.table
    n = table.times.size
    assert table.variance.size == n
    assert table.return_prob.size == n
    assert table.polya.size == n


def test_table_requires_positive_times(pair):
    series = synthetic_series([0.0], [[1.0, 0.0]])
    with pytest.raises(DomainError):
        build_observable_table(series, pair)


def test_table_on_positive_only_grid(pair):
    spec = spectral_decompose(build_hamiltonian(pair))
    series = evolve_quantum(spec, 0, time_grid(3.0, 31, tau_min=0.5))
    table = build_observable_table(series, pair)
    expected = 1.0 - np.cumprod(np.sin(series.times) ** 2)
    assert np.abs(table.polya - expected).max() < 1e-10


def test_probabilities_bitwise_stable_under_grid_refinement(pair):
    # doubling the sampling rate reproduces the coarse samples exactly:
    # shared times are identical floats and the kernel is deterministic
    spec = spectral_decompose(build_hamiltonian(pair))
    coarse_times = np.linspace(0.0, 5.0, 11)
    fine_times = np.linspace(0.0, 5.0, 21)
    assert np.array_equal(coarse_times, fine_times[::2])
    coarse = build_observable_table(
        evolve_quantum(spec, 0, coarse_times), pair
    ).return_prob
    fine = build_observable_table(
        evolve_quantum(spec, 0, fine_times), pair
    ).return_prob
    assert np.array_equal(coarse, fine[::2])


def test_frozen_table_arrays(sg2_run):
    with pytest.raises(ValueError):
        sg2_run.table.polya[0] = 0.0
