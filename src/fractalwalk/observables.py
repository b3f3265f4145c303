"""Transport observables: variance, return probability, Polya number.

The Polya number accumulates over measured steps only: a measurement at
tau = 0 returns with certainty and would pin the whole curve at 1, so
exact-zero times are excluded from the product.  This exclusion is a
convention of this package; see ``polya_number``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .evolution import CLAMP_TOL, ProbabilitySeries, check_distribution
from .lattice import Lattice


@dataclass(frozen=True)
class ObservableTable:
    """Per-time variance, return probability, and cumulative Polya number.

    All columns share the length of ``times``.  When the grid starts at
    tau = 0, the Polya entry at index 0 carries the value after the first
    measured step (the accumulation itself starts at the first positive
    time).
    """

    times: np.ndarray
    variance: np.ndarray
    return_prob: np.ndarray
    polya: np.ndarray

    def __post_init__(self):
        for arr in (self.times, self.variance, self.return_prob, self.polya):
            arr.setflags(write=False)


def variance(series: ProbabilitySeries, lattice: Lattice) -> np.ndarray:
    """Probability-weighted mean squared Euclidean distance from the input.

    sigma^2(tau) = sum_j dl_j^2 p_j(tau) / sum_j p_j(tau), with dl_j the
    Euclidean distance from the series' input site to site j in spacings.
    """
    series.check_lattice(lattice)
    origin = lattice.coords[series.input_site]
    dl2 = ((lattice.coords - origin) ** 2).sum(axis=1)
    weighted = series.probabilities @ dl2
    return weighted / series.probabilities.sum(axis=1)


def return_probability(series: ProbabilitySeries) -> np.ndarray:
    """The input-site column of the probability matrix."""
    return series.probabilities[:, series.input_site].copy()


def polya_number(return_probs) -> np.ndarray:
    """Cumulative recurrence probability P_n = 1 - prod_i (1 - p_i).

    ``return_probs`` are return probabilities at the measured times, in
    grid order, each in [0, 1] (roundoff up to 1e-12 is clamped).
    """
    p = np.asarray(return_probs, dtype=np.float64)
    if p.size and (p.min() < -CLAMP_TOL or p.max() > 1.0 + CLAMP_TOL):
        raise DomainError(
            f"return probabilities outside [0, 1]: min {p.min():.3e}, max {p.max():.3e}"
        )
    p = np.clip(p, 0.0, 1.0)
    return 1.0 - np.cumprod(1.0 - p)


def build_observable_table(series: ProbabilitySeries, lattice: Lattice) -> ObservableTable:
    """Assemble the full observable table for a series.

    Polya accumulation runs over strictly positive times; rows at tau = 0
    are padded with the first accumulated value so that all columns align
    with the time grid.  DomainError if a row is not a probability
    distribution (see ``check_distribution``).
    """
    check_distribution(series.probabilities)
    var = variance(series, lattice)
    ret = return_probability(series)
    measured = series.times > 0.0
    if not measured.any():
        raise DomainError("series has no positive measurement times")
    accumulated = polya_number(ret[measured])
    polya = np.empty_like(ret)
    polya[measured] = accumulated
    polya[~measured] = accumulated[0]
    return ObservableTable(
        times=series.times.copy(), variance=var, return_prob=ret, polya=polya
    )
