"""The generation ladder of the fractal-window fit, and sg:7 on a long grid.

For each pair of neighbouring generations, walked from the canonical
input on their kind's preset grid, this prints the largest gap between
the two local variance slopes, both fractal-window fits and whether the
regime events agree.  Then it walks sg:7 on a grid extended to tau 80
(1601 steps) and prints the fit on [1.85, 80], its r^2 and the range of
the local slope over that window.

It is slow (about half a minute, and some 300 MB for the sc:4 block), so
it is a script and not a test:

    PYTHONPATH=src python scripts/scaling_ladder.py
"""

import numpy as np

from fractalwalk.analysis import build_regime_report, fit_powerlaw
from fractalwalk.cli import walk
from fractalwalk.evolution import preset_grid, time_grid
from fractalwalk.lattice import generate
from fractalwalk.observables import build_observable_table

PAIRS = (("sg", 5, 6), ("sg", 6, 7), ("sc", 3, 4), ("dsc", 3, 4))
LONG_GRID = (80.0, 1601)
LONG_WINDOW = (1.85, 80.0)


def run(kind, generation, times=None):
    """The observable table and regime report of one quantum walk."""
    lattice = generate(kind, generation)
    series = walk(lattice, "auto", preset_grid(kind) if times is None else times)[2]
    table = build_observable_table(series, lattice)
    return table, build_regime_report(lattice, series)


def fit_text(fit) -> str:
    return "none" if fit is None else f"{fit.exponent:.6f}"


def main() -> None:
    print(f"{'pair':<12}{'max local-slope gap':>21}  {'fractal fit, smaller -> larger':<32}events")
    for kind, small, large in PAIRS:
        (_, a), (_, b) = run(kind, small), run(kind, large)
        assert np.array_equal(a.slope_curve.tau, b.slope_curve.tau)
        gap = np.abs(a.slope_curve.exponent - b.slope_curve.exponent).max()
        fits = f"{fit_text(a.fractal_fit)} -> {fit_text(b.fractal_fit)}"
        if a.event_taus() == b.event_taus():
            events = "all equal"
        else:
            events = "differ: " + ", ".join(
                f"{name} {a.event_taus().get(name)} -> {b.event_taus().get(name)}"
                for name in sorted(a.event_taus().keys() | b.event_taus().keys())
                if a.event_taus().get(name) != b.event_taus().get(name))
        print(f"{kind}:{small} / {kind}:{large:<3}{gap:>17.2g}    {fits:<32}{events}")

    table, report = run("sg", 7, time_grid(*LONG_GRID))
    fit = fit_powerlaw(table.times, table.variance, *LONG_WINDOW)
    curve = report.slope_curve
    inside = (curve.tau >= LONG_WINDOW[0]) & (curve.tau <= LONG_WINDOW[1])
    print(f"sg:7 to tau {LONG_GRID[0]:g} ({LONG_GRID[1]} steps): fit {fit.exponent:.4f} "
          f"on [{fit.tau_lo:g}, {fit.tau_hi:g}], r^2 {fit.r_squared:.4f}; local slope "
          f"{curve.exponent[inside].min():.3f} to {curve.exponent[inside].max():.3f}; "
          f"farthest event {report.farthest_tau}")


if __name__ == "__main__":
    main()
