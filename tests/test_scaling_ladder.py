"""The fractal-window fit along the generation ladder, as a regression test.

Each instance runs the CLI's quantum walk from the canonical input on its
preset grid, and the regime report's fractal fit is pinned: its variance
exponent and its window.  The window's upper end is the farthest-site
event when the grid reaches it, and the grid end otherwise.  These are
measured values, not targets: criterion 5 of the acceptance suite states
the targets for its own three instances.
"""

import pytest

from conftest import quantum_run

# (kind, generation): exponent, tau_lo, tau_hi, farthest-site event reached
LADDER = {
    ("sg", 4): (1.3597575815009648, 1.85, 6.25, True),
    ("sg", 5): (1.4177610230653466, 1.85, 15.85, True),
    ("sg", 6): (1.450366815285466, 1.85, 25.0, False),
    ("sc", 2): (1.5448167007096558, 2.55, 5.15, True),
    ("sc", 3): (1.7803914523220856, 2.55, 12.0, False),
    ("dsc", 2): (1.8283614385004563, 0.3, 5.9, True),
    ("dsc", 3): (1.3462242244272573, 0.3, 25.0, False),
}


@pytest.mark.parametrize("kind,generation", LADDER, ids=[f"{k}{g}" for k, g in LADDER])
def test_fractal_fit_along_the_ladder(kind, generation):
    exponent, tau_lo, tau_hi, farthest = LADDER[kind, generation]
    run = quantum_run(kind, generation)
    fit = run.report.fractal_fit
    assert fit.exponent == pytest.approx(exponent, abs=1e-9)
    assert (fit.tau_lo, fit.tau_hi) == pytest.approx((tau_lo, tau_hi), abs=1e-9)
    upper = run.report.farthest_tau if farthest else float(run.series.times[-1])
    assert (run.report.farthest_tau is not None) == farthest
    assert fit.tau_hi == pytest.approx(upper, abs=1e-9)
