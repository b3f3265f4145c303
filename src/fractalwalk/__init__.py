"""Continuous-time quantum walks on Sierpinski photonic lattices.

Simulation, transport observables (variance, return probability, Polya
number), scaling-regime analysis, and rendering for gasket, carpet, and
dual-carpet lattices plus their filled triangle/square baselines.
"""

from .analysis import (
    CalibrationConfig,
    CalibrationResult,
    RegimeReport,
    ScalingFit,
    SlopeCurve,
    build_regime_report,
    calibrate_events,
    detect_event,
    detect_fractal_onset,
    detect_plateaus,
    detect_saturation_and_oscillation,
    fit_powerlaw,
    loglog_slope,
)
from .evolution import (
    ProbabilitySeries,
    SeriesKind,
    Spectrum,
    evolve_classical,
    evolve_quantum,
    preset_grid,
    return_amplitude,
    spectral_decompose,
    time_grid,
)
from .hamiltonian import Operator, build_classical_generator, build_hamiltonian
from .lattice import (
    FractalMeta,
    Landmarks,
    Lattice,
    LatticeKind,
    canonical_input,
    connectivity_histogram,
    fractal_meta,
    generate,
    landmark_sites,
    mirror_permutation,
    resolve_input,
)
from .observables import (
    ObservableTable,
    build_observable_table,
    polya_number,
    return_probability,
    variance,
)
from .render import RenderSpec, pgm_bytes, render_frame

__version__ = "0.1.0"
