"""Continuous-time quantum walks on Sierpinski photonic lattices.

Simulation, transport observables (variance, return probability, Polya
number), scaling-regime analysis, and rendering for gasket, carpet, and
dual-carpet lattices plus their filled triangle/square baselines.

The namespace is lazy (PEP 562): ``import fractalwalk`` loads no submodule
and no numpy, and each name of ``__all__`` imports its submodule on first
access.  ``from fractalwalk import generate`` works as with eager imports.
"""

import importlib

__version__ = "0.1.0"

#: exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys([
        "RegimeReport", "ScalingFit", "SlopeCurve", "build_regime_report",
        "detect_event", "detect_fractal_onset", "detect_plateaus",
        "detect_saturation_and_oscillation", "fit_powerlaw", "loglog_slope",
    ], "analysis"),
    **dict.fromkeys(["CalibrationConfig", "CalibrationResult", "calibrate_events"],
                    "calibration"),
    **dict.fromkeys([
        "ProbabilitySeries", "SeriesKind", "Spectrum", "evolve_classical",
        "evolve_quantum", "preset_grid", "spectral_decompose", "time_grid",
    ], "evolution"),
    **dict.fromkeys(["Operator", "build_classical_generator", "build_hamiltonian"],
                    "hamiltonian"),
    **dict.fromkeys([
        "FractalMeta", "Landmarks", "Lattice", "LatticeKind", "canonical_input",
        "connectivity_histogram", "fractal_meta", "generate", "landmark_sites",
        "mirror_permutation", "resolve_input",
    ], "lattice"),
    **dict.fromkeys([
        "ObservableTable", "build_observable_table", "polya_number",
        "return_probability", "variance",
    ], "observables"),
    **dict.fromkeys(["RenderSpec", "pgm_bytes", "render_frame"], "render"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
