"""Deterministic file formats: JSON, CSV, PGM frames, binary dumps, manifests.

Floats are serialized with 12 significant digits everywhere, and float
arrays (JSON arrays, CSV rows, matrix triplets) one row at a time through
a single ``%``-format.  The stdlib json encoder cannot be told a float
format, so a small emitter handles the fixed document shapes used here;
parsing goes through ``json.load``, which rejects the ``NaN`` and
``Infinity`` tokens.  All writers are byte-deterministic and all file
writes are atomic (write to a temp file, then rename).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np

from .analysis import EVENT_NAMES, CalibrationResult, RegimeReport, ScalingFit, SlopeCurve
from .errors import BoundsError, DomainError, InputFileError
from .evolution import ProbabilitySeries, SeriesKind, _check_times
from .lattice import DIST_TOL, Lattice, LatticeKind
from .observables import ObservableTable

FLOAT_FORMAT = ".12g"
_FIELD = "%" + FLOAT_FORMAT


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise InputFileError(f"cannot serialize non-finite float {x}")
    return format(x, FLOAT_FORMAT)


def _float_rows(values: np.ndarray, fmt: str) -> list[str]:
    """``fmt % row`` for each row of a 2-d float array; raises InputFileError
    if any entry is non-finite.  ``_FIELD % x == format_float(x)``."""
    finite = np.isfinite(values)
    if not finite.all():
        raise InputFileError(f"cannot serialize non-finite float {values[~finite][0]}")
    return [fmt % tuple(row.tolist()) for row in values]


def json_dumps(obj) -> str:
    """Compact JSON with 12-significant-digit floats and stable key order."""
    # nested values recurse through _emit, so a wrapper on this name (the
    # perfbench tracer's) sees one call per document
    return _emit(obj)


def _emit(obj) -> str:
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim in (1, 2):
        rows = _float_rows(np.atleast_2d(obj), ",".join([_FIELD] * obj.shape[-1]))
        return "[" + ",".join(rows if obj.ndim == 1 else ("[" + r + "]" for r in rows)) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + _emit(v) for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_emit(value) for value in obj) + "]"
    raise InputFileError(f"cannot serialize object of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# atomic writes


def write_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path: str, text: str) -> None:
    write_bytes(path, text.encode("utf-8"))


def _load_json(path: str) -> dict:
    def reject(token: str):
        raise InputFileError(f"{path}: non-finite number {token} is not allowed")

    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle, parse_constant=reject)
    except OSError as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputFileError(f"{path}: expected a JSON object at top level")
    return doc


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise InputFileError(f"{path}: missing required field {key!r}")
    return doc[key]


def _integer(value) -> int:
    """A JSON integer (``4`` or ``4.0``); ValueError for any other value,
    ``0.7``, ``true`` and ``"4"`` included, instead of truncating it."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{value!r} is not an integer")


def _number(value) -> float:
    """A finite JSON number (int or float, never a bool); ValueError for any
    other value, ``true``, ``"nan"`` and ``1e400`` included."""
    # the comparison is false for NaN and infinity and exact for any int
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise ValueError(f"{value!r} is not a finite number")


# ---------------------------------------------------------------------------
# lattice documents


def lattice_document(lattice: Lattice) -> dict:
    return {
        "kind": lattice.kind.value,
        "generation": int(lattice.generation),
        "spacing": float(lattice.spacing),
        "sites": [
            {"id": i, "x": float(x), "y": float(y)}
            for i, (x, y) in enumerate(lattice.coords)
        ],
        "edges": [[int(a), int(b)] for a, b in lattice.edges],
    }


def write_lattice(lattice: Lattice, path: str) -> None:
    write_text(path, json_dumps(lattice_document(lattice)) + "\n")


def read_lattice(path: str) -> Lattice:
    doc = _load_json(path)
    try:
        kind = LatticeKind.parse(str(_require(doc, "kind", path)))
    except BoundsError as exc:
        raise InputFileError(f"{path}: {exc}") from None
    sites = _require(doc, "sites", path)
    edges = _require(doc, "edges", path)
    generation = _require(doc, "generation", path)
    try:
        generation = _integer(generation)
        spacing = _number(doc.get("spacing", 1.0))
        ids = [_integer(s["id"]) for s in sites]
        coords = np.array([[_number(s["x"]), _number(s["y"])] for s in sites])
        edge_arr = np.array([[_integer(v) for v in pair] for pair in edges],
                            dtype=np.int64).reshape(-1, 2)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFileError(f"{path}: malformed lattice field: {exc}") from exc
    if ids != list(range(len(ids))):
        raise InputFileError(f"{path}: site ids must be 0..N-1 in order")
    n = len(ids)
    if edge_arr.size and (edge_arr.min() < 0 or edge_arr.max() >= n):
        raise InputFileError(f"{path}: edge refers to a site id outside 0..{n - 1}")
    i, j = edge_arr[:, 0], edge_arr[:, 1]
    # with i < j < n the key i * n + j ascends exactly when the rows do
    if not (np.all(i < j) and np.all(np.diff(i * n + j) > 0)):
        raise InputFileError(f"{path}: edges must be pairs i < j, each once, in ascending order")
    if spacing != 1.0:
        raise InputFileError(f"{path}: spacing must be 1, the distance unit, not {spacing}")
    if edge_arr.size and np.abs(np.hypot(*(coords[j] - coords[i]).T) - spacing).max() > DIST_TOL:
        raise InputFileError(f"{path}: an edge is not one spacing long")
    return Lattice(kind=kind, generation=generation, coords=coords, edges=edge_arr,
                   spacing=spacing)


# ---------------------------------------------------------------------------
# series documents


def series_document(series: ProbabilitySeries) -> dict:
    return {
        "kind": series.kind.value,
        "input_site": int(series.input_site),
        "times": series.times,
        "probabilities": series.probabilities,
    }


def write_series(series: ProbabilitySeries, path: str) -> None:
    write_text(path, json_dumps(series_document(series)) + "\n")


def read_series(path: str) -> ProbabilitySeries:
    doc = _load_json(path)
    kind_name = str(_require(doc, "kind", path))
    try:
        kind = SeriesKind(kind_name)
    except ValueError:
        raise InputFileError(
            f"{path}: kind must be 'quantum' or 'classical', got {kind_name!r}"
        ) from None
    input_site = _require(doc, "input_site", path)
    times = _require(doc, "times", path)
    probs = _require(doc, "probabilities", path)
    try:
        input_site = _integer(input_site)
        times = np.asarray(times, dtype=np.float64)
        probs = np.asarray(probs, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputFileError(f"{path}: malformed series field: {exc}") from exc
    try:
        _check_times(times)
    except DomainError as exc:
        raise InputFileError(f"{path}: {exc}") from None
    if probs.ndim != 2 or probs.shape[0] != times.shape[0]:
        raise InputFileError(
            f"{path}: probabilities shape {probs.shape} does not match "
            f"{times.shape[0]} times"
        )
    if not 0 <= input_site < probs.shape[1]:
        raise InputFileError(f"{path}: input_site {input_site} out of range")
    return ProbabilitySeries(kind, input_site, times, probs)


def write_series_binary(series: ProbabilitySeries, path: str) -> None:
    """Compact dump: two little-endian uint64 dims, then row-major float64."""
    t, n = series.probabilities.shape
    header = np.array([t, n], dtype="<u8").tobytes()
    body = np.ascontiguousarray(series.probabilities, dtype="<f8").tobytes()
    write_bytes(path, header + body)


def read_series_binary(path: str) -> np.ndarray:
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from exc
    if len(raw) < 16:
        raise InputFileError(f"{path}: truncated binary series")
    t, n = (int(v) for v in np.frombuffer(raw[:16], dtype="<u8"))
    expected = 16 + 8 * t * n
    if len(raw) != expected:
        raise InputFileError(
            f"{path}: expected {expected} bytes for {t}x{n} series, got {len(raw)}"
        )
    return np.frombuffer(raw[16:], dtype="<f8").reshape(t, n).copy()


# ---------------------------------------------------------------------------
# observables CSV


def observables_csv(table: ObservableTable) -> str:
    columns = np.column_stack((table.times, table.variance, table.return_prob, table.polya))
    lines = ["tau,variance,return_prob,polya"] + _float_rows(columns, ",".join([_FIELD] * 4))
    return "\n".join(lines) + "\n"


def write_observables(table: ObservableTable, path: str) -> None:
    write_text(path, observables_csv(table))


# ---------------------------------------------------------------------------
# matrix triplet dump


def matrix_triplet_text(matrix: np.ndarray) -> str:
    rows, cols = np.nonzero(matrix)
    lines = _float_rows(np.column_stack((rows, cols, matrix[rows, cols])), "%d %d " + _FIELD)
    return "\n".join(lines) + ("\n" if lines else "")


def write_matrix_triplets(matrix: np.ndarray, path: str) -> None:
    write_text(path, matrix_triplet_text(matrix))


# ---------------------------------------------------------------------------
# regime report documents


def _fit_document(fit: ScalingFit | None):
    if fit is None:
        return None
    return {
        "tau_lo": fit.tau_lo,
        "tau_hi": fit.tau_hi,
        "exponent": fit.exponent,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "n_samples": fit.n_samples,
    }


def _slope_document(curve: SlopeCurve) -> dict:
    return {
        "tau": curve.tau,
        "exponent": curve.exponent,
        "skipped_windows": list(curve.skipped),
    }


def report_document(report: RegimeReport) -> dict:
    return {
        "kind": report.kind,
        "input_site": report.input_site,
        "epsilon": report.epsilon,
        "slope_window": report.slope_window,
        "probe_length_a": report.probe_length_a,
        "farthest_distance": report.farthest_distance,
        "first_void_tau": report.first_void_tau,
        "l_f_tau": report.l_f_tau,
        "farthest_tau": report.farthest_tau,
        "saturation_tau": report.saturation_tau,
        "oscillation_detected": report.oscillation_detected,
        "normal_fit": _fit_document(report.normal_fit),
        "fractal_fit": _fit_document(report.fractal_fit),
        "plateaus": [[a, b] for a, b in report.plateaus],
        "slope_curve": _slope_document(report.slope_curve),
    }


def calibration_document(calibration: CalibrationResult) -> dict:
    """The ``calibration`` block of a report document."""
    return {
        "anchor_event": calibration.anchor_event,
        "anchor_mm": calibration.anchor_mm,
        "anchor_tau": calibration.anchor_tau,
        "scale_mm_per_tau": calibration.scale_s,
        "events_mm": calibration.events_mm,
    }


def write_report(report: RegimeReport, path: str) -> None:
    write_text(path, json_dumps(report_document(report)) + "\n")


def read_report_document(path: str) -> dict:
    return _load_json(path)


def report_event_taus(doc: dict, path: str) -> dict[str, float]:
    """The events a report document holds, by name, as ``RegimeReport.event_taus``
    gives them; ``null`` or a missing ``<name>_tau`` means the event is absent.
    InputFileError if a tau is not a finite, non-negative number."""
    events = {}
    for name in EVENT_NAMES:
        tau = doc.get(f"{name}_tau")
        if tau is None:
            continue
        try:
            events[name] = _number(tau)
        except ValueError as exc:
            raise InputFileError(f"{path}: malformed {name}_tau: {exc}") from None
        if events[name] < 0.0:
            raise InputFileError(f"{path}: {name}_tau must be non-negative, got {tau}")
    return events


# ---------------------------------------------------------------------------
# run manifest


def build_manifest(paths: list[str], base_dir: str) -> dict:
    artifacts = []
    for path in sorted(paths):
        with open(path, "rb") as handle:
            data = handle.read()
        artifacts.append(
            {
                "path": os.path.relpath(path, base_dir).replace(os.sep, "/"),
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            }
        )
    return {"artifacts": artifacts}


def write_manifest(paths: list[str], base_dir: str, path: str) -> None:
    write_text(path, json_dumps(build_manifest(paths, base_dir)) + "\n")
