"""Correctness gate: compare a command's output files with recorded references.

Every artifact is reduced to a small summary of numpy arrays, chosen by its
file name, and compared field by field with the summary recorded when the
benchmark was created (``reference.npz``).  The tolerances are the
benchmark's correctness rules:

* series probabilities within 1e-9 (three full time slices; the per-site
  sums over all times within 1e-9 per summed entry);
* report event taus equal, fit exponents within 1e-9;
* frame dimensions equal and pixels within 1 LSB (a pixel sample every
  ``FRAME_STRIDE`` rows and columns; full row and column sums within one
  LSB per summed pixel);
* lattices: site and edge counts equal, coordinate sums within 1e-9 per site;
* observables: every value within 1e-9 relative.

Byte identity is kept apart: ``sha256`` values (``reference.json``) feed
only the ``serialize.identical_artifacts`` counter, so an allowed
last-digit change does not count as a failure.

The gate reads files with json and numpy only; it never imports the
package it checks.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

TOL = 1e-9
FRAME_STRIDE = 8
_EVENTS = ("first_void_tau", "l_f_tau", "farthest_tau", "saturation_tau")
_FITS = ("normal_fit", "fractal_fit")


def sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _nan_if_none(value) -> float:
    return float("nan") if value is None else float(value)


def _summarise_series(path: str) -> dict:
    probs = np.asarray(_load_json(path)["probabilities"], dtype=np.float64)
    t = probs.shape[0]
    return {
        "shape": np.array(probs.shape),
        "rows": probs[[t // 4, t // 2, t - 1]],
        "colsum": probs.sum(axis=0),
    }


def _summarise_lattice(path: str) -> dict:
    doc = _load_json(path)
    coords = np.array([[s["x"], s["y"]] for s in doc["sites"]], dtype=np.float64)
    return {
        "counts": np.array([len(doc["sites"]), len(doc["edges"])]),
        "coord_sum": coords.sum(axis=0),
    }


def _summarise_report(path: str) -> dict:
    doc = _load_json(path)
    fits = [doc[key]["exponent"] if doc.get(key) else None for key in _FITS]
    out = {
        "taus": np.array([_nan_if_none(doc.get(key)) for key in _EVENTS]),
        "exponents": np.array([_nan_if_none(v) for v in fits]),
    }
    if "calibration" in doc:
        out["scale"] = np.array([doc["calibration"]["scale_mm_per_tau"]])
    return out


def _summarise_observables(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if lines[0] != "tau,variance,return_prob,polya":
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    return {"table": np.array([[float(v) for v in line.split(",")] for line in lines[1:]])}


def _summarise_frame(path: str) -> dict:
    with open(path, "rb") as handle:
        parts = handle.read().split(b"\n", 3)
    if parts[0] != b"P5" or parts[2] != b"65535":
        raise ValueError("not a 16-bit P5 frame")
    width, height = (int(v) for v in parts[1].split())
    image = np.frombuffer(parts[3], dtype=">u2", count=width * height)
    image = image.reshape(height, width)
    return {
        "shape": np.array([height, width]),
        "sample": image[::FRAME_STRIDE, ::FRAME_STRIDE].astype(np.uint16),
        "rowsum": image.sum(axis=1, dtype=np.int64),
        "colsum": image.sum(axis=0, dtype=np.int64),
    }


def _summarise_manifest(path: str) -> dict:
    return {"artifacts": np.array([len(_load_json(path)["artifacts"])])}


_SUMMARIES = (
    (".series.json", _summarise_series),
    (".classical.json", _summarise_series),
    (".lattice.json", _summarise_lattice),
    (".report.json", _summarise_report),
    (".calibrated.json", _summarise_report),
    (".observables.csv", _summarise_observables),
    (".pgm", _summarise_frame),
    ("manifest.json", _summarise_manifest),
)


def summarise(path: str) -> dict:
    name = os.path.basename(path)
    for suffix, fn in _SUMMARIES:
        if name.endswith(suffix):
            return fn(path)
    raise ValueError(f"no summary rule for {name}")


def _within(got: np.ndarray, want: np.ndarray, tol) -> bool:
    if got.shape != want.shape:
        return False
    diff = got.astype(np.float64) - want.astype(np.float64)
    return bool(np.all(np.abs(diff) <= tol))


def _equal_or_both_absent(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and bool(
        np.all((got == want) | (np.isnan(got) & np.isnan(want)))
    )


def _close_or_both_absent(got: np.ndarray, want: np.ndarray) -> bool:
    if got.shape != want.shape or not np.array_equal(np.isnan(got), np.isnan(want)):
        return False
    present = ~np.isnan(want)
    return bool(np.all(np.abs(got[present] - want[present]) <= TOL))


def compare(name: str, got: dict, want: dict) -> list[str]:
    """Names of the summary fields that miss their tolerance."""
    if set(got) != set(want):
        return [f"fields {sorted(got)} != {sorted(want)}"]
    misses = []
    for field, ref in want.items():
        value = got[field]
        if field in ("shape", "counts", "artifacts"):
            ok = np.array_equal(value, ref)
        elif field == "rows":
            ok = _within(value, ref, TOL)
        elif field == "colsum" and name.endswith(".pgm"):
            ok = _within(value, ref, len(got["rowsum"]))
        elif field == "colsum":
            ok = _within(value, ref, TOL * got["shape"][0])
        elif field == "rowsum":
            ok = _within(value, ref, len(got["colsum"]))
        elif field == "sample":
            ok = _within(value, ref, 1)
        elif field == "coord_sum":
            ok = _within(value, ref, TOL * got["counts"][0])
        elif field == "taus":
            ok = _equal_or_both_absent(value, ref)
        elif field == "exponents":
            ok = _close_or_both_absent(value, ref)
        elif field in ("table", "scale"):
            ok = _within(value, ref, TOL * np.maximum(1.0, np.abs(ref)))
        else:
            raise KeyError(f"no tolerance rule for field {field!r}")
        if not ok:
            misses.append(field)
    return misses


class Reference:
    """Recorded summaries and hashes, keyed ``<workload>/<file name>``."""

    def __init__(self, directory: str):
        self.npz_path = os.path.join(directory, "reference.npz")
        self.json_path = os.path.join(directory, "reference.json")
        self.summaries: dict[str, dict] = {}
        self.hashes: dict[str, str] = {}

    def load(self) -> "Reference":
        with np.load(self.npz_path, allow_pickle=False) as data:
            for key in data.files:
                artifact, field = key.rsplit(":", 1)
                self.summaries.setdefault(artifact, {})[field] = data[key]
        with open(self.json_path, "r", encoding="utf-8") as handle:
            self.hashes = json.load(handle)["sha256"]
        return self

    def add(self, key: str, path: str) -> None:
        self.summaries[key] = summarise(path)
        self.hashes[key] = sha256(path)

    def save(self) -> None:
        arrays = {
            f"{artifact}:{field}": value
            for artifact, fields in sorted(self.summaries.items())
            for field, value in fields.items()
        }
        np.savez_compressed(self.npz_path, **arrays)
        with open(self.json_path, "w", encoding="utf-8") as handle:
            json.dump({"sha256": dict(sorted(self.hashes.items()))}, handle, indent=1)
            handle.write("\n")

    def check(self, key: str, path: str) -> tuple[list[str], bool]:
        """(gate misses, byte-identical?) for one output file."""
        if key not in self.summaries:
            return [f"no reference for {key}"], False
        if not os.path.isfile(path):
            return ["missing output"], False
        try:
            misses = compare(key, summarise(path), self.summaries[key])
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            misses = [f"unreadable: {exc}"]
        return misses, sha256(path) == self.hashes.get(key)
