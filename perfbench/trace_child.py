"""Traced replay of one fractalwalk command in a fresh process.

    python3 perfbench/trace_child.py SPANS.json -- CLI-ARGS...
    python3 perfbench/trace_child.py SPANS.json --kernel-cases

Times ``import fractalwalk.cli``, then wraps the package's functions at the
names their callers look them up (``cli.evolve_quantum``,
``kernels.quantum_probabilities``, ``serialize.write_bytes``, ...) so that
each call records a span: layer, function, start, end, the enclosing span
and work counts keyed by the per-layer metric they add to.  The command then runs through ``fractalwalk.cli.main``.
Spans stay in memory and are written to SPANS.json when the command ends.

``--kernel-cases`` instead runs the cases of ``benchmarks/bench_kernels.py``
(quantum sg:4 and sc:3, classical sg:4, one sg:4 splat frame) through the
same kernel wrappers, each ``CASE_REPEATS`` times under a case span.

The package is never modified on disk; the wrappers live only in this
process.  Work counts are computed from argument shapes, not measured.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

CASE_REPEATS = 3


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, layer: str, name: str, fn, *args, counts=None, **kwargs):
        record = {"layer": layer, "name": name,
                  "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
        if counts is not None:
            record["counts"] = counts(result, *args, **kwargs)
        return result

    def wrap(self, owner, attr: str, layer: str, counts=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.span(layer, attr, original, *args, counts=counts, **kwargs)

        setattr(owner, attr, traced)


def _float_count(obj) -> int:
    if isinstance(obj, float):
        return 1
    if hasattr(obj, "dtype"):
        return int(obj.size) if obj.dtype.kind == "f" else 0
    if isinstance(obj, dict):
        return sum(_float_count(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_float_count(v) for v in obj)
    return 0


def _lattice_size(lattice, *args, **kwargs):
    return {"lattice.sites": lattice.n_sites, "lattice.edges": lattice.n_edges}


def _dense_bytes(matrix_holder, *args, **kwargs):
    return {"hamiltonian.dense_bytes": matrix_holder.matrix.nbytes}


def _eigh_n3(result, matrix, *args, **kwargs):
    return {"evolution.eigh_n3": matrix.shape[0] ** 3}


def _quantum_work(result, eigvals, eigvecs, weights, times):
    t, n = len(times), len(eigvals)
    # complex product 8 T N^2 plus T N phase exponentials; the phase and
    # amplitude matrices are the two T x N complex128 intermediates
    return {"kernels.quantum_flops": 8 * t * n * n + t * n,
            "kernels.quantum_bytes": 2 * 16 * t * n}


def _splat_evals(result, xs, ys, probs, x0, y_top, inv_pps, width, height, sigma):
    return {"kernels.splat_evals": width * height * len(xs)}


def _pixels(image, *args, **kwargs):
    return {"render.pixels": int(image.size)}


def _floats_dumped(result, obj):
    return {"serialize.floats_written": _float_count(obj)}


def _floats_csv(result, table):
    return {"serialize.floats_written": 4 * len(table.times)}


def _bytes_written(result, path, data):
    return {"serialize.write_bytes": len(data)}


def _bytes_read(result, path, *args, **kwargs):
    return {"serialize.read_bytes": os.path.getsize(path)}


def install(tracer: Tracer) -> None:
    """Wrap every traced function at the name its caller looks it up."""
    import numpy as np
    from fractalwalk import analysis, cli, evolution, kernels, serialize

    points = [
        (cli, "generate", "lattice", _lattice_size),
        (cli, "resolve_input", "lattice", None),
        (analysis, "landmark_sites", "lattice", None),
        (cli, "build_hamiltonian", "hamiltonian", _dense_bytes),
        (cli, "build_classical_generator", "hamiltonian", _dense_bytes),
        (cli, "time_grid", "evolution", None),
        (cli, "spectral_decompose", "evolution", None),
        (evolution, "spectral_decompose", "evolution", None),
        (np.linalg, "eigh", "evolution", _eigh_n3),
        (cli, "evolve_quantum", "evolution", None),
        (cli, "evolve_classical", "evolution", None),
        (evolution, "_finalize", "evolution", None),
        (kernels, "quantum_probabilities", "kernels", _quantum_work),
        (kernels, "classical_probabilities", "kernels", None),
        (kernels, "gaussian_splat", "kernels", _splat_evals),
        (cli, "build_observable_table", "observables", None),
        (analysis, "build_observable_table", "observables", None),
        (cli, "build_regime_report", "analysis", None),
        (cli, "render_frame", "render", _pixels),
        (cli, "pgm_bytes", "render", None),
        (serialize, "json_dumps", "serialize", _floats_dumped),
        (serialize, "observables_csv", "serialize", _floats_csv),
        (serialize, "write_bytes", "serialize", _bytes_written),
        (serialize, "write_text", "serialize", None),
        (serialize, "write_lattice", "serialize", None),
        (serialize, "write_series", "serialize", None),
        (serialize, "write_observables", "serialize", None),
        (serialize, "write_report", "serialize", None),
        (serialize, "write_manifest", "serialize", None),
        (serialize, "read_lattice", "serialize", _bytes_read),
        (serialize, "read_series", "serialize", _bytes_read),
        (serialize, "read_report_document", "serialize", _bytes_read),
    ]
    for owner, attr, layer, counts in points:
        tracer.wrap(owner, attr, layer, counts)


def kernel_cases(tracer: Tracer) -> None:
    """The cases of benchmarks/bench_kernels.py, through the wrapped kernels."""
    import numpy as np
    from fractalwalk import kernels
    from fractalwalk.evolution import preset_grid, spectral_decompose
    from fractalwalk.hamiltonian import build_classical_generator, build_hamiltonian
    from fractalwalk.lattice import canonical_input, generate
    from fractalwalk.render import RenderSpec, frame_geometry

    def contraction_args(lattice, matrix):
        spectrum = spectral_decompose(matrix)
        weights = np.ascontiguousarray(spectrum.eigenvectors[canonical_input(lattice), :])
        return (spectrum.eigenvalues, spectrum.eigenvectors, weights,
                preset_grid(lattice.kind))

    sg4, sc3 = generate("sg", 4), generate("sc", 3)
    spec = RenderSpec()
    width, height, x0, y_top = frame_geometry(sg4, spec)
    splat = (np.ascontiguousarray(sg4.coords[:, 0]), np.ascontiguousarray(sg4.coords[:, 1]),
             np.full(sg4.n_sites, 1.0 / sg4.n_sites), x0, y_top,
             1.0 / spec.pixels_per_spacing, width, height, spec.spot_sigma)
    cases = [
        ("quantum_sg4", "quantum_probabilities",
         contraction_args(sg4, build_hamiltonian(sg4))),
        ("quantum_sc3", "quantum_probabilities",
         contraction_args(sc3, build_hamiltonian(sc3))),
        ("classical_sg4", "classical_probabilities",
         contraction_args(sg4, build_classical_generator(sg4))),
        ("splat_sg4", "gaussian_splat", splat),
    ]

    def repeat(fn, args):
        for _ in range(CASE_REPEATS):
            fn(*args)

    for case, attr, args in cases:
        # looked up per case, after install() replaced the attribute
        tracer.span("case", case, repeat, getattr(kernels, attr), args)


def main(argv: list[str]) -> int:
    spans_path, mode = argv[0], argv[1]
    tracer = Tracer()
    status = 1
    try:
        start = time.perf_counter()
        from fractalwalk import cli
        tracer.spans.append({"layer": "import", "name": "import", "parent": None,
                             "start": start, "end": time.perf_counter()})
        install(tracer)
        if mode == "--kernel-cases":
            kernel_cases(tracer)
            status = 0
        else:
            status = tracer.span("cli", "main", cli.main, argv[2:])
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
