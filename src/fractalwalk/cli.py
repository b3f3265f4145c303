"""Command-line pipeline: generate, evolve, measure, analyze, render.

All flags are long-form.  The only environment variable honoured is
OUTPUT_DIR, which prefixes every relative output path.  Outputs are
deterministic: identical inputs and flags give byte-identical files for a
fixed machine and BLAS thread count.

Each subcommand imports only the stages it runs.  Importing this module
loads nothing of the package but ``errors`` and ``geometry`` (the kind
names the parser offers, from the numpy-free kind table); ``lattice``,
``calibrate``, ``--help`` and usage errors run without numpy.  The
pipeline stages (``generate``, ``spectral_decompose``, ``render_frame``,
...) resolve as attributes of this module on first use: ``__getattr__``
looks any name of the package's ``__all__`` up in its lazy namespace,
which loads its submodule.  Every call looks the stages up in this
module's globals, so a wrapper set on ``cli.<stage>`` is what runs, and
the lookup holds when ``runpy`` or cProfile runs this file as
``__main__``.  Flags whose default belongs to a stage default to None
here, so that the stage's own default applies.  ``walk`` computes and
writes nothing: a command writes its outputs once every stage it runs has
returned (``render`` renders every frame, ``sweep`` walks every instance),
so a command a stage refuses writes none.  An unwritable output exits 3, as
an unreadable input does, and leaves the outputs written before it.  What
makes a series valid is decided in ``evolution``, and a walk read back goes
through ``serialize.read_walk``, which holds its series to its lattice.

``main(argv)`` returns the exit status and leaves the interpreter as it
found it; ``run()``, the process entry point, ends the process once
``main`` returns, without the interpreter's teardown.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
from typing import NoReturn

from .errors import DomainError, FractalwalkError, NotFoundError
from .geometry import LatticeKind


def __getattr__(name):
    if name not in sys.modules[__package__].__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[__package__], name)
    globals()[name] = value  # later lookups skip this function
    return value


class _Stages:
    """``_stage.<name>``: the stage as this module's globals hold it (a
    wrapper set on ``cli.<name>`` included), else resolved by ``__getattr__``.
    The globals are the ones this code runs in, also when ``python -m`` or
    ``runpy`` runs it under another name than the module's own."""

    def __getattr__(self, name):
        namespace = globals()
        return namespace[name] if name in namespace else __getattr__(name)


# every stage call goes through it
_stage = _Stages()

_EPILOG = """\
exit codes:
  0  success
  2  usage error (unknown flag or missing argument)
  3  input file missing or malformed, or an output that cannot be written
  4  dimension mismatch between inputs
  5  parameter outside its allowed domain
  6  input lacks required structure (e.g. analyzing a void-free lattice)
  7  numerical routine out of tolerance
  8  requested event or anchor not present in the data

Relative output paths are created under $OUTPUT_DIR when that variable is set.
"""


def _outpath(path: str) -> str:
    base = os.environ.get("OUTPUT_DIR", "")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def walk(lattice, selector, times, classical=False, **params):
    """Resolve the input site, build the walk operator from ``params`` (the
    Hamiltonian, or the Laplacian if ``classical``), decompose it by mirror
    sector and evolve.  Returns (operator, spectrum, series) and writes
    nothing; the input site is ``series.input_site``.  A series of more than
    ``evolution.MAX_SERIES_VALUES`` values is refused before the operator
    is built."""
    from .evolution import _check_size

    _check_size(len(times), lattice.n_sites)
    input_site = _stage.resolve_input(lattice, selector)
    build = _stage.build_classical_generator if classical else _stage.build_hamiltonian
    operator = build(lattice, **params)
    spectrum = _stage.spectral_decompose(operator, _stage.mirror_permutation(lattice))
    evolve = _stage.evolve_classical if classical else _stage.evolve_quantum
    return operator, spectrum, evolve(spectrum, input_site, times)


def _given(args, *names) -> dict:
    """The flags among ``names`` that were given, by name; the others are
    left to the defaults of the stage they are passed to."""
    given = {name: getattr(args, name, None) for name in names}
    return {name: value for name, value in given.items() if value is not None}


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_lattice(args) -> int:
    """Runs on ``geometry`` and ``textio`` alone, without numpy."""
    from . import geometry, textio

    xy, edges = geometry.sites_and_edges(args.kind, args.generation)
    out = _outpath(args.out)
    textio.write_bytes(out, textio.lattice_bytes(args.kind, args.generation, xy, edges))
    print(f"{args.kind} generation {args.generation}: "
          f"{len(xy) // 2} sites, {len(edges) // 2} edges -> {out}")
    return 0


def cmd_evolve(args) -> int:
    """The ``evolve`` and ``classical`` subcommands."""
    from . import serialize

    lattice = serialize.read_lattice(args.lattice)
    times = _stage.preset_grid(lattice.kind, sites=lattice.n_sites,
                               **_given(args, "tau_max", "steps", "tau_min"))
    # the operator and the series: the spectrum is freed before any
    # artifact is written, and a walk that fails writes nothing
    operator, series = walk(lattice, args.input, times, args.classical,
                            **_given(args, "rate", "beta", "coupling"))[::2]
    if args.dump_matrix is not None:
        serialize.write_matrix_triplets(operator, _outpath(args.dump_matrix))
    out = _outpath(args.out)
    serialize.write_series(series, out)
    print(f"{series.kind.value} series: input {series.input_site}, "
          f"{series.times.size} times -> {out}")
    return 0


def cmd_observables(args) -> int:
    from . import serialize

    lattice, series = serialize.read_walk(args.lattice, args.series)
    table = _stage.build_observable_table(series, lattice)
    out = _outpath(args.out)
    serialize.write_observables(table, out)
    print(f"observables: {table.times.size} rows -> {out}")
    return 0


def cmd_analyze(args) -> int:
    from . import serialize

    lattice, series = serialize.read_walk(args.lattice, args.series)
    report = _stage.build_regime_report(
        lattice, series,
        **_given(args, "epsilon", "slope_window", "band", "delta", "min_span"),
    )
    out = _outpath(args.out)
    serialize.write_report(report, out)
    events = ", ".join(f"{k}={v:.4g}" for k, v in report.event_taus().items()) or "none"
    print(f"report: events [{events}] -> {out}")
    return 0


def cmd_render(args) -> int:
    from . import serialize
    from .render import RenderSpec

    lattice, series = serialize.read_walk(args.lattice, args.series)
    spec = RenderSpec(**_given(args, "pixels_per_spacing", "spot_sigma", "margin", "gamma"))
    out_dir = _outpath(args.out_dir)
    # every frame is rendered, as uint16 (2 bytes a pixel), before the first is written
    images = [_stage.render_frame(series, lattice, index, spec) for index in args.time_index]
    for index, image in zip(args.time_index, images):
        path = os.path.join(out_dir, f"{args.run}_t{index}.pgm")
        serialize.write_bytes(path, _stage.pgm_bytes(image))
        print(f"frame {index} ({image.shape[1]}x{image.shape[0]}) -> {path}")
    return 0


def cmd_calibrate(args) -> int:
    """Runs on ``textio``, ``geometry`` and ``calibration`` alone, without numpy."""
    from . import textio
    from .calibration import calibrate_events, report_events

    doc = textio.read_report_document(args.report)
    events = report_events(doc, args.report)
    result = calibrate_events(events, args.anchor_event, args.anchor_mm)
    if result is None:
        raise NotFoundError(f"anchor event {args.anchor_event!r} not present in {args.report}")
    doc["calibration"] = result
    out = _outpath(args.out)
    textio.write_json(doc, out)
    predicted = ", ".join(f"{k}={v:.3f}mm" for k, v in result.events_mm.items())
    print(f"calibration: scale {result.scale_mm_per_tau:.4f} mm/tau; {predicted} -> {out}")
    return 0


def cmd_sweep(args) -> int:
    from . import serialize
    from .analysis import DEFAULT_SLOPE_WINDOW, check_epsilon, check_slope_window
    from .geometry import FRACTAL_KINDS, check_voids

    # the plan: each instance's lattice, input site and time grid, in order
    # and keyed by its artifact stem (sg4); every check that can refuse an
    # instance runs here, before the first walk
    if args.epsilon is not None:
        check_epsilon(args.epsilon)
    plan = {}
    for chunk in args.instances.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            kind_name, gen_text = chunk.split(":")
            kind = LatticeKind.parse(kind_name)
            generation = int(gen_text)
        except (ValueError, TypeError):
            raise DomainError(
                f"bad instance {chunk!r}; expected kind:generation like sg:4"
            ) from None
        if kind not in FRACTAL_KINDS:
            raise DomainError(
                f"sweep runs the void-based analysis and needs fractal kinds; "
                f"got {kind.value!r}"
            )
        stem = f"{kind.value}{generation}"
        if stem in plan:
            raise DomainError(f"instance {kind.value}:{generation} is listed twice")
        lattice = _stage.generate(kind, generation)
        check_voids(kind, generation, lattice.n_sites)
        input_site = _stage.resolve_input(lattice, args.input)
        times = _stage.preset_grid(kind, args.tau_max, args.steps, sites=lattice.n_sites)
        check_slope_window(DEFAULT_SLOPE_WINDOW, times.size)
        plan[stem] = lattice, input_site, times
    if not plan:
        raise DomainError("no instances given")
    out_dir = _outpath(args.out_dir)
    pending = []  # (writer, document, path) of every instance, in manifest order
    for stem, (lattice, input_site, times) in plan.items():
        series = walk(lattice, input_site, times)[2]  # spectrum freed
        table = _stage.build_observable_table(series, lattice)
        report = _stage.build_regime_report(lattice, series, **_given(args, "epsilon"))
        base = os.path.join(out_dir, stem)
        # write_lattice writes any Lattice, but only generate's, as here, read back
        pending += [(serialize.write_lattice, lattice, f"{base}.lattice.json"),
                    (serialize.write_series, series, f"{base}.series.json"),
                    (serialize.write_observables, table, f"{base}.observables.csv"),
                    (serialize.write_report, report, f"{base}.report.json")]
        events = ", ".join(f"{k}={v:.4g}" for k, v in report.event_taus().items()) or "none"
        print(f"{stem}: {lattice.n_sites} sites, events [{events}]")
    del series, table, report  # now only pending holds the series, tables and reports
    paths = [path for _, _, path in pending]
    while pending:  # last instance first (lowest peak); each document freed once written
        write, document, path = pending.pop()
        write(document, path)
    manifest_path = os.path.join(out_dir, "manifest.json")
    serialize.write_manifest(paths, out_dir, manifest_path)
    print(f"manifest: {len(paths)} artifacts -> {manifest_path}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractalwalk",
        description="Continuous-time quantum walks on Sierpinski photonic lattices.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="generate a lattice and write it as JSON")
    p.add_argument("--kind", required=True, type=str.lower,
                   choices=[k.value for k in LatticeKind])
    p.add_argument("--generation", required=True, type=int,
                   help="generation (fractals) or rows/side (baselines)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lattice)

    def add_grid_flags(p):
        p.add_argument("--tau-min", type=float, default=None)
        p.add_argument("--tau-max", type=float, default=None,
                       help="default: per-kind preset")
        p.add_argument("--steps", type=int, default=None,
                       help="number of grid samples (default: per-kind preset)")

    p = sub.add_parser("evolve", help="quantum evolution over a time grid")
    p.add_argument("--lattice", required=True)
    p.add_argument("--input", default="auto",
                   help="site id, or apex/top-left/auto (default auto)")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--coupling", type=float, default=None)
    add_grid_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-hamiltonian", dest="dump_matrix", default=None,
                   help="write the Hamiltonian as triplet text (row col value)")
    p.set_defaults(func=cmd_evolve, classical=False)

    p = sub.add_parser("classical", help="classical (heat-kernel) evolution")
    p.add_argument("--lattice", required=True)
    p.add_argument("--input", default="auto")
    p.add_argument("--rate", type=float, default=None)
    add_grid_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-generator", dest="dump_matrix", default=None,
                   help="write the Laplacian as triplet text (row col value)")
    p.set_defaults(func=cmd_evolve, classical=True)

    p = sub.add_parser("observables", help="variance, return probability, Polya CSV")
    p.add_argument("--series", required=True)
    p.add_argument("--lattice", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_observables)

    p = sub.add_parser("analyze", help="regime report for a fractal run")
    p.add_argument("--series", required=True)
    p.add_argument("--lattice", required=True)
    # the threshold flags default to None: build_regime_report's defaults apply
    p.add_argument("--epsilon", type=float, default=None,
                   help="event-detection probability mass (default 0.02)")
    p.add_argument("--slope-window", type=int, default=None)
    p.add_argument("--band", type=float, default=None,
                   help="fractal-onset exponent band around d_f (default 0.15)")
    p.add_argument("--delta", type=float, default=None,
                   help="Polya plateau flatness (default 0.002)")
    p.add_argument("--min-span", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("render", help="write Gaussian-spot PGM frames")
    p.add_argument("--series", required=True)
    p.add_argument("--lattice", required=True)
    p.add_argument("--run", required=True, help="frame name prefix")
    p.add_argument("--time-index", required=True, type=int, action="append",
                   help="time index to render; repeatable")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--pixels-per-spacing", type=int, default=None)
    p.add_argument("--spot-sigma", type=float, default=None)
    p.add_argument("--margin", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("calibrate", help="anchor a report's events to mm")
    p.add_argument("--report", required=True)
    p.add_argument("--anchor-event", required=True, choices=["first_void", "farthest"])
    p.add_argument("--anchor-mm", required=True, type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("sweep", help="full pipeline over fractal instances")
    p.add_argument("--instances", required=True,
                   help="comma list of kind:generation, e.g. sg:4,sc:3,dsc:2")
    p.add_argument("--input", default="auto")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--tau-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    # sweep grids always start at tau = 0; there is no --tau-min flag
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FractalwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def run() -> NoReturn:
    """The process entry point (``python -m fractalwalk.cli`` and the
    ``fractalwalk`` console script).  Once ``main`` returns, its outputs are
    written: the process runs the atexit handlers, flushes stdout and stderr
    and ends with ``os._exit``, which skips the interpreter's teardown of
    every module and numpy object (20 to 35 ms wall, 35 to 55 ms CPU).  A
    SystemExit or an uncaught exception from ``main`` (``--help``, a usage
    error) takes the normal exit, and so does a process with a trace or
    profile function set, so that cProfile, coverage or pdb report."""
    status = main()
    if sys.gettrace() is None and sys.getprofile() is None:
        atexit._run_exitfuncs()
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except OSError:  # a closed pipe, say: the normal exit reports it
            sys.exit(status)
        os._exit(status)
    sys.exit(status)


if __name__ == "__main__":
    run()
