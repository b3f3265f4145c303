"""Pipeline benchmark for fractalwalk: fresh-process runs plus a traced replay.

Run from the repository root:

    python3 perfbench/run.py --workload cli_chain --seed 1 --seconds 56 --trace 0
    python3 perfbench/run.py --workload all      # the three workloads in turn
    python3 perfbench/run.py --self-check        # tiny instances, every metric printed
    python3 perfbench/run.py --record-reference  # rewrite perfbench/reference.*

The program is driven only from outside.  Each command of a workload runs
as a fresh ``python3 -m fractalwalk.cli`` process, one after another (closed
loop, one client), with the BLAS thread settings the environment gives.
``--trace 0`` repeats whole passes of the workload's command list within
``--seconds`` (the next pass starts only if one as long as the last still
fits) and reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced pass with a traced replay (``trace_child.py``: the same commands,
each in a fresh process whose package functions are wrapped to record
spans) and reports per-layer metrics and a layer-share table.

Every command's outputs pass through the correctness gate (``gate.py``)
against references recorded when the benchmark was created; a command
fails if it exits nonzero or misses the gate.  The seed only picks the
rendered time index of ``cli_chain``: the program itself is deterministic.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import gate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_CHILD = os.path.join(HERE, "trace_child.py")

#: fresh ``import fractalwalk`` processes timed per run for setup_s
SETUP_REPEATS = 3
#: render time indices of the sc grid (241 samples) that a seed picks from
FRAME_INDICES = (40, 80, 120, 160, 200, 240)

#: (name, unit, better, bound) of the end-to-end metrics; BENCHMARK.json
#: mirrors this table and ``--self-check`` compares the two
END_TO_END = (
    ("wall_s", "s", "lower", 0.24),
    ("cpu_s", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)
#: printed beside the end-to-end metrics but left out of the JSON metrics,
#: because it is 0 on a correct run; ``failed`` carries it to the JSON line
FAILED_FRAC = ("failed_frac", "fraction")

#: (name, unit, better, note) of the per-layer metrics in the JSON line
PER_LAYER = (
    ("cli.processes", "count", "lower", ""),
    ("cli.import_s", "s", "lower", "import span"),
    ("cli.overhead_s", "s", "lower", "process wall - import - library spans"),
    ("lattice.generate_s", "s", "lower", ""),
    ("lattice.landmarks_s", "s", "lower", ""),
    ("lattice.sites", "count", "lower", ""),
    ("lattice.edges", "count", "lower", ""),
    ("hamiltonian.build_s", "s", "lower", ""),
    ("hamiltonian.dense_bytes", "bytes", "lower", "computed"),
    ("evolution.spectral_s", "s", "lower", "inclusive of eigh"),
    ("evolution.eigh_s", "s", "lower", ""),
    ("evolution.spectral_checks_s", "s", "lower", "spectral_decompose self"),
    ("evolution.eigh_n3", "count", "lower", "computed, sum of N^3"),
    ("evolution.evolve_quantum_s", "s", "lower", ""),
    ("evolution.finalize_s", "s", "lower", ""),
    ("kernels.quantum_s", "s", "lower", ""),
    ("kernels.quantum_flops", "count", "lower", "computed, 8TN^2 + TN"),
    ("kernels.quantum_bytes", "bytes", "lower", "computed, two TxN complex arrays"),
    ("kernels.splat_evals", "count", "lower", "computed, pixels x sites"),
    ("kernels.case_quantum_sg4_s", "s", "lower", "bench_kernels case, median of 3"),
    ("kernels.case_quantum_sc3_s", "s", "lower", "bench_kernels case, median of 3"),
    ("kernels.case_classical_sg4_s", "s", "lower", "bench_kernels case, median of 3"),
    ("kernels.case_splat_sg4_s", "s", "lower", "bench_kernels case, median of 3"),
    ("render.pixels", "count", "lower", ""),
    ("observables.table_s", "s", "lower", ""),
    ("analysis.report_s", "s", "lower", ""),
    ("serialize.write_s", "s", "lower", ""),
    ("serialize.write_bytes", "bytes", "lower", ""),
    ("serialize.floats_written", "count", "lower", ""),
    ("serialize.read_bytes", "bytes", "lower", ""),
    ("serialize.identical_artifacts", "count", "higher", "byte-identical to the reference"),
    ("serialize.artifacts", "count", "higher", ""),
    ("trace.overhead_s", "s", "lower", "traced - untraced wall"),
)
#: per-layer times printed by the traced run but kept out of the JSON line:
#: both sweeps never enter these layers, so they read 0 s on every sweep run
PRINTED_ONLY = (
    ("serialize.read_s", "s", ""),
    ("evolution.evolve_classical_s", "s", ""),
    ("kernels.classical_s", "s", ""),
    ("kernels.splat_s", "s", ""),
    ("render.frame_s", "s", ""),
)
LAYERS = ("import", "cli", "lattice", "hamiltonian", "evolution", "kernels",
          "observables", "analysis", "render", "serialize")


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    outputs: tuple[str, ...]


def sweep_commands(instances: tuple[str, ...]) -> list[Command]:
    stems = [name.replace(":", "") for name in instances]
    outputs = tuple(
        f"{stem}.{suffix}" for stem in stems
        for suffix in ("lattice.json", "series.json", "observables.csv", "report.json")
    ) + ("manifest.json",)
    return [Command(("sweep", "--instances", ",".join(instances), "--out-dir", "."),
                    outputs)]


def chain_commands(kind: str, generation: int, frames: tuple[int, ...]) -> list[Command]:
    stem = f"{kind}{generation}"
    lat, ser, cls = f"{stem}.lattice.json", f"{stem}.series.json", f"{stem}.classical.json"
    obs, rep, cal = f"{stem}.observables.csv", f"{stem}.report.json", f"{stem}.calibrated.json"
    pair = ("--series", ser, "--lattice", lat)
    return [
        Command(("lattice", "--kind", kind, "--generation", str(generation), "--out", lat),
                (lat,)),
        Command(("evolve", "--lattice", lat, "--out", ser), (ser,)),
        Command(("classical", "--lattice", lat, "--out", cls), (cls,)),
        Command(("observables", *pair, "--out", obs), (obs,)),
        Command(("analyze", *pair, "--out", rep), (rep,)),
        Command(("render", *pair, "--run", stem,
                 *(arg for i in frames for arg in ("--time-index", str(i))), "--out-dir", "."),
                tuple(f"{stem}_t{i}.pgm" for i in frames)),
        Command(("calibrate", "--report", rep, "--anchor-event", "first_void",
                 "--anchor-mm", "2.675", "--out", cal), (cal,)),
    ]


#: each maps the rendered time indices (used by the chains only) to commands;
#: README.md records why each exists and why BENCHMARK.json omits sweep_ladder
WORKLOADS = {
    "sweep_ladder": lambda frames: sweep_commands(("sg:4", "sg:5", "sg:6", "sc:3", "dsc:3")),
    "spectral_large": lambda frames: sweep_commands(("dsc:4",)),
    "cli_chain": lambda frames: chain_commands("sc", 3, frames),
    # tiny instances for --self-check only (sg:2 has no void, which the
    # sweep's analysis needs, so the smallest gasket is sg:3)
    "tiny_sweep": lambda frames: sweep_commands(("sg:3", "dsc:2")),
    "tiny_chain": lambda frames: chain_commands("dsc", 2, frames),
}
MAIN_WORKLOADS = ("sweep_ladder", "spectral_large", "cli_chain")


def frame_index(seed: int) -> int:
    return random.Random(seed).choice(FRAME_INDICES)


# ---------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    status: int
    wall: float
    cpu: float
    rss_mb: float
    stderr: str


@dataclass
class Iteration:
    wall: float
    procs: list[Proc]
    failed: int = 0
    identical: int = 0
    artifacts: int = 0
    spans: list[list[dict]] = field(default_factory=list)


class Runner:
    """Spawns the program's processes and gates their outputs."""

    def __init__(self, workdir: str, reference: gate.Reference):
        self.workdir = workdir
        self.reference = reference
        self.python = sys.executable
        env = dict(os.environ)
        env.pop("OUTPUT_DIR", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH", "")) if p)
        self.env = env

    def spawn(self, argv: list[str], cwd: str) -> Proc:
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            text = err.read().decode("utf-8", errors="replace")
        return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, text)

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def time_import(self) -> float:
        return self.spawn([self.python, "-c", "import fractalwalk"], self.workdir).wall

    def iteration(self, workload: str, commands: list[Command], traced: bool) -> Iteration:
        cwd = self.fresh_dir("run")
        spans_dir = self.fresh_dir("spans")
        spans_paths = [os.path.join(spans_dir, f"{i}.json") for i in range(len(commands))]
        procs = []
        start = time.perf_counter()
        for command, spans_path in zip(commands, spans_paths):
            prefix = ([self.python, TRACE_CHILD, spans_path, "--"] if traced
                      else [self.python, "-m", "fractalwalk.cli"])
            procs.append(self.spawn(prefix + list(command.argv), cwd))
        result = Iteration(time.perf_counter() - start, procs)
        for command, proc in zip(commands, procs):
            misses = [] if proc.status == 0 else [f"exit status {proc.status}"]
            for name in command.outputs:
                output_misses, identical = self.reference.check(
                    f"{workload}/{name}", os.path.join(cwd, name))
                misses += [f"{name}: {m}" for m in output_misses]
                result.identical += identical
                result.artifacts += 1
            if misses:
                result.failed += 1
                print(f"FAILED {' '.join(command.argv)}: {'; '.join(misses)}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
        if traced:
            result.spans = [_load_spans(path) for path in spans_paths]
        return result

    def kernel_cases(self) -> tuple[Proc, list[dict]]:
        spans_path = os.path.join(self.workdir, "cases.json")
        proc = self.spawn([self.python, TRACE_CHILD, spans_path, "--kernel-cases"],
                          self.workdir)
        return proc, _load_spans(spans_path)


def _load_spans(path: str) -> list[dict]:
    """Spans a traced child wrote; none if it died before writing them."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return []


# ---------------------------------------------------------------------------
# span aggregation


def _durations(spans: list[dict]) -> tuple[list[float], list[float]]:
    total = [s["end"] - s["start"] for s in spans]
    children = [0.0] * len(spans)
    for span, duration in zip(spans, total):
        if span["parent"] is not None:
            children[span["parent"]] += duration
    return total, [t - c for t, c in zip(total, children)]


#: span name -> (metric taking the span's total time, metric taking its self time)
_SPAN_TIMES = {
    "generate": ("lattice.generate_s", None),
    "landmark_sites": ("lattice.landmarks_s", None),
    "build_hamiltonian": ("hamiltonian.build_s", None),
    "build_classical_generator": ("hamiltonian.build_s", None),
    "spectral_decompose": ("evolution.spectral_s", "evolution.spectral_checks_s"),
    "eigh": ("evolution.eigh_s", None),
    "evolve_quantum": (None, "evolution.evolve_quantum_s"),
    "evolve_classical": (None, "evolution.evolve_classical_s"),
    "_finalize": ("evolution.finalize_s", None),
    "quantum_probabilities": ("kernels.quantum_s", None),
    "classical_probabilities": ("kernels.classical_s", None),
    "gaussian_splat": ("kernels.splat_s", None),
    "build_observable_table": ("observables.table_s", None),
    "build_regime_report": (None, "analysis.report_s"),
    "render_frame": (None, "render.frame_s"),
    "pgm_bytes": ("render.frame_s", None),
}


def layer_metrics(it: Iteration) -> tuple[dict[str, float], dict[str, float]]:
    """(named per-layer metrics, self time per layer) of one traced iteration."""
    metrics: dict[str, float] = defaultdict(float)
    layers: dict[str, float] = defaultdict(float)
    for proc, spans in zip(it.procs, it.spans):
        total, self_time = _durations(spans)
        imported = sum(t for s, t in zip(spans, total) if s["layer"] == "import")
        library = sum(t for s, t in zip(spans, total)
                      if s["parent"] is not None and spans[s["parent"]]["layer"] == "cli")
        metrics["cli.processes"] += 1
        metrics["cli.import_s"] += imported
        metrics["cli.overhead_s"] += proc.wall - imported - library
        for span, span_total, span_self in zip(spans, total, self_time):
            layer, name = span["layer"], span["name"]
            if layer in ("import", "cli"):
                continue
            layers[layer] += span_self
            if layer == "serialize":
                kind = "read" if name.startswith("read") else "write"
                metrics[f"serialize.{kind}_s"] += span_self
            total_metric, self_metric = _SPAN_TIMES.get(name, (None, None))
            if total_metric:
                metrics[total_metric] += span_total
            if self_metric:
                metrics[self_metric] += span_self
            for metric, value in span.get("counts", {}).items():
                metrics[metric] += value
    layers["import"] = metrics["cli.import_s"]
    layers["cli"] = metrics["cli.overhead_s"]
    return metrics, layers


def case_metrics(spans: list[dict]) -> dict[str, float]:
    total, _ = _durations(spans)
    per_case = defaultdict(list)
    for span, duration in zip(spans, total):
        parent = span["parent"]
        if span["layer"] == "kernels" and parent is not None and spans[parent]["layer"] == "case":
            per_case[spans[parent]["name"]].append(duration)
    return {f"kernels.case_{case}_s": statistics.median(times)
            for case, times in per_case.items()}


# ---------------------------------------------------------------------------
# machine record

_PROBE = r"""
import json, platform
import numpy, scipy
from fractalwalk import kernels
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception as exc:
    blas = f"unknown ({exc})"
try:
    import numba
    numba_version = numba.__version__
except ImportError:
    numba_version = None
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas, "numba": numba_version,
                  "kernels_path": "numba" if kernels.USING_NUMBA else "numpy"}))
"""
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS",
                "FRACTALWALK_NO_NUMBA")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def machine_record(runner: Runner) -> dict:
    """Versions, BLAS and thread settings; also warms the bytecode cache."""
    out = subprocess.run([runner.python, "-c", _PROBE], env=runner.env, cwd=runner.workdir,
                         capture_output=True, text=True, check=True)
    record = {"nproc": os.cpu_count(), "cpu_model": _cpu_model()}
    record.update(json.loads(out.stdout))
    record["thread_env"] = {name: os.environ.get(name) for name in _THREAD_VARS}
    return record


# ---------------------------------------------------------------------------
# one workload


def _line(name: str, value: float, unit: str, note: str) -> str:
    return f"  {name:<32} {value:>16.6f} {unit:<8} {note}"


def _spread(values: list[float]) -> str:
    return f"min {min(values):.4f}, max {max(values):.4f}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 runner: Runner) -> tuple[bool, int, int, dict[str, float]]:
    index = frame_index(seed)
    commands = WORKLOADS[workload]((index,))
    print(f"workload {workload}: seed {seed}, {seconds:g} s, trace {int(trace)}; "
          f"{len(commands)} command(s) per pass, closed loop, one client"
          + (f"; frame time index {index}" if workload.endswith("chain") else ""))

    setup = [] if trace else [runner.time_import() for _ in range(SETUP_REPEATS)]
    plain: list[Iteration] = []
    traced: list[Iteration] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        plain.append(runner.iteration(workload, commands, traced=False))
        if trace:
            traced.append(runner.iteration(workload, commands, traced=True))
        # the next pass starts only if one as long as this one still fits
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    cases_proc, case_spans = runner.kernel_cases() if trace else (None, [])

    runs = plain + traced
    attempted = sum(len(it.procs) for it in runs) + (cases_proc is not None)
    failed = sum(it.failed for it in runs) + (cases_proc is not None and cases_proc.status != 0)
    walls = [it.wall for it in plain]
    worst = min(runs, key=lambda it: it.identical)
    print(f"  artifacts byte-identical to the reference: {worst.identical} of "
          f"{worst.artifacts} (fewest over {len(runs)} passes)")

    if not trace:
        cpus = [sum(p.cpu for p in it.procs) for it in plain]
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(p.rss_mb for it in plain for p in it.procs),
        }
        n = len(plain)
        notes = {
            "wall_s": f"median of {n} samples ({_spread(walls)})",
            "cpu_s": f"median of {n} samples, children user+sys ({_spread(cpus)})",
            "setup_s": f"median of {len(setup)} samples, fresh import ({_spread(setup)})",
            "peak_rss_mb": f"max over {sum(len(it.procs) for it in plain)} child processes",
        }
        print(f"end-to-end (a run gives {n} samples: too few for a tail percentile):")
        for name, unit, _, _ in END_TO_END:
            print(_line(name, metrics[name], unit, notes[name]))
        print(_line(FAILED_FRAC[0], failed / attempted, FAILED_FRAC[1],
                    f"{failed} failed of {attempted} attempted commands"))
        return failed == 0, attempted, failed, metrics

    samples = [layer_metrics(it) for it in traced]
    metrics = {}
    for name, *_ in PER_LAYER + PRINTED_ONLY:
        metrics[name] = statistics.median(m.get(name, 0.0) for m, _ in samples)
    metrics.update(case_metrics(case_spans))
    metrics["serialize.identical_artifacts"] = float(worst.identical)
    metrics["serialize.artifacts"] = float(worst.artifacts)
    untraced_wall = statistics.median(walls)
    metrics["trace.overhead_s"] = statistics.median(it.wall for it in traced) - untraced_wall
    layer_self = {layer: statistics.median(l.get(layer, 0.0) for _, l in samples)
                  for layer in LAYERS}

    print(f"layer self time and share of wall_s (untraced median {untraced_wall:.4f} s "
          f"of {len(plain)}; traced median of {len(traced)}):")
    for layer in LAYERS:
        print(f"  {layer:<14} {layer_self[layer]:>12.6f} s {layer_self[layer] / untraced_wall:>8.1%}")
    accounted = sum(layer_self.values())
    print(f"  {'total':<14} {accounted:>12.6f} s {accounted / untraced_wall:>8.1%}")
    overhead = metrics["trace.overhead_s"]
    print(f"  {'trace.overhead':<14} {overhead:>12.6f} s {overhead / untraced_wall:>8.1%}")
    print(f"per-layer (median of {len(traced)} traced passes; work counts computed "
          "from array shapes are labelled computed):")
    for name, unit, _, note in PER_LAYER:
        print(_line(name, metrics[name], unit, note))
    for name, unit, note in PRINTED_ONLY:
        print(_line(name, metrics[name], unit, note or "printed only: 0 on both sweeps"))
    print(_line(FAILED_FRAC[0], failed / attempted, FAILED_FRAC[1],
                f"{failed} failed of {attempted} attempted"))
    json_metrics = {name: metrics[name] for name, *_ in PER_LAYER}
    return failed == 0, attempted, failed, json_metrics


# ---------------------------------------------------------------------------
# reference recording and self-check


def record_reference(runner: Runner) -> int:
    reference = gate.Reference(HERE)
    for workload in WORKLOADS:
        commands = WORKLOADS[workload](FRAME_INDICES)
        cwd = runner.fresh_dir("run")
        for command in commands:
            proc = runner.spawn([runner.python, "-m", "fractalwalk.cli", *command.argv], cwd)
            if proc.status != 0:
                print(f"{workload}: {' '.join(command.argv)} failed:\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            for name in command.outputs:
                reference.add(f"{workload}/{name}", os.path.join(cwd, name))
        print(f"recorded {workload}")
    reference.save()
    return 0


def _printed(lines: list[str], name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and unit in line.split()[1:] for line in lines)


def self_check() -> int:
    """Runs the tiny workloads both ways and checks every metric is printed."""
    problems = []
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
            declared = json.load(handle)
    except FileNotFoundError:
        declared = None
    if declared is not None:
        e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]]
        layer = [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]]
        if e2e != list(END_TO_END):
            problems.append("BENCHMARK.json end_to_end differs from END_TO_END")
        if layer != [row[:3] for row in PER_LAYER]:
            problems.append("BENCHMARK.json per_layer differs from PER_LAYER")
    for workload in ("tiny_sweep", "tiny_chain"):
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True)
            lines = out.stdout.splitlines()
            label = f"{workload} trace {trace}"
            if out.returncode != 0 or not lines:
                problems.append(f"{label}: exit {out.returncode}\n{out.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            expected = ([m[0] for m in END_TO_END] if trace == 0
                        else [m[0] for m in PER_LAYER])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            elif list(result["metrics"]) != expected:
                problems.append(f"{label}: JSON metrics {list(result['metrics'])}")
            elif not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} failed commands")
            printed = ([m[:2] for m in END_TO_END] if trace == 0
                       else [m[:2] for m in PER_LAYER + PRINTED_ONLY]) + [FAILED_FRAC]
            for name, unit in printed:
                if not _printed(lines, name, unit):
                    problems.append(f"{label}: {name} not printed with unit {unit}")
            print(f"{label}: {len(printed)} metrics printed")
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print("self-check " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "fractalwalk", "cli.py")):
        print(f"no fractalwalk source under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()

    reference = gate.Reference(HERE)
    if not args.record_reference:
        try:
            reference.load()
        except OSError as exc:
            print(f"cannot load the recorded references: {exc}", file=sys.stderr)
            return 2
    workdir = os.path.join(ROOT, ".bench_work", f"{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(workdir, reference)
        if args.record_reference:
            return record_reference(runner)
        print("machine " + json.dumps(machine_record(runner), sort_keys=True))
        workloads = MAIN_WORKLOADS if args.workload == "all" else (args.workload,)
        units = {m[0]: m[1] for m in END_TO_END + PER_LAYER}
        correct, attempted, failed, metrics = True, 0, 0, {}
        for workload in workloads:
            ok, n, bad, values = run_workload(workload, args.seed, args.seconds,
                                              bool(args.trace), runner)
            correct, attempted, failed = correct and ok, attempted + n, failed + bad
            prefix = "" if len(workloads) == 1 else f"{workload}."
            metrics.update({f"{prefix}{k}": {"value": v, "unit": units[k]}
                            for k, v in values.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
