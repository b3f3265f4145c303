"""What each entry point loads and how its process exits: the lazy package
namespace, the CLI's per-subcommand imports and ``cli.run``'s exit, each
checked in a fresh interpreter."""

import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import fractalwalk
from fractalwalk import cli

SRC = str(pathlib.Path(fractalwalk.__file__).resolve().parents[1])
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def python(*args, cwd=None, stdout=subprocess.PIPE):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    # stdout buffered, as a pipe has it by default, so that what a process
    # leaves in its buffers at exit is seen
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=env, cwd=cwd)


def test_import_fractalwalk_loads_no_submodule_and_no_numpy():
    proc = python("-c", "import sys, json, fractalwalk; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert [m for m in loaded if m.startswith("fractalwalk.")] == []
    assert "numpy" not in loaded


def test_the_kind_table_names_load_no_numpy():
    proc = python("-c", "import sys, json\n"
                  "from fractalwalk import FractalMeta, LatticeKind, fractal_meta\n"
                  "print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "fractalwalk.geometry" in loaded
    assert not [m for m in loaded if m.split(".")[0] == "numpy"]


@pytest.fixture()
def report(tmp_path):
    path = tmp_path / "report.json"
    path.write_text('{"kind":"sg","first_void_tau":1.7,"l_f_tau":2.55,"farthest_tau":null}')
    return str(path)


# what ``python -m fractalwalk.cli ARGS`` runs, then the modules it loaded on
# stderr, printed by an atexit handler: ``cli.run`` ends the process without
# unwinding, after it runs the handlers
RUN_CLI = (
    "import atexit, json, runpy, sys\n"
    "atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))\n"
    "runpy.run_module('fractalwalk.cli', run_name='__main__', alter_sys=True)\n"
)


LATTICE_CASES = {"sg": "3", "sc": "2", "dsc": "2", "triangle": "4", "square": "4"}


@pytest.mark.parametrize("argv,status", [
    (["calibrate", "--report", "{report}", "--anchor-event", "first_void",
      "--anchor-mm", "2.675", "--out", "{out}"], 0),
    (["--help"], 0),
    (["calibrate", "--help"], 0),
    (["lattice", "--kind", "bogus", "--generation", "3", "--out", "{out}"], 2),
    (["calibrate", "--report", "{report}"], 2),
    *[(["lattice", "--kind", kind, "--generation", generation, "--out", "{out}"], 0)
      for kind, generation in LATTICE_CASES.items()],
], ids=["calibrate", "help", "calibrate-help", "bad-choice", "missing-flags",
        *[f"lattice-{kind}" for kind in LATTICE_CASES]])
def test_these_commands_run_without_numpy(tmp_path, report, argv, status):
    argv = [arg.format(report=report, out=tmp_path / "out.json") for arg in argv]
    proc = python("-c", RUN_CLI, *argv, cwd=tmp_path)
    assert proc.returncode == status, proc.stderr[-2000:]
    loaded = json.loads(proc.stderr.splitlines()[-1])
    assert "fractalwalk.errors" in loaded
    assert not [m for m in loaded if m.split(".")[0] == "numpy"]
    if "--anchor-mm" in argv:
        doc = json.loads((tmp_path / "out.json").read_text())
        assert doc["calibration"]["events_mm"]["l_f"] == pytest.approx(2.675 * 2.55 / 1.7)
    if argv[0] == "lattice" and status == 0:
        doc = json.loads((tmp_path / "out.json").read_text())
        assert (doc["kind"], doc["generation"]) == (argv[2], int(argv[4]))


@pytest.mark.parametrize("argv", [
    ["lattice", "--kind", "sc", "--generation", "3", "--out", "out.json"],
    ["--help"],
], ids=["lattice", "help"])
def test_these_commands_load_no_dataclasses(tmp_path, argv):
    # dataclasses brings inspect, ast, dis and tokenize; the kind table and
    # the lattice writer need none of them
    proc = python("-c", "import json, sys; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    bare = set(json.loads(proc.stdout))
    proc = python("-c", RUN_CLI, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    assert "fractalwalk.geometry" in loaded
    assert "dataclasses" not in loaded - bare


@pytest.fixture(scope="module")
def loaded_by_step(tmp_path_factory):
    """The modules each step of a dsc:1 lattice -> evolve -> analyze chain loads."""
    root = tmp_path_factory.mktemp("steps")
    lattice, series = str(root / "lattice.json"), str(root / "series.json")
    steps = {
        "lattice": ["lattice", "--kind", "dsc", "--generation", "1", "--out", lattice],
        "evolve": ["evolve", "--lattice", lattice, "--out", series],
        "analyze": ["analyze", "--series", series, "--lattice", lattice,
                    "--out", str(root / "report.json")],
    }
    loaded = {}
    for step, argv in steps.items():
        proc = python("-c", RUN_CLI, *argv, cwd=root)
        assert proc.returncode == 0, proc.stderr[-2000:]
        loaded[step] = set(json.loads(proc.stderr.splitlines()[-1]))
    return loaded


@pytest.mark.parametrize("command,absent", [
    ("lattice", {"lattice", "serialize", "hamiltonian", "evolution", "observables",
                 "analysis", "render", "calibration"}),
    ("evolve", {"observables", "analysis", "render", "calibration"}),
    ("analyze", {"hamiltonian", "render"}),
])
def test_each_subcommand_loads_only_its_stages(loaded_by_step, command, absent):
    assert not {f"fractalwalk.{name}" for name in absent} & loaded_by_step[command]


def test_carpet_steps_load_no_numpy_module_beyond_import_numpy(tmp_path):
    # np.unique of a plain array imports numpy.ma under NumPy 2.4; NumPy 1.x
    # imports it with numpy itself, so the bar is what ``import numpy`` loads
    proc = python("-c", "import json, sys, numpy; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    bare = set(json.loads(proc.stdout))

    def numpy_beyond_bare(*argv):
        proc = python("-c", RUN_CLI, *argv, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr[-2000:]
        loaded = set(json.loads(proc.stderr.splitlines()[-1]))
        return {m for m in loaded - bare if m.split(".")[0] == "numpy"}

    lattice, series = str(tmp_path / "lattice.json"), str(tmp_path / "series.json")
    assert numpy_beyond_bare("lattice", "--kind", "sc", "--generation", "2",
                             "--out", lattice) == set()
    assert cli.main(["evolve", "--lattice", lattice, "--out", series]) == 0
    assert numpy_beyond_bare("analyze", "--series", series, "--lattice", lattice,
                             "--out", str(tmp_path / "report.json")) == set()


def test_every_export_is_its_module_attribute():
    for name in fractalwalk.__all__:
        module = importlib.import_module(f"fractalwalk.{fractalwalk._EXPORTS[name]}")
        assert getattr(fractalwalk, name) is getattr(module, name), name
    assert set(fractalwalk.__all__) <= set(dir(fractalwalk))
    with pytest.raises(AttributeError):
        fractalwalk.no_such_name


def test_every_stage_resolves_on_cli():
    for name in fractalwalk.__all__:
        assert getattr(cli, name) is getattr(fractalwalk, name), name
    for name in ("no_such_stage", "__path__"):
        with pytest.raises(AttributeError):
            getattr(cli, name)


def test_a_wrapper_set_on_cli_is_what_runs(tmp_path, monkeypatch):
    # the lattice command writes without generate; a sweep calls it per instance
    calls = []
    generate = cli.generate

    def recording(*args):
        calls.append(args)
        return generate(*args)

    monkeypatch.setattr(cli, "generate", recording)
    assert cli.main(["sweep", "--instances", "dsc:1", "--out-dir", str(tmp_path)]) == 0
    assert calls == [("dsc", 1)]


def test_readme_quick_start_runs(tmp_path):
    # in a fresh process, so that every name comes through the lazy namespace
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    proc = python("-c", block.group(1), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "first_void" in proc.stdout


# ``cli.run`` with ``SETUP`` before it, an atexit handler registered first and
# a ``finally`` that only an unwinding exit reaches
RUN = (
    "import atexit, sys\n"
    "from fractalwalk import cli\n"
    "{setup}\n"
    "atexit.register(print, 'atexit handler ran')\n"
    "try:\n"
    "    cli.run()\n"
    "finally:\n"
    "    print('unwound', flush=True)\n"
)


@pytest.fixture(scope="module")
def sg3(tmp_path_factory):
    path = tmp_path_factory.mktemp("sg3") / "lattice.json"
    assert cli.main(["lattice", "--kind", "sg", "--generation", "3", "--out", str(path)]) == 0
    return str(path)


EXIT_CASES = {
    "success": (["lattice", "--kind", "sg", "--generation", "2", "--out", "{out}"], 0),
    "usage-error": (["lattice", "--kind", "bogus", "--generation", "2", "--out", "{out}"], 2),
    "missing-input": (["evolve", "--lattice", "absent.json", "--out", "{out}"], 3),
    "unwritable-output": (["lattice", "--kind", "sg", "--generation", "2", "--out", "."], 3),
    "eigensolver-check": (["evolve", "--lattice", "{sg3}", "--beta", "1e10", "--out", "{out}"], 7),
}


@pytest.mark.parametrize("entry", ["python -m", "cli.run"])
@pytest.mark.parametrize("case", list(EXIT_CASES))
def test_exit_status_of_each_entry_point(tmp_path, sg3, entry, case):
    argv, status = EXIT_CASES[case]
    argv = [arg.format(out=tmp_path / "out.json", sg3=sg3) for arg in argv]
    prefix = (["-m", "fractalwalk.cli"] if entry == "python -m"
              else ["-c", RUN.format(setup="")])
    proc = python(*prefix, *argv, cwd=tmp_path)
    assert proc.returncode == status, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    if status == 0:
        assert (tmp_path / "out.json").is_file()
    if status in (3, 7):
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    if entry == "cli.run":
        # a usage error leaves through SystemExit, as it always did
        lines = proc.stdout.splitlines()
        assert lines[-1] == "atexit handler ran"
        assert ("unwound" in lines) is (status == 2)


LATTICE = ["lattice", "--kind", "sg", "--generation", "2", "--out", "out.json"]


@pytest.mark.parametrize("setup,argv,status,unwinds", [
    ("", LATTICE, 0, False),
    ("sys.settrace(lambda *args: None)", LATTICE, 0, True),
    ("sys.setprofile(lambda *args: None)", LATTICE, 0, True),
    ("", ["--help"], 0, True),
    ("def failing(*args):\n    raise RuntimeError('a subcommand failed')\n"
     "cli.cmd_lattice = failing", LATTICE, 1, True),
], ids=["fast-exit", "traced", "profiled", "help", "uncaught-exception"])
def test_run_skips_teardown_only_after_main_returns_untraced(tmp_path, setup, argv,
                                                             status, unwinds):
    proc = python("-c", RUN.format(setup=setup), *argv, cwd=tmp_path)
    assert proc.returncode == status, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines[-1] == "atexit handler ran"
    assert ("unwound" in lines) is unwinds
    assert ("Traceback" in proc.stderr) is (status == 1)
    assert (tmp_path / "out.json").is_file() is (argv is LATTICE and status == 0)


def test_a_closed_stdout_exits_as_the_interpreter_reports_it(tmp_path):
    # the flush before the fast exit fails, so the normal exit reports the
    # lost output, with its status 120
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = python("-m", "fractalwalk.cli", *LATTICE, cwd=tmp_path, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 120, proc.stderr[-2000:]
    assert "BrokenPipeError" in proc.stderr and "Traceback" not in proc.stderr
    assert (tmp_path / "out.json").is_file()


def test_the_cli_runs_under_cprofile(tmp_path):
    # cProfile runs the module under the name __main__ without putting it in
    # sys.modules, and prints its table only if the process unwinds
    proc = python("-m", "cProfile", "-m", "fractalwalk.cli", *LATTICE, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "function calls" in proc.stdout
    assert (tmp_path / "out.json").is_file()
