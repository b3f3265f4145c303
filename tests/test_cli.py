"""Command-line interface: pipelines, exit codes, output routing."""

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import fractalwalk
from fractalwalk import cli, evolution
from fractalwalk.errors import DomainError, StructuralError
from fractalwalk.evolution import (evolve_classical, evolve_quantum, preset_grid,
                                   spectral_decompose)
from fractalwalk.hamiltonian import Operator, build_classical_generator, build_hamiltonian
from fractalwalk.lattice import canonical_input, generate, mirror_permutation
from fractalwalk.render import RenderSpec, pgm_bytes, render_frame
from fractalwalk.serialize import (read_lattice, read_series, read_walk, write_lattice,
                                   write_series)
from oracle import read_pgm


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One full dsc-1 pipeline executed through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "lattice": str(root / "lat.json"),
        "series": str(root / "series.json"),
        "matrix": str(root / "h.txt"),
        "csv": str(root / "obs.csv"),
        "report": str(root / "report.json"),
        "calibrated": str(root / "calibrated.json"),
        "frames": str(root / "frames"),
    }
    assert cli.main(["lattice", "--kind", "dsc", "--generation", "1",
                     "--out", paths["lattice"]]) == 0
    assert cli.main(["evolve", "--lattice", paths["lattice"],
                     "--tau-max", "12", "--steps", "121",
                     "--out", paths["series"],
                     "--dump-hamiltonian", paths["matrix"]]) == 0
    assert cli.main(["observables", "--series", paths["series"],
                     "--lattice", paths["lattice"], "--out", paths["csv"]]) == 0
    assert cli.main(["analyze", "--series", paths["series"],
                     "--lattice", paths["lattice"], "--out", paths["report"]]) == 0
    return paths


def test_lattice_artifact(workspace):
    lat = read_lattice(workspace["lattice"])
    assert lat.n_sites == 8 and lat.n_edges == 8


def test_lattice_kind_takes_any_case(tmp_path):
    # as sweep --instances, LatticeKind.parse and read_lattice do: the file
    # is the lower-case kind's, byte for byte
    for kind in ("sg", "dsc"):
        upper, lower = tmp_path / f"upper-{kind}.json", tmp_path / f"lower-{kind}.json"
        for name, out in ((kind.upper(), upper), (kind, lower)):
            assert run(["lattice", "--kind", name, "--generation", "2", "--out", str(out)]) == 0
        assert upper.read_bytes() == lower.read_bytes(), kind
    assert (tmp_path / "upper-sg.json").read_text().startswith('{"kind":"sg",')


def test_evolve_artifacts(workspace):
    series = read_series(workspace["series"])
    assert series.times.size == 121
    assert series.n_sites == 8
    lines = pathlib.Path(workspace["matrix"]).read_text().splitlines()
    assert len(lines) == 16  # both triangles of the 8 couplings


def test_observables_artifact(workspace):
    lines = pathlib.Path(workspace["csv"]).read_text().splitlines()
    assert lines[0] == "tau,variance,return_prob,polya"
    assert len(lines) == 122


def test_report_artifact(workspace):
    doc = json.loads(pathlib.Path(workspace["report"]).read_text())
    assert doc["kind"] == "dsc"
    assert doc["farthest_tau"] is not None


def test_calibrate_command(workspace):
    code = run(["calibrate", "--report", workspace["report"],
                "--anchor-event", "farthest", "--anchor-mm", "9.5",
                "--out", workspace["calibrated"]])
    assert code == 0
    doc = json.loads(pathlib.Path(workspace["calibrated"]).read_text())
    cal = doc["calibration"]
    assert cal["events_mm"]["farthest"] == pytest.approx(9.5)
    assert cal["scale_mm_per_tau"] == pytest.approx(9.5 / doc["farthest_tau"])


def test_render_command(workspace):
    code = run(["render", "--series", workspace["series"],
                "--lattice", workspace["lattice"],
                "--run", "demo", "--time-index", "0", "--time-index", "5",
                "--out-dir", workspace["frames"],
                "--pixels-per-spacing", "6"])
    assert code == 0
    for index in (0, 5):
        data = pathlib.Path(workspace["frames"], f"demo_t{index}.pgm").read_bytes()
        image = read_pgm(data)
        assert image.dtype == np.uint16 and image.max() == 65535


def test_evolve_from_an_off_axis_input(tmp_path):
    # no workload launches off the mirror axis; this input takes the path
    # that solves the antisymmetric block and contracts over every site
    lat, out = str(tmp_path / "dsc2.json"), str(tmp_path / "off.json")
    assert run(["lattice", "--kind", "dsc", "--generation", "2", "--out", lat]) == 0
    lattice = read_lattice(lat)
    site = int(np.flatnonzero(mirror_permutation(lattice) != np.arange(lattice.n_sites))[0])
    assert run(["evolve", "--lattice", lat, "--input", str(site), "--out", out]) == 0
    series = read_series(out)
    full = evolve_quantum(spectral_decompose(build_hamiltonian(lattice)), site, series.times)
    assert series.input_site == site
    assert np.abs(series.probabilities - full.probabilities).max() < 1e-12


# --- exit codes -----------------------------------------------------------

def test_usage_error_is_exit_2(tmp_path):
    with pytest.raises(SystemExit) as info:
        run(["lattice", "--kind", "sg"])  # missing --generation and --out
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run([])
    assert info.value.code == 2
    lattice = str(tmp_path / "lattice.json")
    assert run(["lattice", "--kind", "dsc", "--generation", "2", "--out", lattice]) == 0
    with pytest.raises(SystemExit) as info:  # the JSON series is the one series format
        run(["evolve", "--lattice", lattice, "--out", str(tmp_path / "s.json"),
             "--binary-out", str(tmp_path / "b")])
    assert info.value.code == 2
    assert os.listdir(tmp_path) == ["lattice.json"]


def test_missing_input_file_is_exit_3(tmp_path):
    code = run(["evolve", "--lattice", str(tmp_path / "absent.json"),
                "--out", str(tmp_path / "out.json")])
    assert code == 3


def test_dimension_mismatch_is_exit_4(workspace, tmp_path):
    other = str(tmp_path / "sg2.json")
    assert run(["lattice", "--kind", "sg", "--generation", "2", "--out", other]) == 0
    code = run(["observables", "--series", workspace["series"],
                "--lattice", other, "--out", str(tmp_path / "x.csv")])
    assert code == 4


def test_domain_error_is_exit_5(workspace, tmp_path):
    code = run(["analyze", "--series", workspace["series"],
                "--lattice", workspace["lattice"],
                "--epsilon", "1.5", "--out", str(tmp_path / "r.json")])
    assert code == 5
    code = run(["lattice", "--kind", "sg", "--generation", "0",
                "--out", str(tmp_path / "lat.json")])
    assert code == 5


def test_missing_structure_is_exit_6(tmp_path):
    lat = str(tmp_path / "tri.json")
    series = str(tmp_path / "tri-series.json")
    assert run(["lattice", "--kind", "triangle", "--generation", "4",
                "--out", lat]) == 0
    assert run(["evolve", "--lattice", lat, "--tau-max", "2", "--steps", "21",
                "--out", series]) == 0
    code = run(["analyze", "--series", series, "--lattice", lat,
                "--out", str(tmp_path / "r.json")])
    assert code == 6


@pytest.fixture(scope="module")
def sg4_files(tmp_path_factory):
    """An sg-4 lattice and its quantum series on the preset grid.

    Both edits below used to be analyzed silently with exit 0.
    """
    root = tmp_path_factory.mktemp("sg4")
    lattice, series = str(root / "lat.json"), str(root / "series.json")
    assert run(["lattice", "--kind", "sg", "--generation", "4", "--out", lattice]) == 0
    assert run(["evolve", "--lattice", lattice, "--out", series]) == 0
    return lattice, series


def test_relabelled_lattice_is_exit_3(sg4_files, tmp_path, capsys):
    # a lattice file is the one its kind and generation generate, byte for
    # byte: relabelled, stripped of its edges or re-dumped by the stdlib, it
    # is refused by every reader before anything is computed or written.
    # The compact dump gives the true bytes back, so each edit is the field
    lattice, series = sg4_files
    true = pathlib.Path(lattice).read_text()
    doc = json.loads(true)
    assert _compact(doc) == true
    edits = {"generation": _compact({**doc, "generation": 3}),
             "kind": _compact({**doc, "kind": "sc"}),
             "edges": _compact({**doc, "edges": []}),
             "re-dumped": json.dumps(doc)}
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for name, text in edits.items():
        bad = inputs / f"{name}.json"
        bad.write_text(text)
        for argv in _series_commands(str(bad), series, tmp_path):
            capsys.readouterr()
            assert run(argv) == 3, (name, argv[0])
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad} is not the ") and err.count("\n") == 1, err
    assert [p.name for p in tmp_path.iterdir()] == ["inputs"]


def test_non_finite_series_value_is_exit_3(sg4_files, tmp_path):
    lattice, series = sg4_files
    doc = json.loads(pathlib.Path(series).read_text())
    doc["probabilities"][0][0] = float("nan")
    bad = tmp_path / "nan-series.json"
    bad.write_text(json.dumps(doc))  # the stdlib writes the NaN token
    for command in ("analyze", "observables"):
        code = run([command, "--series", str(bad), "--lattice", lattice,
                    "--out", str(tmp_path / "out")])
        assert code == 3


def _series_commands(lattice, series, tmp_path, time_index=5):
    pair = ["--series", series, "--lattice", lattice]
    return [["observables", *pair, "--out", str(tmp_path / "o.csv")],
            ["analyze", *pair, "--out", str(tmp_path / "r.json")],
            ["render", *pair, "--run", "f", "--time-index", str(time_index),
             "--out-dir", str(tmp_path / "frames")]]


@pytest.mark.parametrize("field", ["probabilities", "times"])
def test_overflowing_series_number_is_exit_3(sg4_files, tmp_path, field):
    lattice, series = sg4_files
    doc = json.loads(pathlib.Path(series).read_text())
    # the last time, so that the grid still ascends
    owner = doc["probabilities"][5] if field == "probabilities" else doc["times"]
    owner[5 if field == "probabilities" else -1] = "OVERFLOW"
    bad = tmp_path / "overflow.json"
    bad.write_text(json.dumps(doc).replace('"OVERFLOW"', "1e400"))  # parses to inf
    for argv in _series_commands(lattice, str(bad), tmp_path):
        assert run(argv) == 3, argv[0]


def test_negative_probability_is_exit_5(sg4_files, tmp_path):
    lattice, series = sg4_files
    doc = json.loads(pathlib.Path(series).read_text())
    doc["probabilities"][5][7] = -7.0
    bad = tmp_path / "negative.json"
    bad.write_text(json.dumps(doc))
    for argv in _series_commands(lattice, str(bad), tmp_path):
        assert run(argv) == 5, argv[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_series_row_whose_sum_overflows_is_exit_5(sg4_files, tmp_path):
    # two finite entries of 1e308 sum to inf: the distribution check
    # refuses the row, and no RuntimeWarning is raised on the way
    lattice, series = sg4_files
    doc = json.loads(pathlib.Path(series).read_text())
    doc["probabilities"][5][:2] = [1e308, 1e308]
    bad = tmp_path / "overflowing-sum.json"
    bad.write_text(json.dumps(doc))
    for argv in _series_commands(lattice, str(bad), tmp_path):
        assert run(argv) == 5, argv[0]


@pytest.fixture(scope="module")
def sc3_files(tmp_path_factory):
    """An sc-3 lattice and its quantum series on the preset grid (printed
    with 12 digits, its rows sum to 1 within 1.6e-12)."""
    root = tmp_path_factory.mktemp("sc3")
    lattice, series = str(root / "lat.json"), str(root / "series.json")
    assert run(["lattice", "--kind", "sc", "--generation", "3", "--out", lattice]) == 0
    assert run(["evolve", "--lattice", lattice, "--out", series]) == 0
    return lattice, series


def test_unnormalised_series_row_is_exit_5(sc3_files, tmp_path):
    lattice, series = sc3_files
    doc = json.loads(pathlib.Path(series).read_text())
    # the launch row holds 1 at the input and 0 elsewhere; now it sums to 8
    doc["probabilities"][0][doc["input_site"] + 1] = 7.0
    bad = tmp_path / "unnormalised.json"
    bad.write_text(json.dumps(doc))
    for argv in _series_commands(lattice, str(bad), tmp_path, time_index=0):
        assert run(argv) == 5, argv[0]


def test_an_all_black_frame_is_exit_5(sc3_files, tmp_path, capsys):
    # the slice sums to 1, but no spot this narrow reaches a pixel centre
    lattice, series = sc3_files
    capsys.readouterr()
    assert run(["render", "--series", series, "--lattice", lattice, "--run", "f",
                "--time-index", "120", "--spot-sigma", "1e-100",
                "--out-dir", str(tmp_path)]) == 5
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: the frame is all black") and "spot_sigma" in err
    assert "pixels_per_spacing" in err
    assert list(tmp_path.iterdir()) == []


def test_a_frame_out_of_range_is_exit_5_before_any_frame_is_written(sg3_files, tmp_path,
                                                                     capsys):
    # frame 5 renders, but 9999 is past the grid: every frame is rendered
    # before the first is written, so neither is
    lattice, series, _ = sg3_files
    capsys.readouterr()
    assert run(["render", "--series", series, "--lattice", lattice, "--run", "f",
                "--time-index", "5", "--time-index", "9999",
                "--out-dir", str(tmp_path)]) == 5
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: time index 9999 out of range"), err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag,value", [
    ("--margin", "1e308"),  # the frame width overflows a float
    ("--margin", "1e17"),
    ("--pixels-per-spacing", "100000000000000000000"),
    ("--pixels-per-spacing", "1" + "0" * 400),  # beyond the float range
], ids=["margin-1e308", "margin-1e17", "pixels-1e20", "pixels-1e400"])
def test_an_oversized_frame_is_exit_5(workspace, tmp_path, capsys, flag, value):
    capsys.readouterr()
    assert run(["render", "--series", workspace["series"], "--lattice", workspace["lattice"],
                "--run", "f", "--time-index", "5", "--out-dir", str(tmp_path),
                flag, value]) == 5
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: pixels_per_spacing ") and "margin" in err, err
    assert list(tmp_path.iterdir()) == []


def _no_operator(*args, **kwargs):
    raise AssertionError("an operator was built for an oversized series")


@pytest.mark.parametrize("kind,generation,steps,sites", [
    ("dsc", 1, "2000000000", 8),  # 14.9 GiB of grid alone
    ("sc", 3, "100000", 688),     # 1e5 times x 688 sites = 6.9e7 values
], ids=["steps-2e9", "sc3-steps-1e5"])
def test_an_oversized_series_is_exit_5(tmp_path, capsys, monkeypatch,
                                       kind, generation, steps, sites):
    # one refusal, from the grid, whether the steps alone or the steps times
    # the sites exceed the bound
    lattice = str(tmp_path / "lat.json")
    assert run(["lattice", "--kind", kind, "--generation", str(generation),
                "--out", lattice]) == 0
    monkeypatch.setattr(cli, "build_hamiltonian", _no_operator)
    monkeypatch.setattr(cli, "build_classical_generator", _no_operator)
    for command in ("evolve", "classical"):
        capsys.readouterr()
        assert run([command, "--lattice", lattice, "--steps", steps,
                    "--out", str(tmp_path / "series.json")]) == 5, command
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert (f"error: {steps} times x {sites} sites is a series of more than "
                f"{2 ** 26} values") in err, err
    assert sorted(os.listdir(tmp_path)) == ["lat.json"]


@pytest.mark.parametrize("classical", [False, True], ids=["quantum", "classical"])
def test_walk_refuses_an_oversized_grid_before_the_operator(monkeypatch, classical):
    # a grid of the caller's (12.8 MB here) is refused before the operator
    # is built and decomposed, as the commands' own grids are
    monkeypatch.setattr(cli, "build_hamiltonian", _no_operator)
    monkeypatch.setattr(cli, "build_classical_generator", _no_operator)
    times = np.linspace(0.0, 1.0, 2 ** 26 // 42 + 1)  # sg:3 has 42 sites
    with pytest.raises(DomainError, match=f"a series of more than {2 ** 26} values"):
        cli.walk(generate("sg", 3), "auto", times, classical)


@pytest.mark.parametrize("edit", [
    # every id of the sg:1 edges in one row, which a reshape would accept
    lambda doc: doc.update(edges=[sum(doc["edges"], [])]),
    lambda doc: doc.update(sites=[], edges=[]),
], ids=["edges-in-one-row", "no-sites"])
def test_a_malformed_lattice_file_is_exit_3(tmp_path, capsys, edit):
    path = tmp_path / "lat.json"
    assert run(["lattice", "--kind", "sg", "--generation", "1", "--out", str(path)]) == 0
    lattice = _edited_copy(path, tmp_path, edit)  # over the file
    capsys.readouterr()
    assert run(["evolve", "--lattice", lattice, "--out", str(tmp_path / "s.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert sorted(os.listdir(tmp_path)) == ["lat.json"]


@pytest.mark.parametrize("payload", [
    b"\xff\xfe{}",
    b"[" * 200_000 + b"]" * 200_000,
    b'{"kind":' + b"9" * 5000 + b"}",
], ids=["not-utf8", "nested-200000-deep", "5000-digit-integer"])
@pytest.mark.parametrize("command", ["evolve", "observables", "calibrate"])
def test_malformed_bytes_are_exit_3(sg3_files, tmp_path, capsys, payload, command):
    # bytes that json cannot take as a document: not UTF-8, nested past the
    # recursion limit, or an integer of more digits than int() converts
    lattice = sg3_files[0]
    bad = tmp_path / "bad.json"
    bad.write_bytes(payload)
    argv = {"evolve": ["evolve", "--lattice", str(bad), "--out", str(tmp_path / "s.json")],
            "observables": ["observables", "--series", str(bad), "--lattice", lattice,
                            "--out", str(tmp_path / "o.csv")],
            "calibrate": ["calibrate", "--report", str(bad), "--anchor-event", "first_void",
                          "--anchor-mm", "2.675", "--out", str(tmp_path / "c.json")]}[command]
    capsys.readouterr()
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} is not valid JSON: ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == [bad]


def _dense_matrix_read(self):
    raise AssertionError("the matrix dump read Operator.matrix")


def test_the_matrix_dumps_never_build_the_dense_matrix(sc3_files, tmp_path, monkeypatch):
    # test_artifact_bytes.py pins the bytes of both dumps
    lattice, _ = sc3_files
    monkeypatch.setattr(Operator, "matrix", property(_dense_matrix_read))
    built = read_lattice(lattice)
    for command, flag, lines in (("evolve", "--dump-hamiltonian", 2 * built.n_edges),
                                 ("classical", "--dump-generator",
                                  2 * built.n_edges + built.n_sites)):
        dump = tmp_path / f"{command}.txt"
        assert run([command, "--lattice", lattice, "--steps", "3",
                    "--out", str(tmp_path / "s.json"), flag, str(dump)]) == 0
        assert len(dump.read_text().splitlines()) == lines


def _compact(doc):
    """``doc`` as a compact dump, which gives a file the program wrote back
    byte for byte: an edit to it changes its field alone."""
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _edited_copy(path, tmp_path, edit):
    doc = json.loads(pathlib.Path(path).read_text())
    edit(doc)
    copy = tmp_path / os.path.basename(path)
    copy.write_text(_compact(doc))
    return str(copy)


def _set(field, value):
    return lambda doc: doc.__setitem__(field, value)


def _set_site(field, value):
    return lambda doc: doc["sites"][5].__setitem__(field, value)


def _add_edge(pair):
    """Insert ``pair`` (possibly again) where it sorts, so that only the
    pair itself breaks the edge invariant."""
    return lambda doc: doc.__setitem__("edges", sorted(doc["edges"] + [pair]))


@pytest.mark.parametrize("edit", [
    _set("generation", "four"),
    _set("generation", 4.7),
    _set("spacing", [1]),
    _set("kind", "hexagon"),
    _set("spacing", True),
    _set_site("x", True),
    _set_site("x", "nan"),
    _set_site("y", 10 ** 400),
    _add_edge([0, 1]),
    _add_edge([1, 0]),
    _add_edge([3, 3]),
    _set("spacing", 0),
    _set("spacing", -1),
    _set("spacing", 2.0),
    _add_edge([0, 122]),  # apex to a far corner of the 123 sites
    _set_site("x", 0.5),
    _add_edge([0, 10 ** 30]),  # beyond int64
    _set("edges", {}),  # iterated, an object or a string would read as no edges
    _set("edges", ""),
], ids=["generation", "fractional_generation", "spacing", "kind", "boolean_spacing",
        "boolean_x", "string_x", "overflowing_y", "repeated_edge", "reversed_edge",
        "self_loop", "zero_spacing", "negative_spacing", "double_spacing", "long_edge",
        "moved_site", "overflowing_edge", "object_edges", "string_edges"])
def test_malformed_lattice_field_is_exit_3(sg4_files, tmp_path, edit):
    # the unedited dump is the file itself, so the edit is what is refused
    true = pathlib.Path(sg4_files[0]).read_text()
    assert _compact(json.loads(true)) == true
    lattice = _edited_copy(sg4_files[0], tmp_path, edit)
    code = run(["evolve", "--lattice", lattice, "--out", str(tmp_path / "s.json")])
    assert code == 3


def test_a_generation_outside_its_kinds_range_is_exit_3(sg4_files, tmp_path, capsys):
    # sg runs 1-7: the file's generation is checked against its kind's row
    lattice = _edited_copy(sg4_files[0], tmp_path, _set("generation", 99))
    for argv in [["evolve", "--lattice", lattice, "--out", str(tmp_path / "s.json")],
                 *_series_commands(lattice, sg4_files[1], tmp_path)]:
        capsys.readouterr()
        assert run(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {lattice}: ") and "[1, 7], got 99" in err, err


def _reverse(doc):
    doc["times"].reverse()
    doc["probabilities"].reverse()


def _shift_back(doc):
    doc["times"] = [t - 1.0 for t in doc["times"]]


def _nest_times(doc):
    doc["times"] = [[t] for t in doc["times"]]


@pytest.mark.parametrize("edit", [_set("input_site", "x"), _set("input_site", 0.7),
                                  _set("input_site", 123), _reverse, _shift_back,
                                  _set("times", []), _nest_times],
                         ids=["input_site", "fractional_input_site", "input_site_out_of_range",
                              "descending_times", "negative_times", "no_times", "nested_times"])
def test_malformed_series_field_is_exit_3(sg4_files, tmp_path, edit):
    lattice, series = sg4_files
    code = run(["analyze", "--series", _edited_copy(series, tmp_path, edit),
                "--lattice", lattice, "--out", str(tmp_path / "r.json")])
    assert code == 3


@pytest.mark.parametrize("file", ["lattice", "series"])
def test_a_file_that_is_not_a_json_object_is_exit_3(sg4_files, tmp_path, capsys, file):
    lattice, series = sg4_files
    top_level_array = tmp_path / "array.json"
    top_level_array.write_text("[1, 2]")
    pair = {"lattice": lattice, "series": series, file: str(top_level_array)}
    capsys.readouterr()
    assert run(["analyze", "--series", pair["series"], "--lattice", pair["lattice"],
                "--out", str(tmp_path / "r.json")]) == 3
    assert "expected a JSON object at top level" in capsys.readouterr().err


def _launch_row_of_bools(doc):
    # true at the input and false elsewhere would read as the launch row
    row = doc["probabilities"][7]
    doc["probabilities"][7] = [site == doc["input_site"] for site in range(len(row))]


def _string_time(doc):
    doc["times"][-1] = str(doc["times"][-1])


def _string_probability(doc):  # in a row that holds no 0 and no 1
    doc["probabilities"][5][3] = str(doc["probabilities"][5][3])


def _overflowing_integer_time(doc):
    doc["times"][-1] = 10 ** 400  # a JSON integer beyond the float range


@pytest.mark.parametrize("edit", [_launch_row_of_bools, _string_time, _string_probability,
                                  _overflowing_integer_time],
                         ids=["bools", "string_time", "string_probability", "overflowing_int"])
def test_series_value_that_is_not_a_finite_number_is_exit_3(sc3_files, tmp_path, edit):
    # every number in a series file is a JSON number, as in a lattice file
    lattice, series = sc3_files
    bad = _edited_copy(series, tmp_path, edit)
    for argv in _series_commands(lattice, bad, tmp_path):
        assert run(argv) == 3, argv[0]


def test_stretched_series_grid_is_exit_6(sg4_files, tmp_path):
    lattice, series = sg4_files

    def stretch(doc):  # every step past tau 12.5 doubled
        doc["times"] = [t if t <= 12.5 else 2.0 * t - 12.5 for t in doc["times"]]

    code = run(["analyze", "--series", _edited_copy(series, tmp_path, stretch),
                "--lattice", lattice, "--out", str(tmp_path / "r.json")])
    assert code == 6


def test_absent_anchor_is_exit_8(tmp_path):
    report = tmp_path / "report.json"
    report.write_text('{"kind":"sg","farthest_tau":2.0}')
    code = run(["calibrate", "--report", str(report),
                "--anchor-event", "first_void", "--anchor-mm", "5.0",
                "--out", str(tmp_path / "c.json")])
    assert code == 8


@pytest.mark.parametrize("events,anchor_mm", [
    ({"first_void_tau": 1.7, "l_f_tau": 2.55}, "1.7e308"),  # l_f overflows to inf
    ({"first_void_tau": 1e-320}, "2.675"),  # the scale overflows to inf
    ({"first_void_tau": 0}, "2.675"),  # present, but fixes no scale
], ids=["huge-anchor-mm", "tiny-tau", "zero-tau"])
def test_calibration_without_a_finite_scale_is_exit_5(tmp_path, capsys, events, anchor_mm):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"kind": "sg", **events}))
    out = tmp_path / "c.json"
    capsys.readouterr()
    code = run(["calibrate", "--report", str(report), "--anchor-event", "first_void",
                "--anchor-mm", anchor_mm, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 5
    assert "Traceback" not in err
    assert err.startswith("error: anchor first_void at tau "), err
    assert not out.exists()


@pytest.mark.parametrize("tau", [True, "abc", [1], -1.0],
                         ids=["boolean", "string", "list", "negative"])
def test_malformed_event_tau_is_exit_3(tmp_path, tau):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"kind": "sg", "first_void_tau": tau, "farthest_tau": 2.0}))
    code = run(["calibrate", "--report", str(report),
                "--anchor-event", "farthest", "--anchor-mm", "5.0",
                "--out", str(tmp_path / "c.json")])
    assert code == 3


def test_sweep_rejects_nonfractal_and_garbage(tmp_path):
    out = str(tmp_path / "runs")
    assert run(["sweep", "--instances", "square:3", "--out-dir", out]) == 5
    assert run(["sweep", "--instances", "sg-4", "--out-dir", out]) == 5
    assert run(["sweep", "--instances", " , ", "--out-dir", out]) == 5
    assert run(["sweep", "--instances", "sg:3,SG:3", "--out-dir", out]) == 5


def test_sweep_checks_every_generation_before_the_first_walk(tmp_path, capsys):
    out = tmp_path / "runs"
    out.mkdir()
    capsys.readouterr()
    assert run(["sweep", "--instances", "dsc:1,dsc:9", "--out-dir", str(out)]) == 5
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: dsc generation must be"), err
    assert list(out.iterdir()) == []


@pytest.fixture()
def no_walk(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a walk ran before the instances were checked")

    monkeypatch.setattr(cli, "walk", refuse)


@pytest.mark.parametrize("instances", ["sg:3,sg:1", "sc:1"])
def test_sweep_refuses_a_void_free_instance_before_the_first_walk(
        instances, tmp_path, capsys, no_walk):
    # sg:1 and sc:1 delete no site of their filled counterpart
    out = tmp_path / "runs"
    out.mkdir()
    capsys.readouterr()
    assert run(["sweep", "--instances", instances, "--out-dir", str(out)]) == 6
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "no effective void" in err, err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("flags,message", [
    # sg:4 has 123 sites, sg:3 has 42
    (["--instances", "sg:4,sg:3", "--input", "100"], "site id 100 out of range 0..41"),
    # 100000 x 42 values on sg:3, but 100000 x 688 on sc:3
    (["--instances", "sg:3,sc:3", "--steps", "100000"],
     "100000 times x 688 sites is a series of more than 67108864 values"),
    # the analysis' own rules: epsilon in (0, 1), a slope window of 11 samples
    (["--instances", "sg:5,dsc:3", "--epsilon", "1.5"], "epsilon must lie in (0, 1), got 1.5"),
    (["--instances", "sg:5,dsc:3", "--epsilon", "0"], "epsilon must lie in (0, 1), got 0.0"),
    (["--instances", "sg:5,dsc:3", "--epsilon", "nan"], "epsilon must lie in (0, 1), got nan"),
    (["--instances", "sg:5,dsc:3", "--steps", "10"], "need at least 11 samples, got 10"),
], ids=["input_site", "series_size", "epsilon_above_one", "zero_epsilon", "nan_epsilon",
        "steps_below_the_slope_window"])
def test_sweep_refuses_a_later_instance_before_the_first_walk(
        flags, message, tmp_path, capsys, no_walk):
    out = tmp_path / "runs"
    out.mkdir()
    capsys.readouterr()
    assert run(["sweep", *flags, "--out-dir", str(out)]) == 5
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.iterdir()) == []


@pytest.fixture(scope="module")
def sg3_files(tmp_path_factory):
    """An sg-3 lattice, its quantum series on the preset grid and its report."""
    root = tmp_path_factory.mktemp("sg3")
    lattice, series, report = (str(root / name) for name in ("lat.json", "s.json", "r.json"))
    assert run(["lattice", "--kind", "sg", "--generation", "3", "--out", lattice]) == 0
    assert run(["evolve", "--lattice", lattice, "--out", series]) == 0
    assert run(["analyze", "--series", series, "--lattice", lattice, "--out", report]) == 0
    return lattice, series, report


@pytest.mark.parametrize("command,flag,value", [
    ("render", "--margin", "nan"),
    ("render", "--margin", "inf"),
    ("render", "--spot-sigma", "1e-300"),  # 2 sigma^2 underflows to 0
    ("render", "--spot-sigma", "1e-160"),  # 1 / (2 sigma^2) overflows to inf
    ("render", "--spot-sigma", "inf"),
    ("render", "--gamma", "inf"),
    ("analyze", "--band", "inf"),
    ("analyze", "--delta", "inf"),
    ("evolve", "--beta", "inf"),
    ("evolve", "--beta", "nan"),
    ("evolve", "--coupling", "inf"),
    ("classical", "--rate", "inf"),
    ("calibrate", "--anchor-mm", "inf"),
    # and each parameter that must be above zero, at or below it
    ("evolve", "--coupling", "0"),
    ("classical", "--rate", "-1"),
    ("render", "--gamma", "0"),
    ("analyze", "--band", "0"),
    ("analyze", "--delta", "0"),
    ("calibrate", "--anchor-mm", "0"),
    ("analyze", "--min-span", "1"),  # which must be at least 2
])
def test_non_finite_parameter_is_exit_5(sg3_files, tmp_path, capsys, command, flag, value):
    lattice, series, report = sg3_files
    pair = ["--series", series, "--lattice", lattice]
    argv = {
        "render": ["render", *pair, "--run", "f", "--time-index", "5",
                   "--out-dir", str(tmp_path)],
        "analyze": ["analyze", *pair, "--out", str(tmp_path / "r.json")],
        "evolve": ["evolve", "--lattice", lattice, "--out", str(tmp_path / "s.json")],
        "classical": ["classical", "--lattice", lattice, "--out", str(tmp_path / "s.json")],
        "calibrate": ["calibrate", "--report", report, "--anchor-event", "first_void",
                      "--out", str(tmp_path / "c.json")],
    }[command]
    capsys.readouterr()
    assert run([*argv, flag, value]) == 5
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {flag[2:].replace('-', '_')} must be "), err


@pytest.mark.parametrize("command,flags,message", [
    ("evolve", ["--tau-min", "5", "--tau-max", "5.0000000000001", "--steps", "3"],
     "grid step 5.01821e-14 must exceed 1e-11, for the 12 significant digits a "
     "series keeps of tau_max 5.0000000000001"),
    ("classical", ["--tau-min", "5", "--tau-max", "5.0000000000001", "--steps", "3"],
     "grid step 5.01821e-14 must exceed 1e-11, for the 12 significant digits a "
     "series keeps of tau_max 5.0000000000001"),
    # a sweep's grid starts at 0, so only a subnormal step lies below the
    # bound; rounded, it makes the grid overshoot tau_max and fall back at
    # its end, and the plan refuses it before sc:2 walks
    ("sweep", ["--instances", "sc:2,sg:3", "--tau-max", "1.48e-321"],
     "grid step 4.94066e-324 must exceed 2.23e-308, for the 12 significant digits a "
     "series keeps of tau_max 1.48e-321"),
], ids=["evolve", "classical", "sweep"])
def test_a_grid_finer_than_the_written_digits_is_exit_5(
        sg3_files, tmp_path, capsys, no_walk, command, flags, message):
    # written to 12 digits, the times 5, 5.00000000000005 and
    # 5.0000000000001 would all read back as 5
    lattice, _, _ = sg3_files
    out = tmp_path / "out"
    argv = (["sweep", "--out-dir", str(out)] if command == "sweep"
            else [command, "--lattice", lattice, "--out", str(out)])
    capsys.readouterr()
    assert run([*argv, *flags]) == 5
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("warnings", ["error::RuntimeWarning", "default"])
@pytest.mark.parametrize("argv", [
    ["evolve", "--coupling", "1e308"],
    ["evolve", "--tau-max", "1e308", "--steps", "3"],
    ["classical", "--rate", "1e300"],
], ids=["coupling", "tau_max", "rate"])
def test_an_overflowing_parameter_is_exit_7(sg3_files, tmp_path, warnings, argv):
    # finite, but the eigenvalues or the exponents overflow: the residual
    # and distribution checks refuse the result, and no RuntimeWarning is
    # raised or printed on the way, under the setting CI's processes inherit.
    # Neither the series nor the matrix dump is written
    lattice, _, _ = sg3_files
    dump = {"evolve": "--dump-hamiltonian", "classical": "--dump-generator"}[argv[0]]
    env = dict(os.environ, PYTHONWARNINGS=warnings, PYTHONPATH=os.pathsep.join(
        filter(None, [str(pathlib.Path(cli.__file__).parents[1]),
                      os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "fractalwalk.cli", *argv,
                           "--lattice", lattice, "--out", "s.json", dump, "m.txt"],
                          cwd=tmp_path, capture_output=True, text=True, env=env)
    assert proc.returncode == 7, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_evolve_starts_its_grid_at_tau_min(sg3_files, tmp_path):
    lattice, _, _ = sg3_files
    series, table = str(tmp_path / "s.json"), tmp_path / "o.csv"
    assert run(["evolve", "--lattice", lattice, "--tau-min", "0.5", "--out", series]) == 0
    assert read_series(series).times[:2].tolist() == [0.5, 0.549]
    assert run(["observables", "--series", series, "--lattice", lattice,
                "--out", str(table)]) == 0
    assert table.read_text().splitlines()[1] == (
        "0.5,0.587509714642,0.607423266685,0.607423266685")


def test_analyze_takes_slope_window_and_min_span(sg3_files, tmp_path, capsys):
    lattice, series, _ = sg3_files
    pair = ["--series", series, "--lattice", lattice]
    out, even = tmp_path / "r.json", tmp_path / "even.json"
    assert run(["analyze", *pair, "--slope-window", "15", "--min-span", "3",
                "--out", str(out)]) == 0
    assert '"slope_window":15,' in out.read_text()
    capsys.readouterr()
    assert run(["analyze", *pair, "--slope-window", "14", "--out", str(even)]) == 5
    assert capsys.readouterr().err == "error: window must be an odd integer >= 5, got 14\n"
    assert not even.exists()


def test_render_takes_spot_sigma_and_gamma(sg3_files, tmp_path):
    lattice, series, _ = sg3_files
    assert run(["render", "--series", series, "--lattice", lattice, "--run", "f",
                "--time-index", "5", "--spot-sigma", "0.4", "--gamma", "0.3",
                "--out-dir", str(tmp_path)]) == 0
    expected = pgm_bytes(render_frame(read_series(series), read_lattice(lattice), 5,
                                      RenderSpec(spot_sigma=0.4, gamma=0.3)))
    assert (tmp_path / "f_t5.pgm").read_bytes() == expected


def test_analyze_help_states_the_defaults_of_analysis():
    # the threshold flags default to None, so build_regime_report's defaults
    # apply, and their help names those defaults as text
    from fractalwalk import analysis

    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {action.dest: action.help for action in commands.choices["analyze"]._actions}
    stated = {dest: float(re.search(r"\(default ([^)]*)\)", helps[dest]).group(1))
              for dest in ("epsilon", "band", "delta")}
    assert stated == {"epsilon": analysis.DEFAULT_EPSILON, "band": analysis.DEFAULT_BAND,
                      "delta": analysis.DEFAULT_DELTA}


def test_a_large_beta_fails_the_eigensolver_check(sg3_files, tmp_path):
    # beta is a global phase, but at 1e10 eigh loses 1.7e-5 of accuracy
    # to it; the check's limit no longer grows with a uniform diagonal.
    # The Hamiltonian was built, but its dump is not written
    lattice, _, _ = sg3_files
    assert run(["evolve", "--lattice", lattice, "--beta", "1e10",
                "--out", str(tmp_path / "s.json"),
                "--dump-hamiltonian", str(tmp_path / "h.txt")]) == 7
    assert list(tmp_path.iterdir()) == []


def test_an_eigensolver_failure_is_exit_7(sg3_files, tmp_path, capsys, monkeypatch):
    def failing(block):  # as dsyevd's failure to converge raises it
        raise FloatingPointError("invalid value encountered in eigh_lo")

    monkeypatch.setattr(evolution, "_eigh", failing)
    lattice, _, _ = sg3_files
    capsys.readouterr()
    assert run(["evolve", "--lattice", lattice, "--out", str(tmp_path / "s.json"),
                "--dump-hamiltonian", str(tmp_path / "h.txt")]) == 7
    assert "eigendecomposition failed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("stage", ["eigh", "report"])
def test_a_sweep_that_fails_in_a_later_instance_writes_nothing(tmp_path, monkeypatch, stage):
    # sg:3 walks and is analysed, then dsc:2 fails in its eigendecomposition
    # (exit 7) or its analysis (exit 6): no instance's file and no manifest
    calls = []
    eigh, build_regime_report = evolution._eigh, cli.build_regime_report

    def failing_eigh(block):
        calls.append(block.shape)
        if len(calls) > 1:
            raise FloatingPointError("invalid value encountered in eigh_lo")
        return eigh(block)

    def failing_report(lattice, series, **params):
        calls.append(lattice.kind)
        if len(calls) > 1:
            raise StructuralError("no void landmarks")
        return build_regime_report(lattice, series, **params)

    if stage == "eigh":
        monkeypatch.setattr(evolution, "_eigh", failing_eigh)
    else:
        monkeypatch.setattr(cli, "build_regime_report", failing_report)
    status = run(["sweep", "--instances", "sg:3,dsc:2", "--out-dir", str(tmp_path)])
    assert status == {"eigh": 7, "report": 6}[stage]
    assert len(calls) == 2
    assert list(tmp_path.iterdir()) == []


SPAWNER = """\
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "fractalwalk.cli", *sys.argv[1:]],
                     os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.parametrize("steps", ["67108864", "16777216"])
def test_an_oversized_walk_is_refused_before_its_grid_exists(sg3_files, tmp_path, steps):
    # the refused grids alone are 512 and 128 MB.  The child is spawned from
    # a small python -S process, because the ru_maxrss of a child forked from
    # this one would count this process's pages too
    lattice, _, _ = sg3_files
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(pathlib.Path(cli.__file__).parents[1]),
                      os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-S", "-c", SPAWNER, "evolve", "--lattice", lattice,
                           "--steps", steps, "--out", "huge.json"],
                          cwd=tmp_path, capture_output=True, text=True, env=env)
    status, peak_kb = map(int, proc.stdout.split())
    assert status == 5, proc.stderr
    assert proc.stderr == (f"error: {steps} times x 42 sites is a series of more than "
                           f"{2 ** 26} values\n")
    assert list(tmp_path.iterdir()) == []
    assert peak_kb < 100 * 1024


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc["times"].reverse(), "times must be strictly ascending"),
    (lambda doc: doc["probabilities"].pop(), "probabilities shape (500, 42) does not match"),
    (lambda doc: doc.update(input_site=42), "site id 42 out of range 0..41"),
], ids=["descending-times", "a-row-missing", "input-site-out-of-range"])
def test_a_series_of_a_structure_no_walk_gives_is_exit_3(sg3_files, tmp_path, capsys,
                                                         edit, message):
    lattice, series, _ = sg3_files
    doc = json.loads(pathlib.Path(series).read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["observables", "--series", str(bad), "--lattice", lattice,
                "--out", str(tmp_path / "o.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {message}"), err
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("files,order", [
    ("sg3_files", lambda n: [2, 1, 0, *range(3, n)]),
    ("sc3_files", lambda n: np.random.default_rng(7).permutation(n).tolist()),
], ids=["sg3-columns-0-and-2-swapped", "sc3-columns-shuffled"])
def test_a_series_that_breaks_the_mirror_is_exit_3(request, tmp_path, capsys, files, order):
    # a walk from a site on the mirror axis is symmetric about that axis;
    # each row is still a distribution, so only the mirror rule refuses it
    lattice, series = request.getfixturevalue(files)[:2]
    doc = json.loads(pathlib.Path(series).read_text())
    columns = order(len(doc["probabilities"][0]))
    doc["probabilities"] = [[row[j] for j in columns] for row in doc["probabilities"]]
    bad = tmp_path / "moved.json"
    bad.write_text(json.dumps(doc))
    for argv in _series_commands(lattice, str(bad), tmp_path):
        capsys.readouterr()
        assert run(argv) == 3, argv[0]
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {re.escape(str(bad))}: sites \d+ and \d+ mirror each "
                            r"other about the input site, but their probabilities differ "
                            r"by \S+\n", err), err
    assert list(tmp_path.iterdir()) == [bad]


def test_a_series_that_does_not_start_from_its_input_is_exit_3(sc3_files, tmp_path, capsys):
    # a uniform row at tau 0 is a distribution and is mirror-symmetric, but
    # every walk starts from the delta at its input site
    lattice, series = sc3_files
    doc = json.loads(pathlib.Path(series).read_text())
    n = len(doc["probabilities"][0])
    doc["probabilities"][0] = [1.0 / n] * n
    bad = tmp_path / "uniform.json"
    bad.write_text(json.dumps(doc))
    for argv in _series_commands(lattice, str(bad), tmp_path):
        capsys.readouterr()
        assert run(argv) == 3, argv[0]
        err = capsys.readouterr().err
        assert err == (f"error: {bad}: the row at tau 0 differs from the launch at site "
                       f"{doc['input_site']} by 0.999\n"), err
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("command,edit,message", [
    # the quantum return column of sg:3 rises by up to 0.0138 between samples
    ("evolve", lambda doc: doc.update(kind="classical"),
     "the classical return probability rises by 0.000363 from tau 2.1 to 2.15"),
    ("classical", lambda doc: doc.update(times=[tau + 0.5 for tau in doc["times"]]),
     "the row at tau 0.5 is still the launch at site 0, which a classical walk leaves "
     "at once"),
], ids=["quantum-relabelled-classical", "classical-shifted-in-time"])
def test_a_classical_series_no_heat_kernel_gives_is_exit_3(sg3_files, tmp_path, capsys,
                                                           command, edit, message):
    # each row is a distribution, symmetric about the mirror axis, and the
    # first is the delta at the input: only the classical rules refuse these
    lattice = sg3_files[0]
    series = tmp_path / "inputs" / "series.json"
    series.parent.mkdir()
    assert run([command, "--lattice", lattice, "--out", str(series)]) == 0
    doc = json.loads(series.read_text())
    edit(doc)
    series.write_text(json.dumps(doc))
    for argv in _series_commands(lattice, str(series), tmp_path):
        capsys.readouterr()
        assert run(argv) == 3, argv[0]
        err = capsys.readouterr().err
        assert err == f"error: {series}: {message}\n", err
    assert [p.name for p in tmp_path.iterdir()] == ["inputs"]


@pytest.mark.parametrize("kind,generation", [
    ("sg", 3), ("sg", 4), ("sg", 5), ("sc", 2), ("sc", 3), ("dsc", 2), ("dsc", 3)])
def test_every_classical_walk_reads_back(tmp_path, kind, generation):
    # on the preset grid and on a log grid to tau 3000, where the walk has
    # equilibrated to 1/N and the written return probability repeats, and on
    # sg:4 rises by one unit in its 12th digit, as rounding gives
    lattice = generate(kind, generation)
    lattice_path, series_path = str(tmp_path / "lattice.json"), str(tmp_path / "series.json")
    write_lattice(lattice, lattice_path)
    for times in (preset_grid(kind, sites=lattice.n_sites),
                  np.concatenate(([0.0], np.geomspace(0.05, 3000, 400)))):
        series = cli.walk(lattice, "auto", times, classical=True)[2]
        series.check_walk(lattice)
        write_series(series, series_path)
        read_walk(lattice_path, series_path)


@pytest.mark.parametrize("kind", ["banana", "triangle", 4], ids=["banana", "triangle", "number"])
def test_a_report_of_no_fractal_kind_is_exit_3(sg3_files, tmp_path, capsys, kind):
    # only a fractal's walk has the events a report holds, and a report
    # must name its kind: a missing or null kind is no fractal kind either
    doc = json.loads(pathlib.Path(sg3_files[2]).read_text())
    argv = ["calibrate", "--anchor-event", "first_void", "--anchor-mm", "2.675"]
    bad, out = tmp_path / "bad.json", tmp_path / "c.json"
    del doc["kind"]
    for edited, named in (({**doc, "kind": kind}, kind), ({**doc, "kind": None}, None),
                          (doc, None)):
        bad.write_text(json.dumps(edited))
        capsys.readouterr()
        assert run([*argv, "--report", str(bad), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: kind {named!r} is not a fractal kind"), err
        assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("classical", [True, False], ids=["classical", "quantum"])
def test_a_series_computed_without_the_mirror_reads_back(sg4_files, tmp_path, classical):
    # README's classical example decomposes all of L at once: its series is
    # symmetric only to roundoff (1e-13 at most), inside the 1e-9 limit
    lattice_path, _ = sg4_files
    lattice = read_lattice(lattice_path)
    build, evolve = ((build_classical_generator, evolve_classical) if classical
                     else (build_hamiltonian, evolve_quantum))
    series = evolve(spectral_decompose(build(lattice)), canonical_input(lattice),
                    preset_grid(lattice.kind))
    path = str(tmp_path / "series.json")
    write_series(series, path)
    for argv in _series_commands(lattice_path, path, tmp_path):
        assert run(argv) == 0, argv[0]


# --- output routing and determinism ---------------------------------------

@pytest.mark.parametrize("command", ["lattice-below-a-file", "lattice-onto-a-directory",
                                     "sweep", "render", "lattice-empty", "evolve-dump-empty",
                                     "classical-dump-empty"])
def test_an_unwritable_output_is_exit_3(workspace, tmp_path, capsys, monkeypatch, command):
    # paths that no process can write, whatever its user (a test may run as root);
    # run from a subdirectory, whose parent would take the temp file of ''
    directory = tmp_path / "existing"
    directory.mkdir()
    monkeypatch.chdir(directory)
    pair = ["--series", workspace["series"], "--lattice", workspace["lattice"]]
    walk_flags = ["--lattice", workspace["lattice"], "--steps", "21", "--out", "s.json"]
    argv = {
        "lattice-below-a-file": ["lattice", "--kind", "sg", "--generation", "2",
                                 "--out", os.devnull + "/x.json"],
        "lattice-onto-a-directory": ["lattice", "--kind", "sg", "--generation", "2",
                                     "--out", str(directory)],
        "sweep": ["sweep", "--instances", "sg:3", "--out-dir", os.devnull],
        "render": ["render", *pair, "--run", "f", "--time-index", "1",
                   "--out-dir", os.devnull],
        "lattice-empty": ["lattice", "--kind", "sg", "--generation", "2", "--out", ""],
        "evolve-dump-empty": ["evolve", *walk_flags, "--dump-hamiltonian", ""],
        "classical-dump-empty": ["classical", *walk_flags, "--dump-generator", ""],
    }[command]
    capsys.readouterr()
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["existing"]


def test_output_dir_prefixes_relative_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("OUTPUT_DIR", str(tmp_path / "routed"))
    assert run(["lattice", "--kind", "dsc", "--generation", "1",
                "--out", "lat.json"]) == 0
    assert (tmp_path / "routed" / "lat.json").is_file()


def test_output_dir_leaves_absolute_paths_alone(tmp_path, monkeypatch):
    monkeypatch.setenv("OUTPUT_DIR", str(tmp_path / "routed"))
    target = tmp_path / "direct.json"
    assert run(["lattice", "--kind", "dsc", "--generation", "1",
                "--out", str(target)]) == 0
    assert target.is_file()
    assert not (tmp_path / "routed").exists()


def test_a_chain_over_a_sweeps_files_keeps_its_geometry(tmp_path):
    # observables and analyze on a sweep's own lattice and series files walk
    # the lattice the sweep walked: the geometry and the events agree
    # exactly, and the variance, computed from a series kept to 12 digits,
    # to about 1e-11 after the launch row, where both are 0.  The fits and
    # the slope curve follow the series' digits, so they are not compared
    sweep = tmp_path / "sweep"
    assert run(["sweep", "--instances", "sg:3,sg:4,sc:3", "--out-dir", str(sweep)]) == 0
    for stem in ("sg3", "sg4", "sc3"):
        pair = ["--series", str(sweep / f"{stem}.series.json"),
                "--lattice", str(sweep / f"{stem}.lattice.json")]
        table, report = tmp_path / f"{stem}.csv", tmp_path / f"{stem}.report.json"
        assert run(["observables", *pair, "--out", str(table)]) == 0
        assert run(["analyze", *pair, "--out", str(report)]) == 0
        chain, swept = (json.loads(path.read_text())
                        for path in (report, sweep / f"{stem}.report.json"))
        for field in ("kind", "input_site", "probe_length_a", "farthest_distance",
                      "first_void_tau", "l_f_tau", "farthest_tau", "saturation_tau"):
            assert chain[field] == swept[field], (stem, field)
        chain, swept = (np.loadtxt(path, delimiter=",", skiprows=1)
                        for path in (table, sweep / f"{stem}.observables.csv"))
        assert np.array_equal(chain[:, [0, 2, 3]], swept[:, [0, 2, 3]]), stem
        assert chain[0, 1] == swept[0, 1] == 0.0
        np.testing.assert_allclose(chain[1:, 1], swept[1:, 1], rtol=1.2e-11, atol=0)


def test_sweep_is_deterministic(tmp_path):
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for out_dir in dirs:
        assert run(["sweep", "--instances", "sg:3,dsc:1",
                    "--tau-max", "6", "--steps", "61",
                    "--out-dir", out_dir]) == 0
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    assert "manifest.json" in names
    for name in names:
        a = pathlib.Path(dirs[0], name).read_bytes()
        b = pathlib.Path(dirs[1], name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


# --- profiler hooks -------------------------------------------------------

@pytest.mark.parametrize("args,wrapped", [
    (["--", "sweep", "--instances", "sg:3", "--out-dir", "runs"],
     {"build_hamiltonian", "spectral_decompose", "quantum_probabilities"}),
    (["--kernel-cases"],
     {"spectral_decompose", "quantum_probabilities", "classical_probabilities",
      "gaussian_splat"}),
], ids=["sweep", "kernel_cases"])
def test_perfbench_tracer_finds_the_names_it_wraps(tmp_path, args, wrapped):
    # a subprocess each: the tracer patches np.linalg.eigh and cli in the
    # process that runs it
    trace_child = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"
    src = os.path.dirname(os.path.dirname(fractalwalk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(trace_child), "spans.json", *args],
                          cwd=tmp_path, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    names = {span["name"] for span in json.loads((tmp_path / "spans.json").read_text())}
    assert wrapped <= names
