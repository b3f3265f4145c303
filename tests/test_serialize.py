"""File formats: determinism, round trips, and rejection of bad input."""

import dataclasses
import hashlib
import json
import os
import stat
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fractalwalk import textio
from fractalwalk.analysis import RegimeReport, ScalingFit, SlopeCurve
from fractalwalk.calibration import CalibrationResult, calibrate_events
from fractalwalk.errors import InputFileError
from fractalwalk.evolution import ProbabilitySeries, SeriesKind
from fractalwalk import serialize
from fractalwalk.hamiltonian import Operator, build_hamiltonian
from fractalwalk.lattice import generate
from fractalwalk.observables import ObservableTable
from fractalwalk.serialize import (
    build_manifest,
    format_float,
    json_dumps,
    matrix_triplet_bytes,
    observables_csv,
    read_lattice,
    read_report_document,
    read_series,
    write_lattice,
    write_manifest,
    write_report,
    write_series,
    write_text,
)


# --- float and JSON emission ----------------------------------------------

def test_format_float_significant_digits():
    assert format_float(1.0 / 3.0) == "0.333333333333"
    assert format_float(2.0) == "2"
    assert format_float(-1.5e-7) == "-1.5e-07"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_format_float_rejects_non_finite(bad):
    with pytest.raises(InputFileError):
        format_float(bad)


def test_json_dumps_shapes():
    doc = {"a": 1, "b": [1.5, None, True, False], "c": {"nested": "x\"y"}}
    text = json_dumps(doc)
    assert text == '{"a":1,"b":[1.5,null,true,false],"c":{"nested":"x\\"y"}}'
    assert json.loads(text) == doc


def test_json_dumps_preserves_insertion_order():
    assert json_dumps({"z": 1, "a": 2}) == '{"z":1,"a":2}'


def test_json_dumps_handles_numpy_scalars_and_arrays():
    doc = {"n": np.int64(3), "x": np.float64(0.25), "v": np.array([1.0, 2.0])}
    assert json_dumps(doc) == '{"n":3,"x":0.25,"v":[1,2]}'
    # np.float64 is a float; a float32 takes the numpy-scalar branch, at its own value
    assert json_dumps(np.float32(0.1)) == "0.10000000149"


_FLOAT_EDGES = [0.0, -0.0, 5e-324, -2.5e-310, 1e16, -1e16, 1e20, 1.0 / 3.0]


def _one_at_a_time(values):
    return "[" + ",".join(format_float(x) for x in values) + "]"


@settings(max_examples=80, deadline=None)
@given(values=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                                      max_side=8),
                         elements=st.one_of(st.sampled_from(_FLOAT_EDGES),
                                            st.floats(allow_nan=False,
                                                      allow_infinity=False))))
def test_json_dumps_of_a_float_array_matches_format_float(values):
    if values.ndim == 1:
        expected = _one_at_a_time(values)
    else:
        expected = "[" + ",".join(_one_at_a_time(row) for row in values) + "]"
    assert json_dumps(values) == expected


def test_json_dumps_float_edges():
    assert json_dumps(np.array(_FLOAT_EDGES)) == (
        "[0,-0,4.94065645841e-324,-2.5e-310,1e+16,-1e+16,1e+20,0.333333333333]"
    )


# both sides of the 12-digit rounding, the fixed/scientific switch at 1e-4
# and 1e12, the float range, exact 13th-digit ties and carries into the
# next decade
_BOUNDARY = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             -1.7976931348623157e308, 999999999999.5, 999999999999.4, 99999999999.95,
             9.99999999999995e-05, 1e-4, 1e-5, 1e11, 1e12, 1e16, 1234567890125.0,
             1234567890135.0, 0.1, 0.2, 0.3, 2.675, -1.5e-7, 1e-300, 1e300, 123456.0]


def _percent(values, field_sep=",", row_sep="],["):
    """The '%.12g' reference: one value at a time."""
    return row_sep.join(field_sep.join("%.12g" % x for x in row) for row in values.tolist())


def _json_reference(values):
    if values.ndim == 1:
        return "[" + _percent(values[None]) + "]"
    return "[[" + _percent(values) + "]]" if len(values) else "[]"


def _csv_reference(columns):
    return ("tau,variance,return_prob,polya\n" + "".join(
        _percent(row[None], ",", "") + "\n" for row in columns)).encode("ascii")


def _table(columns):
    return ObservableTable(*(np.array(c) for c in columns.T))


def _triplet_reference(matrix):
    rows, cols = np.nonzero(matrix)
    return "".join("%d %d %.12g\n" % (i, j, matrix[i, j])
                   for i, j in zip(rows, cols)).encode("ascii")


def _every_entry(matrix):
    """An operator holding every entry of ``matrix``, zeros included, in
    reverse (row, col) order."""
    rows, cols = (index.ravel()[::-1] for index in np.indices(matrix.shape))
    return Operator(max(matrix.shape), rows, cols, matrix[rows, cols])


_ANY_FLOAT = st.one_of(st.sampled_from(_BOUNDARY),
                       st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(values=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                                      max_side=9), elements=_ANY_FLOAT))
def test_float_writers_match_percent_format(values):
    assert json_dumps(values) == _json_reference(values)
    columns = np.resize(values, (values.size // 4, 4)) if values.size >= 4 else np.zeros((0, 4))
    assert observables_csv(_table(columns)) == _csv_reference(columns)
    matrix = np.atleast_2d(values)
    assert matrix_triplet_bytes(_every_entry(matrix)) == _triplet_reference(matrix)


@pytest.mark.parametrize("value", _BOUNDARY, ids=repr)
def test_boundary_values_match_percent_format(value):
    assert json_dumps(np.array([value, -value])) == "[%.12g,%.12g]" % (value, -value)


def test_ties_and_zeros_go_through_format_float(monkeypatch):
    seen = []

    def recording(x):
        seen.append(x)
        return format_float(x)

    monkeypatch.setattr("fractalwalk.serialize.format_float", recording)
    values = np.array([0.25, 1234567890125.0, 0.0, 5e-324, 1.0 / 3.0, -0.0])
    assert json_dumps(values) == _json_reference(values)
    # exact zeros take the word path: "0" and "-0"
    assert seen == [1234567890125.0, 5e-324]


def test_rows_straddling_a_chunk_boundary():
    # 2.5 full chunks of values (taken in passes of a sixteenth) in rows of
    # 7, so rows split at every pass edge
    size = serialize._CHUNK * 5 // 2 // 7 * 7
    values = np.random.default_rng(7).standard_normal(size).reshape(-1, 7) ** 3
    assert json_dumps(values) == _json_reference(values)
    assert observables_csv(_table(values[:, :4])) == _csv_reference(values[:, :4])


@pytest.mark.parametrize("shape", [(0,), (0, 0), (0, 3), (3, 0), (1, 0)])
def test_empty_and_zero_column_arrays(shape):
    assert json_dumps(np.zeros(shape)) == _json_reference(np.zeros(shape))


def test_empty_observable_table():
    assert observables_csv(_table(np.zeros((0, 4)))) == b"tau,variance,return_prob,polya\n"


def _with_nan(values):
    values = np.array(values, dtype=np.float64)
    values.flat[values.size // 2] = np.nan
    return values


def test_json_dumps_rejects_nan_inside_an_array():
    with pytest.raises(InputFileError, match="non-finite"):
        json_dumps({"probabilities": _with_nan(np.ones((3, 4)))})


def test_observables_csv_rejects_nan_inside_a_column(sg2_run):
    table = dataclasses.replace(sg2_run.table, variance=_with_nan(sg2_run.table.variance))
    with pytest.raises(InputFileError, match="non-finite"):
        observables_csv(table)


def test_matrix_triplet_bytes_rejects_nan_inside_the_matrix(pair):
    matrix = build_hamiltonian(pair).matrix.copy()
    matrix[0, 1] = np.nan
    with pytest.raises(InputFileError, match="non-finite"):
        matrix_triplet_bytes(_every_entry(matrix))


def test_json_dumps_rejects_unknown_types():
    with pytest.raises(InputFileError):
        json_dumps({"x": object()})


@dataclasses.dataclass(frozen=True)
class _Inner:
    b: float
    a: tuple


@dataclasses.dataclass(frozen=True)
class _Outer:
    z: int
    inner: _Inner
    v: np.ndarray


def test_json_dumps_writes_a_dataclass_as_its_fields_in_order():
    doc = _Outer(z=1, inner=_Inner(b=0.25, a=(1, None)), v=np.array([1.5, 2.0]))
    assert json_dumps(doc) == '{"z":1,"inner":{"b":0.25,"a":[1,null]},"v":[1.5,2]}'
    assert json_dumps([_Inner(b=1.0, a=())]) == '[{"b":1,"a":[]}]'


# --- lattice round trip ---------------------------------------------------

@pytest.mark.parametrize("kind,generation", [
    *[("sg", g) for g in range(1, 8)], *[("sc", g) for g in (1, 2, 3, 4)],
    *[("dsc", g) for g in (1, 2, 3, 4)], *[("triangle", g) for g in (1, 12, 64)],
    ("square", 1), ("square", 64),
])
def test_lattice_file_reads_back_exactly(tmp_path, kind, generation):
    # the reader returns the generated lattice, not one parsed from the
    # file's 12 digits: a gasket or triangle y = k * sqrt(3) / 2 keeps its
    # bits.  Every fractal generation the CLI accepts, up to the top one
    path = str(tmp_path / "lattice.json")
    lattice = generate(kind, generation)
    write_lattice(lattice, path)
    loaded = read_lattice(path)
    assert (loaded.kind, loaded.generation) == (kind, generation)
    assert np.array_equal(loaded.coords, lattice.coords)
    assert np.array_equal(loaded.edges, lattice.edges)


def test_read_lattice_missing_file(tmp_path):
    with pytest.raises(InputFileError):
        read_lattice(str(tmp_path / "absent.json"))


def test_read_lattice_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InputFileError):
        read_lattice(str(path))


def test_read_lattice_rejects_missing_fields(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text('{"kind":"sg"}')
    with pytest.raises(InputFileError):
        read_lattice(str(path))


def _edited_square(tmp_path, edit):
    """The true square generation 1 file (four sites), edited by ``edit`` and
    written compactly: the unedited dump is the file, so only the edit differs."""
    def compact(doc):
        return json.dumps(doc, separators=(",", ":")) + "\n"

    path = tmp_path / "square1.json"
    write_lattice(generate("square", 1), str(path))
    doc = json.loads(path.read_text())
    assert compact(doc) == path.read_text()
    edit(doc)
    path.write_text(compact(doc))
    return str(path)


def test_read_lattice_rejects_unordered_ids(tmp_path):
    def swap_ids(doc):
        doc["sites"][0]["id"], doc["sites"][1]["id"] = 1, 0

    with pytest.raises(InputFileError, match="is not the square generation 1 lattice file"):
        read_lattice(_edited_square(tmp_path, swap_ids))


def test_read_lattice_rejects_dangling_edges(tmp_path):
    def dangle(doc):
        doc["edges"][-1] = [0, 7]

    with pytest.raises(InputFileError, match="is not the square generation 1 lattice file"):
        read_lattice(_edited_square(tmp_path, dangle))


def test_write_lattice_writes_a_lattice_that_only_generate_reads_back(tmp_path):
    # the writer takes any in-memory Lattice; the reader returns only the
    # generated one, so a lattice that differs from it is written, then refused
    lattice = generate("sg", 3)
    path = str(tmp_path / "sg3.json")
    write_lattice(dataclasses.replace(lattice, edges=lattice.edges[1:]), path)
    with pytest.raises(InputFileError, match="is not the sg generation 3 lattice file"):
        read_lattice(path)


# --- series round trips ---------------------------------------------------

def test_series_json_round_trip(tmp_path, sg2_run):
    path = str(tmp_path / "series.json")
    write_series(sg2_run.series, path)
    loaded = read_series(path)
    assert loaded.kind == sg2_run.series.kind
    assert loaded.input_site == sg2_run.series.input_site
    # 12 significant digits through text
    assert np.abs(loaded.probabilities - sg2_run.series.probabilities).max() < 1e-11
    assert np.abs(loaded.times - sg2_run.series.times).max() < 1e-11


def test_read_series_rejects_bad_kind(tmp_path):
    doc = {"kind": "other", "input_site": 0, "times": [0.0], "probabilities": [[1.0]]}
    path = tmp_path / "series.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputFileError):
        read_series(str(path))


def test_read_series_rejects_shape_mismatch(tmp_path):
    doc = {
        "kind": "quantum",
        "input_site": 0,
        "times": [0.0, 1.0],
        "probabilities": [[1.0, 0.0]],
    }
    path = tmp_path / "series.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputFileError):
        read_series(str(path))


@pytest.mark.parametrize("reader,text", [
    (read_lattice, '{"kind":"sg","generation":1,"sites":[{"id":0,"x":NaN,"y":0}],'
                   '"edges":[]}'),
    (read_series, '{"kind":"quantum","input_site":0,"times":[0,1],'
                  '"probabilities":[[1],[Infinity]]}'),
    (read_report_document, '{"kind":"sg","first_void_tau":-Infinity}'),
    pytest.param(read_series, '{"kind":"quantum","input_site":0,"times":[0,1],'
                              '"probabilities":[[1],[1e400]]}', id="overflowing_probability"),
    pytest.param(read_series, '{"kind":"quantum","input_site":0,"times":[0,1e400],'
                              '"probabilities":[[1],[1]]}', id="overflowing_time"),
])
def test_readers_reject_non_finite_numbers(tmp_path, reader, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(InputFileError, match="non-finite"):
        reader(str(path))


@st.composite
def finite_series(draw):
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    probs = draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                         max_side=6), elements=finite))
    # read_series takes only times that start at >= 0 and ascend strictly
    ascending = st.floats(min_value=0.0, allow_infinity=False, width=64)
    times = np.sort(draw(hnp.arrays(np.float64, probs.shape[0], elements=ascending,
                                    unique=True)))
    assume(np.all(np.diff(_twelve_digits(times)) > 0))
    return ProbabilitySeries(SeriesKind.QUANTUM, 0, times, probs)


def _twelve_digits(values):
    return np.array([float(format(x, ".12g")) for x in values.ravel()]).reshape(values.shape)


@settings(max_examples=60, deadline=None)
@given(series=finite_series())
def test_series_text_round_trip_rounds_to_twelve_digits(series):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "series.json")
        write_series(series, path)
        loaded = read_series(path)
    assert np.array_equal(loaded.times, _twelve_digits(series.times))
    assert np.array_equal(loaded.probabilities, _twelve_digits(series.probabilities))


@settings(max_examples=60, deadline=None)
@given(series=finite_series(), token=st.sampled_from(["NaN", "Infinity", "-Infinity"]),
       position=st.integers(min_value=0))
def test_series_with_a_non_finite_token_is_rejected(series, token, position):
    times, probs = series.times.tolist(), series.probabilities.tolist()
    slots = [(times, i) for i in range(len(times))]
    slots += [(row, j) for row in probs for j in range(len(row))]
    owner, index = slots[position % len(slots)]
    owner[index] = "TOKEN"
    doc = {"kind": "quantum", "input_site": 0, "times": times, "probabilities": probs}
    text = json_dumps(doc).replace('"TOKEN"', token)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "series.json")
        write_text(path, text)
        with pytest.raises(InputFileError, match="non-finite"):
            read_series(path)


# --- CSV and triplets -----------------------------------------------------

def test_observables_csv_layout(sg2_run):
    data = observables_csv(sg2_run.table)
    lines = data.split(b"\n")
    assert lines[0] == b"tau,variance,return_prob,polya"
    assert lines[-1] == b""  # trailing newline
    assert len(lines) == sg2_run.table.times.size + 2
    first = lines[1].split(b",")
    assert first[0] == b"0" and first[2] == b"1"
    assert b"\r" not in data


def test_matrix_triplet_bytes(pair):
    h = build_hamiltonian(pair, coupling=1.5)
    assert matrix_triplet_bytes(h) == b"0 1 1.5\n1 0 1.5\n"
    assert matrix_triplet_bytes(_every_entry(np.zeros((2, 2)))) == b""


# --- report documents -----------------------------------------------------

def test_report_document_round_trip(tmp_path, dsc1_run):
    path = str(tmp_path / "report.json")
    calibration = calibrate_events(dsc1_run.report.event_taus(), "farthest", 10.0)
    doc = json.loads(json_dumps(dsc1_run.report))
    doc["calibration"] = calibration
    write_text(path, json_dumps(doc) + "\n")
    doc = read_report_document(path)
    assert doc["kind"] == "dsc"
    for key in (
        "first_void_tau",
        "l_f_tau",
        "farthest_tau",
        "saturation_tau",
        "normal_fit",
        "fractal_fit",
        "plateaus",
        "slope_curve",
        "oscillation_detected",
    ):
        assert key in doc
    assert doc["calibration"]["anchor_event"] == "farthest"
    assert doc["calibration"]["events_mm"]["farthest"] == pytest.approx(10.0)


def test_report_document_without_calibration(tmp_path, dsc1_run):
    path = str(tmp_path / "report.json")
    write_report(dsc1_run.report, path)
    assert "calibration" not in read_report_document(path)


def _names(cls):
    return [field.name for field in dataclasses.fields(cls)]


def test_documents_are_their_dataclass_fields_in_order(tmp_path, sg2_run, dsc1_run):
    series_path, report_path = str(tmp_path / "series.json"), str(tmp_path / "report.json")
    write_series(sg2_run.series, series_path)
    assert list(read_report_document(series_path)) == _names(ProbabilitySeries)
    assert dsc1_run.report.fractal_fit is not None
    write_report(dsc1_run.report, report_path)
    doc = read_report_document(report_path)
    assert list(doc) == _names(RegimeReport)
    assert list(doc["fractal_fit"]) == _names(ScalingFit)
    assert list(doc["slope_curve"]) == _names(SlopeCurve)
    # the calibration block, as calibrate writes it: through textio alone
    doc["calibration"] = calibrate_events(dsc1_run.report.event_taus(), "farthest", 10.0)
    textio.write_json(doc, report_path)
    doc = read_report_document(report_path)
    assert list(doc) == [*_names(RegimeReport), "calibration"]
    assert list(doc["calibration"]) == _names(CalibrationResult)


# --- manifests and atomic writes ------------------------------------------

def test_manifest_hashes_and_ordering(tmp_path):
    (tmp_path / "b.txt").write_bytes(b"beta")
    (tmp_path / "a.txt").write_bytes(b"alpha")
    manifest = build_manifest(
        [str(tmp_path / "b.txt"), str(tmp_path / "a.txt")], str(tmp_path)
    )
    entries = manifest["artifacts"]
    assert [e["path"] for e in entries] == ["a.txt", "b.txt"]
    assert entries[0]["sha256"] == hashlib.sha256(b"alpha").hexdigest()
    assert entries[0]["bytes"] == 5


def test_write_manifest_file(tmp_path):
    target = tmp_path / "out.csv"
    target.write_bytes(b"tau\n")
    path = str(tmp_path / "manifest.json")
    write_manifest([str(target)], str(tmp_path), path)
    doc = read_report_document(path)
    assert doc["artifacts"][0]["path"] == "out.csv"


def test_write_text_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.txt"
    write_text(str(path), "one")
    write_text(str(path), "two")
    assert path.read_text() == "two"
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []


@pytest.mark.parametrize("name", ["", ".", "sub/..", "sub/"],
                         ids=["empty", "dot", "dotdot", "trailing-separator"])
def test_a_path_that_names_no_file_creates_nothing(tmp_path, monkeypatch, name):
    # the temp file of '' or '.' would go into the parent of the working directory
    def refuse(*args, **kwargs):
        raise AssertionError("write_bytes touched the file system")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "open", refuse)
    monkeypatch.setattr(os, "makedirs", refuse)
    with pytest.raises(InputFileError, match="names no file"):
        write_text(name, "one")


def test_written_files_take_their_mode_from_the_umask(tmp_path):
    path = tmp_path / "out.txt"
    umask = os.umask(0o022)
    try:
        write_text(str(path), "one")
    finally:
        os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o644


def test_write_lattice_peaks_at_a_few_times_its_file(tmp_path):
    lattice = generate("dsc", 4)
    path = tmp_path / "dsc4.lattice.json"
    tracemalloc.start()
    try:
        write_lattice(lattice, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * path.stat().st_size
