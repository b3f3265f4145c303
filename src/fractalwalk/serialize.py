"""Deterministic file formats: JSON, CSV, PGM frames, manifests.

Floats are serialized with 12 significant digits everywhere.  Every float
array (JSON arrays, CSV rows, matrix triplets) goes through one vectorised
formatter, ``_format_rows``, which writes exactly the bytes of
``'%.12g' % x``; the ``%``-format itself (``format_float``) is used only for
scalars and for the values the formatter cannot place exactly: 13th-digit
ties, carries into the next decade, subnormals and exponents beyond its
power-of-ten table.  The stdlib json encoder cannot be told a float
format, so one emitter, ``textio._emit``, writes every JSON document but
the lattice file, which ``textio.lattice_bytes`` writes from lists.  It
writes a dataclass as the object of its fields, in field order: the series
and report documents are ``ProbabilitySeries`` and ``RegimeReport`` as
they are, and their key order is their field order.  The emitter appends
the document's ASCII bytes to one buffer, which ``textio.write_json``, the
one JSON writer, writes with a newline as it is.  All writers are
byte-deterministic; a lattice file reads as the lattice it names.

The parts that need no numpy live in ``textio``: the atomic writes, the
strict JSON load, the emitter for Python values and the JSON writer, the
lattice writer and ``format_float``.  This module adds the array formats
and hands the emitter its numpy branches (``_emit_numpy``).  Of the
pipeline stages it imports only ``geometry`` and ``lattice``, and
``evolution`` when a series is read: writing a report or a table loads
nothing of the stage that built it.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np

from . import textio
from .errors import BoundsError, DomainError, InputFileError, ShapeError
from .geometry import LatticeKind, _check_generation
from .lattice import Lattice, generate
from .textio import (  # noqa: F401  (read_report_document is re-exported)
    _emit,
    _integer,
    _load_json,
    _require,
    format_float,
    read_report_document,
    write_bytes,
)

if TYPE_CHECKING:  # annotations only: a writer loads no stage it does not write
    from .analysis import RegimeReport
    from .evolution import ProbabilitySeries
    from .hamiltonian import Operator
    from .observables import ObservableTable


# ---------------------------------------------------------------------------
# vectorised 12-significant-digit formatter
#
# Each value becomes a 32-byte record of four little-endian uint64 words: the
# prefix ("-", "0.000"), two words of digits with the decimal point, and the
# exponent suffix ("e+16") followed by the separator.  Every part is
# NUL-padded, and the NULs are deleted from the finished bytes.  Values the
# word arithmetic cannot place exactly go through ``format_float``.

# values per pass: a pass holds about 200 bytes a value, and a value prints
# in about 12, so a pass takes at most a sixteenth of an array (and at least
# _MIN_CHUNK values, below which the per-pass cost shows) to stay below the
# text it writes; larger chunks raise the peak RSS
_CHUNK, _MIN_CHUNK = 1 << 14, 1 << 10
_TIE_MARGIN = 1e-3  # > 2.3e-4, the error bound of m in _format_chunk
_U8, _U32, _U56 = np.uint64(8), np.uint64(32), np.uint64(56)


def _words(strings) -> np.ndarray:
    """Each string NUL-padded to 8 bytes, as one little-endian uint64."""
    return np.array([s.encode("ascii") for s in strings], dtype="S8").view("<u8")


def _digit_tables():
    """Per 4-digit group 0000..9999, its ASCII bytes as one word and its
    number of trailing zeros (4 for 0000)."""
    # uint64 throughout: NumPy 1.x promotes uint64 mixed with int64 to float64,
    # and a smaller unsigned type mixed with a uint64 scalar to itself
    digits = np.indices((10,) * 4, dtype=np.uint64).reshape(4, -1)  # of 0000..9999
    ascii4 = sum((digits[d] + np.uint64(48)) << np.uint64(8 * d) for d in range(4))
    zeros = np.logical_and.accumulate(digits[::-1] == 0).sum(axis=0, dtype=np.uint8)
    return ascii4, zeros


def _layout_tables():
    """Byte masks over the 16 digit bytes (words A, B) that drop trailing
    zeros and open the decimal point, by ``class * 12 + trailing zeros``.

    Class 0 is scientific (point after the first digit); classes 1-4 are
    fixed with exponent -1..-4 (no point among the digits: the prefix holds
    "0.", ..., "0.000"); classes 5-16 are fixed with exponent 0..11 (point
    after digit e + 1, and no integer digit dropped)."""
    cls = np.arange(17)[:, None]
    integral = np.where(cls >= 5, cls - 4, 0)  # digits before the point
    kept = np.maximum(12 - np.arange(12), integral)
    point = np.where(cls == 0, 1, np.where(cls >= 5, integral, 16))
    point = np.where(kept > point, point, 16)  # 16: no point
    byte = np.arange(16)[:, None, None]
    masks = [255 * ((byte < point) & (byte < kept)),  # digits before the point
             255 * ((byte > point) & (byte <= kept)),  # after it, shifted by one
             46 * (byte == point)]  # "."

    def word(mask, lo):  # bytes lo..lo+7 as one little-endian word
        return sum(mask[lo + b].astype(np.uint64) << np.uint64(8 * b)
                   for b in range(8)).ravel()

    return [word(mask, lo) for lo in (0, 8) for mask in masks]


_ASCII4, _ZEROS4 = _digit_tables()
_BELOW_A, _ABOVE_A, _DOT_A, _BELOW_B, _ABOVE_B, _DOT_B = _layout_tables()
# by index i = 311 - e of the decimal exponent e
_EXPONENT = np.arange(311, -330, -1)
# 10**(11 - e), correctly rounded, and 0 past 1e300, which leaves m out of range
_POW10 = np.array([float(f"1e{11 - e}") if e >= -289 else 0.0 for e in _EXPONENT.tolist()])
_CLASS = np.select([_EXPONENT >= 12, _EXPONENT >= 0, _EXPONENT >= -4],
                   [0, _EXPONENT + 5, -_EXPONENT], 0)
_SUFFIX = _words([f"e{e:+03d}" if c == 0 else ""
                  for e, c in zip(_EXPONENT.tolist(), _CLASS.tolist())])
_SUFFIX_BITS = 8 * np.count_nonzero(_SUFFIX.view(np.uint8).reshape(-1, 8), axis=1)
_SUFFIX_BITS = _SUFFIX_BITS.astype(np.uint64)
_E_ZERO = 311  # the index of e = 0, whose layout has no suffix
_LEAD = ["", "0.", "0.0", "0.00", "0.000"] + [""] * 12  # by layout class
_PREFIX = _words([sign + lead for lead in _LEAD for sign in ("", "-")])


def _format_chunk(x: np.ndarray, tails: np.ndarray, tail: np.ndarray) -> bytes:
    """``format_float(v)`` for each finite v in x, as ASCII, each followed by
    the separator of row ``tail[k]`` of ``tails``."""
    a = np.maximum(np.abs(x), 1e-320)  # zeros and subnormals fall off the table
    i = (311 - np.floor(np.log10(a))).astype(np.intp)
    m = a * _POW10[i]
    # m = |x| * 10**(11 - e) is in [1e11, 1e12) once e is right; log10 can be
    # one off either way next to a power of ten
    off = np.flatnonzero((m < 1e11) | (m >= 1e12))
    i[off] += (m[off] < 1e11).astype(np.intp) - (m[off] >= 1e12)
    m[off] = a[off] * _POW10[i[off]]
    # m is within 2.3e-4 of the exact product, so away from a tie and from a
    # carry into the next decade rint(m) is the correctly rounded digit string
    q = np.rint(m)
    fast = (m >= 1e11) & (q < 1e12) & (np.abs(m - q) < 0.5 - _TIE_MARGIN)
    i = np.where(fast, i, _E_ZERO)
    # a zero keeps q = 0, whose one digit the layout of e = 0 prints: "0", "-0"
    fast |= x == 0.0
    q = np.where(fast, q, 1e11)

    high = np.floor(q / 1e8)
    rest = q - high * 1e8
    mid = np.floor(rest / 1e4)
    low = (rest - mid * 1e4).astype(np.intp)
    high, mid = high.astype(np.intp), mid.astype(np.intp)
    zeros = _ZEROS4[low]
    ends = np.flatnonzero(low == 0)
    zeros[ends] += _ZEROS4[mid[ends]] + (mid[ends] == 0) * _ZEROS4[high[ends]]
    cls = _CLASS[i]
    layout = cls * 12 + np.minimum(zeros, 11)  # q = 0 has twelve

    records = np.empty((x.size, 4), dtype="<u8")
    records[:, 0] = _PREFIX[2 * cls + np.signbit(x)]
    digits_a = _ASCII4[high] | (_ASCII4[mid] << _U32)
    digits_b = _ASCII4[low]
    # the point opens with a one-byte shift of the 128-bit pair above it
    records[:, 1] = ((digits_a & _BELOW_A[layout]) | ((digits_a << _U8) & _ABOVE_A[layout])
                     | _DOT_A[layout])
    records[:, 2] = ((digits_b & _BELOW_B[layout])
                     | (((digits_b << _U8) | (digits_a >> _U56)) & _ABOVE_B[layout])
                     | _DOT_B[layout])
    records[:, 3] = tails[tail, i]
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = [format_float(v).encode("ascii") for v in x[slow].tolist()]
        records[slow, :3] = np.array(texts, dtype="S24").view("<u8").reshape(-1, 3)
    return records.tobytes().translate(None, b"\0")


def _format_rows(values: np.ndarray, field_sep: str, row_sep: str):
    """``format_float`` of every entry of a 2-d array as ASCII bytes, in
    pieces to concatenate: each field but a row's last is followed by
    ``field_sep``, each row but the last by ``row_sep``; each separator is
    at most three characters.  InputFileError naming the first non-finite
    entry, raised before the first piece."""
    if values.size == 0:
        yield (row_sep * (len(values) - 1)).encode("ascii")
        return
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        raise InputFileError(f"cannot serialize non-finite float {flat[~finite][0]}")
    # word 3 of a record: the exponent suffix, then the separator; by row of
    # ``tails``, the field gap, the row end, and none after the last value
    tails = _SUFFIX | (_words([field_sep, row_sep, ""])[:, None] << _SUFFIX_BITS)
    n_cols = values.shape[1]
    size = min(_CHUNK, max(_MIN_CHUNK, flat.size // 16))
    for start in range(0, flat.size, size):
        x = flat[start:start + size]
        tail = np.zeros(x.size, dtype=np.intp)
        tail[(n_cols - 1 - start) % n_cols::n_cols] = 1
        if start + size >= flat.size:
            tail[-1] = 2
        yield _format_chunk(x, tails, tail)


def json_dumps(obj) -> str:
    """The line ``write_json`` writes for ``obj``, without its newline."""
    out = bytearray()
    _emit(obj, out, _emit_numpy)
    return out.decode("ascii")


def _emit_numpy(obj, out: bytearray) -> None:
    """The numpy branches of ``_emit``: float arrays through the vectorised
    formatter, other arrays value by value, numpy scalars as Python numbers."""
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim == 1:
        _emit_rows(obj[None], ",", "", b"[", b"]", out)
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim == 2 and len(obj):
        _emit_rows(obj, ",", "],[", b"[[", b"]]", out)
    elif isinstance(obj, np.ndarray):
        _emit(list(obj), out, _emit_numpy)
    elif isinstance(obj, np.integer):
        _emit(int(obj), out)
    elif isinstance(obj, np.floating):
        _emit(float(obj), out)
    else:
        _emit(obj, out)  # which refuses it


def _emit_rows(values, field_sep, row_sep, opening: bytes, closing: bytes,
               out: bytearray) -> None:
    out += opening
    for piece in _format_rows(values, field_sep, row_sep):
        out += piece
    out += closing


# ---------------------------------------------------------------------------
# lattice documents


def _lattice_bytes(lattice: Lattice) -> bytearray:
    """The file ``fractalwalk lattice`` writes for this lattice."""
    return textio.lattice_bytes(lattice.kind.value, lattice.generation,
                                lattice.coords.ravel().tolist(), lattice.edges.ravel().tolist())


def write_lattice(lattice: Lattice, path: str) -> None:
    """Writes any in-memory Lattice; only ``generate(kind, generation)`` reads back."""
    write_bytes(path, _lattice_bytes(lattice))


def read_lattice(path: str) -> Lattice:
    """``generate(kind, generation)`` of the file's kind and generation, if the
    file is byte for byte what ``write_lattice`` writes for it, else
    InputFileError.  No site or edge is parsed: a reader walks what a sweep walks."""
    data = textio._read(path)
    doc = _load_json(path, data)
    try:
        kind = LatticeKind.parse(str(_require(doc, "kind", path)))
        generation = _check_generation(kind, _require(doc, "generation", path))
    except BoundsError as exc:
        raise InputFileError(f"{path}: {exc}") from None
    lattice = generate(kind, generation)
    if data != _lattice_bytes(lattice):
        raise InputFileError(
            f"{path} is not the {kind.value} generation {generation} lattice file, which "
            f"`fractalwalk lattice --kind {kind.value} --generation {generation}` writes")
    return lattice


# ---------------------------------------------------------------------------
# series and regime report documents: each is its dataclass


def write_series(series: ProbabilitySeries, path: str) -> None:
    textio.write_json(series, path, _emit_numpy)


def write_report(report: RegimeReport, path: str) -> None:
    textio.write_json(report, path, _emit_numpy)


def _number_array(values) -> np.ndarray:
    """A JSON list of numbers, or of lists of numbers, as a float64 array.
    Every value must be an int or a float, never a bool or a string, checked
    with no Python-level call per value: ``np.asarray`` parses a numeric
    string and takes a bool as exactly 0 or 1, so ``sum`` refuses the string
    and the types are read only in the rows that hold a 0 or a 1.  Raises
    ValueError, TypeError or OverflowError."""
    array = np.asarray(values, dtype=np.float64)
    rows = values if array.ndim == 2 else [values]
    for row in rows:
        sum(row, 0.0)
    suspects = ((array == 0.0) | (array == 1.0)).reshape(len(rows), -1).any(axis=1)
    for i in np.flatnonzero(suspects):
        if not {int, float}.issuperset(map(type, rows[i])):
            raise ValueError("true or false where a number belongs")
    return array


def read_series(path: str) -> ProbabilitySeries:
    from .evolution import ProbabilitySeries, SeriesKind

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
        times, probs = _number_array(times), _number_array(probs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputFileError(f"{path}: malformed series field: {exc}") from exc
    for name, values in (("times", times), ("probabilities", probs)):
        if not np.isfinite(values).all():  # a number such as 1e400 parses to inf
            raise InputFileError(f"{path}: non-finite number in {name}")
    try:
        return ProbabilitySeries(kind, input_site, times, probs)
    except (DomainError, ShapeError) as exc:
        raise InputFileError(f"{path}: {exc}") from None


def read_walk(lattice_path: str, series_path: str) -> tuple[Lattice, ProbabilitySeries]:
    """A lattice file and a series file, held to each other: another site
    count exits 4, a row that is no distribution 5, and a series that no walk
    on the lattice gives (``ProbabilitySeries.check_walk``) 3."""
    from .evolution import check_distribution

    lattice, series = read_lattice(lattice_path), read_series(series_path)
    series.check_lattice(lattice)
    check_distribution(series.probabilities)
    try:
        series.check_walk(lattice)
    except DomainError as exc:
        raise InputFileError(f"{series_path}: {exc}") from None
    return lattice, series


# ---------------------------------------------------------------------------
# observables CSV


def observables_csv(table: ObservableTable) -> bytes:
    columns = np.column_stack((table.times, table.variance, table.return_prob, table.polya))
    header = b"tau,variance,return_prob,polya\n"
    if not len(columns):
        return header
    return b"".join([header, *_format_rows(columns, ",", "\n"), b"\n"])


def write_text(path: str, text: str) -> None:  # no caller here; perfbench wraps it
    write_bytes(path, text.encode("utf-8"))


def write_observables(table: ObservableTable, path: str) -> None:
    write_bytes(path, observables_csv(table))


# ---------------------------------------------------------------------------
# matrix triplet dump


def matrix_triplet_bytes(operator: Operator) -> bytes:
    """One "row col value" line per non-zero entry, sorted by (row, col)."""
    keep = np.flatnonzero(operator.values)
    keep = keep[np.lexsort((operator.cols[keep], operator.rows[keep]))]
    if not keep.size:
        return b""
    # indices are below 1e12, so their 12-digit form is the integer itself
    triplets = np.column_stack((operator.rows[keep], operator.cols[keep], operator.values[keep]))
    return b"".join([*_format_rows(triplets, " ", "\n"), b"\n"])


def write_matrix_triplets(operator: Operator, path: str) -> None:
    write_bytes(path, matrix_triplet_bytes(operator))


# ---------------------------------------------------------------------------
# run manifest


def build_manifest(paths: list[str], base_dir: str) -> dict:
    import hashlib  # here, not at the top: it loads OpenSSL, which no other writer needs

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
    textio.write_json(build_manifest(paths, base_dir), path, _emit_numpy)
