"""Text I/O that needs no numpy: atomic writes, the strict JSON load, the
JSON emitter for Python values and the lattice writer.

The emitter, ``_emit``, writes a dataclass as the object of its fields, in
field order, so a document is its dataclass: the field order is the
document's key order.  ``calibrate`` reads a report
(``read_report_document``) and writes it back with its ``calibration``
block (``write_json``) through this module; the rules a report must meet
are ``calibration``'s.  A lattice file has its own writer,
``lattice_bytes``, which takes the sites and edges as flat sequences of
Python numbers, so the ``lattice`` command writes one without numpy.
``serialize`` re-exports the rest and adds the array formats; it hands
its numpy branches to ``_emit``, which reaches them only when an array or
a numpy scalar is present.  Floats are written with 12 significant digits
(``format_float``); parsing goes through ``json.load``, which rejects the
``NaN`` and ``Infinity`` tokens.  All file writes are atomic (write to a
temp file, then rename), and an output that cannot be written is an
InputFileError, as an input that cannot be read is.
"""

from __future__ import annotations

import json
import math
import os

from .errors import InputFileError

FLOAT_FORMAT = ".12g"


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise InputFileError(f"cannot serialize non-finite float {x}")
    return format(x, FLOAT_FORMAT)


# ---------------------------------------------------------------------------
# JSON emitter


def _json_bytes(obj, end: bytes = b"", other=None) -> bytearray:
    """The compact JSON of ``obj``, then ``end``, as ASCII bytes in one buffer."""
    out = bytearray()
    _emit(obj, out, other)
    out += end
    return out


def _emit(obj, out: bytearray, other=None) -> None:
    """Append the JSON text of ``obj`` to ``out``, keys in insertion order.
    A dataclass instance is the object of its fields, in field order.
    Values other than None, bools, strings, ints, floats, dicts, lists,
    tuples and dataclass instances go to ``other(obj, out)`` when it is
    given, and are refused otherwise; nested values pass ``other`` on."""
    if obj is None or isinstance(obj, (bool, str)):
        out += json.dumps(obj).encode("ascii")
    elif isinstance(obj, int):
        out += b"%d" % int(obj)
    elif isinstance(obj, float):
        out += format_float(obj).encode("ascii")
    elif isinstance(obj, dict):
        out += b"{"
        for n, (key, value) in enumerate(obj.items()):
            out += b"," if n else b""
            out += json.dumps(str(key)).encode("ascii") + b":"
            _emit(value, out, other)
        out += b"}"
    elif isinstance(obj, (list, tuple)):
        out += b"["
        for n, value in enumerate(obj):
            out += b"," if n else b""
            _emit(value, out, other)
        out += b"]"
    elif hasattr(type(obj), "__dataclass_fields__"):
        # dataclasses.is_dataclass's test; the import waits for a dataclass
        from dataclasses import fields

        _emit({f.name: getattr(obj, f.name) for f in fields(obj)}, out, other)
    elif other is not None:
        other(obj, out)
    else:
        raise InputFileError(f"cannot serialize object of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# atomic writes


def write_bytes(path: str, data: bytes) -> None:
    """``data`` as the file ``path``, written to a temp file beside it and
    renamed into place; InputFileError if it cannot be written, with the
    temp file removed.  A path that names no file ('', '.', '..', or one
    that ends in a separator) is refused before anything is created."""
    if os.path.basename(path) in ("", os.curdir, os.pardir):
        raise InputFileError(f"cannot write {path!r}: the path names no file")
    directory = os.path.dirname(os.path.abspath(path))
    # a fresh name, created with mode 0o666 less the umask, as open() creates
    # a file; the rename keeps the mode
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    try:
        os.makedirs(directory, exist_ok=True)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise InputFileError(f"cannot write {path}: {exc}") from exc


def write_json(doc: dict, path: str) -> None:
    """A document of Python values as one line of JSON."""
    write_bytes(path, _json_bytes(doc, b"\n"))


# ---------------------------------------------------------------------------
# lattice documents


def lattice_bytes(kind: str, generation: int, xy, edges) -> bytearray:
    """The lattice file: one line of JSON with the kind, the generation, the
    spacing, each site's id, x and y, and each edge's (i, j), then a newline.
    ``xy`` gives x0, y0, x1, y1, ... and ``edges`` i0, j0, i1, j1, ..., as
    ``geometry.sites_and_edges`` returns them; each is iterated once, and
    each site or edge is appended to one buffer as it comes.  The
    ``lattice`` command writes the file from the generator's lists,
    ``serialize.write_lattice`` from a ``Lattice``'s arrays."""
    # spacing is the distance unit; read_lattice takes these bytes and no others
    out = bytearray(b'{"kind":%s,"generation":%d,"spacing":1,"sites":['
                    % (json.dumps(kind).encode("ascii"), generation))
    sep, coords = b"", iter(xy)
    for n, (x, y) in enumerate(zip(coords, coords)):
        out += sep + ('{"id":%d,"x":%s,"y":%s}'
                      % (n, format_float(x), format_float(y))).encode("ascii")
        sep = b","
    out += b'],"edges":['
    sep, ends = b"", iter(edges)
    for i, j in zip(ends, ends):
        out += sep + b"[%d,%d]" % (i, j)
        sep = b","
    out += b"]}\n"
    return out


# ---------------------------------------------------------------------------
# strict reads


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from exc


def _load_json(path: str, data: bytes | None = None) -> dict:
    """The JSON object in the file ``path`` (whose bytes are ``data``, if
    given); InputFileError unless it is UTF-8 and strict JSON."""
    def reject(token: str):
        raise InputFileError(f"{path}: non-finite number {token} is not allowed")

    try:
        doc = json.loads((_read(path) if data is None else data).decode("utf-8"),
                         parse_constant=reject)
    # not UTF-8 or JSON, nested past the recursion limit, or an int of too many digits
    except (ValueError, RecursionError) as exc:
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


# ---------------------------------------------------------------------------
# report documents, as read back for calibration


def read_report_document(path: str) -> dict:
    """The report's JSON object; ``calibration.report_events`` holds its rules."""
    return _load_json(path)
