"""One field of a true document mutated, and the subcommand that reads it.

The documents are an sg:3 lattice, its quantum and classical series and
the quantum series' report.  Every run must exit with a code of an
``errors.py`` class, never 1 (an exception ``main`` does not map), and
may exit 0 only for a mutation that the README ("What the readers cannot
detect") lists as undetectable: ``undetectable`` below holds that list.
"""

import json
import pathlib
import sys

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from fractalwalk import cli, errors
from fractalwalk.evolution import ROW_SUM_TOL

EXIT_CODES = {cls.exit_code for cls in vars(errors).values()
              if isinstance(cls, type) and issubclass(cls, errors.FractalwalkError)} - {1}

DELETED = object()  # the mutation that removes a key
EVENT_TAUS = ("first_void_tau", "l_f_tau", "farthest_tau", "saturation_tau")

FOREIGN = [None, True, False, "0.5", "banana", "", [], {}, 10 ** 400, 1e308, -1, 0, 1.5]
NAMES = ["sg", "sc", "dsc", "triangle", "square", "SG", "quantum", "classical"]
DELTAS = [1e-12, 5e-10, 5e-7, 1e-3, 0.5, 1, 2, 7]


class Documents:
    """Each document's path, its content and the commands that read it."""

    def __init__(self, paths, content, commands):
        self.paths, self.content, self.commands = paths, content, commands

    def __repr__(self):  # a failing example prints this, not the documents
        return "Documents(sg:3)"


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutations")
    paths = {name: str(root / f"{name}.json")
             for name in ("lattice", "quantum", "classical", "report")}
    lattice = paths["lattice"]
    assert cli.main(["lattice", "--kind", "sg", "--generation", "3", "--out", lattice]) == 0
    assert cli.main(["evolve", "--lattice", lattice, "--out", paths["quantum"]]) == 0
    assert cli.main(["classical", "--lattice", lattice, "--out", paths["classical"]]) == 0
    assert cli.main(["analyze", "--series", paths["quantum"], "--lattice", lattice,
                     "--out", paths["report"]]) == 0
    content = {name: json.loads(pathlib.Path(path).read_text()) for name, path in paths.items()}
    # a compact dump gives the lattice file's own bytes back
    assert (json.dumps(content["lattice"], separators=(",", ":")) + "\n"
            == pathlib.Path(lattice).read_text())

    def readers(series):
        pair = ["--series", paths[series], "--lattice", lattice]
        return [["observables", *pair, "--out", str(root / "o.csv")],
                ["analyze", *pair, "--out", str(root / "r.json")],
                ["render", *pair, "--run", "f", "--time-index", "5", "--out-dir", str(root)]]

    commands = {"lattice": readers("quantum"), "quantum": readers("quantum"),
                "classical": readers("classical"),
                "report": [["calibrate", "--report", paths["report"], "--anchor-event",
                            "first_void", "--anchor-mm", "2.675", "--out",
                            str(root / "c.json")]]}
    return Documents(paths, content, commands)


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def undetectable(name: str, doc, path: tuple, old, new) -> bool:
    """Whether the README lists this mutation of document ``name`` (``doc``
    as mutated) as one its readers cannot detect.  No lattice mutation is:
    a lattice file must be the generated one, byte for byte."""
    key = path[0]
    if name == "lattice":
        return False
    if name in ("quantum", "classical"):
        times = doc.get("times")
        return ((key == "times" and len(path) == 2 and _number(new) and times[0] >= 0
                 and all(a < b for a, b in zip(times, times[1:]))
                 and not (name == "classical" and path[1] == 0))
                or (key == "probabilities" and len(path) == 3 and _number(new)
                    and abs(new - old) <= ROW_SUM_TOL)
                or (name == "classical" and path == ("kind",) and new == "quantum"))
    return (key not in ("kind", *EVENT_TAUS)
            or (key in EVENT_TAUS and (new is DELETED or new is None or _number(new)
                                       and 0 <= new <= sys.float_info.max))
            or (path == ("kind",) and (new is DELETED or new is None
                                       or new in ("sg", "sc", "dsc"))))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_a_mutated_document_exits_with_a_code_of_its_fault(documents, data):
    paths, content, commands = documents.paths, documents.content, documents.commands
    name = data.draw(st.sampled_from(sorted(content)), label="document")
    doc = content[name]
    # descend to a field: mostly a leaf, sometimes a whole list or object
    parent, key = doc, data.draw(st.sampled_from(sorted(doc)), label="key")
    path = (key,)
    while (isinstance(parent[key], (list, dict)) and parent[key]
           and data.draw(st.integers(0, 3), label="descend")):
        parent = parent[key]
        key = (data.draw(st.sampled_from(sorted(parent)), label="key")
               if isinstance(parent, dict) else data.draw(st.integers(0, len(parent) - 1)))
        path += (key,)
    old = parent[key]
    choices = [st.sampled_from(FOREIGN)]
    if isinstance(parent, dict):
        choices.append(st.just(DELETED))
    if _number(old):
        choices.append(st.sampled_from(DELTAS).flatmap(
            lambda delta: st.sampled_from([old + delta, old - delta])))
    if isinstance(old, str):
        choices.append(st.sampled_from(NAMES))
    new = data.draw(st.one_of(choices), label="value")
    if new is not DELETED and new == old and type(new) is type(old):
        return  # no mutation
    note(f"{name} {path}: {repr(old)[:80]} -> {'deleted' if new is DELETED else repr(new)[:80]}")
    # the mutated document goes to a file of its own, so that the true ones
    # stay; written compactly, as the program writes, so that a lattice file
    # differs from the true one in the mutated field alone
    mutated = paths[name].replace(".json", ".mutated.json")
    argv = [mutated if arg == paths[name] else arg
            for arg in data.draw(st.sampled_from(commands[name]), label="command")]
    if new is DELETED:
        del parent[key]
    else:
        parent[key] = new
    try:
        with open(mutated, "w") as handle:
            handle.write(json.dumps(doc, separators=(",", ":")) + "\n")
        listed = undetectable(name, doc, path, old, new)
    finally:
        parent[key] = old
    code = cli.main(argv)
    assert code in EXIT_CODES or code == 0, code
    assert code != 0 or listed, f"{argv[0]} took the mutation with exit 0"
