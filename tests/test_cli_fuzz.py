"""`hedgelab run` over input files with one change: a tree data file with one
cell, or one row's cell count, changed, or written in another dialect
(delimiter, quoting, line ending), encoding (byte-order marks, latin-1 bytes,
UTF-16), column order or with extra columns; a template tree file with a field of
another type or value, a key missing, a cycle, a repeated id or another
depth; a --config file with a key of another type or value (NaN, inf,
booleans) or an unknown key.  A malformed input exits 2 with one stderr line
that starts with `error:` and names the file (and a data file's line) or the
key; an input that is still valid runs, exits 0 and writes summary.json."""

import contextlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hedgelab.cli import EXIT_BAD_CONFIG, EXIT_OK, main
from hedgelab.lab import rng_for
from hedgelab.tree import PruningTree, generate_tree_data, random_template_tree, save_tree, save_tree_data

ROWS, FEATURES = 60, 3
BAD_FEATURES = ["abc", "", "nan", "NaN", "1e", "0.5.5", "--1", "0x10"]
BAD_TARGETS = ["abc", "", "nan", "1.5", "-0.5", "inf", "-inf", "1.0000001", "-1e-300"]
GOOD_FEATURES = ["inf", "-inf", " 0.5 ", "-3", "1e300"]
GOOD_TARGETS = ["0", "1", "-0.0", " 0.25", "1e-300"]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A template tree's file and the lines of a data file of ROWS rows valid for it."""
    rng = rng_for(17, 2)
    tree = random_template_tree(3, FEATURES, rng)
    folder = tmp_path_factory.mktemp("tree")
    save_tree(tree, folder / "tree.json")
    save_tree_data(generate_tree_data(tree, PruningTree(frozenset()), ROWS, FEATURES, rng), folder / "data.csv")
    return folder / "tree.json", (folder / "data.csv").read_text().splitlines()


@st.composite
def edits(draw):
    """(kind, row, the row's new cells): one cell replaced, or one cell dropped or added."""
    kind = draw(st.sampled_from(["bad feature", "bad target", "drop cell", "add cell", "good cell", "none"]))
    row, feature = draw(st.integers(0, ROWS - 1)), draw(st.integers(0, FEATURES - 1))
    if kind == "bad feature":
        return kind, row, {feature: draw(st.sampled_from(BAD_FEATURES))}
    if kind == "bad target":
        return kind, row, {FEATURES: draw(st.sampled_from(BAD_TARGETS))}
    if kind == "good cell":
        cell = draw(st.sampled_from([(feature, v) for v in GOOD_FEATURES] + [(FEATURES, v) for v in GOOD_TARGETS]))
        return kind, row, dict([cell])
    return kind, row, {}


def run_cli(args: list[str]) -> tuple[int, str]:
    """cli.main's exit code and stderr for one run with one worker."""
    old, err = os.environ.get("ANH_THREADS"), io.StringIO()
    os.environ["ANH_THREADS"] = "1"
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", *args])
    finally:
        if old is None:
            os.environ.pop("ANH_THREADS")
        else:
            os.environ["ANH_THREADS"] = old
    return code, err.getvalue()


def run_tree(tree_path: Path, data_path: Path, out: Path) -> tuple[int, str]:
    """cli.main's exit code and stderr for one tree run."""
    return run_cli(["--scenario", "tree", "--algo", "ada", "--tree", str(tree_path), "--data", str(data_path),
                    "--out", str(out)])


def assert_outcome(valid: bool, code: int, err: str, out: Path, names: str) -> None:
    """A valid input exits 0 silently and writes summary.json; a malformed one exits 2
    with one `error:` line that matches the regex `names`, and makes no output directory."""
    if valid:
        assert (code, err) == (EXIT_OK, "")
        assert (out / "summary.json").is_file()
    else:
        assert code == EXIT_BAD_CONFIG, err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert re.search(names, err), err
        assert not out.exists()


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(edit=edits())
def test_one_changed_cell_or_row(valid_files, edit):
    tree_path, lines = valid_files
    kind, row, cells = edit
    new = lines[1 + row].split(",")
    for k, value in cells.items():
        new[k] = value
    if kind == "drop cell":
        new.pop()
    elif kind == "add cell":
        new.append("0.5")
    with tempfile.TemporaryDirectory() as tmp:
        data_path, out = Path(tmp) / "data.csv", Path(tmp) / "out"
        data_path.write_text("\n".join([*lines[: 1 + row], ",".join(new), *lines[2 + row :]]) + "\n")
        code, err = run_tree(tree_path, data_path, out)
        names = rf"{re.escape(str(data_path))}.*\bline {row + 2}\b"
        assert_outcome(kind in ("good cell", "none"), code, err, out, names)


# ---------------------------------------------------------------------------
# The data file's dialect, byte-order mark, columns and encoding
# ---------------------------------------------------------------------------

EXTRA_COLUMNS = {"id": "7", "fold": "1", "f3": "0.5", "f5": "0.5", "note": "\u00e9"}  # name -> every row's cell
ENCODINGS = {  # name -> the file's bytes from its text
    "utf-8": lambda text: text.encode("utf-8"),
    "utf-8 with a byte-order mark": lambda text: text.encode("utf-8-sig"),
    "utf-8 with two byte-order marks": lambda text: ("\ufeff" + text).encode("utf-8-sig"),
    "latin-1": lambda text: text.encode("latin-1"),
    "utf-16": lambda text: text.encode("utf-16"),
}


@st.composite
def data_dialects(draw):
    """(delimiter, whether every cell is quoted, line ending, encoding, the columns in order)."""
    extra = draw(st.lists(st.sampled_from(sorted(EXTRA_COLUMNS)), unique=True, max_size=3))
    columns = draw(st.permutations([*(f"f{k}" for k in range(FEATURES)), "z", *extra]))
    return (draw(st.sampled_from([",", ",", ";", "\t", "|", " "])), draw(st.booleans()),
            draw(st.sampled_from(["\n", "\r\n", "\r"])), draw(st.sampled_from(sorted(ENCODINGS))), columns)


def dialect_is_valid(delimiter: str, encoding: str, columns: list[str]) -> bool:
    """Whether a data file reads: comma-separated UTF-8 text (a first byte-order mark
    is skipped, a second is part of the first column's name), a z column, and
    feature columns f0..fk, k at least the last feature the tree splits on."""
    if delimiter != "," or encoding == "utf-16" or encoding == "latin-1" and "note" in columns:
        return False
    if encoding == "utf-8 with two byte-order marks":
        columns = ["\ufeff" + columns[0], *columns[1:]]
    features = sorted((c for c in columns if re.fullmatch(r"f[0-9]+", c)), key=lambda c: int(c[1:]))
    need = max(n["feature"] for n in TREE_DOC["nodes"] if n["children"])
    return "z" in columns and features == [f"f{k}" for k in range(len(features))] and len(features) > need


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(dialect=data_dialects())
def test_data_file_dialect_columns_and_encoding(valid_files, dialect):
    tree_path, lines = valid_files
    delimiter, quoted, ending, encoding, columns = dialect
    header = lines[0].split(",")
    table = [{**EXTRA_COLUMNS, **dict(zip(header, line.split(",")))} for line in lines[1:]]
    cell = (lambda v: f'"{v}"') if quoted else str
    text = ending.join(delimiter.join(map(cell, row)) for row in [columns, *([r[c] for c in columns] for r in table)])
    with tempfile.TemporaryDirectory() as tmp:
        data_path, out = Path(tmp) / "data.csv", Path(tmp) / "out"
        data_path.write_bytes(ENCODINGS[encoding](text + ending))
        code, err = run_tree(tree_path, data_path, out)
        assert_outcome(dialect_is_valid(delimiter, encoding, columns), code, err, out, re.escape(str(data_path)))


# ---------------------------------------------------------------------------
# The template tree file
# ---------------------------------------------------------------------------

OTHER_TYPES = [None, True, False, "0.5", [0.5], {}, math.nan]
FIELD_VALUES = {  # field -> (values valid on an internal node, on a leaf), and other values
    "feature": ([0, FEATURES - 1], [], [-1, 1.0, 1.5, FEATURES, 10**20, math.inf, *OTHER_TYPES]),
    "threshold": ([0, -3, 0.5, 2**60, 1e300, math.inf, -math.inf], [], OTHER_TYPES),
    "prediction": ([0, 1, 0.0, -0.0, 0.25, 1.0], [0, 1, -0.0, 0.75],
                   [-0.1, 1.0000001, math.inf, -math.inf, 2, *OTHER_TYPES]),
    "children": ([], [None, []], ["ab", 5, {}, True, ["x"], ["a", "b", "c"]]),
    "id": ([], [], [0, None, True, [], {}, 1.5, "zz"]),
}


def field_values(field: str, role: str) -> tuple[list, list]:
    """The values of a field that keep the tree valid, and the others, on the root, an internal node or a leaf."""
    internal, leaf, bad = FIELD_VALUES[field]
    if field == "prediction" and role == "root":  # the root predicts nothing
        return [None], [0.5, *(v for v in bad if v is not None)]
    if role == "leaf" and field in ("feature", "threshold"):  # a leaf's split fields are not read
        return [*internal, *bad], []
    return (leaf if role == "leaf" else internal), bad


TREE_DOC = random_template_tree(3, FEATURES, rng_for(17, 2)).to_dict()  # the tree of valid_files
ROOT = TREE_DOC["root"]
INTERNAL = [n["id"] for n in TREE_DOC["nodes"] if n["children"] and n["id"] != ROOT]
LEAVES = [n["id"] for n in TREE_DOC["nodes"] if not n["children"]]


def chain(depth: int) -> dict:
    """A template tree document of `depth` splits in a chain, each with a leaf on one side."""
    nodes = []
    for d in range(depth):
        nodes.append({"id": f"s{d}", "feature": d % FEATURES, "threshold": 0.5, "prediction": None if d == 0 else 0.5,
                      "children": [f"l{d}", f"s{d + 1}" if d + 1 < depth else f"l{depth}"]})
        nodes.append({"id": f"l{d}", "prediction": 0.25})
    nodes.append({"id": f"l{depth}", "prediction": 0.75})
    return {"root": "s0", "nodes": nodes}


def edited_tree(kind: str, nid, key, value) -> str:
    """The text of TREE_DOC with one edit: key of node nid (of the document for None) set to value,
    or deleted ("missing"); or the document replaced by value ("whole"), cut to value characters
    ("text"), or by a chain of value splits ("depth")."""
    if kind == "whole":
        return json.dumps(value)
    if kind == "text":
        return json.dumps(TREE_DOC)[:value]
    if kind == "depth":
        return json.dumps(chain(value))
    doc = json.loads(json.dumps(TREE_DOC))
    target = doc if nid is None else next(n for n in doc["nodes"] if n["id"] == nid)
    if kind == "missing":
        del target[key]
    else:
        target[key] = value
    return json.dumps(doc)


@st.composite
def tree_edits(draw):
    """(kind, node id or None, key, value, whether the edited tree is still valid) for edited_tree."""
    kind = draw(st.sampled_from(["field", "field", "field", "missing", "cycle", "duplicate id", "extra key",
                                 "whole", "text", "depth"]))
    if kind == "field":
        field, role = draw(st.sampled_from(sorted(FIELD_VALUES))), draw(st.sampled_from(["root", "internal", "leaf"]))
        good, bad = field_values(field, role)
        valid = draw(st.booleans()) and bool(good) or not bad
        nid = draw(st.sampled_from({"root": [ROOT], "internal": INTERNAL, "leaf": LEAVES}[role]))
        return kind, nid, field, draw(st.sampled_from(good if valid else bad)), valid
    if kind == "missing":
        nid = draw(st.sampled_from([None, None, ROOT, *INTERNAL, *LEAVES]))
        if nid is None:
            return kind, None, draw(st.sampled_from(["root", "nodes"])), None, False
        key = draw(st.sampled_from(sorted(FIELD_VALUES)))
        leaf_field = nid in LEAVES and key in ("children", "feature", "threshold")
        return kind, nid, key, None, leaf_field or (nid == ROOT and key == "prediction")
    if kind == "cycle":  # a node's children point back at itself or at the root
        nid = draw(st.sampled_from(INTERNAL + LEAVES))
        return "field", nid, "children", [draw(st.sampled_from([nid, ROOT])), draw(st.sampled_from(LEAVES))], False
    if kind == "duplicate id":
        a, b = draw(st.lists(st.sampled_from([ROOT, *INTERNAL, *LEAVES]), min_size=2, max_size=2, unique=True))
        return "field", b, "id", a, False
    if kind == "extra key":
        nid = draw(st.sampled_from([None, ROOT, *LEAVES]))
        return "field", nid, "comment", draw(st.sampled_from(["x", 1, None, [1], {"a": 1}])), True
    if kind == "whole":
        return kind, None, None, draw(st.sampled_from([[], [TREE_DOC], 5, "tree", None, math.nan])), False
    if kind == "text":
        return kind, None, None, draw(st.integers(0, len(json.dumps(TREE_DOC)) - 1)), False
    return kind, None, None, draw(st.sampled_from([1, 2, 40, 400])), True


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(edit=tree_edits())
@example(edit=("field", LEAVES[0], "prediction", True, False))  # read as 1 before booleans were refused
def test_one_changed_tree_file(valid_files, edit):
    tree_file, lines = valid_files
    assert json.loads(tree_file.read_text()) == TREE_DOC
    *change, valid = edit
    with tempfile.TemporaryDirectory() as tmp:
        tree_path, data_path, out = Path(tmp) / "tree.json", Path(tmp) / "data.csv", Path(tmp) / "out"
        tree_path.write_text(edited_tree(*change))
        data_path.write_text("\n".join(lines) + "\n")
        code, err = run_tree(tree_path, data_path, out)
        assert_outcome(valid, code, err, out, f"{re.escape(str(tree_path))}|{re.escape(str(data_path))}")


# ---------------------------------------------------------------------------
# The --config file
# ---------------------------------------------------------------------------

BASE_CONFIG = {"scenario": "shifting", "algos": ["ada", "hedge"], "n": 3, "t": 20, "k": 2, "alpha": 0.25, "mu": 0.3,
               "eps": [0.1], "seeds": [0], "loss": "squared"}
CONFIG_VALUES = {  # key -> (valid values over BASE_CONFIG, other values)
    "scenario": (["adversarial", "stochastic", "shifting"], ["tree", "nope", "", 1, None, True, [], math.nan]),
    "algos": (["ada", "ada,tv", ["dt", "hedge"], "hedge,"],
              ["", [], "xyz", ["ada", "ada"], 5, [1], None, True, math.nan]),
    "algo": (["tv", ["ada"]], ["nope", [], False]),
    "n": ([1, 2, 5.0, "4"], [0, -1, 2.5, "x", "1e3", [3], {}, None, True, False, math.nan, math.inf, -math.inf]),
    "t": ([10, 30.0, "12"], [0, -5, 1.5, "x", [10], None, True, math.nan, math.inf, 1e400]),
    "k": ([1, 3.0, "2", 20], [0, 21, -1, 1.5, "x", None, True, math.nan, math.inf]),
    "alpha": ([0.25, 0.5, 1 / 3, "0.3"], [0, 0.8, 1.5, -0.1, "x", "nan", None, True, [], math.nan, math.inf]),
    "mu": ([0, 0.1, "0.2", 0.75], [0.8, -0.1, "x", None, True, math.nan, math.inf, -math.inf]),
    "eps": ([0.1, 1, [0.05, 0.2], "0.1,0.3"], [0, 1.5, [], [0.1, 0.1], "x", None, True, math.nan, [math.inf]]),
    "seeds": ([1, 2.0, [0, 3], "1,2"], [0, -1, 1.5, [1, 1], [-1], "x", None, True, math.nan, math.inf]),
    "seed": ([0, [2, 1], "3", 4.0], [-1, 1.5, [], "x", True, [False], math.nan]),
    "out": ([], [5, True, None, [], {}, math.nan]),
    "tree": (["no-such-tree.json", None], [5, True, [], math.nan]),
    "loss": (["absolute", "squared"], ["x", 5, None, True, math.nan]),
    "nn": ([], [3]),
    "Seeds": ([], [[0]]),
}
KEY_NAMES = {"algos": "algo", "algo": "algo", "seeds": "seed", "seed": "seed", "n": r"\bn\b", "t": r"\b[tT]\b",
             "k": r"\bk\b", "out": r"\bout\b"}


@st.composite
def config_edits(draw):
    """(the config document or text, whether it is valid, a regex its error must match)."""
    kind = draw(st.sampled_from(["key", "key", "key", "key", "not an object", "not json"]))
    if kind == "not an object":
        return draw(st.sampled_from([[], [BASE_CONFIG], 5, "x", None, True])), False, None
    if kind == "not json":
        text = json.dumps(BASE_CONFIG)
        return text[: draw(st.integers(0, len(text) - 1))], False, None
    key = draw(st.sampled_from(sorted(CONFIG_VALUES)))
    good, bad = CONFIG_VALUES[key]
    valid = draw(st.booleans()) and bool(good) or not bad
    config = {**BASE_CONFIG, key: draw(st.sampled_from(good if valid else bad))}
    return config, valid, KEY_NAMES.get(key, re.escape(key))


@settings(max_examples=120, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(edit=config_edits())
def test_one_changed_config_key(edit):
    config, valid, names = edit
    with tempfile.TemporaryDirectory() as tmp:
        config_path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config_path.write_text(config if isinstance(config, str) else json.dumps(config))
        code, err = run_cli(["--scenario", "adversarial", "--config", str(config_path), "--out", str(out)])
        assert_outcome(valid, code, err, out, f"{re.escape(str(config_path))}|{names or re.escape(str(config_path))}")
