"""`hedgelab run --scenario tree` over a valid data file with one cell, or one
row's cell count, changed: a malformed file exits 2 with one stderr line that
starts with `error:` and names the file and the line; a file that is still
valid runs, exits 0 and writes summary.json."""

import contextlib
import io
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
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


def run_tree(tree_path: Path, data_path: Path, out: Path) -> tuple[int, str]:
    """cli.main's exit code and stderr for one tree run with one worker."""
    old, err = os.environ.get("ANH_THREADS"), io.StringIO()
    os.environ["ANH_THREADS"] = "1"
    try:
        with contextlib.redirect_stderr(err):
            code = main(["run", "--scenario", "tree", "--algo", "ada", "--tree", str(tree_path),
                         "--data", str(data_path), "--out", str(out)])
    finally:
        if old is None:
            os.environ.pop("ANH_THREADS")
        else:
            os.environ["ANH_THREADS"] = old
    return code, err.getvalue()


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
        if kind in ("good cell", "none"):
            assert (code, err) == (EXIT_OK, "")
            assert (out / "summary.json").is_file()
        else:
            assert code == EXIT_BAD_CONFIG
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert str(data_path) in err and re.search(rf"\bline {row + 2}\b", err), err
            assert not out.exists()
