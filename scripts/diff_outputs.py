#!/usr/bin/env python3
"""Compare the `hedgelab run` outputs of two source trees byte for byte.

    python3 scripts/diff_outputs.py BASE_SRC NEW_SRC

BASE_SRC and NEW_SRC are `src/` directories (for example of a checkout of
the parent commit and of the working tree).  Each config of a fixed matrix
runs once against each tree, in a fresh interpreter with ANH_THREADS=1.
The matrix covers the tree scenario with squared and absolute loss, the
adversarial, stochastic and shifting scenarios with ada, dt, hedge and tv,
one adversarial run of ada, dt and hedge over five seeds listed out of order
(each plays as one group of five seeds since seed batching), one of ada, dt
and hedge with one expert over 130 rounds (two blocks of 64 rounds and a
tail), one shifting
run whose --config file overrides its flags with the singular "algo" and
"seed" keys and an integral-float "n", and one tree run over the "tree0"
fixture's data with edge rows: a feature exactly on a split's threshold
(which goes to the second child) in some rows and an inf or -inf feature in
others.  The "tree0-format" config runs over the "tree0" fixture's data
rewritten with CRLF line endings, quoted cells and blank lines;
"tree0-seeds" runs the "tree0" fixture with --seed 3,1 (one task per seed);
"tree0-bigint" runs it with one threshold rewritten as an integer past
2**53, which no float equals, so that TemplateTree.route_rows routes row by
row.  Tree fixtures, their rewritten files and the config file are made
once, with BASE_SRC, and shared by both trees.

Prints the first differing file and line of every config that differs and
exits 1, or prints one line per identical config and exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
ALGOS = "ada,dt,hedge,tv"
FIXTURES = {  # name -> make_tree_fixture.py arguments
    "tree0": ["--depth", "6", "--features", "4", "--samples", "600", "--prune", "4", "--noise", "0.1", "--seed", "0"],
    "tree5": ["--depth", "4", "--features", "3", "--samples", "400", "--prune", "2", "--noise", "0.1", "--seed", "5"],
}
CONFIG_FILE = {  # overrides every flag of the "config-file" run, in spellings valid at earlier commits too
    "scenario": "shifting", "algo": "ada,tv", "seed": [4, 9], "n": 6.0, "t": 300, "k": 2, "alpha": 0.3, "mu": 0.2,
}


def write_inputs(work: Path, src: Path) -> None:
    """The tree fixtures and the --config file that matrix(work) names."""
    for name, fixture_args in FIXTURES.items():
        cmd = [sys.executable, str(SCRIPTS / "make_tree_fixture.py"), *fixture_args, "--out", str(work / name)]
        subprocess.run(cmd, env=_env(src), stdout=subprocess.DEVNULL, check=True)
    (work / "config.json").write_text(json.dumps(CONFIG_FILE))
    write_edge_rows(work / "tree0", work / "tree0-edges.csv")
    write_format_rows(work / "tree0", work / "tree0-format.csv")
    write_bigint_tree(work / "tree0", work / "tree0-bigint.json")


def write_edge_rows(fixture: Path, out: Path) -> None:
    """The fixture's data with, in rows 1-4, the feature of each of the
    first four splits (in id order) set to that split's threshold, and in
    rows 5-8 feature f0 or f1 set to inf or -inf."""
    nodes = sorted((n for n in json.loads((fixture / "tree.json").read_text())["nodes"] if n["children"]),
                   key=lambda n: int(n["id"][1:]))
    lines = (fixture / "data.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for k, node in enumerate(nodes[:4]):
        rows[k][node["feature"]] = repr(float(node["threshold"]))
    for k in range(4):
        rows[4 + k][k % 2] = ("inf", "-inf")[k // 2]
    out.write_text("\n".join([lines[0], *map(",".join, rows)]) + "\n")


def write_format_rows(fixture: Path, out: Path) -> None:
    """The fixture's data with CRLF line endings, every cell of every other
    row quoted, and a blank line after every fifth row and at the end."""
    lines = (fixture / "data.csv").read_text().splitlines()
    rows = [lines[0]]
    for k, line in enumerate(lines[1:]):
        rows.append(",".join(f'"{cell}"' for cell in line.split(",")) if k % 2 else line)
        if k % 5 == 4:
            rows.append("")
    out.write_bytes(("\r\n".join(rows) + "\r\n\r\n").encode())


def write_bigint_tree(fixture: Path, out: Path) -> None:
    """The fixture's template with the threshold of its last split in id
    order set to the integer 2**53 + 1, so that every row goes to that
    split's first child."""
    tree = json.loads((fixture / "tree.json").read_text())
    splits = sorted((n for n in tree["nodes"] if n["children"]), key=lambda n: int(n["id"][1:]))
    splits[-1]["threshold"] = 2**53 + 1
    out.write_text(json.dumps(tree))


def matrix(work: Path) -> dict[str, list[str]]:
    """Config name -> `hedgelab run` arguments (without --out)."""
    configs = {}
    for name in FIXTURES:
        for loss in ("squared", "absolute"):
            configs[f"{name}-{loss}"] = [
                "--scenario", "tree", "--algo", "ada", "--loss", loss,
                "--tree", str(work / name / "tree.json"), "--data", str(work / name / "data.csv"),
            ]
    configs["tree0-edges"] = [
        "--scenario", "tree", "--algo", "ada", "--tree", str(work / "tree0" / "tree.json"),
        "--data", str(work / "tree0-edges.csv"),
    ]
    configs["tree0-format"] = [
        "--scenario", "tree", "--algo", "ada", "--tree", str(work / "tree0" / "tree.json"),
        "--data", str(work / "tree0-format.csv"),
    ]
    configs["tree0-seeds"] = [
        "--scenario", "tree", "--algo", "ada", "--tree", str(work / "tree0" / "tree.json"),
        "--data", str(work / "tree0" / "data.csv"), "--seed", "3,1",
    ]
    configs["tree0-bigint"] = [
        "--scenario", "tree", "--algo", "ada", "--tree", str(work / "tree0-bigint.json"),
        "--data", str(work / "tree0" / "data.csv"),
    ]
    configs["adversarial"] = ["--scenario", "adversarial", "--algo", ALGOS, "--n", "5", "--t", "400", "--seeds", "2"]
    configs["adversarial-groups"] = [
        "--scenario", "adversarial", "--algo", "ada,dt,hedge", "--n", "10", "--t", "1000", "--seed", "9,2,5,0,7",
    ]
    configs["stochastic"] = [
        "--scenario", "stochastic", "--algo", ALGOS, "--n", "10", "--t", "1500", "--alpha", "0.2", "--mu", "0.3",
        "--seed", "0,7",
    ]
    configs["shifting"] = [
        "--scenario", "shifting", "--algo", ALGOS, "--n", "10", "--t", "1500", "--k", "3", "--alpha", "0.25",
        "--mu", "0.3", "--seed", "0,1",
    ]
    configs["n1-blocks"] = [  # one expert; two record blocks of 64 rounds and a tail
        "--scenario", "adversarial", "--algo", "ada,dt,hedge", "--n", "1", "--t", "130", "--seeds", "2",
    ]
    configs["config-file"] = [
        "--scenario", "adversarial", "--algo", "hedge", "--n", "3", "--t", "50", "--seeds", "2",
        "--config", str(work / "config.json"),
    ]
    return configs


def _env(src: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(src), "ANH_THREADS": "1"}


def run_config(src: Path, args: list[str], out: Path) -> int:
    cmd = [sys.executable, "-m", "hedgelab", "run", *args, "--out", str(out)]
    return subprocess.run(cmd, env=_env(src), stdout=subprocess.DEVNULL).returncode


def _names(out: Path) -> set[str]:
    return {p.name for p in out.iterdir()} if out.is_dir() else set()


def first_difference(a: Path, b: Path) -> str | None:
    """Where the two output directories first differ, or None if they match."""
    for name in sorted(_names(a) | _names(b)):
        if not (a / name).is_file() or not (b / name).is_file():
            return f"{name}: only in {a if (a / name).is_file() else b}"
        old, new = (a / name).read_bytes(), (b / name).read_bytes()
        if old == new:
            continue
        old_lines, new_lines = old.splitlines(), new.splitlines()
        for k in range(max(len(old_lines), len(new_lines))):
            x = old_lines[k] if k < len(old_lines) else b"<end of file>"
            y = new_lines[k] if k < len(new_lines) else b"<end of file>"
            if x != y:
                return f"{name} line {k + 1}:\n  base: {x.decode()}\n  new:  {y.decode()}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args()
    base_src, new_src = args.base_src.resolve(), args.new_src.resolve()

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_inputs(work / "inputs", base_src)
        differ = 0
        for name, run_args in matrix(work / "inputs").items():
            outs = [work / side / name for side in ("base", "new")]
            codes = [run_config(src, run_args, out) for src, out in zip((base_src, new_src), outs)]
            if codes[0] != codes[1]:
                diff = f"exit codes differ: base {codes[0]}, new {codes[1]}"
            else:
                diff = first_difference(*outs)
            if diff is None:
                print(f"{name}: identical (exit {codes[0]}, {len(_names(outs[0]))} files)")
            else:
                differ += 1
                print(f"{name}: DIFFERS\n  {diff}")
    print(f"{differ} of {len(matrix(work))} configs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
