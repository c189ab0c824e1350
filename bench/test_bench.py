"""Smoke test of the benchmark harness at tiny sizes (about half a minute).

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from digest import differing
from workloads import WORKLOADS

TINY = {name: dataclasses.replace(wl, rounds=40) for name, wl in WORKLOADS.items()}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def names(kind: str) -> set[str]:
    return {d["name"] for d in SPEC[kind]}


@pytest.mark.parametrize("name", ["stochastic", "tree"])
def test_untraced_run_reports_every_end_to_end_metric(name, monkeypatch):
    monkeypatch.setattr(run, "REPEAT_S", 0.2)
    wl = TINY[name]
    m = run.measure(wl, seed=3, seconds=0, trace=0)
    assert m["failed"] == 0
    assert m["attempted"] == len(run.timed_calls(m["children"])) * len(wl.tasks(3))
    assert len(m["children"]) >= run.MIN_CHILDREN[0]
    assert set(m["end_to_end"]) == names("end_to_end")
    assert all(v > 0 for v in m["end_to_end"].values())


def test_traced_run_reports_every_layer_metric():
    wl = TINY["shifting"]
    workers = min(os.cpu_count() or 1, len(wl.tasks(3)))
    if workers == 1:
        pytest.skip("one CPU: the CLI's default policy never builds a pool")
    m = run.measure(wl, seed=3, seconds=0, trace=1)
    # Pool and serial calls are graded against one another.  At this size every
    # `ddot` stays below OpenBLAS's threading threshold, so the pool path whose
    # last digits do differ is not exercised here.
    assert m["failed"] == 0
    layers = m["per_layer"]
    assert set(layers) == names("per_layer")
    assert layers["interval.update.ns_per_copy"] > 0
    assert layers["lab.kshift_oracle.busy_s"] > 0
    assert layers["cli.pool.workers"] == workers
    assert layers["fixed.update.busy_s"] > 0
    assert layers["sleeping.update.us_p50"] == 0  # no sleeping registry in this workload


def _scaled(fp: dict, column: str, factor: float) -> dict:
    fp = copy.deepcopy(fp)
    col = fp["columns"][column]
    for key in ("sum", "weighted_sum"):
        col[key] = [v * factor for v in col[key]]
    col["values"] = [v * factor for v in col["values"]]
    col["max_abs"] *= factor
    return fp


def test_output_check_tolerates_rounding_but_not_changes():
    wl = TINY["stochastic"]
    children = [run.spawn(wl, 0, True, False)]
    got = children[0]["calls"][0]["digests"]
    trace = "trace_ada_seed0.csv"

    rounded = dict(got, **{trace: _scaled(got[trace], "potential_sum", 1 + 1e-13)})
    assert differing(rounded, got) == set()
    assert run.grade(wl, 0, children, rounded) == (2, 0, "reference")

    changed = dict(got, **{trace: _scaled(got[trace], "potential_sum", 1 + 1e-6)})
    assert differing(changed, got) == {trace}
    assert run.grade(wl, 0, children, changed) == (2, 1, "reference")

    summary = copy.deepcopy(got["summary.json"])
    summary["json"]["results"][0]["certificate_violations"] = 1
    assert run.grade(wl, 0, children, dict(got, **{"summary.json": summary})) == (2, 2, "reference")


def test_exits_nonzero_without_result_outside_a_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = ["bench/run.py", "--workload", "stochastic", "--seed", "0", "--seconds", "1", "--trace", "0"]
    p = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
