"""Calls of one workload in a fresh interpreter.

    python3 bench/child.py SPEC_JSON

The spec (written by run.py) gives the checkout root, a work directory, the
`cli.main` argv, an optional tree fixture, whether to trace, how many
seconds of repeated calls to make, and the monotonic clock reading taken
just before this interpreter was started.  Set-up is everything from that
reading to the first `cli.main` call: interpreter start, importing hedgelab,
writing the fixture and the output directory.  Untraced, the call repeats
(into a fresh output directory) until `repeat_s` seconds of calls are spent;
traced, it runs once.  A fixed loop, the yardstick, runs right after
set-up and right before and after every call; its time measures the
machine's speed next to each timing.  The result, with a digest of every
output file of every call (see digest.py), goes to WORKDIR/result.json.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from digest import fingerprint


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _yardstick_s() -> float:
    """Seconds for a fixed mix of small-numpy and interpreter work, as the workloads do."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 2000)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(500):
        acc += float(np.exp(x * 0.5).sum())
        d = {j: j * acc for j in range(60)}
        acc += sum(sorted(d.values())[:3])
    return time.perf_counter() - t0


def _outputs(out: Path) -> dict:
    digests, rows, size = {}, 0, 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        digests[path.name] = fingerprint(path)
        size += len(data)
        if path.name.startswith("trace_"):
            rows += data.count(b"\n") - 1  # minus the header
    return {"digests": digests, "rows_written": rows, "bytes_written": size}


def _task_failures(out: Path, tasks: list, rounds: int) -> list:
    """(algo, seed) tasks whose outputs are missing, short or report a violation."""
    try:
        summary = json.loads((out / "summary.json").read_text())
        results = {(r["algo"], r["seed"]): r for r in summary["results"]}
    except (OSError, ValueError, KeyError, TypeError):
        return [list(t) for t in tasks]
    failed = []
    for algo, seed in tasks:
        r = results.get((algo, seed))
        trace = out / f"trace_{algo}_seed{seed}.csv"
        if (
            r is None
            or r.get("certificate_violations", 1) > 0
            or not trace.is_file()
            or trace.read_bytes().count(b"\n") != rounds + 1
        ):
            failed.append([algo, seed])
    return failed


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    workdir = Path(spec["workdir"])
    sys.path.insert(0, str(root / "src"))
    from hedgelab import cli

    if not Path(cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"hedgelab imported from {cli.__file__}, not from {root / 'src'}")

    import workloads

    workdir.mkdir(parents=True)
    if spec["tree"]:
        workloads.write_tree_fixture(spec["seed"], spec["rounds"], workdir)
    (workdir / workloads.OUT_DIR).mkdir()
    os.chdir(workdir)  # relative fixture paths keep summary.json identical across work directories

    pool_workers = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            pool_workers.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    cli.ProcessPoolExecutor = RecordingPool

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(spec["rounds_total"])
        tracer.install()
    setup_s = time.monotonic() - spec["t0"]
    setup_yardstick_s = _yardstick_s()
    out = workdir / workloads.OUT_DIR
    calls = []
    while True:
        before = _yardstick_s()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        rc = cli.main(spec["argv"])
        run_s = time.perf_counter() - t0
        cpu_s = _cpu_s() - cpu0
        after = _yardstick_s()
        failed = _task_failures(out, spec["tasks"], spec["rounds"])
        calls.append(
            {
                "rc": rc,
                "run_s": run_s,
                "yardstick_s": (before + after) / 2,
                "cpu_s": cpu_s,
                "failed_tasks": failed,
                **_outputs(out),
            }
        )
        if tracer is not None or sum(c["run_s"] for c in calls) >= spec["repeat_s"]:
            break
        shutil.rmtree(out)
        out.mkdir()
    if tracer is not None:
        tracer.uninstall()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "setup_s": setup_s,
        "setup_yardstick_s": setup_yardstick_s,
        "peak_rss_mb": peak_kib / 1024.0,
        "pool_workers": max(pool_workers, default=0),
        "calls": calls,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = main(spec)
    Path(spec["workdir"], "result.json").write_text(json.dumps(result))
