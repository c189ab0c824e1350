#!/usr/bin/env python3
"""Benchmark of `hedgelab run`: end-to-end timings, or per-layer timings.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --report [--seed N] [--seconds S]
    python3 bench/run.py --write-reference

Each child is a fresh interpreter (child.py) that imports hedgelab from src/
of this checkout, sets up once, and calls `cli.main(argv)`.  Children start
until the next one would end after --seconds, with at least MIN_CHILDREN of
each kind.  With --trace 0 each child repeats the call for REPEAT_S seconds.
With --trace 1 every child calls once, and untraced and traced children
alternate.  Every child runs serially (ANH_THREADS=1), so that every
layer's calls happen in the traced process.  Traced runs of a workload with
more than one (algo, seed) task add a third kind: the same argv with
ANH_THREADS unset, under the CLI's default worker policy.

The machine this was written on (2 vCPUs) changes speed by up to 2x, in
spells of seconds to minutes, and unrelated code slows with it.  So each
child times a fixed loop, the yardstick, next to set-up and around every
call, and each time is rescaled to the speed at which the yardstick takes
YARDSTICK_S.  A timing metric is the median rescaled call of the run
(set-up: the median rescaled child), and memory is the median child.  The
printed lines give the raw times and the yardstick's with their minimum,
median, quartiles and sample count (see NOTES.md for the measurements).

Every call's outputs (summary.json and each trace CSV) are fingerprinted
(digest.py).  Every call must agree, within a relative tolerance for floats,
with the reference in reference.json for the workload, seed and size, or
with the run's first call where there is none; a mismatch, a nonzero exit, a
certificate violation or a short trace fails the affected (algo, seed) tasks.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the exit code is 1 when any task failed.

--report runs every workload both ways and prints every metric by name
with its unit.  --write-reference records the output fingerprints of the
default and held-out seeds.  BLAS threading is inherited from the
caller's environment and never pinned.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

from digest import differing
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
MIN_CHILDREN = {0: 3, 1: 2}
REPEAT_S = 3.0  # seconds of repeated calls per untraced interpreter
YARDSTICK_S = 0.010  # the yardstick loop (child.py) on a 2-vCPU Xeon in its fast state
RUN_LIMIT_S = 160  # a run stops starting children, and kills a hung one, after this
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_counter = itertools.count()


# ---------------------------------------------------------------------------
# Environment and reference fingerprints
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(package: str) -> str:
    try:
        return version(package)
    except PackageNotFoundError:
        return "missing"


def _blas() -> str:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def environment(children: list) -> dict:
    return {
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas": _blas(),
        "blas_env": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
        "ANH_THREADS": sorted({_anh_threads(ch["serial"]) for ch in children}),
    }


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def reference_digests(ref: dict, wl: Workload, seed: int) -> dict | None:
    recorded = ref.get("digests", {}).get(wl.name, {})
    if recorded.get("rounds") != wl.rounds:
        return None
    return recorded["by_seed"].get(str(seed))


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------


def _anh_threads(serial: bool) -> str:
    return "1" if serial else "unset"


def spawn(wl: Workload, seed: int, serial: bool, trace: bool, repeat_s: float = 0.0, timeout: float = RUN_LIMIT_S) -> dict:
    """One fresh interpreter: set-up, then `cli.main` calls for `repeat_s` seconds (once when traced)."""
    workdir = WORK / f"{wl.name}-{os.getpid()}-{next(_counter)}"
    shutil.rmtree(workdir, ignore_errors=True)
    env = dict(os.environ)
    if serial:
        env["ANH_THREADS"] = "1"
    else:
        env.pop("ANH_THREADS", None)
    spec = {
        "root": str(ROOT),
        "workdir": str(workdir),
        "seed": seed,
        "tree": wl.tree,
        "argv": wl.argv(seed),
        "tasks": wl.tasks(seed),
        "rounds": wl.rounds,
        "rounds_total": wl.rounds_total(seed),
        "trace": trace,
        "repeat_s": repeat_s,
    }
    spec["t0"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,  # one process group: a timeout kills pool workers too
    )
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
    wall = time.monotonic() - spec["t0"]
    try:
        result = json.loads((workdir / "result.json").read_text())
    except (OSError, ValueError):
        result = {"calls": [{"rc": proc.returncode or -1, "digests": {}}]}
        sys.stderr.write(f"{wl.name} seed {seed}: invocation failed\n{err.decode(errors='replace')[-2000:]}\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(wall_s=wall, serial=serial, trace=trace)
    return result


def collect(wl: Workload, seed: int, seconds: float, kinds: list[tuple[bool, bool]], trace: int) -> list:
    """Children of each (serial, trace) kind, round-robin, until the time budget is spent."""
    children: dict[tuple, list] = {k: [] for k in kinds}
    walls: list[float] = []
    start = time.monotonic()
    for kind in itertools.cycle(kinds):
        elapsed = time.monotonic() - start
        done = all(len(v) >= MIN_CHILDREN[trace] for v in children.values())
        if elapsed > RUN_LIMIT_S or (done and elapsed + statistics.median(walls) > seconds):
            break
        r = spawn(wl, seed, *kind, repeat_s=0.0 if trace else REPEAT_S, timeout=RUN_LIMIT_S - elapsed)
        walls.append(r["wall_s"])
        children[kind].append(r)
    return [r for v in children.values() for r in v]


def timed_calls(children: list) -> list:
    return [c for ch in children for c in ch["calls"] if "run_s" in c]


def grade(wl: Workload, seed: int, children: list, reference: dict | None) -> tuple[int, int, str]:
    """(attempted, failed) task counts over all calls, and how outputs were checked."""
    tasks = [tuple(t) for t in wl.tasks(seed)]
    calls = [c for ch in children for c in ch["calls"]]
    ok = [c for c in calls if c["rc"] == 0 and c["digests"]]
    expected = reference or (ok[0]["digests"] if ok else {})
    source = "reference" if reference else "self-consistency"
    failed = 0
    for c in calls:
        if c["rc"] != 0 or not c["digests"]:
            failed += len(tasks)
            continue
        bad = {tuple(t) for t in c["failed_tasks"]}
        differ = differing(c["digests"], expected)
        if differ - {f"trace_{a}_seed{s}.csv" for a, s in tasks}:
            bad = set(tasks)
        bad |= {(a, s) for a, s in tasks if f"trace_{a}_seed{s}.csv" in differ}
        failed += len(bad)
    return len(tasks) * len(calls), failed, source


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def at_yardstick(seconds: float, yardstick_s: float) -> float:
    """A time rescaled to the machine speed at which the yardstick loop takes YARDSTICK_S."""
    return seconds * YARDSTICK_S / yardstick_s


def median_call_s(calls: list) -> float:
    return statistics.median(at_yardstick(c["run_s"], c["yardstick_s"]) for c in calls)


def end_to_end(wl: Workload, seed: int, children: list) -> dict:
    """Timings are the median call (set-up: median child) at yardstick speed; memory is the median child."""
    run_s = median_call_s(timed_calls(children))
    started = [ch for ch in children if "setup_s" in ch]
    return {
        "setup_s": statistics.median(at_yardstick(ch["setup_s"], ch["setup_yardstick_s"]) for ch in started),
        "run_s": run_s,
        "rounds_per_s": wl.rounds_total(seed) / run_s,
        "peak_rss_mb": statistics.median(ch["peak_rss_mb"] for ch in started),
    }


def per_layer(children: list) -> dict:
    """Layer metrics from the fastest traced child per metric, plus pool and overhead ratios of median calls."""
    traced = [ch for ch in children if ch["trace"] and "layers" in ch]
    plain = timed_calls([ch for ch in children if ch["serial"] and not ch["trace"]])
    pool = timed_calls([ch for ch in children if not ch["serial"]])
    metrics = {k: min(ch["layers"][k] for ch in traced) for k in traced[0]["layers"]}
    plain_run = median_call_s(plain)
    fan_out = [ch for ch in children if not ch["serial"] and "setup_s" in ch]
    metrics.update(
        {
            "cli.rows_written": plain[0]["rows_written"],
            "cli.bytes_written": plain[0]["bytes_written"],
            "cli.pool.workers": max((ch["pool_workers"] for ch in fan_out), default=0),
            "cli.pool.speedup": plain_run / median_call_s(pool) if pool else 0.0,
            "cli.pool.cpu_per_wall": statistics.median(c["cpu_s"] / c["run_s"] for c in (pool or plain)),
            "trace_overhead": median_call_s(timed_calls(traced)) / plain_run - 1.0,
        }
    )
    return metrics


def measure(wl: Workload, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        kinds = [(True, False), (True, True)] + ([(False, False)] if len(wl.tasks(seed)) > 1 else [])
    else:
        kinds = [(True, False)]
    children = collect(wl, seed, seconds, kinds, trace)
    attempted, failed, source = grade(wl, seed, children, reference_digests(load_reference(), wl, seed))
    out = {"children": children, "attempted": attempted, "failed": failed, "digest_check": source}
    main = [ch for ch in children if ch["serial"] and not ch["trace"]]
    out["end_to_end"] = end_to_end(wl, seed, main) if timed_calls(main) else None
    usable = any("layers" in ch for ch in children) and timed_calls(main)
    out["per_layer"] = per_layer(children) if trace and usable else None
    return out


def describe(wl: Workload, seed: int, m: dict) -> list[str]:
    """Human-readable sample counts, minimum, median and quartiles for one measured run."""
    lines = []
    for serial, trace in sorted({(ch["serial"], ch["trace"]) for ch in m["children"]}):
        kids = [ch for ch in m["children"] if ch["serial"] == serial and ch["trace"] == trace and "setup_s" in ch]
        if not kids:
            continue
        kind = ("traced" if trace else "untraced") + f", ANH_THREADS={_anh_threads(serial)}"
        series = (
            ("run_s", "s", "calls", [c["run_s"] for c in timed_calls(kids)]),
            ("yardstick_s", "s", "calls", [c["yardstick_s"] for c in timed_calls(kids)]),
            ("setup_s", "s", "interpreters", [ch["setup_s"] for ch in kids]),
            ("peak_rss_mb", "MiB", "interpreters", [ch["peak_rss_mb"] for ch in kids]),
        )
        for key, unit, base, values in series:
            q1, med, q3 = quartiles(values)
            lines.append(
                f"{wl.name} seed={seed} [{kind}] {key}: min {min(values):.4f} {unit}, median {med:.4f}, "
                f"quartiles {q1:.4f}..{q3:.4f}, n={len(values)} {base}"
            )
    frac = m["failed"] / m["attempted"] if m["attempted"] else 0.0
    lines.append(
        f"{wl.name} seed={seed} failed_frac: {frac:.4f} ratio ({m['failed']} of {m['attempted']} (algo, seed) tasks); "
        f"outputs checked by {m['digest_check']}"
    )
    return lines


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_checkout() -> None:
    if not (ROOT / "src" / "hedgelab" / "cli.py").is_file():
        sys.exit(f"error: {ROOT / 'src' / 'hedgelab'} not found; run from a hedgelab checkout")


def run_one(args) -> int:
    spec = load_spec()
    wl = WORKLOADS[args.workload]
    m = measure(wl, args.seed, args.seconds, args.trace)
    print("env:", json.dumps(environment(m["children"])))
    for line in describe(wl, args.seed, m):
        print(line)
    values = m.get("per_layer" if args.trace else "end_to_end")
    if not values:
        sys.exit("error: no invocation completed; nothing to report")
    listed = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {d["name"] for d in listed}:
        sys.exit(f"error: measured metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in listed}
    for name, v in metrics.items():
        print(f"{wl.name} {name}: {v['value']} {v['unit']}")
    print(json.dumps({"correct": m["failed"] == 0, "attempted": m["attempted"], "failed": m["failed"], "metrics": metrics}))
    return 1 if m["failed"] else 0


def report(args) -> int:
    """Every workload, untraced then traced: every metric by name and unit, one row per workload."""
    spec = load_spec()
    rows = {}
    for wl in WORKLOADS.values():
        e2e = measure(wl, args.seed, args.seconds, 0)
        layers = measure(wl, args.seed, args.seconds, 1)
        for line in describe(wl, args.seed, e2e) + describe(wl, args.seed, layers):
            print(line)
        rows[wl.name] = (e2e, layers)
    print("env:", json.dumps(environment([ch for e2e, layers in rows.values() for ch in e2e["children"] + layers["children"]])))

    def table(title: str, metrics: list[dict], pick) -> None:
        print(f"\n== {title}")
        names = [d["name"] for d in metrics]
        width = max(len(n) for n in names) + 2
        print("metric".ljust(width) + "unit".ljust(8) + "".join(w.rjust(16) for w in rows))
        for d in metrics:
            cells = []
            for e2e, layers in rows.values():
                v = (pick(e2e, layers) or {}).get(d["name"])
                cells.append("-" if v is None else f"{v:.6g}")
            print(d["name"].ljust(width) + d["unit"].ljust(8) + "".join(c.rjust(16) for c in cells))

    table("end to end (untraced; timings are the median sample at yardstick speed)", spec["end_to_end"], lambda e, l: e.get("end_to_end"))
    frac = [{"name": "failed_frac", "unit": "ratio"}]
    print()
    table("failed (algo, seed) tasks / attempted", frac,
          lambda e, l: {"failed_frac": (e["failed"] + l["failed"]) / (e["attempted"] + l["attempted"])})
    table("per layer (fastest traced sample; 0 where the layer does not run)",
          [d for d in spec["per_layer"] if d["name"] != "trace_overhead"], lambda e, l: l.get("per_layer"))
    table("trace overhead (traced run_s / untraced run_s - 1)",
          [d for d in spec["per_layer"] if d["name"] == "trace_overhead"], lambda e, l: l.get("per_layer"))
    failed = sum(e["failed"] + l["failed"] for e, l in rows.values())
    return 1 if failed else 0


def _dump(value, depth: int = 0) -> str:
    """JSON with one line per output file's fingerprint (depth 4), so diffs stay readable."""
    if not isinstance(value, dict) or depth == 4:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    pad = "\n" + " " * (depth + 1)
    items = ",".join(f"{pad}{json.dumps(k)}: {_dump(v, depth + 1)}" for k, v in sorted(value.items()))
    return "{" + items + "\n" + " " * depth + "}"


def write_reference() -> int:
    ref = load_reference()
    seeds = ref["default_seeds"] + [ref["held_out_seed"]]
    digests: dict[str, dict] = {}
    for wl in WORKLOADS.values():
        digests[wl.name] = {"rounds": wl.rounds, "by_seed": {}}
        for seed in seeds:
            call = spawn(wl, seed, True, False)["calls"][0]
            if call["rc"] != 0 or call["failed_tasks"]:
                sys.exit(f"error: {wl.name} seed {seed} failed; no reference written")
            digests[wl.name]["by_seed"][str(seed)] = call["digests"]
            print(f"{wl.name} seed {seed}: {len(call['digests'])} files")
    ref.update(digests=digests)
    REFERENCE.write_text(_dump(ref) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="run every workload both ways and print all metrics")
    parser.add_argument("--write-reference", action="store_true", help="record output fingerprints of the default and held-out seeds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    check_checkout()
    WORK.mkdir(exist_ok=True)
    if args.write_reference:
        return write_reference()
    if args.report:
        return report(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
