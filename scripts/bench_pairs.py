#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent checkout against this one.

    python3 scripts/bench_pairs.py PARENT_CHECKOUT [--pairs 5] [--seconds 20]
        [--seeds 0 ...] [--label LABEL]

Both sides run from fresh copies under one new temporary directory, DIR/parent
and DIR/change, removed at the end: the files of PARENT_CHECKOUT and of this
checkout, without .git, caches or bench output.  The two paths have the same length and the same age, since
a fresh copy of an unchanged checkout, run against the checkout it was
copied from, read `shifting` run_s 1.6% slower in 6 of 6 pairs.

For every workload that BENCHMARK.json declares and every seed, runs
`python3 bench/run.py --workload W --seed N --seconds S` PAIRS times in each
copy, alternating which side runs first, since this machine has slow
spells that would bias one side of a fixed order.  Prints every run's
end-to-end metrics as it ends, then for each workload, seed and metric the
parent's and this checkout's medians, their quartiles, and in how many pairs
this checkout did better (ties count for neither).  Nothing under bench/
changes; each run works in its own copy's .bench_work/.

With --label, also runs `bench/run.py --trace 1` three times per workload in
each checkout (first seed), alternating which checkout runs first, and
writes BENCH_<LABEL>.json at the root of this checkout: the environment each
side reported, every run's end-to-end values with both sides' medians,
quartiles and win counts, and each per-layer metric as the median of the
three traced runs of each side, next to the three values.

Exits 1 when any run failed or read `correct: false`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TRACED_RUNS = 3  # per side and workload; one traced pair cannot resolve a per-layer change of a few percent


# left out of the fresh copies: what running, testing and benchmarking a checkout leave behind
NOT_COPIED = shutil.ignore_patterns(".git", ".bench_work", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks")


def fresh_copies(work: Path, sources: dict[str, Path]) -> dict[str, Path]:
    """Each source checkout copied to work/<side>, a new directory; every side name has one length."""
    copies = {}
    for side, source in sources.items():
        copies[side] = work / side
        shutil.copytree(source, copies[side], ignore=NOT_COPIED)
    return copies


def bench_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The last stdout line of one bench/run.py call, as JSON, plus its exit code and its `env:` line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        result = {"correct": False, "metrics": {}}
    result["rc"] = proc.returncode
    env = [line.split(":", 1)[1] for line in lines if line.startswith("env:")]
    result["env"] = json.loads(env[0]) if env else None
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(metric: dict, runs: dict[str, list[dict]]) -> dict | None:
    """Both sides' values, medians and quartiles of one metric, and the pairs this checkout won."""
    name, lower = metric["name"], metric["better"] == "lower"
    pairs = [
        (p["metrics"][name]["value"], c["metrics"][name]["value"])
        for p, c in zip(runs["parent"], runs["change"])
        if name in p["metrics"] and name in c["metrics"]
    ]
    if not pairs:
        return None
    out = {"unit": metric["unit"], "better": metric["better"], "pairs": len(pairs)}
    for side, values in zip(SIDES, zip(*pairs)):
        q1, med, q3 = quartiles(list(values))
        out[side] = {"median": med, "q1": q1, "q3": q3, "values": list(values)}
    out["change_better"] = sum((c < p) if lower else (c > p) for p, c in pairs)
    out["relative_change"] = out["change"]["median"] / out["parent"]["median"] - 1
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0], help="workload seeds, each run in its own pairs")
    parser.add_argument("--label", help="write BENCH_<LABEL>.json, with one traced run per side and workload")
    args = parser.parse_args(argv)
    if not (args.parent / "bench" / "run.py").is_file():
        parser.error(f"{args.parent} has no bench/run.py")
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as work:
        return run_pairs(args, Path(work))


def run_pairs(args, work: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checkouts = fresh_copies(work, {"parent": args.parent.resolve(), "change": ROOT})
    record = {
        "command": f"python3 bench/run.py --workload W --seed N --seconds {args.seconds:g} --trace 0|1",
        "sides": "fresh copies of both checkouts, DIR/parent and DIR/change, under one directory",
        "pairs": args.pairs,
        "seeds": args.seeds,
        "environment": {},
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        record["workloads"][workload] = entry = {"end_to_end": {}, "per_layer": {}}
        for seed in args.seeds:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    result = bench_once(checkouts[side], workload, seed, args.seconds)
                    runs[side].append(result)
                    record["environment"].setdefault(side, result["env"])
                    ok = ok and result["rc"] == 0 and result["correct"]
                    cells = " ".join(f"{name} {m['value']:.6g}" for name, m in result["metrics"].items())
                    print(f"{workload} seed {seed} pair {pair + 1} {side}: {cells} correct {result['correct']} "
                          f"failed {result.get('failed')} of {result.get('attempted')}", flush=True)
            entry["end_to_end"][str(seed)] = metrics = {
                "correct": {side: [r["correct"] for r in runs[side]] for side in SIDES},
            }
            for metric in spec["end_to_end"]:
                row = compare(metric, runs)
                if row is None:
                    print(f"{workload} seed {seed} {metric['name']}: no complete pair")
                    continue
                metrics[metric["name"]] = row
                (p1, pm, p3), (c1, cm, c3) = ((row[s]["q1"], row[s]["median"], row[s]["q3"]) for s in SIDES)
                print(f"{workload} seed {seed} {metric['name']} ({metric['unit']}, {metric['better']} is better): "
                      f"parent median {pm:.6g} (quartiles {p1:.6g}..{p3:.6g}), "
                      f"change median {cm:.6g} (quartiles {c1:.6g}..{c3:.6g}), "
                      f"change {row['relative_change']:+.1%}, change better in {row['change_better']} "
                      f"of {row['pairs']} pairs", flush=True)
        if args.label:
            traced: dict[str, list[dict]] = {"parent": [], "change": []}
            for run in range(TRACED_RUNS):
                for side in SIDES if run % 2 == 0 else SIDES[::-1]:
                    result = bench_once(checkouts[side], workload, args.seeds[0], args.seconds, trace=1)
                    ok = ok and result["rc"] == 0 and result["correct"]
                    traced[side].append(result)
                    print(f"{workload} traced run {run + 1} {side}: correct {result['correct']}", flush=True)
            for side in SIDES:
                values: dict[str, list[float]] = {}
                for result in traced[side]:
                    for name, m in result["metrics"].items():
                        values.setdefault(name, []).append(m["value"])
                entry["per_layer"][side] = {
                    "seed": args.seeds[0],
                    "correct": [r["correct"] for r in traced[side]],
                    "metrics": {name: statistics.median(v) for name, v in values.items()},
                    "values": values,
                }
    if args.label:
        path = ROOT / f"BENCH_{args.label}.json"
        path.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {path.name}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
