#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent checkout against this one.

    python3 scripts/bench_pairs.py PARENT_CHECKOUT [--pairs 5] [--seconds 20]

For every workload that BENCHMARK.json declares, runs
`python3 bench/run.py --workload W --seconds S` PAIRS times in each checkout,
alternating which checkout runs first, since this machine has slow spells
that would bias one side of a fixed order.  Prints every run's end-to-end
metrics as it ends, then for each workload and metric the parent's and this
checkout's medians, their quartiles, and in how many pairs this checkout did
better (ties count for neither).  Nothing under bench/ changes; each run
works in its own checkout's .bench_work/.

Exits 1 when any run failed or read `correct: false`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_once(checkout: Path, workload: str, seconds: float) -> dict:
    """The last stdout line of one bench/run.py call, as JSON, plus its exit code."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        result = {"correct": False, "metrics": {}}
    result["rc"] = proc.returncode
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if not (args.parent / "bench" / "run.py").is_file():
        parser.error(f"{args.parent} has no bench/run.py")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = bench_once(sides[side], workload, args.seconds)
                runs[side].append(result)
                ok = ok and result["rc"] == 0 and result["correct"]
                cells = " ".join(f"{name} {m['value']:.6g}" for name, m in result["metrics"].items())
                print(f"{workload} pair {pair + 1} {side}: {cells} correct {result['correct']} "
                      f"failed {result.get('failed')} of {result.get('attempted')}", flush=True)
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            pairs = [
                (p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in zip(runs["parent"], runs["change"])
                if name in p["metrics"] and name in c["metrics"]
            ]
            if not pairs:
                print(f"{workload} {name}: no complete pair")
                continue
            wins = sum((c < p) if lower else (c > p) for p, c in pairs)
            parent, change = (list(side) for side in zip(*pairs))
            (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
            print(f"{workload} {name} ({metric['unit']}, {metric['better']} is better): "
                  f"parent median {pm:.6g} (quartiles {p1:.6g}..{p3:.6g}), "
                  f"change median {cm:.6g} (quartiles {c1:.6g}..{c3:.6g}), "
                  f"change {cm / pm - 1:+.1%}, change better in {wins} of {len(pairs)} pairs", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
