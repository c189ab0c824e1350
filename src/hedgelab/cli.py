"""Batch experiment runner and verification entry point.

Two subcommands:

  run        generate a scenario's losses, drive the requested algorithms,
             and write per-(algorithm, seed) trace CSVs plus a summary JSON.
  selfcheck  run the grid checks, oracle equivalences, and certificate
             batteries; print one row per check and exit nonzero on failure.

This module only orchestrates: the flags and --config keys merge into one
dict that validate_config casts once; ALGORITHMS is the one table of what a run
knows of an algorithm; learners, bounds and the violation rule live elsewhere.

Runs are deterministic: the same config and seeds produce byte-identical
outputs at a fixed OpenBLAS thread count.  Seeds x algorithms fan out to a
process pool capped by the ANH_THREADS environment variable (default: one
process per CPU).

Exit codes: 0 ok; 1 a selfcheck row failed, or a run task raised (each
failed task is named on stderr and listed under "failed_tasks" in
summary.json, which is still written); 2 invalid config, --tree/--data
content and an --out that is no directory included; 3 a runtime certificate
was violated (CERTIFICATE_VIOLATION on stderr).  A run with both failed tasks
and a violation exits 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .checks import selfcheck_results
from .fixed import FixedLearner
from .interval import TvLearner, segments_bound, tv_point_mass_terms
from .lab import (
    TRACE_COLUMNS,
    HedgeLearner,
    LossTrace,
    count_violations,
    gen_adversarial,
    gen_shifting,
    gen_stochastic_gap,
    kshift_oracle,
    play,
    quantile_competitor,
)
from .potential import PotentialParams, bound_coefficient
from .tree import TreeLearner, absolute_loss, best_pruning, load_tree, load_tree_data, squared_loss


class Algorithm(NamedTuple):
    """What a run needs to know of one algorithm."""

    learner: Callable  # N -> a fresh learner over N experts
    prior_terms: Callable | None = None  # the bound column's (N, T) -> (ln 1/q, N registered); None: no cap
    segments_bound: Callable | None = None  # certificate sum of a K-segment competitor, if any
    max_t: float = math.inf  # the longest run allowed


ALGORITHMS = {
    "ada": Algorithm(lambda n: FixedLearner(np.full(n, 1.0 / n)), lambda n, t: (math.log(n), n)),
    "dt": Algorithm(lambda n: FixedLearner(np.full(n, 1.0 / n), PotentialParams(0.0))),
    "hedge": Algorithm(HedgeLearner),
    "tv": Algorithm(TvLearner, tv_point_mass_terms, segments_bound, max_t=20000),  # state grows as N*t
}
SCENARIOS = ("adversarial", "stochastic", "shifting", "tree")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_TASK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_CERTIFICATE_VIOLATION = 3

RECORD_BLOCK = 64  # tree rounds certified in one pass; no record feeds back into the learner


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def integer(value) -> int:
    """int(value), refusing fractional numbers, which int() truncates."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


# Keys a --config file may set: those of the config itself, plus the
# singular spellings "algo" and "seed".  Setting one spelling drops the other.
CONFIG_KEYS = (
    "scenario", "algos", "algo", "n", "t", "k", "alpha", "mu", "eps", "seeds", "seed", "out", "tree", "data", "loss",
)
SPELLINGS = {"algo": "algos", "algos": "algo", "seed": "seeds", "seeds": "seed"}
NUMBERS = {"n": integer, "t": integer, "k": integer, "alpha": float, "mu": float}  # key -> its one caster


def _cast(key: str, value, cast):
    """cast(value), refusing booleans, which int() and float() would read as 1 and 0."""
    if not isinstance(value, bool):
        try:
            return cast(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{key} must be {cast.__name__}, got {value!r}")


def _parse_list(key: str, value, cast):
    """A comma-separated string, a list, or any other scalar as a one-item list, each item cast."""
    if isinstance(value, str):
        value = [v for v in value.split(",") if v != ""]
    elif not isinstance(value, (list, tuple)):
        value = [value]
    return [_cast(key, v, cast) for v in value]


def build_config(args: argparse.Namespace) -> dict:
    """The flags, overridden key by key by the --config file, then validated in one pass."""
    cfg = {key: getattr(args, key) for key in CONFIG_KEYS if hasattr(args, key)}
    del cfg["seeds" if args.seed is not None else "seed"]  # --seed beats --seeds
    if args.config is not None:
        try:
            overrides = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        unknown = [key for key in overrides if key not in CONFIG_KEYS]
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; choose from {CONFIG_KEYS}")
        for key, value in overrides.items():
            cfg.pop(SPELLINGS.get(key), None)
            cfg[key] = value
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    """Cast every key of a merged config in place, once, then check the values."""
    key = "algos" if "algos" in cfg else "algo"
    cfg["algos"] = _parse_list(key, cfg.pop(key), str)
    key = "seed" if "seed" in cfg else "seeds"
    value = cfg.pop(key)
    if key == "seeds" and isinstance(value, (int, float)):  # a count
        value = list(range(_cast(key, value, integer)))
    cfg["seeds"] = _parse_list(key, value, integer)
    cfg["eps"] = _parse_list("eps", cfg["eps"], float)
    for key, cast in NUMBERS.items():
        if cfg[key] is not None:
            cfg[key] = _cast(key, cfg[key], cast)

    if cfg["scenario"] not in SCENARIOS:
        raise ConfigError(f"unknown scenario {cfg['scenario']!r}; choose from {SCENARIOS}")
    for key in ("algos", "eps", "seeds"):  # a repeat would rerun a task over its own trace file, or merge eps keys
        if not cfg[key]:
            raise ConfigError(f"need at least one value for {key}")
        if len(set(cfg[key])) < len(cfg[key]):
            raise ConfigError(f"{key} must not repeat a value, got {cfg[key]}")
    if not isinstance(cfg["out"], str):
        raise ConfigError(f"out must be a path, got {cfg['out']!r}")
    for key in ("tree", "data"):
        if cfg[key] is not None and not isinstance(cfg[key], str):
            raise ConfigError(f"{key} must be a path, got {cfg[key]!r}")
    for algo in cfg["algos"]:
        if algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {algo!r}; choose from {tuple(ALGORITHMS)}")
    if min(cfg["seeds"]) < 0:
        raise ConfigError(f"seeds must be nonnegative, got {cfg['seeds']}")
    for eps in cfg["eps"]:
        if not (0.0 < eps <= 1.0):
            raise ConfigError(f"eps values must be in (0, 1], got {eps}")
    if cfg["scenario"] == "tree":
        if cfg["algos"] != ["ada"]:
            raise ConfigError("the tree scenario supports only --algo ada")
        if not cfg["tree"] or not cfg["data"]:
            raise ConfigError("the tree scenario requires --tree and --data paths")
        for key in ("tree", "data"):  # existence only: run() parses them
            if not Path(cfg[key]).is_file():
                raise ConfigError(f"{key} file {cfg[key]!r} does not exist")
        if cfg["loss"] not in ("squared", "absolute"):
            raise ConfigError(f"unknown loss {cfg['loss']!r}; choose squared or absolute")
        return

    if cfg["n"] is None or cfg["t"] is None or cfg["n"] <= 0 or cfg["t"] <= 0:
        raise ConfigError("scenarios need positive --n and --t")
    if cfg["scenario"] in ("stochastic", "shifting"):
        if cfg["alpha"] is None or not (0.0 < cfg["alpha"] <= 1.0):
            raise ConfigError("stochastic/shifting scenarios need --alpha in (0, 1]")
        if cfg["mu"] is None or not (0.0 <= cfg["mu"] <= 1.0 - cfg["alpha"]):
            raise ConfigError("stochastic/shifting scenarios need --mu in [0, 1 - alpha]")
    if cfg["scenario"] == "shifting" and (cfg["k"] is None or not (1 <= cfg["k"] <= cfg["t"])):
        raise ConfigError("the shifting scenario needs --k in [1, T]")
    for algo in cfg["algos"]:
        if cfg["t"] > ALGORITHMS[algo].max_t:
            raise ConfigError(f"{algo} runs are capped at T = {ALGORITHMS[algo].max_t}")


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------


def generate_trace(cfg: dict, seed: int) -> LossTrace:
    scenario = cfg["scenario"]
    if scenario == "adversarial":
        return gen_adversarial(cfg["n"], cfg["t"], seed)
    if scenario == "stochastic":
        return gen_stochastic_gap(cfg["n"], cfg["t"], cfg["alpha"], cfg["mu"], seed)
    if scenario == "shifting":
        return gen_shifting(cfg["n"], cfg["t"], cfg["k"], cfg["alpha"], cfg["mu"], seed)
    raise ConfigError(f"no loss generator for scenario {scenario!r}")


def _fmt_column(values) -> list[str]:
    """Trace cells: repr of each value as a float, with NaN written as ""."""
    return ["" if math.isnan(x) else repr(x) for x in np.asarray(values, dtype=float).tolist()]


def _write_trace(path: Path, algo: str, columns) -> None:
    """Trace CSV of one task: the round, the algorithm, then one column of
    values per remaining TRACE_COLUMNS entry (None for an empty column).
    No cell holds a comma, quote or newline, so none needs CSV quoting."""
    n = len(columns[0])
    cells = [[""] * n if values is None else _fmt_column(values) for values in columns]
    rows = map(",".join, zip(map(str, range(1, n + 1)), [algo] * n, *cells))
    with open(path, "w", newline="") as fh:  # row by row, as a whole-file string would raise peak memory
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        fh.writelines(row + "\n" for row in rows)


def _expert_task(cfg: dict, algo: str, seed: int, out_dir: str) -> dict:
    trace = generate_trace(cfg, seed)
    algorithm = ALGORITHMS[algo]
    certified = algorithm.prior_terms is not None
    rec = play(algorithm.learner(cfg["n"]), trace.losses, certificates=certified)
    t_len, n = trace.losses.shape
    cum_p = rec.cum_player
    cum_l = np.cumsum(trace.losses, axis=0)
    rounds = np.arange(t_len)
    best_idx = np.argmin(cum_l, axis=1)
    regret_best = cum_p - cum_l[rounds, best_idx]
    regret_quant = cum_p - cum_l[rounds, quantile_competitor(cum_l, cfg["eps"][0])]
    last = cum_l[-1]
    summary = {
        "algo": algo,
        "seed": seed,
        "final_player_loss": float(cum_p[-1]),
        "final_regret_best": float(regret_best[-1]),
        "final_regret_quantile": {repr(e): float(cum_p[-1] - last[quantile_competitor(last, e)]) for e in cfg["eps"]},
    }

    violations = rec.certificate_violations()
    pots, certs, bounds = rec.potential_sums, rec.certificates, None
    if certified:
        abs_pref = np.cumsum(np.abs(rec.player_losses[:, None] - trace.losses), axis=0)
        ln_inv_q, n_live = algorithm.prior_terms(n, t_len)
        bounds = np.sqrt(abs_pref[rounds, best_idx] * bound_coefficient(ln_inv_q, certs, n_live))
        summary["final_potential_sum"] = float(pots[-1])
        summary["final_certificate_B"] = float(certs[-1])
        summary["final_bound_eq1"] = float(bounds[-1])
        if count_violations(regret_best[-1], bounds[-1]):
            summary["bound_violation"] = True
            violations += 1
    columns = [rec.player_losses, cum_p, regret_best, regret_quant, pots, certs, bounds]
    _write_trace(Path(out_dir) / f"trace_{algo}_seed{seed}.csv", algo, columns)
    if cfg["scenario"] == "stochastic":
        regret_star = cum_p - cum_l[:, 0]
        tenth = max(1, t_len // 10)
        summary["regret_designated_best"] = float(regret_star[-1])
        summary["regret_designated_best_tenth"] = float(regret_star[tenth - 1])
        denom = max(abs(float(regret_star[tenth - 1])), 1.0)
        summary["plateau_ratio"] = float(regret_star[-1]) / denom
    if cfg["scenario"] == "shifting":
        oracle = kshift_oracle(trace.losses, cfg["k"])
        summary["kshift_loss"] = oracle.loss
        summary["kshift_regret"] = float(cum_p[-1] - oracle.loss)
        summary["kshift_boundaries"] = oracle.boundaries
        summary["kshift_experts"] = oracle.experts
        if algorithm.segments_bound is not None:
            summary["kshift_certificate_sum"] = algorithm.segments_bound(
                rec.player_losses, trace.losses, oracle.boundaries, oracle.experts
            )
    summary["certificate_violations"] = int(violations)
    return summary


def _tree_task(cfg: dict, algo: str, seed: int, out_dir: str) -> dict:
    tree, data = cfg["tree"], cfg["data"]  # parsed by run()
    loss_factory = squared_loss if cfg["loss"] == "squared" else absolute_loss
    rounds = [(x, loss_factory(z)) for x, z in data]
    learner = TreeLearner(tree)
    losses, realized_total, (best_r, pots, certs, bounds) = learner.play_rounds(rounds, RECORD_BLOCK)
    cum_loss = np.cumsum(losses)
    violations = count_violations(pots, certs)
    columns = [losses, cum_loss, best_r, None, pots, certs, bounds]
    _write_trace(Path(out_dir) / f"trace_{algo}_seed{seed}.csv", algo, columns)

    best_loss, leaves, pruning = best_pruning(tree, rounds)
    tree_regret = realized_total - best_loss
    cert = learner.pruning_certificate(pruning)
    violations += count_violations(tree_regret, cert)
    return {
        "algo": algo,
        "seed": seed,
        "final_player_loss": float(cum_loss[-1]),
        "realized_loss_total": float(realized_total),
        "best_pruning_loss": float(best_loss),
        "best_pruning_leaves": int(leaves),
        "pruned_at": sorted(pruning.pruned_at),
        "tree_regret": float(tree_regret),
        "pruning_certificate": float(cert) if math.isfinite(cert) else None,
        "edges_seen": learner.edges_seen,
        "certificate_violations": int(violations),
    }


def _parse_tree_files(cfg: dict) -> dict:
    """cfg with the tree and data paths replaced by the parsed files; content that
    does not parse, or rows without a feature the tree splits on, is a config error."""
    parsed = dict(cfg)
    for key, load in (("tree", load_tree), ("data", load_tree_data)):
        try:
            parsed[key] = load(cfg[key])
        except (OSError, ValueError, TypeError, KeyError, csv.Error) as exc:
            raise ConfigError(f"{key} file {cfg[key]!r} does not parse: {type(exc).__name__}: {exc}") from None
    need = max(parsed["tree"].nodes[nid].feature for nid in parsed["tree"].internal_ids)
    if any(len(x) <= need for x, _ in parsed["data"]):
        raise ConfigError(f"data file {cfg['data']!r} has no feature f{need}, which the tree splits on")
    return parsed


def _run_task(cfg: dict, algo: str, seed: int, out_dir: str) -> dict:
    if cfg["scenario"] == "tree":
        return _tree_task(cfg, algo, seed, out_dir)
    return _expert_task(cfg, algo, seed, out_dir)


def _worker_count(n_tasks: int) -> int:
    env = os.environ.get("ANH_THREADS", "").strip()
    cap = _cast("ANH_THREADS", env, integer) if env else os.cpu_count() or 1
    if cap < 1:
        raise ConfigError("ANH_THREADS must be at least 1")
    return max(1, min(cap, n_tasks))


def run(cfg: dict) -> int:
    tasks = [(algo, seed) for algo in cfg["algos"] for seed in cfg["seeds"]]
    workers = _worker_count(len(tasks))  # a bad ANH_THREADS raises before the output directory exists
    task_cfg = _parse_tree_files(cfg) if cfg["scenario"] == "tree" else cfg
    out_dir = Path(cfg["out"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg['out']!r}: {type(exc).__name__}: {exc}") from None
    results, failed = [], []

    def collect(algo: str, seed: int, result) -> None:
        try:
            results.append(result())
        except Exception as exc:
            traceback.print_exc()  # in the pool, with the worker's traceback chained as its cause
            failed.append({"algo": algo, "seed": seed, "error": f"{type(exc).__name__}: {exc}"})

    if workers == 1:
        for algo, seed in tasks:
            collect(algo, seed, lambda: _run_task(task_cfg, algo, seed, str(out_dir)))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_task, task_cfg, algo, seed, str(out_dir)) for algo, seed in tasks]
            for (algo, seed), future in zip(tasks, futures):
                collect(algo, seed, future.result)
    results.sort(key=lambda r: (r["algo"], r["seed"]))

    aggregates: dict[str, dict] = {}
    for algo in cfg["algos"]:
        rows = [r for r in results if r["algo"] == algo]
        agg = {"runs": len(rows)}
        for key in ("final_regret_best", "regret_designated_best", "kshift_regret", "tree_regret"):
            vals = [r[key] for r in rows if key in r]
            if vals:
                agg[f"mean_{key}"] = float(np.mean(vals))
        aggregates[algo] = agg

    total_violations = sum(r["certificate_violations"] for r in results)
    summary = {
        "config": {k: v for k, v in cfg.items() if k != "out"},
        "results": results,
        "aggregates": aggregates,
        "invariant_failures": int(total_violations),
    }
    if failed:
        summary["failed_tasks"] = failed
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    if total_violations > 0:
        print("CERTIFICATE_VIOLATION", file=sys.stderr)
    for task in failed:
        print(f"task failed: algo {task['algo']} seed {task['seed']}: {task['error']}", file=sys.stderr)
    if failed:
        return EXIT_TASK_FAILED
    return EXIT_CERTIFICATE_VIOLATION if total_violations > 0 else EXIT_OK


def selfcheck(mutate_weight: float | None = None) -> int:
    results = selfcheck_results(weight_factor=mutate_weight)
    width = max(len(r.name) for r in results)
    print(f"{'check'.ljust(width)}  {'points':>8}  {'failures':>8}  {'worst margin':>13}  status")
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed = failed or not r.passed
        worst = "-" if math.isinf(r.worst_margin) else f"{r.worst_margin:.3e}"
        print(f"{r.name.ljust(width)}  {r.checked:>8}  {r.failures:>8}  {worst:>13}  {status}")
        for point in r.examples:
            print(f"{' ' * width}  failing point: {point}")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hedgelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a batch experiment")
    p_run.add_argument("--scenario", choices=SCENARIOS, required=True)
    p_run.add_argument("--algo", default="ada", help="comma list from: " + ",".join(ALGORITHMS))
    p_run.add_argument("--n", type=int, default=None, help="number of experts")
    p_run.add_argument("--t", type=int, default=None, help="number of rounds")
    p_run.add_argument("--k", type=int, default=None, help="segments for the shifting scenario")
    p_run.add_argument("--alpha", type=float, default=None, help="stochastic gap")
    p_run.add_argument("--mu", type=float, default=0.3, help="base Bernoulli mean (default 0.3)")
    p_run.add_argument("--eps", default="0.1", help="comma list of quantile levels")
    p_run.add_argument("--seeds", type=int, default=1, help="run seeds 0..COUNT-1 (default 1)")
    p_run.add_argument("--seed", default=None, help="explicit comma list of seeds")
    p_run.add_argument("--tree", default=None, help="template tree JSON (tree scenario)")
    p_run.add_argument("--data", default=None, help="feature/target CSV (tree scenario)")
    p_run.add_argument("--loss", default="squared", help="tree scenario loss: squared or absolute")
    p_run.add_argument("--out", default="results", help="output directory")
    p_run.add_argument("--config", default=None, help="JSON config file; overrides flags")

    p_check = sub.add_parser("selfcheck", help="run the verification battery")
    p_check.add_argument(
        "--mutate-weight",
        type=float,
        default=None,
        help="test hook: multiply the weight function by this factor",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "selfcheck":
        return selfcheck(args.mutate_weight)
    try:
        return run(build_config(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
