"""Batch experiment runner and verification entry point.

Two subcommands:

  run        generate a scenario's losses, drive the requested algorithms,
             and write per-(algorithm, seed) trace CSVs plus a summary JSON.
  selfcheck  run the grid checks, oracle equivalences, and certificate
             batteries; print one row per check and exit nonzero on failure.

Runs are deterministic: the same config and seeds produce byte-identical
outputs.  Seeds x algorithms fan out to a process pool capped by the
ANH_THREADS environment variable (default: one process per CPU).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .checks import selfcheck_results
from .fixed import FixedLearner
from .interval import TvLearner, interval_bound
from .lab import (
    TRACE_COLUMNS,
    HedgeLearner,
    LossTrace,
    gen_adversarial,
    gen_shifting,
    gen_stochastic_gap,
    kshift_oracle,
    play,
    quantile_competitor,
)
from .potential import PotentialParams, bound_coefficient
from .tree import TreeLearner, absolute_loss, best_pruning, load_tree, load_tree_data, squared_loss

ALGOS = ("ada", "dt", "hedge", "tv")
SCENARIOS = ("adversarial", "stochastic", "shifting", "tree")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_CERTIFICATE_VIOLATION = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


# Keys a --config file may set: those of the config itself, plus the
# singular spellings "algo" and "seed".
CONFIG_KEYS = (
    "scenario", "algos", "algo", "n", "t", "k", "alpha", "mu", "eps", "seeds", "seed", "out", "tree", "data", "loss",
)


def _cast(key: str, value, cast):
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be {cast.__name__}, got {value!r}") from None


def _parse_list(key: str, value, cast):
    if value is None:
        return None
    if not isinstance(value, (list, tuple)):
        value = [v for v in str(value).split(",") if v != ""]
    return [_cast(key, v, cast) for v in value]


def build_config(args: argparse.Namespace) -> dict:
    cfg = {
        "scenario": args.scenario,
        "algos": _parse_list("algo", args.algo, str) or ["ada"],
        "n": args.n,
        "t": args.t,
        "k": args.k,
        "alpha": args.alpha,
        "mu": args.mu,
        "eps": _parse_list("eps", args.eps, float) or [0.1],
        "seeds": None,
        "out": args.out,
        "tree": args.tree,
        "data": args.data,
        "loss": args.loss,
    }
    if args.seed is not None:
        cfg["seeds"] = _parse_list("seed", args.seed, int)
    elif args.seeds is not None:
        cfg["seeds"] = list(range(int(args.seeds)))
    else:
        cfg["seeds"] = [0]
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
            if key == "algos" or key == "algo":
                cfg["algos"] = _parse_list(key, value, str)
            elif key == "eps":
                cfg["eps"] = _parse_list(key, value, float)
            elif key == "seeds":
                cfg["seeds"] = list(range(int(value))) if isinstance(value, int) else _parse_list(key, value, int)
            elif key == "seed":
                cfg["seeds"] = _parse_list(key, value, int)
            else:
                cfg[key] = value
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    if cfg["scenario"] not in SCENARIOS:
        raise ConfigError(f"unknown scenario {cfg['scenario']!r}; choose from {SCENARIOS}")
    for key in ("algos", "eps"):
        if not cfg[key]:
            raise ConfigError(f"need at least one value for {key}")
    if not isinstance(cfg["out"], str):
        raise ConfigError(f"out must be a path, got {cfg['out']!r}")
    for key in ("tree", "data"):
        if cfg[key] is not None and not isinstance(cfg[key], str):
            raise ConfigError(f"{key} must be a path, got {cfg[key]!r}")
    for algo in cfg["algos"]:
        if algo not in ALGOS:
            raise ConfigError(f"unknown algorithm {algo!r}; choose from {ALGOS}")
    if not cfg["seeds"]:
        raise ConfigError("need at least one seed")
    if min(cfg["seeds"]) < 0:
        raise ConfigError(f"seeds must be nonnegative, got {cfg['seeds']}")
    if cfg["scenario"] == "tree":
        if cfg["algos"] != ["ada"]:
            raise ConfigError("the tree scenario supports only --algo ada")
        if not cfg["tree"] or not cfg["data"]:
            raise ConfigError("the tree scenario requires --tree and --data paths")
        if cfg["loss"] not in ("squared", "absolute"):
            raise ConfigError(f"unknown loss {cfg['loss']!r}; choose squared or absolute")
        return

    def read(key: str, cast):
        return None if cfg[key] is None else _cast(key, cfg[key], cast)

    n, t = read("n", int), read("t", int)
    if n is None or t is None or n <= 0 or t <= 0:
        raise ConfigError("scenarios need positive --n and --t")
    cfg["n"], cfg["t"] = n, t
    if cfg["scenario"] in ("stochastic", "shifting"):
        alpha, mu = read("alpha", float), read("mu", float)
        if alpha is None or not (0.0 < alpha <= 1.0):
            raise ConfigError("stochastic/shifting scenarios need --alpha in (0, 1]")
        if mu is None or not (0.0 <= mu <= 1.0 - alpha):
            raise ConfigError("stochastic/shifting scenarios need --mu in [0, 1 - alpha]")
        cfg["alpha"], cfg["mu"] = alpha, mu
    if cfg["scenario"] == "shifting":
        k = read("k", int)
        if k is None or not (1 <= k <= t):
            raise ConfigError("the shifting scenario needs --k in [1, T]")
        cfg["k"] = k
    for eps in cfg["eps"]:
        if not (0.0 < eps <= 1.0):
            raise ConfigError(f"eps values must be in (0, 1], got {eps}")
    if "tv" in cfg["algos"] and cfg["t"] > 20000:
        raise ConfigError("tv runs are capped at T = 20000 (quadratic state growth)")


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------


def make_learner(algo: str, n: int):
    if algo == "ada":
        return FixedLearner(np.full(n, 1.0 / n))
    if algo == "dt":
        return FixedLearner(np.full(n, 1.0 / n), PotentialParams(0.0))
    if algo == "hedge":
        return HedgeLearner(n)
    if algo == "tv":
        return TvLearner(n)
    raise ConfigError(f"unknown algorithm {algo!r}")


def generate_trace(cfg: dict, seed: int) -> LossTrace:
    scenario = cfg["scenario"]
    if scenario == "adversarial":
        return gen_adversarial(cfg["n"], cfg["t"], seed)
    if scenario == "stochastic":
        return gen_stochastic_gap(cfg["n"], cfg["t"], cfg["alpha"], cfg["mu"], seed)
    if scenario == "shifting":
        return gen_shifting(cfg["n"], cfg["t"], cfg["k"], cfg["alpha"], cfg["mu"], seed)
    raise ConfigError(f"no loss generator for scenario {scenario!r}")


def _fmt(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return ""
    return repr(x)


def _write_trace(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(rows)


def _expert_task(cfg: dict, algo: str, seed: int, out_dir: str) -> dict:
    trace = generate_trace(cfg, seed)
    learner = make_learner(algo, cfg["n"])
    want_cert = algo in ("ada", "tv")
    rec = play(learner, trace.losses, certificates=want_cert)
    t_len, n = trace.losses.shape
    cum_p = rec.cum_player
    cum_l = np.cumsum(trace.losses, axis=0)
    rounds = np.arange(t_len)
    best_idx = np.argmin(cum_l, axis=1)
    regret_best = cum_p - cum_l[rounds, best_idx]
    eps = cfg["eps"][0]
    q_idx = quantile_competitor(cum_l, eps)
    regret_quant = cum_p - cum_l[rounds, q_idx]

    pots = rec.potential_sums
    certs = rec.certificates
    bounds = None
    if want_cert:
        abs_pref = np.cumsum(np.abs(rec.player_losses[:, None] - trace.losses), axis=0)
        c_best = abs_pref[rounds, best_idx]
        if algo == "ada":
            ln_inv_q, n_live = math.log(n), n
        else:  # tv: copy born at round 1, prior 1/1^2 over the growing registry
            zeta = np.cumsum(1.0 / np.arange(1.0, t_len + 1.0) ** 2)
            ln_inv_q, n_live = np.log(n * zeta), n * np.arange(1.0, t_len + 1.0)
        bounds = np.sqrt(c_best * bound_coefficient(ln_inv_q, certs, n_live))

    rows = []
    for t in range(t_len):
        rows.append(
            [
                t + 1,
                algo,
                _fmt(rec.player_losses[t]),
                _fmt(cum_p[t]),
                _fmt(regret_best[t]),
                _fmt(regret_quant[t]),
                _fmt(pots[t]) if pots is not None else "",
                _fmt(certs[t]) if certs is not None else "",
                _fmt(bounds[t]) if bounds is not None else "",
            ]
        )
    _write_trace(Path(out_dir) / f"trace_{algo}_seed{seed}.csv", rows)

    violations = rec.certificate_violations()
    summary = {
        "algo": algo,
        "seed": seed,
        "final_player_loss": float(cum_p[-1]),
        "final_regret_best": float(regret_best[-1]),
        "final_regret_quantile": {repr(e): float(cum_p[-1] - cum_l[-1, quantile_competitor(cum_l[-1], e)]) for e in cfg["eps"]},
        "certificate_violations": int(violations),
    }
    if want_cert:
        summary["final_potential_sum"] = float(pots[-1])
        summary["final_certificate_B"] = float(certs[-1])
        summary["final_bound_eq1"] = float(bounds[-1])
        if float(regret_best[-1]) > float(bounds[-1]) * (1.0 + 1e-9):
            summary["bound_violation"] = True
            violations += 1
    if cfg["scenario"] == "stochastic":
        regret_star = cum_p - cum_l[:, 0]
        tenth = max(1, t_len // 10)
        summary["regret_designated_best"] = float(regret_star[-1])
        summary["regret_designated_best_tenth"] = float(regret_star[tenth - 1])
        denom = max(abs(float(regret_star[tenth - 1])), 1.0)
        summary["plateau_ratio"] = float(regret_star[-1]) / denom
    if cfg["scenario"] == "shifting":
        oracle = kshift_oracle(trace.losses, cfg["k"], rec.player_losses)
        summary["kshift_loss"] = oracle.loss
        summary["kshift_regret"] = float(cum_p[-1] - oracle.loss)
        summary["kshift_boundaries"] = oracle.boundaries
        summary["kshift_experts"] = oracle.experts
        if algo == "tv":
            cert_sum = sum(
                interval_bound(
                    rec.player_losses,
                    trace.losses,
                    oracle.boundaries[j] + 1,
                    oracle.boundaries[j + 1],
                    oracle.experts[j],
                )
                for j in range(cfg["k"])
            )
            summary["kshift_certificate_sum"] = float(cert_sum)
    summary["certificate_violations"] = int(violations)
    return summary


def _tree_task(cfg: dict, algo: str, seed: int, out_dir: str) -> dict:
    tree = load_tree(cfg["tree"])
    data = load_tree_data(cfg["data"])
    loss_factory = squared_loss if cfg["loss"] == "squared" else absolute_loss
    learner = TreeLearner(tree)
    rows = []
    cum = 0.0
    realized_total = 0.0
    violations = 0
    for t, (x, z) in enumerate(data, start=1):
        loss_fn = loss_factory(z)
        y = learner.predict(x)
        realized_total += float(loss_fn(y))
        player_loss = learner.update(x, loss_fn)
        cum += player_loss
        reg = learner.registry
        best_edge = reg.best_id()
        pot = reg.potential_sum()
        cert = reg.certificate()
        bound = reg.regret_bound({best_edge: 1.0})
        if pot > cert * (1.0 + 1e-9):
            violations += 1
        rows.append(
            [
                t,
                algo,
                _fmt(player_loss),
                _fmt(cum),
                _fmt(reg.state(best_edge).R),
                "",
                _fmt(pot),
                _fmt(cert),
                _fmt(bound),
            ]
        )
    _write_trace(Path(out_dir) / f"trace_{algo}_seed{seed}.csv", rows)

    oracle_data = [(x, loss_factory(z)) for x, z in data]
    best_loss, leaves, pruning = best_pruning(tree, oracle_data)
    tree_regret = realized_total - best_loss
    cert = learner.pruning_certificate(pruning)
    if math.isfinite(cert) and tree_regret > cert * (1.0 + 1e-9):
        violations += 1
    return {
        "algo": algo,
        "seed": seed,
        "final_player_loss": float(cum),
        "realized_loss_total": float(realized_total),
        "best_pruning_loss": float(best_loss),
        "best_pruning_leaves": int(leaves),
        "pruned_at": sorted(pruning.pruned_at),
        "tree_regret": float(tree_regret),
        "pruning_certificate": float(cert) if math.isfinite(cert) else None,
        "edges_seen": learner.edges_seen,
        "certificate_violations": int(violations),
    }


def _run_task(cfg: dict, algo: str, seed: int, out_dir: str) -> dict:
    if cfg["scenario"] == "tree":
        return _tree_task(cfg, algo, seed, out_dir)
    return _expert_task(cfg, algo, seed, out_dir)


def _worker_count(n_tasks: int) -> int:
    env = os.environ.get("ANH_THREADS", "").strip()
    if env:
        try:
            cap = int(env)
        except ValueError as exc:
            raise ConfigError(f"ANH_THREADS must be an integer, got {env!r}") from exc
        if cap < 1:
            raise ConfigError("ANH_THREADS must be at least 1")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_tasks))


def run(cfg: dict) -> int:
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(algo, seed) for algo in cfg["algos"] for seed in cfg["seeds"]]
    workers = _worker_count(len(tasks))
    results = []
    if workers == 1:
        for algo, seed in tasks:
            results.append(_run_task(cfg, algo, seed, str(out_dir)))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_task, cfg, algo, seed, str(out_dir)) for algo, seed in tasks]
            results = [f.result() for f in futures]
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
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    if total_violations > 0:
        print("CERTIFICATE_VIOLATION", file=sys.stderr)
        return EXIT_CERTIFICATE_VIOLATION
    return EXIT_OK


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
    p_run.add_argument("--algo", default="ada", help="comma list from: " + ",".join(ALGOS))
    p_run.add_argument("--n", type=int, default=None, help="number of experts")
    p_run.add_argument("--t", type=int, default=None, help="number of rounds")
    p_run.add_argument("--k", type=int, default=None, help="segments for the shifting scenario")
    p_run.add_argument("--alpha", type=float, default=None, help="stochastic gap")
    p_run.add_argument("--mu", type=float, default=0.3, help="base Bernoulli mean (default 0.3)")
    p_run.add_argument("--eps", default="0.1", help="comma list of quantile levels")
    p_run.add_argument("--seeds", type=int, default=None, help="run seeds 0..COUNT-1")
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
        cfg = build_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
