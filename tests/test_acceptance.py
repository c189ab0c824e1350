"""Acceptance battery: one test per criterion, each printing a PASS line with
its measured statistics.  Run with `pytest tests/test_acceptance.py -v -s`."""

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from hedgelab.checks import check_decomposition, check_kshift_oracle, check_pruning_oracle
from hedgelab.cli import EXIT_OK, main as cli_main
from hedgelab.fixed import FixedLearner
from hedgelab.interval import TvLearner, check_all_interval_bounds, interval_bound
from hedgelab.lab import (
    HedgeLearner,
    gen_adversarial,
    gen_shifting,
    gen_stochastic_gap,
    kshift_oracle,
    play,
    rng_for,
)
from hedgelab.potential import check_increment_bound, run_grid_checks, weight
from hedgelab.tree import (
    PruningTree,
    TreeLearner,
    best_pruning,
    generate_tree_data,
    random_template_tree,
    squared_loss,
)

REL = 1e-9


def _workers() -> int:
    env = os.environ.get("ANH_THREADS", "").strip()
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _sample_competitors(n: int, count: int, rng) -> list[np.ndarray]:
    """Mix of point masses, uniform subsets, and Dirichlet draws."""
    out = []
    for j in range(count):
        if j % 5 == 0:
            u = np.zeros(n)
            u[int(rng.integers(0, n))] = 1.0
        elif j % 5 == 1:
            size = int(rng.integers(1, n + 1))
            idx = rng.choice(n, size=size, replace=False)
            u = np.zeros(n)
            u[idx] = 1.0 / size
        else:
            u = rng.dirichlet(np.ones(n))
        out.append(u)
    return out


# -- criteria 1 and 2 share the same 100 adversarial runs --------------------

CRIT1_COMBOS = [(2, 100), (10, 100), (100, 100), (2, 10_000), (10, 10_000), (100, 10_000)]


def _criterion1_run(seed: int) -> tuple[int, int, int, int]:
    """(competitor checks, competitor failures, round checks, round failures)."""
    n, t_len = CRIT1_COMBOS[seed % len(CRIT1_COMBOS)]
    trace = gen_adversarial(n, t_len, seed)
    learner = FixedLearner(np.full(n, 1.0 / n))
    rec = play(learner, trace.losses, certificates=True)
    regrets = np.sum(rec.player_losses[:, None] - trace.losses, axis=0)
    rng = rng_for(seed, 1)
    comp_fail = 0
    for u in _sample_competitors(n, 50, rng):
        realized = float(np.dot(u, regrets))
        if realized > learner.regret_bound(u) * (1.0 + REL) + 1e-12:
            comp_fail += 1
    return 50, comp_fail, t_len, rec.certificate_violations(rel_tol=REL)


@pytest.fixture(scope="module")
def adversarial_battery():
    start = time.monotonic()
    totals = np.zeros(4, dtype=int)
    workers = _workers()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for res in pool.map(_criterion1_run, range(100)):
                totals += np.array(res)
    else:
        for seed in range(100):
            totals += np.array(_criterion1_run(seed))
    elapsed = time.monotonic() - start
    return dict(
        comp_checked=int(totals[0]),
        comp_failed=int(totals[1]),
        rounds_checked=int(totals[2]),
        rounds_failed=int(totals[3]),
        elapsed=elapsed,
    )


def test_criterion_1_competitor_bound_certificate(adversarial_battery):
    b = adversarial_battery
    assert b["comp_checked"] == 5000
    assert b["comp_failed"] == 0
    assert b["elapsed"] < 120.0
    print(
        f"\nCRITERION 1: PASS - realized regret <= bound for {b['comp_checked']}/"
        f"{b['comp_checked']} competitors over 100 traces ({b['elapsed']:.1f}s)"
    )


def test_criterion_2_running_potential_certificate(adversarial_battery):
    b = adversarial_battery
    expected_rounds = sum(CRIT1_COMBOS[seed % len(CRIT1_COMBOS)][1] for seed in range(100))
    assert b["rounds_checked"] == expected_rounds
    assert b["rounds_failed"] == 0
    print(
        f"\nCRITERION 2: PASS - potential sum within certificate at all "
        f"{b['rounds_checked']} rounds (rel tol 1e-9)"
    )


def test_criterion_3_grid_check_and_mutation_sensitivity():
    res = check_increment_bound()
    assert res.passed, res.examples
    mutated = lambda R, C: 1.01 * weight(R, C)  # noqa: E731
    mutated_results = run_grid_checks(mutated)
    failed_names = [r.name for r in mutated_results if not r.passed]
    assert failed_names, "a 1% weight mutation must trip the grid suite"
    print(
        f"\nCRITERION 3: PASS - increment bound holds on {res.checked} grid points; "
        f"1% weight mutation trips {failed_names}"
    )


# -- criterion 4: stochastic plateau ------------------------------------------


def _criterion4_seed(seed: int) -> tuple[float, float, float, float]:
    n, t_len, alpha, mu = 10, 50_000, 0.2, 0.3
    trace = gen_stochastic_gap(n, t_len, alpha, mu, seed)
    ada = FixedLearner(np.full(n, 1.0 / n))
    rec = play(ada, trace.losses)
    cum_best = np.cumsum(trace.losses[:, 0])
    cum_p = rec.cum_player
    r_tenth = float(cum_p[5_000 - 1] - cum_best[5_000 - 1])
    r_final = float(cum_p[-1] - cum_best[-1])
    e_star = np.zeros(n)
    e_star[0] = 1.0
    a_coeff = ada.bound_coefficient(e_star)
    hedge = HedgeLearner(n)
    rec_h = play(hedge, trace.losses)
    r_hedge = float(rec_h.cum_player[-1] - cum_best[-1])
    return r_tenth, r_final, a_coeff, r_hedge


def test_criterion_4_stochastic_plateau():
    start = time.monotonic()
    seeds = range(20)
    workers = _workers()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_criterion4_seed, seeds))
    else:
        rows = [_criterion4_seed(s) for s in seeds]
    elapsed = time.monotonic() - start
    r_tenth = np.array([r[0] for r in rows])
    r_final = np.array([r[1] for r in rows])
    a_coeff = np.array([r[2] for r in rows])
    r_hedge = np.array([r[3] for r in rows])
    alpha = 0.2
    assert r_final.mean() <= 1.2 * r_tenth.mean(), (r_final.mean(), r_tenth.mean())
    assert r_final.mean() <= 2.0 * a_coeff.mean() / alpha
    assert r_hedge.mean() > r_final.mean()
    assert elapsed < 300.0
    print(
        f"\nCRITERION 4: PASS - mean regret to the gap-best expert {r_final.mean():.2f} at T=50k "
        f"vs {r_tenth.mean():.2f} at T=5k (ratio {r_final.mean() / r_tenth.mean():.3f}); "
        f"cap {2 * a_coeff.mean() / alpha:.1f}; hedge baseline {r_hedge.mean():.2f} ({elapsed:.1f}s)"
    )


# -- criterion 5: every-interval certificate ----------------------------------


def _criterion5_seed(seed: int) -> tuple[int, int]:
    n, t_len = 5, 300
    trace = gen_adversarial(n, t_len, seed)
    tv = TvLearner(n, horizon=t_len)
    rec = play(tv, trace.losses)
    checked, failures, _ = check_all_interval_bounds(rec.player_losses, trace.losses, rel_tol=REL)
    return checked, failures


def test_criterion_5_every_interval_certificate():
    start = time.monotonic()
    workers = _workers()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_criterion5_seed, range(20)))
    else:
        rows = [_criterion5_seed(s) for s in range(20)]
    elapsed = time.monotonic() - start
    checked = sum(r[0] for r in rows)
    failures = sum(r[1] for r in rows)
    assert checked == 20 * (300 * 301 // 2) * 5
    assert failures == 0
    assert elapsed < 180.0
    print(
        f"\nCRITERION 5: PASS - interval certificate held on {checked} (interval, expert) "
        f"pairs over 20 seeds ({elapsed:.1f}s)"
    )


# -- criterion 6: shifting recovery --------------------------------------------


def _criterion6_seed(seed: int) -> tuple[float, float, float]:
    n, t_len, k, alpha, mu = 10, 9_000, 3, 0.25, 0.3
    trace = gen_shifting(n, t_len, k, alpha, mu, seed)
    tv = TvLearner(n, horizon=t_len)
    rec = play(tv, trace.losses)
    oracle = kshift_oracle(trace.losses, k, rec.player_losses)
    r_tv = float(rec.cum_player[-1] - oracle.loss)
    cert_sum = sum(
        interval_bound(
            rec.player_losses,
            trace.losses,
            oracle.boundaries[j] + 1,
            oracle.boundaries[j + 1],
            oracle.experts[j],
        )
        for j in range(k)
    )
    hedge = HedgeLearner(n)
    rec_h = play(hedge, trace.losses)
    oracle_h = kshift_oracle(trace.losses, k, rec_h.player_losses)
    r_hedge = float(rec_h.cum_player[-1] - oracle_h.loss)
    return r_tv, float(cert_sum), r_hedge


def test_criterion_6_shifting_recovery():
    start = time.monotonic()
    workers = _workers()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_criterion6_seed, range(20)))
    else:
        rows = [_criterion6_seed(s) for s in range(20)]
    elapsed = time.monotonic() - start
    r_tv = np.array([r[0] for r in rows])
    cert = np.array([r[1] for r in rows])
    r_hedge = np.array([r[2] for r in rows])
    assert np.all(r_tv <= 2.0 * cert + 1e-9), (r_tv, cert)
    assert r_tv.mean() <= 0.2 * r_hedge.mean(), (r_tv.mean(), r_hedge.mean())
    assert elapsed < 720.0
    print(
        f"\nCRITERION 6: PASS - mean shifting regret {r_tv.mean():.1f} vs hedge "
        f"{r_hedge.mean():.1f} (ratio {r_tv.mean() / r_hedge.mean():.3f}); per-seed regret "
        f"within 2x segment certificates ({elapsed:.1f}s)"
    )


# -- criterion 7: oracle equivalences ------------------------------------------


def test_criterion_7_oracle_equivalences():
    kshift = check_kshift_oracle(n_instances=200)
    pruning = check_pruning_oracle(n_trees=50)
    decomp = check_decomposition(max_len=5)
    for res in (kshift, pruning, decomp):
        assert res.passed, (res.name, res.examples)
    print(
        f"\nCRITERION 7: PASS - segment oracle {kshift.checked} checks, pruning oracle "
        f"{pruning.checked} checks, decomposition {decomp.checked} grid instances, all equal"
    )


# -- criterion 8: tree-expert certificate --------------------------------------


def test_criterion_8_tree_expert_certificate():
    t_len = 2_000
    stats = []
    for seed in (42, 43, 44):
        rng = rng_for(seed, 2)
        tree = random_template_tree(3, 2, rng)
        internal = sorted(i for i in tree.internal_ids if i != tree.root)
        truth = PruningTree(frozenset(internal[:2]))
        truth.validate(tree)
        data = generate_tree_data(tree, truth, t_len, 2, rng)
        learner = TreeLearner(tree)
        realized = 0.0
        for x, z in data:
            loss_fn = squared_loss(z)
            realized += float(loss_fn(learner.predict(x)))
            learner.update(x, loss_fn)
        best_loss, m, pruning = best_pruning(tree, [(x, squared_loss(z)) for x, z in data])
        assert best_loss == pytest.approx(0.0, abs=1e-12)
        tree_regret = realized - best_loss
        cert = learner.pruning_certificate(pruning)
        assert math.isfinite(cert), "every terminal edge of the best pruning must be traversed"
        assert tree_regret <= cert * (1.0 + REL)
        assert tree_regret / t_len <= 0.05
        stats.append((tree_regret, cert, m))
    worst = max(s[0] / t_len for s in stats)
    print(
        f"\nCRITERION 8: PASS - zero-loss pruning recovered on 3 fixtures; worst regret rate "
        f"{worst:.2e} per round; certificates {[round(s[1], 1) for s in stats]}"
    )


# -- criterion 9: byte-identical outputs ---------------------------------------


def test_criterion_9_deterministic_outputs(tmp_path):
    configs = [
        ["run", "--scenario", "adversarial", "--algo", "ada,dt,hedge", "--n", "10", "--t", "500", "--seeds", "2"],
        ["run", "--scenario", "stochastic", "--algo", "ada,hedge", "--n", "10", "--t", "2000",
         "--alpha", "0.2", "--mu", "0.3", "--seeds", "2"],
        ["run", "--scenario", "shifting", "--algo", "tv,hedge", "--n", "5", "--t", "600",
         "--k", "3", "--alpha", "0.25", "--mu", "0.3", "--seeds", "2"],
    ]
    # tree scenario needs fixture files
    rng = rng_for(42, 2)
    tree = random_template_tree(3, 2, rng)
    internal = sorted(i for i in tree.internal_ids if i != tree.root)
    data = generate_tree_data(tree, PruningTree(frozenset(internal[:1])), 300, 2, rng)
    from hedgelab.tree import save_tree, save_tree_data

    tree_path, data_path = tmp_path / "tree.json", tmp_path / "data.csv"
    save_tree(tree, tree_path)
    save_tree_data(data, data_path)
    configs.append(
        ["run", "--scenario", "tree", "--algo", "ada", "--tree", str(tree_path), "--data", str(data_path)]
    )

    compared = 0
    for idx, args in enumerate(configs):
        out_a, out_b = tmp_path / f"a{idx}", tmp_path / f"b{idx}"
        assert cli_main(args + ["--out", str(out_a)]) == EXIT_OK
        assert cli_main(args + ["--out", str(out_b)]) == EXIT_OK
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b and names_a
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), (idx, name)
            compared += 1
    print(f"\nCRITERION 9: PASS - {compared} output files byte-identical across repeated runs")
