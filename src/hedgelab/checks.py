"""Self-contained verification suites: grid inequalities, oracle equivalences,
and running certificates.  The selfcheck CLI command prints these as a table;
the test suite asserts on them directly."""

from __future__ import annotations

import itertools

import numpy as np

from . import potential
from .fixed import FixedLearner
from .lab import (
    decomposition_bruteforce,
    decomposition_value,
    gen_adversarial,
    kshift_bruteforce,
    kshift_oracle,
    play,
    rng_for,
)
from .potential import CheckResult
from .tree import (
    best_pruning, best_pruning_bruteforce, pruning_leaves, pruning_predict, random_template_tree, squared_loss
)

__all__ = [
    "check_kshift_oracle",
    "check_pruning_oracle",
    "check_decomposition",
    "check_running_certificate",
    "selfcheck_results",
]


def check_kshift_oracle(n_instances: int = 200, seed: int = 1234) -> CheckResult:
    """Segment oracle equals exhaustive enumeration on small random instances."""
    res = CheckResult("kshift-oracle-vs-bruteforce")
    rng = rng_for(seed, stream=9)
    for _ in range(n_instances):
        t_len = int(rng.integers(1, 7))
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(3, t_len) + 1))
        losses = rng.random((t_len, n))
        fast = kshift_oracle(losses, k)
        slow = kshift_bruteforce(losses, k)
        res.record(1e-9 - abs(fast.loss - slow), (t_len, n, k))
        # the witness must achieve the reported optimum
        witness = sum(
            float(losses[fast.boundaries[j] : fast.boundaries[j + 1], fast.experts[j]].sum())
            for j in range(k)
        )
        res.record(1e-9 - abs(witness - fast.loss), (t_len, n, k, "witness"))
    return res


def check_pruning_oracle(n_trees: int = 50, seed: int = 777) -> CheckResult:
    """Bottom-up pruning program equals subset enumeration on random trees; its pruning achieves its result."""
    res = CheckResult("pruning-oracle-vs-enumeration")
    rng = rng_for(seed, stream=10)
    for _ in range(n_trees):
        depth = int(rng.integers(1, 4))  # up to 7 internal nodes on a full tree
        n_features = int(rng.integers(1, 4))
        tree = random_template_tree(depth, n_features, rng)
        n_samples = int(rng.integers(1, 21))
        data = [
            (rng.uniform(0.0, 1.0, size=n_features), squared_loss(float(rng.uniform(0.0, 1.0))))
            for _ in range(n_samples)
        ]
        loss_fast, leaves_fast, pruning = best_pruning(tree, data)
        loss_slow, leaves_slow = best_pruning_bruteforce(tree, data)
        res.record(1e-9 - abs(loss_fast - loss_slow), ("loss", depth, n_samples))
        res.record(0.0 if leaves_fast == leaves_slow else -1.0, ("leaves", depth, n_samples))
        pruning.validate(tree)
        witness = sum(float(loss_fn(pruning_predict(tree, pruning, x))) for x, loss_fn in data)
        res.record(1e-9 - abs(witness - loss_fast), ("witness loss", depth, n_samples))
        res.record(0.0 if pruning_leaves(tree, pruning) == leaves_fast else -1.0, ("witness leaves", depth, n_samples))
    return res


def check_decomposition(grid=(0.0, 0.5, 2.0), max_len: int = 5) -> CheckResult:
    """Positive-jump formula equals the interval-cover linear program."""
    res = CheckResult("decomposition-vs-lp")
    for t_len in range(1, max_len + 1):
        for vals in itertools.product(grid, repeat=t_len):
            v = np.array(vals)
            closed = decomposition_value(v)
            lp = decomposition_bruteforce(v)
            res.record(1e-9 - abs(closed - lp), tuple(vals))
    return res


def check_running_certificate(seeds=(0, 1, 2), n: int = 5, t: int = 200) -> CheckResult:
    """Potential sum stays below its cap at every round of adversarial runs."""
    res = CheckResult("running-certificate")
    for seed in seeds:
        trace = gen_adversarial(n, t, seed)
        learner = FixedLearner(np.full(n, 1.0 / n))
        rec = play(learner, trace.losses, certificates=True)
        margins = rec.certificates * (1.0 + 1e-9) - rec.potential_sums
        for k in range(t):
            res.record(float(margins[k]), (seed, k + 1))
    return res


def selfcheck_results(weight_factor: float | None = None) -> list[CheckResult]:
    """Full verification battery; weight_factor perturbs the weight function
    fed to the grid checks (a test hook for mutation sensitivity)."""
    if weight_factor is None:
        weight_fn = potential.weight
    else:
        factor = float(weight_factor)
        weight_fn = lambda R, C: factor * potential.weight(R, C)  # noqa: E731
    results = potential.run_grid_checks(weight_fn)
    results.append(check_running_certificate())
    results.append(check_kshift_oracle())
    results.append(check_pruning_oracle())
    results.append(check_decomposition())
    return results
