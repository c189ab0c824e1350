"""The benchmark's workloads: one `hedgelab run` invocation each.

A workload turns a workload seed into the argv of one `cli.main` call and,
for the tree scenario, a fixture written before the call.  Every input is a
function of the seed, so the same seed gives the same outputs byte for byte.

Sizes are chosen so that one call takes 0.2 to 1 s on a 2-vCPU Xeon, so
that one benchmark run holds dozens of calls (see run.py for why that matters).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    scenario_args: tuple[str, ...]  # `run` flags other than --t/--algo/--seed/--out and the tree files
    algos: tuple[str, ...]
    rounds: int  # rounds per (algo, seed) task: --t, or the tree fixture's rows
    seeds_per_run: int
    tree: bool = False  # generate a tree fixture of `rounds` rows before the call

    def cli_seeds(self, seed: int) -> list[int]:
        return [seed * self.seeds_per_run + k for k in range(self.seeds_per_run)]

    def tasks(self, seed: int) -> list[tuple[str, int]]:
        return [(algo, s) for algo in self.algos for s in self.cli_seeds(seed)]

    def rounds_total(self, seed: int) -> int:
        return self.rounds * len(self.tasks(seed))

    def argv(self, seed: int) -> list[str]:
        argv = ["run", *self.scenario_args, "--algo", ",".join(self.algos)]
        argv += ["--seed", ",".join(str(s) for s in self.cli_seeds(seed)), "--out", OUT_DIR]
        if self.tree:
            return argv + ["--tree", TREE_FILE, "--data", DATA_FILE]
        return argv + ["--t", str(self.rounds)]


OUT_DIR = "out"
TREE_FILE = "tree.json"
DATA_FILE = "data.csv"
TREE_DEPTH = 6
TREE_FEATURES = 4
TREE_NOISE = 0.1

_SHIFTING_ARGS = ("--scenario", "shifting", "--n", "10", "--k", "3", "--alpha", "0.25", "--mu", "0.3")

# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.  In
# short: shifting is bound by O(N*t) exp work per round in `interval` and also
# runs the `fixed` learner; tree by the dict-keyed registry sweep in
# `sleeping`.  stochastic (per-round call overhead in `fixed`) is kept out of
# BENCHMARK.json because its run times were not steady enough to gate.  Every
# workload runs serially (ANH_THREADS=1); traced runs of a workload with more
# than one task also time the same argv under the CLI's default worker policy.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("stochastic", ("--scenario", "stochastic", "--n", "10", "--alpha", "0.2", "--mu", "0.3"), ("ada", "hedge"), 3000, 1),
        Workload("shifting", _SHIFTING_ARGS, ("tv", "hedge", "ada"), 1500, 2),
        Workload("tree", ("--scenario", "tree"), ("ada",), 600, 1, tree=True),
    )
}


def write_tree_fixture(seed: int, rows: int, workdir: Path) -> None:
    """Depth-6 template tree and `rows` noisy samples of one of its prunings.

    The pruning replaces every other internal node at depth 4 by a leaf, so
    the generating pruning is nested nowhere and sits well inside the tree.
    """
    from hedgelab.lab import STREAM_TREE, rng_for
    from hedgelab.tree import PruningTree, generate_tree_data, random_template_tree, save_tree, save_tree_data

    rng = rng_for(seed, STREAM_TREE)
    tree = random_template_tree(TREE_DEPTH, TREE_FEATURES, rng)

    def depth(nid: str) -> int:
        d = 0
        while nid in tree.parent:
            nid, d = tree.parent[nid], d + 1
        return d

    level4 = sorted((nid for nid in tree.internal_ids if depth(nid) == 4), key=lambda nid: int(nid[1:]))
    pruning = PruningTree(frozenset(level4[::2]))
    pruning.validate(tree)
    data = generate_tree_data(tree, pruning, rows, TREE_FEATURES, rng, noise=TREE_NOISE)
    save_tree(tree, workdir / TREE_FILE)
    save_tree_data(data, workdir / DATA_FILE)
