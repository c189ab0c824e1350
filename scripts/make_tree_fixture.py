#!/usr/bin/env python3
"""Generate a template tree (depth 3 by default) and a dataset drawn from one
of its prunings, as inputs for `hedgelab run --scenario tree`.

The pruning cuts the first --prune internal nodes in numeric id order that
are not below a node already cut."""

import argparse
from pathlib import Path

from hedgelab.lab import STREAM_TREE, rng_for
from hedgelab.tree import (
    PruningTree,
    TemplateTree,
    generate_tree_data,
    random_template_tree,
    save_tree,
    save_tree_data,
)


def choose_pruned(tree: TemplateTree, count: int) -> list[str]:
    """The first `count` internal non-root nodes in numeric id order, skipping
    every node below one already chosen, so that no pruned node is nested."""
    chosen: list[str] = []
    for nid in sorted((i for i in tree.internal_ids if i != tree.root), key=lambda i: int(i[1:])):
        if len(chosen) == count:
            break
        anc = tree.parent.get(nid)
        while anc is not None and anc not in chosen:
            anc = tree.parent.get(anc)
        if anc is None:
            chosen.append(nid)
    return chosen


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--features", type=int, default=2)
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--prune", type=int, default=2, help="how many internal nodes to prune")
    parser.add_argument("--noise", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default="fixtures", help="output directory")
    args = parser.parse_args()

    rng = rng_for(args.seed, STREAM_TREE)
    tree = random_template_tree(args.depth, args.features, rng)
    pruning = PruningTree(frozenset(choose_pruned(tree, args.prune)))
    pruning.validate(tree)
    data = generate_tree_data(tree, pruning, args.samples, args.features, rng, noise=args.noise)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_tree(tree, out / "tree.json")
    save_tree_data(data, out / "data.csv")
    print(f"wrote {out / 'tree.json'} and {out / 'data.csv'}")
    print(f"generating pruning: {sorted(pruning.pruned_at)} ({args.samples} samples, noise={args.noise})")


if __name__ == "__main__":
    main()
