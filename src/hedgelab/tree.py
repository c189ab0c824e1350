"""Predicting with the best pruning of a template decision tree.

Each edge of the template acts as a sleeping expert that wakes exactly when an
input traverses it and predicts the value attached to its child node.  Mixing
edge predictions with the sleeping learner's weights gives a forecaster whose
loss tracks the best pruning in hindsight; an exact bottom-up program computes
that best pruning (and an exhaustive enumerator cross-checks it).

Trees are binary with threshold routing: at an internal node the input goes to
the first child when x[feature] < threshold, else to the second.  Node
predictions are constants in [0, 1]; the root predicts nothing and is never
prunable.  JSON serialization: {"root": id, "nodes": [{"id", "feature",
"threshold", "children", "prediction"}]}.  Data files are CSV with feature
columns f0..fk and a target column z.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .potential import PotentialParams
from .sleeping import SleepingRegistry

__all__ = [
    "TreeNode",
    "TemplateTree",
    "PruningTree",
    "TreeLearner",
    "squared_loss",
    "absolute_loss",
    "best_pruning",
    "best_pruning_bruteforce",
    "pruning_predict",
    "pruning_leaves",
    "random_template_tree",
    "generate_tree_data",
    "load_tree",
    "save_tree",
    "load_tree_data",
    "save_tree_data",
]

Edge = tuple[str, str]
LossFn = Callable[[float], float]


@dataclass(frozen=True)
class TreeNode:
    id: str
    children: tuple[str, ...] = ()
    feature: int | None = None
    threshold: float | None = None
    prediction: float | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


class TemplateTree:
    """Validated node map with a single root; every non-root node predicts."""

    def __init__(self, nodes: Iterable[TreeNode], root: str):
        self.nodes: dict[str, TreeNode] = {}
        for node in nodes:
            if node.id in self.nodes:
                raise ValueError(f"duplicate node id {node.id!r}")
            self.nodes[node.id] = node
        if root not in self.nodes:
            raise ValueError(f"root {root!r} not among nodes")
        self.root = root
        self.parent: dict[str, str] = {}
        for node in self.nodes.values():
            if node.is_leaf:
                continue
            if len(node.children) != 2:
                raise ValueError(f"internal node {node.id!r} must have exactly 2 children")
            if node.feature is None or node.threshold is None or node.feature < 0:
                raise ValueError(f"internal node {node.id!r} needs a feature index and threshold")
            for child in node.children:
                if child not in self.nodes:
                    raise ValueError(f"unknown child {child!r} of {node.id!r}")
                if child in self.parent:
                    raise ValueError(f"node {child!r} has two parents")
                self.parent[child] = node.id
        if self.root in self.parent:
            raise ValueError("root must not have a parent")
        if self.nodes[self.root].is_leaf:
            raise ValueError("root must be an internal node")
        if self.nodes[self.root].prediction is not None:
            raise ValueError("root carries no prediction")
        reached = set()
        stack = [self.root]
        while stack:
            nid = stack.pop()
            reached.add(nid)
            stack.extend(self.nodes[nid].children)
        if reached != set(self.nodes):
            raise ValueError("tree must be connected: unreachable nodes present")
        for node in self.nodes.values():
            if node.id != self.root:
                pred = node.prediction
                if pred is None or not (0.0 <= pred <= 1.0):
                    raise ValueError(f"node {node.id!r} needs a prediction in [0, 1]")

    @property
    def internal_ids(self) -> list[str]:
        return [n.id for n in self.nodes.values() if not n.is_leaf]

    def depth(self) -> int:
        def go(nid: str) -> int:
            node = self.nodes[nid]
            return 0 if node.is_leaf else 1 + max(go(c) for c in node.children)

        return go(self.root)

    def route_child(self, nid: str, x) -> str:
        node = self.nodes[nid]
        if node.feature >= len(x):
            raise ValueError(f"input has no feature {node.feature} required by node {nid!r}")
        return node.children[0] if x[node.feature] < node.threshold else node.children[1]

    def traverse(self, x) -> list[Edge]:
        """Root-to-leaf edge path for input x; length equals the leaf's depth."""
        path = []
        nid = self.root
        while not self.nodes[nid].is_leaf:
            child = self.route_child(nid, x)
            path.append((nid, child))
            nid = child
        return path

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "nodes": [
                {
                    "id": n.id,
                    "feature": n.feature,
                    "threshold": n.threshold,
                    "children": list(n.children),
                    "prediction": n.prediction,
                }
                for n in sorted(self.nodes.values(), key=lambda n: n.id)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TemplateTree":
        nodes = [
            TreeNode(
                id=str(item["id"]),
                children=tuple(str(c) for c in item.get("children") or ()),
                feature=item.get("feature"),
                threshold=item.get("threshold"),
                prediction=item.get("prediction"),
            )
            for item in data["nodes"]
        ]
        return cls(nodes, str(data["root"]))


@dataclass(frozen=True)
class PruningTree:
    """Set of node ids replaced by leaves; root excluded, no nested entries."""

    pruned_at: frozenset

    def validate(self, tree: TemplateTree) -> None:
        for nid in self.pruned_at:
            if nid not in tree.nodes:
                raise ValueError(f"unknown pruned node {nid!r}")
            if nid == tree.root:
                raise ValueError("root cannot be pruned")
        for nid in self.pruned_at:
            anc = tree.parent.get(nid)
            while anc is not None:
                if anc in self.pruned_at:
                    raise ValueError(f"pruned node {nid!r} is below pruned node {anc!r}")
                anc = tree.parent.get(anc)


def pruning_predict(tree: TemplateTree, pruning: PruningTree, x) -> float:
    """Prediction of the pruned tree: value of the effective leaf x reaches."""
    nid = tree.root
    while True:
        if nid != tree.root and nid in pruning.pruned_at:
            return tree.nodes[nid].prediction
        node = tree.nodes[nid]
        if node.is_leaf:
            return node.prediction
        nid = tree.route_child(nid, x)


def pruning_leaves(tree: TemplateTree, pruning: PruningTree) -> int:
    """Number of leaves of the effective pruned tree."""

    def go(nid: str) -> int:
        if nid != tree.root and nid in pruning.pruned_at:
            return 1
        node = tree.nodes[nid]
        if node.is_leaf:
            return 1
        return sum(go(c) for c in node.children)

    return go(tree.root)


def squared_loss(target: float) -> LossFn:
    """(y - z)^2 for a target z in [0, 1]; convex with range inside [0, 1]."""
    if not (0.0 <= target <= 1.0):
        raise ValueError(f"target must be in [0, 1], got {target}")
    return lambda y: (y - target) ** 2


def absolute_loss(target: float) -> LossFn:
    """|y - z| for a target z in [0, 1]."""
    if not (0.0 <= target <= 1.0):
        raise ValueError(f"target must be in [0, 1], got {target}")
    return lambda y: abs(y - target)


class TreeLearner:
    """Online forecaster mixing edge-expert predictions of a template tree."""

    def __init__(self, tree: TemplateTree, params: PotentialParams | None = None):
        self.tree = tree
        self.registry = SleepingRegistry(params=params)

    @property
    def edges_seen(self) -> int:
        """Distinct traversed edges so far (the live expert count)."""
        return self.registry.seen_count

    def _edge_values(self, x) -> tuple[list[Edge], np.ndarray]:
        path = self.tree.traverse(x)
        preds = np.array([self.tree.nodes[child].prediction for _, child in path])
        return path, preds

    def predict(self, x) -> float:
        """Convex combination of child predictions along the traversed path."""
        path, preds = self._edge_values(x)
        p = self.registry.predict({edge: 1.0 for edge in path})
        return float(sum(p[edge] * pred for edge, pred in zip(path, preds)))

    def update(self, x, loss_fn: LossFn) -> float:
        """Charge each awake edge loss_fn(its prediction); return the mixture loss.

        The returned value upper-bounds loss_fn(self.predict(x)) whenever
        loss_fn is convex.
        """
        path, preds = self._edge_values(x)
        return self.registry.update({edge: (1.0, float(loss_fn(pred))) for edge, pred in zip(path, preds)})

    def terminal_edges(self, pruning: PruningTree) -> list[Edge]:
        """Edges into the effective leaves of a pruning of the template."""
        edges = []

        def go(nid: str) -> None:
            effective_leaf = (nid != self.tree.root and nid in pruning.pruned_at) or self.tree.nodes[
                nid
            ].is_leaf
            if effective_leaf:
                edges.append((self.tree.parent[nid], nid))
                return
            for child in self.tree.nodes[nid].children:
                go(child)

        go(self.tree.root)
        return edges

    def pruning_certificate(self, pruning: PruningTree) -> float:
        """m * (regret bound for u uniform over the pruning's terminal edges).

        Exactly one terminal edge of the pruning is awake each round, so the
        forecaster's excess loss over the pruning is at most this value.
        Returns +inf if some terminal edge was never traversed.
        """
        edges = self.terminal_edges(pruning)
        m = len(edges)
        u = {edge: 1.0 / m for edge in edges}
        return m * self.registry.regret_bound(u)


# ---------------------------------------------------------------------------
# Exact best pruning: bottom-up program plus exhaustive cross-check.
# ---------------------------------------------------------------------------


def best_pruning(tree: TemplateTree, data: list[tuple]) -> tuple[float, int, PruningTree]:
    """Minimum-loss pruning for data = [(x, loss_fn), ...]; exact.

    Returns (total loss, leaf count, pruning).  Ties in loss are broken toward
    fewer leaves, so subtrees the data never reaches collapse to single leaves.
    """
    if not data:
        raise ValueError("data must be nonempty")
    hit_loss: dict[str, float] = {}
    reached: set[str] = {tree.root}
    for x, loss_fn in data:
        nid = tree.root
        while not tree.nodes[nid].is_leaf:
            nid_next = tree.route_child(nid, x)
            hit_loss[nid_next] = hit_loss.get(nid_next, 0.0) + float(loss_fn(tree.nodes[nid_next].prediction))
            reached.add(nid_next)
            nid = nid_next

    choice: dict[str, str] = {}

    def best(nid: str) -> tuple[float, int]:
        node = tree.nodes[nid]
        if nid not in reached:
            choice[nid] = "leaf"
            return 0.0, 1
        if node.is_leaf:
            choice[nid] = "leaf"
            return hit_loss.get(nid, 0.0), 1
        sub_loss, sub_leaves = 0.0, 0
        for child in node.children:
            cl, cm = best(child)
            sub_loss += cl
            sub_leaves += cm
        if nid == tree.root:
            choice[nid] = "subtree"
            return sub_loss, sub_leaves
        leaf_loss = hit_loss.get(nid, 0.0)
        if leaf_loss <= sub_loss:  # ties collapse to the single leaf
            choice[nid] = "leaf"
            return leaf_loss, 1
        choice[nid] = "subtree"
        return sub_loss, sub_leaves

    total, leaves = best(tree.root)

    pruned: set[str] = set()

    def collect(nid: str) -> None:
        if choice[nid] == "leaf":
            if not tree.nodes[nid].is_leaf:
                pruned.add(nid)
            return
        for child in tree.nodes[nid].children:
            collect(child)

    collect(tree.root)
    pruning = PruningTree(frozenset(pruned))
    pruning.validate(tree)
    return total, leaves, pruning


def best_pruning_bruteforce(tree: TemplateTree, data: list[tuple]) -> tuple[float, int]:
    """Reference optimum by enumerating all subsets of internal non-root nodes."""
    if not data:
        raise ValueError("data must be nonempty")
    candidates = [nid for nid in tree.internal_ids if nid != tree.root]
    best_val: tuple[float, int] | None = None
    for mask in range(1 << len(candidates)):
        pruned = frozenset(nid for k, nid in enumerate(candidates) if mask >> k & 1)
        pruning = PruningTree(pruned)
        loss = sum(float(loss_fn(pruning_predict(tree, pruning, x))) for x, loss_fn in data)
        leaves = pruning_leaves(tree, pruning)
        key = (loss, leaves)
        if best_val is None or key < best_val:
            best_val = key
    return best_val


# ---------------------------------------------------------------------------
# Fixtures and file formats.
# ---------------------------------------------------------------------------


def random_template_tree(depth: int, n_features: int, rng: np.random.Generator) -> TemplateTree:
    """Full binary tree of the given depth with random tests and predictions.

    Thresholds split the middle of the cell each path has carved out so far,
    so every leaf owns a box of volume at least 0.3^depth under uniform
    inputs on [0, 1]^k.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    nodes: list[TreeNode] = []
    counter = 0

    def build(level: int, ranges: list[tuple[float, float]]) -> str:
        nonlocal counter
        nid = f"n{counter}"
        counter += 1
        pred = None if nid == "n0" else float(rng.uniform(0.0, 1.0))
        if level == depth:
            nodes.append(TreeNode(id=nid, prediction=pred))
            return nid
        feature = int(rng.integers(0, n_features))
        lo, hi = ranges[feature]
        threshold = float(rng.uniform(lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo)))
        left_ranges = list(ranges)
        left_ranges[feature] = (lo, threshold)
        right_ranges = list(ranges)
        right_ranges[feature] = (threshold, hi)
        left = build(level + 1, left_ranges)
        right = build(level + 1, right_ranges)
        nodes.append(
            TreeNode(id=nid, children=(left, right), feature=feature, threshold=threshold, prediction=pred)
        )
        return nid

    root = build(0, [(0.0, 1.0)] * n_features)
    return TemplateTree(nodes, root)


def generate_tree_data(
    tree: TemplateTree,
    pruning: PruningTree,
    n_samples: int,
    n_features: int,
    rng: np.random.Generator,
    noise: float = 0.0,
) -> list[tuple[np.ndarray, float]]:
    """Inputs uniform on [0,1]^k with targets from the given pruning (+noise)."""
    out = []
    for _ in range(n_samples):
        x = rng.uniform(0.0, 1.0, size=n_features)
        z = pruning_predict(tree, pruning, x)
        if noise > 0.0:
            z = float(np.clip(z + rng.normal(0.0, noise), 0.0, 1.0))
        out.append((x, float(z)))
    return out


def load_tree(path) -> TemplateTree:
    with open(path) as fh:
        return TemplateTree.from_dict(json.load(fh))


def save_tree(tree: TemplateTree, path) -> None:
    Path(path).write_text(json.dumps(tree.to_dict(), indent=2, sort_keys=True) + "\n")


def load_tree_data(path) -> list[tuple[np.ndarray, float]]:
    """CSV with feature columns f0..fk and target column z."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "z" not in reader.fieldnames:
            raise ValueError("data file needs feature columns f0..fk and a target column z")
        feat_cols = sorted(
            (c for c in reader.fieldnames if c.startswith("f")), key=lambda c: int(c[1:])
        )
        out = []
        for row in reader:
            x = np.array([float(row[c]) for c in feat_cols])
            z = float(row["z"])
            if not (0.0 <= z <= 1.0):
                raise ValueError(f"target {z} outside [0, 1]")
            out.append((x, z))
    if not out:
        raise ValueError("data file is empty")
    return out


def save_tree_data(data: list[tuple[np.ndarray, float]], path) -> None:
    n_features = len(data[0][0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{k}" for k in range(n_features)] + ["z"])
        for x, z in data:
            writer.writerow([repr(float(v)) for v in x] + [repr(float(z))])
