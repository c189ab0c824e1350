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
columns f0..fk, none NaN, and a target column z in [0, 1].
TreeLearner.play_rounds plays and certifies a run, the certificates in blocks
of rounds from saved registry states, by SleepingRegistry.round_records.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .potential import check_losses
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
            feature, threshold = node.feature, node.threshold
            if isinstance(feature, bool) or not isinstance(feature, numbers.Integral) or feature < 0:
                raise ValueError(f"internal node {node.id!r} needs a feature index >= 0, got {feature!r}")
            if isinstance(threshold, bool) or not isinstance(threshold, numbers.Real) or math.isnan(threshold):
                raise ValueError(f"internal node {node.id!r} needs a numeric threshold, got {threshold!r}")
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


def _effective_leaves(tree: TemplateTree, pruning: PruningTree) -> list[str]:
    """Ids of the effective pruned tree's leaves, left to right."""
    leaves = []

    def go(nid: str) -> None:
        if (nid != tree.root and nid in pruning.pruned_at) or tree.nodes[nid].is_leaf:
            leaves.append(nid)
            return
        for child in tree.nodes[nid].children:
            go(child)

    go(tree.root)
    return leaves


def pruning_leaves(tree: TemplateTree, pruning: PruningTree) -> int:
    """Number of leaves of the effective pruned tree."""
    return len(_effective_leaves(tree, pruning))


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
    """Online forecaster mixing edge-expert predictions of a template tree.

    Edges are the ids of a SleepingRegistry.  Each leaf's root-to-leaf path is
    resolved once and kept: its edges, their child predictions and, once
    registered, their bank rows.  New edges are registered in path order and
    never before their ancestors, so rows ascend along every path.  A call
    routes x to its leaf and calls the registry's bank with the kept rows,
    which gives the mapping API's results bit for bit (every confidence is 1).
    play_round does a whole round in one pass, routing x once and computing
    the bank's weights once for both the prediction and the update; it equals
    predict(x) followed by update(x, loss_fn) bit for bit.
    """

    def __init__(self, tree: TemplateTree):
        self.tree = tree
        self.registry = SleepingRegistry()
        self._paths: dict[str, list] = {}  # leaf -> [edges, child predictions, bank rows once registered]

    @property
    def edges_seen(self) -> int:
        """Distinct traversed edges so far (the live expert count)."""
        return self.registry.seen_count

    def _path(self, x) -> list:
        """The memo of the leaf x reaches: [edges, child predictions, rows]."""
        nid = self.tree.root
        while not self.tree.nodes[nid].is_leaf:
            nid = self.tree.route_child(nid, x)
        path = self._paths.get(nid)
        if path is None:
            edges = self.tree.traverse(x)
            path = self._paths[nid] = [edges, np.array([self.tree.nodes[child].prediction for _, child in edges]), None]
        return path

    def _rows(self, path: list) -> np.ndarray:
        """The bank rows of a memo's edges, registering them on first use."""
        if path[2] is None:
            path[2] = self.registry._register(path[0])
        return path[2]

    def _weigh(self, path: list) -> tuple[np.ndarray, np.ndarray, float]:
        """A memo's bank rows, their weights and the mixture prediction."""
        rows = self._rows(path)
        p = self.registry._bank.predict(rows)
        return rows, p, float(sum(w * pred for w, pred in zip(p.tolist(), path[1])))

    def predict(self, x) -> float:
        """Convex combination of child predictions along the traversed path."""
        return self._weigh(self._path(x))[2]

    def update(self, x, loss_fn: LossFn) -> float:
        """Charge each awake edge loss_fn(its prediction); return the mixture loss.

        The returned value upper-bounds loss_fn(self.predict(x)) whenever
        loss_fn is convex.  Losses outside [0, 1] raise before any edge is
        registered.
        """
        return self.play_round(x, loss_fn)[1]

    def play_round(self, x, loss_fn: LossFn) -> tuple[float, float]:
        """predict(x) then update(x, loss_fn) in one pass, bit for bit: x is
        routed once and the bank's weights, computed once, give both the
        prediction and the player loss.  Returns (prediction, player loss);
        losses outside [0, 1] raise before any edge is registered."""
        path = self._path(x)
        losses = check_losses([float(loss_fn(pred)) for pred in path[1]])
        rows, p, y = self._weigh(path)
        return y, self.registry._bank.update(losses, rows, p=p)

    def play_rounds(self, rounds: list[tuple], block: int) -> tuple[list, float, tuple[np.ndarray, ...]]:
        """play_round every (x, loss_fn) in turn; return the player losses, the total loss_fn(prediction)
        and the registry's round_record() after every round as four arrays, computed by round_records
        from the states saved `block` rounds at a time (no record feeds back into the learner)."""
        bank = self.registry._bank
        R, C = np.zeros((2, block, len(self.tree.parent)))  # row k: the bank after round k of a block
        sizes = np.zeros(block, dtype=int)
        losses, records, realized_total = [], [], 0.0
        for t, (x, loss_fn) in enumerate(rounds):
            y, player_loss = self.play_round(x, loss_fn)
            realized_total += float(loss_fn(y))  # not sum(): from Python 3.12 on it compensates float sums
            losses.append(player_loss)
            k = t % block
            n = sizes[k] = bank.q.size
            R[k, :n], C[k, :n] = bank.R, bank.C
            if k == block - 1 or t == len(rounds) - 1:
                records.append(self.registry.round_records(R[: k + 1], C[: k + 1], sizes[: k + 1]))
        return losses, realized_total, tuple(map(np.concatenate, zip(*records)))

    def terminal_edges(self, pruning: PruningTree) -> list[Edge]:
        """Edges into the effective leaves of a pruning of the template."""
        return [(self.tree.parent[nid], nid) for nid in _effective_leaves(self.tree, pruning)]

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
    hit_loss: dict[str, float] = {}  # reached non-root node -> loss of predicting with it
    for x, loss_fn in data:
        nid = tree.root
        while not tree.nodes[nid].is_leaf:
            nid = tree.route_child(nid, x)
            hit_loss[nid] = hit_loss.get(nid, 0.0) + float(loss_fn(tree.nodes[nid].prediction))

    def best(nid: str) -> tuple[float, int, list[str]]:
        """(loss, leaves, pruned nodes) of the best pruning of nid's subtree."""
        leaf_loss = hit_loss.get(nid, 0.0)
        if tree.nodes[nid].is_leaf:
            return leaf_loss, 1, []
        sub_loss, sub_leaves, sub_pruned = 0.0, 0, []
        for child in tree.nodes[nid].children:
            loss, leaves, pruned = best(child)
            sub_loss += loss
            sub_leaves += leaves
            sub_pruned += pruned
        # ties collapse to the single leaf, unreached subtrees (0 against 0) included
        if nid != tree.root and leaf_loss <= sub_loss:
            return leaf_loss, 1, [nid]
        return sub_loss, sub_leaves, sub_pruned

    total, leaves, pruned = best(tree.root)
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
        if feat_cols != [f"f{k}" for k in range(len(feat_cols))]:
            raise ValueError(f"feature columns must be f0..f{len(feat_cols) - 1}, got {feat_cols}")
        out = []
        for row in reader:
            x = np.array([float(row[c]) for c in feat_cols])
            if np.isnan(x).any():  # x[f] < threshold is false for NaN, which would silently pick a child
                raise ValueError(f"feature value NaN on line {reader.line_num}")
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
