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
A run routes and prices its rows once: TemplateTree.route_rows routes every
row in one vectorised pass, each edge on a row's path is priced by one call
of the row's loss closure, and a TreeRounds keeps that pricing for both
play_rounds and best_pruning.  A leaf's root-to-leaf edges and their child
predictions are facts of the template, kept once in TemplateTree._leaf_paths
for the pricing, best_pruning, traverse and TreeLearner, which adds only
each leaf's bank rows.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import re
from array import array
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
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
    "TreeRounds",
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
        """Edges on the longest root-to-leaf path."""
        depth, level = -1, [self.root]
        while level:
            depth, level = depth + 1, [c for nid in level for c in self.nodes[nid].children]
        return depth

    def route_child(self, nid: str, x) -> str:
        node = self.nodes[nid]
        if node.feature >= len(x):
            raise ValueError(f"input has no feature {node.feature} required by node {nid!r}")
        return node.children[0] if x[node.feature] < node.threshold else node.children[1]

    def _leaf(self, x) -> str:
        """The leaf that route_child leads x to."""
        nid = self.root
        while not self.nodes[nid].is_leaf:
            nid = self.route_child(nid, x)
        return nid

    def route_rows(self, X) -> list[str]:
        """The leaf that route_child leads each row of a (rows, k) array to.
        A float64 array with every feature the splits use takes one
        vectorised compare per level, X[row, feature] < threshold, the
        comparison route_child makes, so a tie goes to the second child.
        Other arrays go through route_child row by row, which raises its
        ValueError at the first row that reaches a split on a missing feature."""
        X = np.asarray(X)
        if X.ndim != 2:
            raise ValueError(f"rows must form a (rows, k) array, got shape {X.shape}")
        if X.dtype == np.float64 and self._tables is not None:
            ids, root, feature, threshold, left, right, depth = self._tables
            if X.shape[1] > feature.max():
                at = np.full(X.shape[0], root)
                rows = np.arange(X.shape[0])
                for _ in range(depth):
                    f = feature[at]  # 0 at a leaf, whose children are itself
                    at = np.where(X[rows, f] < threshold[at], left[at], right[at])
                return [ids[k] for k in at.tolist()]
        return [self._leaf(x) for x in X]

    @cached_property
    def _tables(self) -> tuple | None:
        """route_rows' arrays, by node in self.nodes order: the ids, the root's
        index, each split's feature, threshold and two children (0, 0.0 and
        the node itself twice at a leaf), and the depth; None when a
        threshold is no int or float exactly, such as an int past 2**53."""
        index = {nid: k for k, nid in enumerate(self.nodes)}
        splits = []
        for k, node in enumerate(self.nodes.values()):
            if node.is_leaf:
                splits.append((0, 0.0, k, k))
            elif isinstance(node.threshold, (float, np.floating)) or (
                isinstance(node.threshold, (int, np.integer)) and abs(node.threshold) <= 2**53
            ):
                feature = min(node.feature, np.iinfo(np.intp).max)  # past any row's length either way
                splits.append((feature, float(node.threshold), *(index[c] for c in node.children)))
            else:
                return None
        feature, threshold, left, right = zip(*splits)
        as_index = lambda col: np.array(col, dtype=np.intp)
        return (list(index), index[self.root], as_index(feature), np.array(threshold), as_index(left),
                as_index(right), self.depth())

    @cached_property
    def _leaf_paths(self) -> "_LeafPaths":
        """Each leaf's root-to-leaf edges, their child predictions and the
        children's indices in self.nodes order, resolved on a leaf's first
        use: all of them would take memory quadratic in the depth of a
        chain-shaped template."""
        return _LeafPaths(self.nodes, self.parent, self.root)

    def traverse(self, x) -> list[Edge]:
        """Root-to-leaf edge path for input x; length equals the leaf's depth."""
        return list(self._leaf_paths[self._leaf(x)][0])

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
        """The tree of to_dict()'s form: `nodes` a list of objects, each node's
        `children`, when present, a list of ids."""
        if not isinstance(data["nodes"], list):
            raise TypeError(f"nodes must be a list of objects, got {type(data['nodes']).__name__}")
        nodes = []
        for k, item in enumerate(data["nodes"]):
            if not isinstance(item, dict):
                raise ValueError(f"node {k} must be an object, got {item!r}")
            children = [] if item.get("children") is None else item["children"]
            if not isinstance(children, list):
                raise ValueError(f"node {item.get('id', k)!r} needs a list of children, got {children!r}")
            nodes.append(TreeNode(
                id=str(item["id"]),
                children=tuple(str(c) for c in children),
                feature=item.get("feature"),
                threshold=item.get("threshold"),
                prediction=item.get("prediction"),
            ))
        return cls(nodes, str(data["root"]))


class _LeafPaths(dict):
    """TemplateTree._leaf_paths: leaf -> (edges, child predictions, child
    indices), each computed when first looked up.  It holds the tree's node
    map and parent links, not the tree, so that no reference cycle keeps the
    tree alive until the next garbage collection."""

    def __init__(self, nodes: dict[str, TreeNode], parent: dict[str, str], root: str):
        super().__init__()
        self._nodes, self._parent, self._root = nodes, parent, root
        self._index = {nid: k for k, nid in enumerate(nodes)}

    def __missing__(self, leaf: str) -> tuple[list[Edge], list, list[int]]:
        edges, child = [], leaf
        while child != self._root:
            edges.append((self._parent[child], child))
            child = self._parent[child]
        edges.reverse()
        path = self[leaf] = edges, [self._nodes[c].prediction for _, c in edges], [self._index[c] for _, c in edges]
        return path


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
    leaves, stack = [], [tree.root]
    while stack:
        nid = stack.pop()
        if (nid != tree.root and nid in pruning.pruned_at) or tree.nodes[nid].is_leaf:
            leaves.append(nid)
        else:
            stack.extend(reversed(tree.nodes[nid].children))
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


class TreeRounds(tuple):
    """(x, loss_fn) rounds that route and price their rows over a tree once,
    on first use, and keep that pricing: TreeLearner.play_rounds and
    best_pruning, given the same TreeRounds and tree, share one."""

    _priced: tuple | None = None  # (tree, its pricing)

    def pricing(self, tree: TemplateTree) -> tuple[list[str], np.ndarray]:
        if self._priced is None or self._priced[0] is not tree:
            self._priced = tree, _price(tree, self)
        return self._priced[1]


def _price(tree: TemplateTree, rounds) -> tuple[list[str], np.ndarray]:
    """The leaf of each row, and loss_fn(prediction) of every edge on every
    row's path, row by row in path order, unchecked.  The rows are routed
    once, by route_rows when every x is a float64 array of one length
    (route_child compares other types, such as Python ints or float32, in
    ways a float64 array would not), else row by row; then each row's loss
    closure is called once per edge on its path.  A route or closure that
    raises does so in row order, as a row-by-row pass would."""
    xs = [x for x, _ in rounds]
    leaves = None
    if set(map(type, xs)) == {np.ndarray} and set(map(attrgetter("dtype"), xs)) == {np.dtype(np.float64)}:
        try:
            leaves = tree.route_rows(np.array(xs))
        except ValueError:  # ragged rows, or a missing feature: route_child decides, row by row
            pass
    routed = leaves is not None
    leaves = leaves if routed else []
    paths = tree._leaf_paths

    def values():
        for t, (x, loss_fn) in enumerate(rounds):
            if not routed:
                leaves.append(tree._leaf(x))
            yield from map(float, map(loss_fn, paths[leaves[t]][1]))

    return leaves, np.fromiter(values(), float)


def _pricing(tree: TemplateTree, rounds) -> tuple[list[str], np.ndarray]:
    """The rounds' pricing over the tree: a TreeRounds' kept one, else a new one."""
    return rounds.pricing(tree) if isinstance(rounds, TreeRounds) else _price(tree, rounds)


class TreeLearner:
    """Online forecaster mixing edge-expert predictions of a template tree.

    Edges are the ids of a SleepingRegistry.  A leaf's edges and their child
    predictions are the template's (TemplateTree._leaf_paths); the learner
    keeps only each reached leaf's bank rows, registered on the leaf's first
    round.  New edges are registered in path order and never before their
    ancestors, so rows ascend along every path.  A call routes x to its leaf
    and calls the registry's bank with the leaf's rows, which gives the
    mapping API's results bit for bit (every confidence is 1).
    play_round does a whole round in one pass, routing x once and computing
    the bank's weights once for both the prediction and the update; it equals
    predict(x) followed by update(x, loss_fn) bit for bit.  play_rounds routes
    and prices a whole run's rows once, up front, and checks their losses in
    one call.
    """

    def __init__(self, tree: TemplateTree):
        self.tree = tree
        self.registry = SleepingRegistry()
        self._leaf_rows: dict[str, np.ndarray] = {}  # leaf -> bank rows of its path's edges

    @property
    def edges_seen(self) -> int:
        """Distinct traversed edges so far (the live expert count)."""
        return self.registry.seen_count

    def _weigh(self, leaf: str) -> tuple[np.ndarray, np.ndarray, float]:
        """The bank rows of a leaf's path, registering them on first use, their
        weights and the mixture prediction."""
        edges, preds, _ = self.tree._leaf_paths[leaf]
        rows = self._leaf_rows.get(leaf)
        if rows is None:
            rows = self._leaf_rows[leaf] = self.registry._register(edges)
        p = self.registry._bank.predict(rows)
        return rows, p, float(sum(w * pred for w, pred in zip(p.tolist(), preds)))

    def predict(self, x) -> float:
        """Convex combination of child predictions along the traversed path."""
        return self._weigh(self.tree._leaf(x))[2]

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
        leaf = self.tree._leaf(x)
        losses = check_losses([float(loss_fn(pred)) for pred in self.tree._leaf_paths[leaf][1]])
        rows, p, y = self._weigh(leaf)
        return y, self.registry._bank.update(losses, rows, p=p)

    def play_rounds(self, rounds: list[tuple], block: int) -> tuple[list, float, tuple[np.ndarray, ...]]:
        """play_round every (x, loss_fn) in turn; return the player losses, the total loss_fn(prediction)
        and the registry's round_record() after every round as four arrays, computed by round_records
        from the states saved `block` rounds at a time (no record feeds back into the learner).
        The rows are routed and priced once, up front (kept on a TreeRounds for best_pruning), and
        their losses checked in one call; when that fails, the rounds replay through play_round,
        which raises at the round and with the message of the loop, leaving the loop's registry."""
        played = self._play(rounds)
        bank = self.registry._bank
        R, C = np.zeros((2, block, len(self.tree.parent)))  # row k: the bank after round k of a block
        sizes = np.zeros(block, dtype=int)
        losses, records, realized_total = [], [tuple(np.empty((4, 0)))], 0.0  # empty records for no rounds
        for t, (loss_fn, y, player_loss) in enumerate(played):
            realized_total += float(loss_fn(y))  # not sum(): from Python 3.12 on it compensates float sums
            losses.append(player_loss)
            k = t % block
            n = sizes[k] = bank.q.size
            R[k, :n], C[k, :n] = bank.R, bank.C
            if k == block - 1 or t == len(rounds) - 1:
                records.append(self.registry.round_records(R[: k + 1], C[: k + 1], sizes[: k + 1]))
        return losses, realized_total, tuple(map(np.concatenate, zip(*records)))

    def _play(self, rounds):
        """An iterator of (loss_fn, prediction, player loss) of each round in
        turn: from the rounds' one pricing, else from play_round."""
        try:
            leaves, edge_losses = _pricing(self.tree, rounds)
            edge_losses = check_losses(edge_losses)
        except Exception:  # any failure of the up-front pass: play_round raises it at its round
            leaves = None
        if leaves is None:  # replayed outside the except block, so that no error chains onto the pricing's
            for x, loss_fn in rounds:
                yield loss_fn, *self.play_round(x, loss_fn)
            return
        bank, start = self.registry._bank, 0
        for (_, loss_fn), leaf in zip(rounds, leaves):
            rows, p, y = self._weigh(leaf)
            end = start + rows.size
            yield loss_fn, y, bank.update(edge_losses[start:end], rows, p=p)
            start = end

    def pruning_certificate(self, pruning: PruningTree) -> float:
        """m * (regret bound for u uniform over the pruning's terminal edges).

        Exactly one terminal edge of the pruning is awake each round, so the
        forecaster's excess loss over the pruning is at most this value.
        Returns +inf if some terminal edge was never traversed.
        """
        edges = [(self.tree.parent[nid], nid) for nid in _effective_leaves(self.tree, pruning)]
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
    The rows are routed and priced once, and not again when data is a
    TreeRounds that TreeLearner.play_rounds has priced over the same tree;
    each node's loss adds its rows' losses in row order.
    """
    if not data:
        raise ValueError("data must be nonempty")
    (row_leaves, losses), paths = _pricing(tree, data), tree._leaf_paths
    # node -> loss of predicting with it; bincount adds each node's losses in row order, from 0.0
    nodes = [k for leaf in row_leaves for k in paths[leaf][2]]
    hit_loss = dict(zip(tree.nodes, np.bincount(nodes, losses, len(tree.nodes)).tolist()))
    total, leaves, pruned = _best_subtree(tree, hit_loss, tree.root)
    pruning = PruningTree(frozenset(pruned))
    pruning.validate(tree)
    return total, leaves, pruning


def _best_subtree(tree: TemplateTree, hit_loss: dict[str, float], nid: str) -> tuple[float, int, list[str]]:
    """(loss, leaves, pruned nodes) of the best pruning of nid's subtree, by
    one pass over its nodes in reverse pre-order, each after its children, so
    that a template of any depth fits.  A node's subtree adds its children's
    best losses in child order, from 0.0.  A module function, not a closure,
    so that no reference cycle keeps the tree and its routing tables alive
    until the next garbage collection."""
    order, stack = [], [nid]
    while stack:  # pre-order: every node before its descendants
        order.append(stack.pop())
        stack.extend(tree.nodes[order[-1]].children)
    best: dict[str, tuple[float, int, list[str]]] = {}
    for node in reversed(order):
        children = tree.nodes[node].children
        sub_loss, sub_leaves, sub_pruned = 0.0, 0, []
        for child in children:
            loss, leaves, pruned = best.pop(child)
            sub_loss += loss
            sub_leaves += leaves
            sub_pruned += pruned
        if not children:
            best[node] = hit_loss[node], 1, []
        # ties collapse to the single leaf, unreached subtrees (0 against 0) included
        elif node != tree.root and hit_loss[node] <= sub_loss:
            best[node] = hit_loss[node], 1, [node]
        else:
            best[node] = sub_loss, sub_leaves, sub_pruned
    return best[nid]


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
    """CSV with feature columns f0..fk and target column z, as (x, z) pairs
    whose x are the rows of one (rows, k) float array.  Each row is checked
    as it is read, so the error names the first bad row and its line: its
    cell count against the header's, its features' parse and NaN, then its
    target's parse and range.  Blank lines are skipped; a repeated column name takes
    its last column.  The features are the columns named f<digits>; any other
    column but z, such as id or fold, is ignored.  A UTF-8 byte-order mark
    is skipped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or "z" not in header:
            raise ValueError("data file needs feature columns f0..fk and a target column z")
        feat_cols = sorted((c for c in header if re.fullmatch(r"f[0-9]+", c)), key=lambda c: int(c[1:]))
        if feat_cols != [f"f{k}" for k in range(len(feat_cols))]:
            raise ValueError(f"feature columns must be f0..f{len(feat_cols) - 1}, got {feat_cols}")
        column = {name: k for k, name in enumerate(header)}
        features, target, width = [column[c] for c in feat_cols], column["z"], len(header)
        values = array("d")
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise ValueError(f"line {reader.line_num} has {len(row)} cells, the header has {width}")
            try:
                x = [float(row[c]) for c in features]
                if any(map(math.isnan, x)):  # x[f] < threshold is false for NaN, which would silently pick a child
                    raise ValueError("feature value NaN")
                z = float(row[target])
                if not 0.0 <= z <= 1.0:
                    raise ValueError(f"target {z} outside [0, 1]")
            except ValueError as exc:
                raise ValueError(f"{exc} on line {reader.line_num}") from None
            values.extend(x)
            values.append(z)
    if not values:
        raise ValueError("data file is empty")
    data = np.array(values).reshape(-1, len(features) + 1)
    return list(zip(data[:, :-1], data[:, -1].tolist()))


def save_tree_data(data: list[tuple[np.ndarray, float]], path) -> None:
    n_features = len(data[0][0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{k}" for k in range(n_features)] + ["z"])
        for x, z in data:
            writer.writerow([repr(float(v)) for v in x] + [repr(float(z))])
