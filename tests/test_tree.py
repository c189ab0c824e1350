import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from hedgelab import tree as tree_module
from hedgelab.lab import rng_for
from hedgelab.sleeping import SleepingRegistry
from hedgelab.tree import (
    PruningTree,
    TemplateTree,
    TreeLearner,
    TreeNode,
    TreeRounds,
    absolute_loss,
    best_pruning,
    best_pruning_bruteforce,
    generate_tree_data,
    load_tree,
    load_tree_data,
    pruning_leaves,
    pruning_predict,
    random_template_tree,
    save_tree,
    save_tree_data,
    squared_loss,
)

REL = 1e-9


@pytest.fixture
def depth1_tree():
    return TemplateTree(
        [
            TreeNode("root", children=("l", "r"), feature=0, threshold=0.5),
            TreeNode("l", prediction=0.2),
            TreeNode("r", prediction=0.9),
        ],
        "root",
    )


@pytest.fixture
def depth2_tree():
    # root splits on x0 at 0.5; left child splits on x1 at 0.4
    return TemplateTree(
        [
            TreeNode("root", children=("a", "b"), feature=0, threshold=0.5),
            TreeNode("a", children=("al", "ar"), feature=1, threshold=0.4, prediction=0.5),
            TreeNode("b", prediction=1.0),
            TreeNode("al", prediction=0.0),
            TreeNode("ar", prediction=0.25),
        ],
        "root",
    )


class TestTemplateValidation:
    def test_missing_prediction_rejected(self):
        with pytest.raises(ValueError):
            TemplateTree(
                [
                    TreeNode("root", children=("l", "r"), feature=0, threshold=0.5),
                    TreeNode("l"),
                    TreeNode("r", prediction=0.9),
                ],
                "root",
            )

    def test_two_parents_rejected(self):
        with pytest.raises(ValueError):
            TemplateTree(
                [
                    TreeNode("root", children=("l", "l"), feature=0, threshold=0.5),
                    TreeNode("l", prediction=0.1),
                ],
                "root",
            )

    def test_unreachable_node_rejected(self):
        with pytest.raises(ValueError):
            TemplateTree(
                [
                    TreeNode("root", children=("l", "r"), feature=0, threshold=0.5),
                    TreeNode("l", prediction=0.1),
                    TreeNode("r", prediction=0.2),
                    TreeNode("orphan", prediction=0.3),
                ],
                "root",
            )

    def test_root_prediction_rejected(self):
        with pytest.raises(ValueError):
            TemplateTree(
                [
                    TreeNode("root", children=("l", "r"), feature=0, threshold=0.5, prediction=0.5),
                    TreeNode("l", prediction=0.1),
                    TreeNode("r", prediction=0.2),
                ],
                "root",
            )

    def test_leaf_root_rejected(self):
        with pytest.raises(ValueError):
            TemplateTree([TreeNode("root")], "root")

    @pytest.mark.parametrize(
        "feature,threshold",
        [(0.5, 0.5), (True, 0.5), (np.float64(1.0), 0.5), (0, "0.5"), (0, math.nan), (0, True)],
        ids=[
            "fractional-feature", "bool-feature", "float-feature",
            "string-threshold", "nan-threshold", "bool-threshold",
        ],
    )
    def test_bad_split_rejected(self, feature, threshold):
        nodes = [TreeNode("root", children=("l", "r"), feature=feature, threshold=threshold)]
        with pytest.raises(ValueError, match="internal node 'root' needs"):
            TemplateTree(nodes + [TreeNode("l", prediction=0.1), TreeNode("r", prediction=0.2)], "root")


class TestTraverse:
    def test_depth1_single_edge(self, depth1_tree):
        assert depth1_tree.traverse([0.1]) == [("root", "l")]
        assert depth1_tree.traverse([0.9]) == [("root", "r")]

    def test_leftmost_path(self, depth2_tree):
        assert depth2_tree.traverse([0.0, 0.0]) == [("root", "a"), ("a", "al")]

    def test_fixture_threshold_routing(self, depth2_tree):
        # x = (0.2, 0.9): left at root (0.2 < 0.5), right at a (0.9 >= 0.4)
        assert depth2_tree.traverse([0.2, 0.9]) == [("root", "a"), ("a", "ar")]

    def test_missing_feature_rejected(self, depth2_tree):
        with pytest.raises(ValueError):
            depth2_tree.traverse([0.2])

    def test_path_length_is_depth(self):
        rng = rng_for(1, 2)
        tree = random_template_tree(3, 2, rng)
        assert len(tree.traverse(rng.uniform(0, 1, 2))) == 3
        assert tree.depth() == 3


class TestTreeLearner:
    def test_depth1_prediction_is_leaf_value(self, depth1_tree):
        learner = TreeLearner(depth1_tree)
        assert learner.predict([0.1]) == pytest.approx(0.2, rel=REL)

    def test_equal_path_predictions_collapse(self):
        tree = TemplateTree(
            [
                TreeNode("root", children=("a", "b"), feature=0, threshold=0.5),
                TreeNode("a", children=("al", "ar"), feature=0, threshold=0.25, prediction=0.7),
                TreeNode("b", prediction=0.1),
                TreeNode("al", prediction=0.7),
                TreeNode("ar", prediction=0.7),
            ],
            "root",
        )
        learner = TreeLearner(tree)
        learner.update([0.1], squared_loss(0.3))
        assert learner.predict([0.1]) == pytest.approx(0.7, rel=REL)

    def test_an_empty_run_records_four_empty_arrays(self, depth2_tree):
        losses, total, records = TreeLearner(depth2_tree).play_rounds([], 4)
        assert losses == [] and total == 0.0
        assert [(r.dtype, r.shape) for r in records] == [(np.dtype(float), (0,))] * 4

    def test_mixture_loss_dominates_realized(self, depth2_tree):
        learner = TreeLearner(depth2_tree)
        rng = rng_for(2, 2)
        for _ in range(60):
            x = rng.uniform(0, 1, 2)
            z = float(rng.uniform(0, 1))
            loss_fn = squared_loss(z)
            y = learner.predict(x)
            lhat = learner.update(x, loss_fn)
            assert loss_fn(y) <= lhat + 1e-12

    def test_update_after_one_round_matches_replay(self, depth1_tree):
        learner = TreeLearner(depth1_tree)
        lhat = learner.update([0.1], squared_loss(0.0))
        # single awake edge: p = 1 on it, so the mixture loss is its own loss
        assert lhat == pytest.approx(0.2 ** 2, rel=REL)
        assert learner.registry.state(("root", "l")).R == pytest.approx(0.0, abs=1e-15)

    def test_two_edge_path_mixture(self):
        # fresh weights tie, path edges predict 0 and 1, target 0: edge losses
        # (0, 1), mixture loss 0.5, realized squared loss 0.25
        tree = TemplateTree(
            [
                TreeNode("root", children=("a", "b"), feature=0, threshold=0.5),
                TreeNode("a", children=("al", "ar"), feature=0, threshold=0.25, prediction=0.0),
                TreeNode("b", prediction=0.5),
                TreeNode("al", prediction=1.0),
                TreeNode("ar", prediction=0.3),
            ],
            "root",
        )
        learner = TreeLearner(tree)
        loss_fn = squared_loss(0.0)
        y = learner.predict([0.1])  # path edges predict 0.0 and 1.0
        assert y == pytest.approx(0.5, rel=REL)
        lhat = learner.update([0.1], loss_fn)
        assert lhat == pytest.approx(0.5, rel=REL)
        assert loss_fn(y) == pytest.approx(0.25, rel=REL)
        assert loss_fn(y) <= lhat

    def test_two_round_trace_matches_scalar_replay(self):
        from hedgelab.potential import weight

        tree = TemplateTree(
            [
                TreeNode("root", children=("a", "b"), feature=0, threshold=0.5),
                TreeNode("a", children=("al", "ar"), feature=0, threshold=0.25, prediction=0.0),
                TreeNode("b", prediction=0.5),
                TreeNode("al", prediction=1.0),
                TreeNode("ar", prediction=0.3),
            ],
            "root",
        )
        learner = TreeLearner(tree)
        learner.update([0.1], squared_loss(0.0))  # edges (root,a)=0, (a,al)=1
        # replay by hand: lhat1 = 0.5, r = conf*(lhat - loss) per edge
        assert learner.registry.state(("root", "a")).R == pytest.approx(0.5, rel=REL)
        assert learner.registry.state(("a", "al")).R == pytest.approx(-0.5, rel=REL)
        # second round, same path, target 1: edge predictions (0, 1) ->
        # losses (1, 0); weights now differ
        wa, wl = weight(0.5, 0.5), weight(-0.5, 0.5)
        pa = wa / (wa + wl)
        lhat2 = learner.update([0.1], squared_loss(1.0))
        assert lhat2 == pytest.approx(pa * 1.0 + (1 - pa) * 0.0, rel=REL)
        assert learner.registry.state(("root", "a")).R == pytest.approx(0.5 + lhat2 - 1.0, rel=REL)
        assert learner.registry.state(("a", "al")).R == pytest.approx(-0.5 + lhat2, rel=REL)

    def test_edge_loss_range_enforced(self, depth1_tree):
        learner = TreeLearner(depth1_tree)
        with pytest.raises(ValueError):
            learner.update([0.1], lambda y: 2.0)

    def test_edges_seen_bounded_by_depth_times_rounds(self):
        rng = rng_for(3, 2)
        tree = random_template_tree(3, 3, rng)
        learner = TreeLearner(tree)
        for t in range(1, 41):
            x = rng.uniform(0, 1, 3)
            learner.update(x, squared_loss(0.5))
            assert learner.edges_seen <= t * tree.depth()


class MappingTreeLearner:
    """The tree learner written against the registry's mapping API: route,
    build the awake edge map, and let the registry sort the rows each round.
    The reference for TreeLearner's per-leaf memo."""

    def __init__(self, tree):
        self.tree = tree
        self.registry = SleepingRegistry()

    def _edge_values(self, x):
        path = self.tree.traverse(x)
        return path, np.array([self.tree.nodes[child].prediction for _, child in path])

    def predict(self, x):
        path, preds = self._edge_values(x)
        p = self.registry.predict({edge: 1.0 for edge in path})
        return float(sum(p[edge] * pred for edge, pred in zip(path, preds)))

    def update(self, x, loss_fn):
        path, preds = self._edge_values(x)
        return self.registry.update({edge: (1.0, float(loss_fn(pred))) for edge, pred in zip(path, preds)})


def assert_same_registry(a, b):
    assert a.ids() == b.ids()
    for name in ("q", "R", "C"):
        assert getattr(a._bank, name).tobytes() == getattr(b._bank, name).tobytes(), name


class TestLeafMemoEquivalence:
    """TreeLearner equals the mapping-API learner bit for bit: predictions,
    player losses, registration order and every row's (q, R, C)."""

    @pytest.mark.parametrize("depth", [2, 3, 4, 5, 6])
    def test_random_trees(self, depth):
        rng = rng_for(100 + depth, 2)
        n_features = 3
        tree = random_template_tree(depth, n_features, rng)
        memo, ref = TreeLearner(tree), MappingTreeLearner(tree)
        for _ in range(300):
            x = rng.uniform(0, 1, n_features)
            loss_fn = (squared_loss if rng.random() < 0.5 else absolute_loss)(float(rng.uniform(0, 1)))
            if rng.random() < 0.7:  # otherwise the round starts with update
                assert memo.predict(x) == ref.predict(x)
            assert memo.update(x, loss_fn) == ref.update(x, loss_fn)
        assert memo.edges_seen == ref.registry.seen_count
        assert_same_registry(memo.registry, ref.registry)

    def test_update_before_predict_registers_path_in_order(self, depth2_tree):
        memo, ref = TreeLearner(depth2_tree), MappingTreeLearner(depth2_tree)
        for x, z in [([0.9, 0.0], 0.3), ([0.1, 0.9], 0.8), ([0.1, 0.1], 0.0), ([0.1, 0.9], 1.0)]:
            assert memo.update(x, squared_loss(z)) == ref.update(x, squared_loss(z))
            assert memo.predict(x) == ref.predict(x)
        assert memo.registry.ids() == [("root", "b"), ("root", "a"), ("a", "ar"), ("a", "al")]
        assert_same_registry(memo.registry, ref.registry)

    def test_bad_loss_registers_nothing(self, depth2_tree):
        memo, ref = TreeLearner(depth2_tree), MappingTreeLearner(depth2_tree)
        for learner in (memo, ref):
            learner.update([0.9, 0.0], squared_loss(0.5))
            with pytest.raises(ValueError, match=r"losses must lie in \[0, 1\]"):
                learner.update([0.1, 0.1], lambda y: y - 1.5)
            assert learner.registry.ids() == [("root", "b")]
        assert memo.update([0.1, 0.1], squared_loss(0.2)) == ref.update([0.1, 0.1], squared_loss(0.2))
        assert_same_registry(memo.registry, ref.registry)

    def test_missing_feature_raises_same_error(self, depth2_tree):
        memo, ref = TreeLearner(depth2_tree), MappingTreeLearner(depth2_tree)
        for call in (lambda lr: lr.predict([0.1]), lambda lr: lr.update([0.1], squared_loss(0.5))):
            messages = []
            for learner in (memo, ref):
                with pytest.raises(ValueError) as exc:
                    call(learner)
                messages.append(str(exc.value))
                assert learner.registry.ids() == []
            assert messages[0] == messages[1] == "input has no feature 1 required by node 'a'"


class TestPlayRoundEquivalence:
    """play_round(x, loss_fn) equals the mapping-API learner's predict(x) then
    update(x, loss_fn) bit for bit, and leaves the same registry behind."""

    @pytest.mark.parametrize("depth", [2, 3, 4, 5, 6])
    def test_random_trees(self, depth):
        rng = rng_for(200 + depth, 2)
        n_features = 3
        tree = random_template_tree(depth, n_features, rng)
        learner, ref = TreeLearner(tree), MappingTreeLearner(tree)
        for _ in range(300):
            x = rng.uniform(0, 1, n_features)
            loss_fn = (squared_loss if rng.random() < 0.5 else absolute_loss)(float(rng.uniform(0, 1)))
            assert learner.play_round(x, loss_fn) == (ref.predict(x), ref.update(x, loss_fn))
            assert_same_registry(learner.registry, ref.registry)

    def test_mixes_with_predict_and_update(self, depth2_tree):
        learner, ref = TreeLearner(depth2_tree), MappingTreeLearner(depth2_tree)
        for k, (x, z) in enumerate([([0.9, 0.0], 0.3), ([0.1, 0.9], 0.8), ([0.1, 0.1], 0.0), ([0.1, 0.9], 1.0)] * 3):
            if k % 3 == 0:
                assert learner.play_round(x, squared_loss(z)) == (ref.predict(x), ref.update(x, squared_loss(z)))
            else:
                assert learner.predict(x) == ref.predict(x)
                assert learner.update(x, squared_loss(z)) == ref.update(x, squared_loss(z))
        assert_same_registry(learner.registry, ref.registry)

    def test_bad_loss_registers_nothing(self, depth2_tree):
        learner = TreeLearner(depth2_tree)
        learner.play_round([0.9, 0.0], squared_loss(0.5))
        with pytest.raises(ValueError, match=r"losses must lie in \[0, 1\]"):
            learner.play_round([0.1, 0.1], lambda y: y - 1.5)
        assert learner.registry.ids() == [("root", "b")]


    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_play_rounds_records_every_round(self, block):
        rng = rng_for(300, 2)
        tree = random_template_tree(4, 3, rng)
        rounds = [(rng.uniform(0, 1, 3), squared_loss(float(rng.uniform(0, 1)))) for _ in range(20)]
        learner, ref = TreeLearner(tree), TreeLearner(tree)
        losses, realized, records = learner.play_rounds(rounds, block)
        ref_losses, ref_realized, ref_records = [], 0.0, []
        for x, loss_fn in rounds:
            y, player_loss = ref.play_round(x, loss_fn)
            ref_losses.append(player_loss)
            ref_realized += float(loss_fn(y))
            ref_records.append(ref.registry.round_record())
        assert (losses, realized) == (ref_losses, ref_realized)
        assert [col.tolist() for col in records] == [list(col) for col in zip(*ref_records)]
        assert_same_registry(learner.registry, ref.registry)


def route_child_leaf(tree, x):
    """The leaf route_child leads x to, one split at a time."""
    nid = tree.root
    while not tree.nodes[nid].is_leaf:
        nid = tree.route_child(nid, x)
    return nid


def uneven_tree():
    """Leaves at depths 1, 2 and 3, splits on features 0, 1 and 2."""
    return TemplateTree(
        [
            TreeNode("root", children=("a", "b"), feature=0, threshold=0.5),
            TreeNode("a", prediction=0.1),
            TreeNode("b", children=("c", "d"), feature=1, threshold=0.25, prediction=0.6),
            TreeNode("c", children=("e", "f"), feature=2, threshold=0.75, prediction=0.3),
            TreeNode("d", prediction=0.9),
            TreeNode("e", prediction=0.0),
            TreeNode("f", prediction=1.0),
        ],
        "root",
    )


class TestRouteRows:
    """route_rows routes a whole (rows, k) array with the leaves route_child gives, row by row."""

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6, 7])
    def test_random_trees(self, depth):
        rng = rng_for(400 + depth, 2)
        tree = random_template_tree(depth, 3, rng)
        X = rng.uniform(0, 1, (500, 3))
        assert tree.route_rows(X) == [route_child_leaf(tree, x) for x in X]

    def test_leaves_at_different_depths(self):
        tree = uneven_tree()
        X = rng_for(7, 2).uniform(0, 1, (300, 3))
        leaves = tree.route_rows(X)
        assert leaves == [route_child_leaf(tree, x) for x in X]
        assert set(leaves) == {"a", "d", "e", "f"}

    def test_a_tie_goes_to_the_second_child(self):
        tree = uneven_tree()
        X = np.array([[0.5, 0.0, 0.0], [0.9, 0.25, 0.0], [0.9, 0.0, 0.75], [np.nextafter(0.5, 0.0), 0.0, 0.0]])
        assert tree.route_rows(X) == [route_child_leaf(tree, x) for x in X] == ["e", "d", "f", "a"]
        rng = rng_for(8, 2)
        tree = random_template_tree(5, 2, rng)
        X = rng.uniform(0, 1, (200, 2))
        for k, nid in enumerate(tree.internal_ids):  # each split's threshold, exactly, in some row
            node = tree.nodes[nid]
            X[k, node.feature] = node.threshold
        assert tree.route_rows(X) == [route_child_leaf(tree, x) for x in X]

    def test_infinite_features(self):
        tree = uneven_tree()
        X = np.array([[-np.inf, 0.0, 0.0], [np.inf, -np.inf, np.inf], [np.inf, np.inf, 0.0], [np.inf, -np.inf, -np.inf]])
        assert tree.route_rows(X) == [route_child_leaf(tree, x) for x in X] == ["a", "f", "d", "e"]

    def test_a_missing_feature_raises_at_the_first_row_that_needs_it(self):
        tree = uneven_tree()
        X = np.array([[0.1, 0.0], [0.9, 0.5], [0.9, 0.1]])  # only the last row reaches the split on f2
        with pytest.raises(ValueError, match=r"^input has no feature 2 required by node 'c'$"):
            tree.route_rows(X)
        assert tree.route_rows(X[:2]) == ["a", "d"]

    def test_play_rounds_routes_float_rows_in_one_pass(self, monkeypatch):
        # no route_child call, and each closure called once per edge, for both passes
        rng = rng_for(9, 2)
        tree = random_template_tree(4, 3, rng)
        calls = []

        def counted(z):
            loss_fn = squared_loss(z)
            return lambda y: calls.append(y) or loss_fn(y)

        rows = [(rng.uniform(0, 1, 3), float(rng.uniform(0, 1))) for _ in range(40)]
        ref = TreeLearner(tree).play_rounds([(x, squared_loss(z)) for x, z in rows], 8)
        ref_best = best_pruning(tree, [(x, squared_loss(z)) for x, z in rows])

        def no_route_child(*args):
            raise AssertionError("route_child called")

        monkeypatch.setattr(TemplateTree, "route_child", no_route_child)
        rounds = TreeRounds((x, counted(z)) for x, z in rows)
        got = TreeLearner(tree).play_rounds(rounds, 8)
        assert got[:2] == ref[:2]
        assert [a.tobytes() for a in got[2]] == [a.tobytes() for a in ref[2]]
        assert best_pruning(tree, rounds) == ref_best
        assert len(calls) == 40 * 4 + 40  # every edge of every row once, and every round's prediction


class TestPlayRoundsFailure:
    """play_rounds over rows of which row k fails raises as the per-round loop
    does: the same message after the same k rounds, with the same registry."""

    def loop(self, tree, rounds):
        learner = TreeLearner(tree)
        with pytest.raises(ValueError) as exc:
            for x, loss_fn in rounds:
                learner.play_round(x, loss_fn)
        return learner, str(exc.value)

    def assert_fails_as_the_loop(self, tree, rounds, k):
        ref, message = self.loop(tree, rounds)
        played = TreeLearner(tree)
        played.play_rounds(rounds[:k], 4)
        assert_same_registry(played.registry, ref.registry)  # the loop stopped after k rounds
        learner = TreeLearner(tree)
        with pytest.raises(ValueError) as exc:
            learner.play_rounds(rounds, 4)
        assert str(exc.value) == message
        assert_same_registry(learner.registry, ref.registry)
        return message

    @pytest.mark.parametrize("wrap", [list, TreeRounds])
    def test_a_loss_outside_the_unit_interval(self, wrap):
        rng = rng_for(10, 2)
        tree = random_template_tree(4, 3, rng)
        rounds = [(rng.uniform(0, 1, 3), squared_loss(float(rng.uniform(0, 1)))) for _ in range(30)]
        rounds[17] = (rounds[17][0], lambda y: y + 1.0)
        message = self.assert_fails_as_the_loop(tree, wrap(rounds), 17)
        assert message == "losses must lie in [0, 1]"

    @pytest.mark.parametrize("ragged", [False, True])
    def test_a_missing_feature(self, ragged):
        tree = uneven_tree()
        rng = rng_for(11, 2)
        rounds = [(np.array([rng.uniform(0.5, 1), rng.uniform(0.3, 1)] + [0.5] * ragged), absolute_loss(0.5))
                  for _ in range(12)]
        rounds[7] = (np.array([0.9, 0.1]), absolute_loss(0.5))  # reaches the split on f2
        message = self.assert_fails_as_the_loop(tree, rounds, 7)
        assert message == "input has no feature 2 required by node 'c'"

    def test_the_replayed_error_chains_onto_no_other(self):
        rounds = [(np.array([0.9, 0.5]), absolute_loss(0.5)), (np.array([0.9, 0.1]), absolute_loss(0.5))]
        with pytest.raises(ValueError, match="input has no feature 2") as exc:
            TreeLearner(uneven_tree()).play_rounds(rounds, 4)
        assert exc.value.__context__ is None and exc.value.__cause__ is None


class TestBestPruning:
    def test_recovers_generating_pruning(self):
        rng = rng_for(4, 2)
        tree = random_template_tree(3, 2, rng)
        internal = sorted(i for i in tree.internal_ids if i != tree.root)
        truth = PruningTree(frozenset(internal[:1]))
        data = [(x, squared_loss(z)) for x, z in generate_tree_data(tree, truth, 200, 2, rng)]
        loss, m, found = best_pruning(tree, data)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert found.pruned_at == truth.pruned_at
        assert m == pruning_leaves(tree, truth)

    def test_single_point_only_path_matters(self, depth2_tree):
        x = np.array([0.2, 0.9])  # path root -> a -> ar
        data = [(x, absolute_loss(0.3))]
        loss, m, found = best_pruning(depth2_tree, data)
        # candidate leaves on the path: a (|0.5-0.3|=0.2), ar (|0.25-0.3|=0.05)
        assert loss == pytest.approx(0.05, rel=REL)
        assert found.pruned_at == frozenset()

    def test_ties_break_to_fewer_leaves(self, depth2_tree):
        # a data point down branch b only: everything under a is unreached and
        # collapses to a single leaf
        data = [(np.array([0.9, 0.9]), squared_loss(1.0))]
        loss, m, found = best_pruning(depth2_tree, data)
        assert loss == pytest.approx(0.0, abs=1e-15)
        assert m == 2
        assert found.pruned_at == {"a"}

    def test_matches_bruteforce_on_random_trees(self):
        rng = rng_for(5, 2)
        for _ in range(25):
            depth = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            tree = random_template_tree(depth, k, rng)
            data = [
                (rng.uniform(0, 1, k), squared_loss(float(rng.uniform(0, 1))))
                for _ in range(int(rng.integers(1, 21)))
            ]
            loss_fast, m_fast, pruning = best_pruning(tree, data)
            loss_slow, m_slow = best_pruning_bruteforce(tree, data)
            assert loss_fast == pytest.approx(loss_slow, abs=1e-9)
            assert m_fast == m_slow
            pruning.validate(tree)

    def test_empty_data_rejected(self, depth1_tree):
        with pytest.raises(ValueError):
            best_pruning(depth1_tree, [])


class TestPruningTree:
    def test_nested_pruning_rejected(self, depth2_tree):
        bad = PruningTree(frozenset({"a", "al"}))
        with pytest.raises(ValueError):
            bad.validate(depth2_tree)

    def test_root_pruning_rejected(self, depth2_tree):
        with pytest.raises(ValueError):
            PruningTree(frozenset({"root"})).validate(depth2_tree)

    def test_pruned_prediction(self, depth2_tree):
        pruning = PruningTree(frozenset({"a"}))
        assert pruning_predict(depth2_tree, pruning, [0.1, 0.1]) == 0.5
        assert pruning_predict(depth2_tree, pruning, [0.9, 0.1]) == 1.0
        assert pruning_leaves(depth2_tree, pruning) == 2

    def test_empty_pruning_is_template(self, depth2_tree):
        empty = PruningTree(frozenset())
        assert pruning_predict(depth2_tree, empty, [0.0, 0.0]) == 0.0
        assert pruning_leaves(depth2_tree, empty) == 3


class TestCertificate:
    def test_zero_noise_certificate_holds(self):
        rng = rng_for(42, 2)
        tree = random_template_tree(3, 2, rng)
        internal = sorted(i for i in tree.internal_ids if i != tree.root)
        truth = PruningTree(frozenset(internal[:1]))
        data = generate_tree_data(tree, truth, 800, 2, rng)
        learner = TreeLearner(tree)
        realized = 0.0
        for x, z in data:
            loss_fn = squared_loss(z)
            realized += loss_fn(learner.predict(x))
            learner.update(x, loss_fn)
        loss_star, m, pruning = best_pruning(tree, [(x, squared_loss(z)) for x, z in data])
        assert loss_star == pytest.approx(0.0, abs=1e-12)
        cert = learner.pruning_certificate(pruning)
        assert math.isfinite(cert)
        assert realized - loss_star <= cert * (1 + REL)

    def test_unseen_terminal_edge_gives_infinite_certificate(self, depth2_tree):
        learner = TreeLearner(depth2_tree)
        learner.update([0.9, 0.9], squared_loss(1.0))  # only edge (root, b) awake
        cert = learner.pruning_certificate(PruningTree(frozenset()))
        assert cert == math.inf


class TestSerialization:
    def test_round_trip(self, tmp_path, depth2_tree):
        path = tmp_path / "tree.json"
        save_tree(depth2_tree, path)
        loaded = load_tree(path)
        assert loaded.to_dict() == depth2_tree.to_dict()
        raw = json.loads(path.read_text())
        assert set(raw) == {"root", "nodes"}
        assert {n["id"] for n in raw["nodes"]} == set(depth2_tree.nodes)

    def test_data_round_trip(self, tmp_path):
        rng = rng_for(6, 2)
        data = [(rng.uniform(0, 1, 3), float(rng.uniform(0, 1))) for _ in range(20)]
        path = tmp_path / "data.csv"
        save_tree_data(data, path)
        loaded = load_tree_data(path)
        assert len(loaded) == 20
        for (x1, z1), (x2, z2) in zip(data, loaded):
            np.testing.assert_array_equal(x1, x2)
            assert z1 == z2

    def test_nan_feature_rejected_inf_kept(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,f1,z\n0.5,inf,0.5\n-inf,0.5,0.5\n")
        assert [x.tolist() for x, _ in load_tree_data(path)] == [[0.5, math.inf], [-math.inf, 0.5]]
        path.write_text("f0,f1,z\n0.5,0.5,0.5\n0.5,nan,0.5\n")
        with pytest.raises(ValueError, match="feature value NaN on line 3"):
            load_tree_data(path)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("f0,f1,z\n0.5,nan,0.5\n0.5,abc,0.5\n", "feature value NaN on line 2"),
            ("f0,f1,z\n0.5,0.5,1.5\n0.5,nan,0.5\n", "target 1.5 outside"),
            ("f0,f1,z\n0.5,nan,abc\n", "feature value NaN on line 2"),
            ("f0,f1,z\n0.5,0.5,0.5\n0.5,abc,nan\n0.5,nan,0.5\n", "could not convert string to float: 'abc'"),
            ("f0,f1,z\n0.5,0.5,0.5\n\n0.5,nan,0.5\n", "feature value NaN on line 4"),
            ("f0,f1,z\n0.5,0.5\n", "line 2 has 2 cells, the header has 3"),
            ("f0,f1,z\n0.5,0.5,0.5,0.9\n", "line 2 has 4 cells, the header has 3"),
            ("f0,f1,z\n0.5,0.5,1.5\n0.5,0.5\n", "target 1.5 outside"),
            ("f0,f1,z\n0.5,0.5,0.5\n0.5,abc,0.5\n", r"could not convert string to float: 'abc' on line 3$"),
            ("f0,f1,z\n0.5,0.5,0.5\n\n0.5,0.5,abc\n", r"could not convert string to float: 'abc' on line 4$"),
            ("f0,f1,z\n0.5,0.5,0.5\n0.5,0.5,1.5\n", r"target 1\.5 outside \[0, 1\] on line 3$"),
            ("f0,f1,z\n0.5,0.5,-0.25\n", r"target -0\.25 outside \[0, 1\] on line 2$"),
        ],
        ids=["nan-before-bad-cell", "target-before-nan", "nan-before-bad-target", "bad-cell-first",
             "blank-line", "short-row", "long-row", "target-before-short-row", "bad-feature-line",
             "bad-target-line", "target-above-one-line", "target-below-zero-line"],
    )
    def test_the_first_bad_row_names_the_error(self, tmp_path, text, message):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{message}"):
            load_tree_data(path)

    def test_rows_share_one_array(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,f1,z\n0.5,0.25,1\n-0.0,2,0.0\n")
        data = load_tree_data(path)
        assert [(x.tolist(), z) for x, z in data] == [([0.5, 0.25], 1.0), ([-0.0, 2.0], 0.0)]
        assert data[0][0].base is data[1][0].base is not None
        assert all(type(z) is float for _, z in data)

    @pytest.mark.parametrize(
        "text,rows",
        [
            ('f0,f1,z\r\n"0.5",0.25,1\r\n\r\n-0.0, 2 ,"0.0"\r\n\r\n', [([0.5, 0.25], 1.0), ([-0.0, 2.0], 0.0)]),
            ("f0,z,f1,z\n0.1,0.9,0.2,0.3\n", [([0.1, 0.2], 0.3)]),
            ("f0,id,f1,z\n0.5,7,0.25,0.5\n", [([0.5, 0.25], 0.5)]),
        ],
        ids=["crlf-quotes-blank-lines", "repeated-column", "other-column"],
    )
    def test_csv_dialect_and_columns(self, tmp_path, text, rows):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        assert repr([(x.tolist(), z) for x, z in load_tree_data(path)]) == repr(rows)  # repr tells -0.0 from 0.0

    def test_a_line_of_blanks_is_a_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,f1,z\n0.5,0.5,0.5\n \n")
        with pytest.raises(ValueError, match="^line 3 has 1 cells, the header has 3$"):
            load_tree_data(path)

    def test_data_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_tree_data(path)


def load_fixture_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "make_tree_fixture.py"
    spec = importlib.util.spec_from_file_location("make_tree_fixture", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFixtureScript:
    def test_depth5_writes_valid_fixture(self, tmp_path, monkeypatch, capsys):
        script = load_fixture_script()
        out = tmp_path / "fixtures"
        monkeypatch.setattr("sys.argv", ["make_tree_fixture.py", "--depth", "5", "--samples", "40", "--out", str(out)])
        script.main()
        tree = load_tree(out / "tree.json")
        assert tree.depth() == 5
        assert len(load_tree_data(out / "data.csv")) == 40
        # n10 lies below n1, so the second cut is the first id outside n1's subtree
        assert "generating pruning: ['n1', 'n32']" in capsys.readouterr().out

    @pytest.mark.parametrize("depth", [2, 4, 6])
    def test_chosen_nodes_never_nested(self, depth):
        script = load_fixture_script()
        tree = random_template_tree(depth, 2, rng_for(depth, 2))
        left, right = tree.nodes[tree.root].children
        for count in range(1, 5):
            chosen = script.choose_pruned(tree, count)
            # the root's two children come first in id order and cover every other candidate
            assert chosen == [left, right][:count]
            PruningTree(frozenset(chosen)).validate(tree)


# ---------------------------------------------------------------------------
# Deep templates and input files.
# ---------------------------------------------------------------------------


def chain_tree_dict(depth: int) -> dict:
    """A chain-shaped template of `depth` splits on f0: split d sends x < (d + 1) / (depth + 1)
    to a leaf and the rest down the chain."""
    nodes = []
    for d in range(depth):
        node = {"id": "r" if d == 0 else f"n{d}", "feature": 0, "threshold": (d + 1) / (depth + 1),
                "children": [f"leaf{d}", f"n{d + 1}" if d + 1 < depth else "end"]}
        if d:
            node["prediction"] = 0.5
        nodes += [node, {"id": f"leaf{d}", "prediction": (d % 5) / 4}]
    return {"root": "r", "nodes": nodes + [{"id": "end", "prediction": 0.75}]}


def best_subtree_recursive(tree, hit_loss, nid):
    """best_pruning's bottom-up program as a recursion, one call per level: the reference."""
    leaf_loss = hit_loss[nid]
    if tree.nodes[nid].is_leaf:
        return leaf_loss, 1, []
    sub_loss, sub_leaves, sub_pruned = 0.0, 0, []
    for child in tree.nodes[nid].children:
        loss, leaves, pruned = best_subtree_recursive(tree, hit_loss, child)
        sub_loss += loss
        sub_leaves += leaves
        sub_pruned += pruned
    if nid != tree.root and leaf_loss <= sub_loss:
        return leaf_loss, 1, [nid]
    return sub_loss, sub_leaves, sub_pruned


class TestIterativeBestPruning:
    @pytest.mark.parametrize("make", ["chain-500", "random-6"])
    def test_matches_the_recursion(self, make, monkeypatch):
        rng = rng_for(5, 3)
        if make == "chain-500":
            tree = TemplateTree.from_dict(chain_tree_dict(500))
            xs = rng.uniform(0.0, 1.0, (400, 1))
        else:
            tree = random_template_tree(6, 3, rng)
            xs = rng.uniform(0.0, 1.0, (400, 3))
        data = [(x, squared_loss(float(z))) for x, z in zip(xs, rng.uniform(0.0, 1.0, len(xs)))]
        total, leaves, pruning = best_pruning(tree, data)
        monkeypatch.setattr(tree_module, "_best_subtree", best_subtree_recursive)
        ref_total, ref_leaves, ref_pruning = best_pruning(tree, data)
        assert np.float64(total).tobytes() == np.float64(ref_total).tobytes()
        assert (leaves, pruning) == (ref_leaves, ref_pruning)
        assert ref_pruning.pruned_at and leaves > 1  # some subtrees collapse, others do not

    def test_depth_counts_edges_on_the_longest_path(self):
        assert TemplateTree.from_dict(chain_tree_dict(2000)).depth() == 2000


class TestDataHeader:
    ROWS = "0.1,0.2,0.5\n0.7,0.4,1.0\n"

    @pytest.mark.parametrize("other", ["fold", "fx", "f", "id"])
    def test_other_columns_are_ignored(self, tmp_path, other):
        path = tmp_path / "data.csv"
        path.write_text(f"f0,{other},z\n" + self.ROWS)
        data = load_tree_data(path)
        assert [(x.tolist(), z) for x, z in data] == [([0.1], 0.5), ([0.7], 1.0)]

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("f0,f1,z\n" + self.ROWS)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        got, expected = load_tree_data(marked), load_tree_data(plain)
        assert [(x.tobytes(), z) for x, z in got] == [(x.tobytes(), z) for x, z in expected]
        assert got[0][0].tolist() == [0.1, 0.2]

    def test_the_benchmark_fixture_loads_the_same_bytes(self, tmp_path, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
        spec.loader.exec_module(workloads)
        workloads.write_tree_fixture(0, 600, tmp_path)
        data = load_tree_data(tmp_path / workloads.DATA_FILE)
        # the reference reader: every column f0..f3 then z, parsed by float()
        lines = (tmp_path / workloads.DATA_FILE).read_text().splitlines()
        assert lines[0] == "f0,f1,f2,f3,z"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array([x for x, _ in data]).tobytes() == rows[:, :-1].tobytes()
        assert np.array([z for _, z in data]).tobytes() == rows[:, -1].tobytes()
