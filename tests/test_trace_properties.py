"""Whole-trace plays against their per-round loops, on generated traces.

FixedLearner.play_trace against one update() a round, and
TreeLearner.play_rounds against one play_round() a round.  Each case plays
both ways and requires the same bytes out, or the same exception with the
same message, and the same learner state after either.  Traces cross
multiples of RECORD_BLOCK (64) rounds, and a case may hold one bad loss cell,
a row that lacks a feature, or a loss closure that fails at a drawn row.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hedgelab.fixed import FixedLearner
from hedgelab.lab import rng_for
from hedgelab.potential import RECORD_BLOCK
from hedgelab.tree import TreeLearner, TreeRounds, absolute_loss, random_template_tree, squared_loss

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
BAD_CELLS = [np.nan, np.inf, -np.inf, np.nextafter(1.0, 2.0), -np.nextafter(0.0, 1.0)]
BLOCK_EDGES = [k * RECORD_BLOCK + d for k in (1, 2, 3) for d in (-1, 0, 1)]


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def outcome(call):
    """call()'s result, or the type and message of what it raised."""
    try:
        return call(), None
    except Exception as exc:  # both ways must raise alike, whatever a loss closure raises
        return None, (type(exc), str(exc))


# ---------------------------------------------------------------------------
# FixedLearner.play_trace
# ---------------------------------------------------------------------------


@st.composite
def fixed_cases(draw):
    n, seeds = draw(st.sampled_from([1, 2, 3, 10])), draw(st.sampled_from([None, 2, 3]))
    t_len = draw(st.one_of(st.integers(0, 200), st.sampled_from(BLOCK_EDGES)))
    losses = rng_for(draw(st.integers(0, 2**16)), 5).random((t_len, *(() if seeds is None else (seeds,)), n))
    bad = None
    if t_len and draw(st.booleans()):
        bad = tuple(draw(st.integers(0, size - 1)) for size in losses.shape)
        losses[bad] = draw(st.sampled_from(BAD_CELLS))
    return n, seeds, losses, draw(st.booleans()), bad


def fixed_rounds(learner, losses, certify):
    """One update() a round: the player losses, then with certify the potential sums and caps."""
    out = np.empty((3 if certify else 1, *losses.shape[:-1]))
    for t, lvec in enumerate(losses):
        out[:, t] = learner.update(lvec, certify=certify)
    return tuple(out) if certify else out[0]


def fixed_state(learner):
    return learner.t, learner.R.tobytes(), learner.C.tobytes()


@SETTINGS
@given(case=fixed_cases())
def test_fixed_play_trace_is_the_round_loop(case):
    n, seeds, losses, certify, bad = case
    whole, loop = (FixedLearner(np.full(n, 1.0 / n), seeds=seeds) for _ in range(2))
    got, got_error = outcome(lambda: whole.play_trace(losses, certify=certify))
    expected, expected_error = outcome(lambda: fixed_rounds(loop, losses, certify))
    assert got_error == expected_error
    assert (got_error is not None) == (bad is not None)
    if bad is None:
        assert isinstance(got, tuple) == certify
        for g, e in zip(*((got, expected) if certify else ((got,), (expected,))), strict=True):
            assert same_bytes(g, e)
    else:
        assert whole.t == bad[0]
    assert fixed_state(whole) == fixed_state(loop)


# ---------------------------------------------------------------------------
# TreeLearner.play_rounds
# ---------------------------------------------------------------------------


def _raising(row):
    def loss_fn(y):
        raise RuntimeError(f"loss closure failed at row {row}")

    return loss_fn


FAILURES = {  # kind -> the closure of the failing row
    "raises": _raising,
    "nan": lambda row: lambda y: math.nan,
    "above one": lambda row: lambda y: 1.5,
}


@st.composite
def tree_cases(draw):
    rng = rng_for(draw(st.integers(0, 2**16)), 2)
    k = draw(st.integers(1, 3))
    tree = random_template_tree(draw(st.integers(1, 4)), k, rng)
    t_len = draw(st.one_of(st.integers(0, 150), st.sampled_from(BLOCK_EDGES[:6])))
    X, Z = rng.uniform(0.0, 1.0, (t_len, k)), rng.uniform(0.0, 1.0, t_len).tolist()
    kind = draw(st.sampled_from(["float64", "float32", "list"]))
    xs = list(X) if kind == "float64" else list(X.astype(np.float32)) if kind == "float32" else X.tolist()
    loss = draw(st.sampled_from([squared_loss, absolute_loss]))
    rounds = [(x, loss(z)) for x, z in zip(xs, Z)]
    fail = None
    if t_len and draw(st.booleans()):
        fail = draw(st.integers(0, t_len - 1)), draw(st.sampled_from([*FAILURES, "short row"]))
        x, loss_fn = rounds[fail[0]]
        rounds[fail[0]] = (x[:0], loss_fn) if fail[1] == "short row" else (x, FAILURES[fail[1]](fail[0]))
    if draw(st.booleans()):
        rounds = TreeRounds(rounds)
    return tree, rounds, draw(st.sampled_from([1, 4, 64])), fail


def tree_rounds(learner, rounds):
    """One play_round() a round: the player losses, the total loss_fn(prediction) and the round records."""
    losses, realized, records = [], 0.0, []
    for x, loss_fn in rounds:
        y, player_loss = learner.play_round(x, loss_fn)
        losses.append(player_loss)
        realized += float(loss_fn(y))
        records.append(learner.registry.round_record())
    return losses, realized, np.array(records).reshape(-1, 4).T


def tree_state(learner):
    bank = learner.registry._bank
    return learner.registry.ids(), bank.q.tobytes(), bank.R.tobytes(), bank.C.tobytes()


@SETTINGS
@given(case=tree_cases())
def test_tree_play_rounds_is_the_round_loop(case):
    tree, rounds, block, fail = case
    whole, loop = TreeLearner(tree), TreeLearner(tree)
    got, got_error = outcome(lambda: whole.play_rounds(rounds, block))
    expected, expected_error = outcome(lambda: tree_rounds(loop, rounds))
    assert got_error == expected_error
    assert (got_error is not None) == (fail is not None)
    if fail is None:
        assert same_bytes(got[0], expected[0]) and same_bytes(got[1], expected[1])
        assert same_bytes(np.array(got[2]), expected[2])
    assert tree_state(whole) == tree_state(loop)
