"""Whole-trace plays against their per-round loops, on generated traces.

FixedLearner.play_trace and HedgeLearner.play_trace against one update() a
round, and TreeLearner.play_rounds against one play_round() a round.  Each
case plays both ways and requires the same bytes out, or the same exception
with the same message, and the same learner state after either.  Traces cross
multiples of RECORD_BLOCK (64) rounds, and a case may hold one bad loss cell,
a learning rate schedule that fails at a drawn round, a row that lacks a
feature, or a loss closure that fails at a drawn row.  Tree rows are float64,
float32 or int arrays, lists, or ragged float64 arrays of several lengths.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hedgelab.fixed import FixedLearner
from hedgelab.lab import HedgeLearner, default_eta_schedule, rng_for
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
# HedgeLearner.play_trace, whose blocks take the totals by a cumsum from the carried L
# ---------------------------------------------------------------------------


def failing_schedule(n, round_, value):
    """The default learning rates of n experts, but `value` at round `round_` (1-based; None for no such round)."""
    default = default_eta_schedule(n)
    return lambda t: value if t == round_ else default(t)


@st.composite
def hedge_cases(draw):
    n, seeds = draw(st.sampled_from([1, 2, 3, 10])), draw(st.sampled_from([None, 2]))
    played = draw(st.sampled_from([0, 0, 1, 63, 70]))  # rounds played one update() a round before the trace
    t_len = draw(st.one_of(st.integers(0, 200), st.sampled_from(BLOCK_EDGES)))
    losses = rng_for(draw(st.integers(0, 2**16)), 6).random((played + t_len, *(() if seeds is None else (seeds,)), n))
    bad_round = bad_cell = None
    if t_len and draw(st.booleans()):
        bad_round = played + 1 + draw(st.integers(0, t_len - 1))  # of the schedule, 1-based
    if t_len and draw(st.booleans()):
        bad_cell = (played + draw(st.integers(0, t_len - 1)), *(draw(st.integers(0, s - 1)) for s in losses.shape[1:]))
        losses[bad_cell] = draw(st.sampled_from(BAD_CELLS))
    schedule = failing_schedule(n, bad_round, draw(st.sampled_from([0.0, math.nan, math.inf])))
    fails = bad_cell is not None or (bad_round is not None and n > 1)  # one expert's rate is never asked for
    return n, seeds, schedule, losses[:played], losses[played:], fails


def hedge_rounds(learner, losses):
    """One update() a round: the player losses, (T,) or (T, S) for S seeds."""
    return np.array([learner.update(lvec) for lvec in losses], dtype=float).reshape(losses.shape[:-1])


def hedge_state(learner):
    return learner.t, learner.L.tobytes()


@SETTINGS
@given(case=hedge_cases())
def test_hedge_play_trace_is_the_round_loop(case):
    n, seeds, schedule, before, losses, fails = case
    whole, loop = (HedgeLearner(n, schedule, seeds=seeds) for _ in range(2))
    for learner in (whole, loop):
        for lvec in before:  # the trace's totals start from the carried L
            learner.update(lvec)
    got, got_error = outcome(lambda: whole.play_trace(losses))
    expected, expected_error = outcome(lambda: hedge_rounds(loop, losses))
    assert got_error == expected_error
    assert (got_error is not None) == fails
    if not fails:
        assert same_bytes(got, expected)
    assert hedge_state(whole) == hedge_state(loop)


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
    kinds = {
        "float64": lambda: list(X),
        "float32": lambda: list(X.astype(np.float32)),
        "list": X.tolist,
        "int": lambda: list((2.0 * X).astype(np.int64)),  # 0 or 1: every split's threshold lies in (0, 1)
        "ragged": lambda: [np.append(x, rng.uniform(0.0, 1.0, j)) for x, j in zip(X, rng.integers(0, 3, t_len))],
    }
    xs = kinds[draw(st.sampled_from(list(kinds)))]()
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
