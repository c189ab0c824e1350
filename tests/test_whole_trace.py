"""Whole-trace play against the per-round loop, byte for byte.

lab.play hands a loss matrix whole to a learner with play_trace(): the fixed
learner certifies its recorded states in blocks of rounds, and hedge plays a
block of rounds per set of numpy calls.  The reference here is the public
per-round surface: update(), or update(losses, certify=True), once a round.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hedgelab import fixed, interval, potential
from hedgelab.fixed import FixedLearner
from hedgelab.interval import TvLearner
from hedgelab.lab import HedgeLearner, gen_adversarial, gen_shifting, gen_stochastic_gap, play, rng_for
from hedgelab.potential import RECORD_BLOCK, PotentialParams


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def per_round(learner, losses, certify):
    """Player losses (and potential sums and caps when certify) of one update a round, stacked over rounds."""
    if not certify:
        return np.array([learner.update(lvec) for lvec in losses])
    return tuple(map(np.array, zip(*(learner.update(lvec, certify=True) for lvec in losses))))


def state(learner):
    return (learner.L,) if isinstance(learner, HedgeLearner) else (learner.R, learner.C)


def assert_same_play(make, losses, certify, seeds=None):
    """play() of a fresh learner against the per-round loop of another: the same
    records, then the same state, and a later round with the same bits."""
    whole, loop = make(seeds), make(seeds)
    records = play(whole, losses, certificates=certify)
    expected = per_round(loop, losses, certify)
    columns = (expected,) if not certify else expected
    records = [records] if seeds is None else records
    for k, rec in enumerate(records):
        got = (rec.player_losses,) if not certify else (rec.player_losses, rec.potential_sums, rec.certificates)
        for g, e in zip(got, columns, strict=True):
            assert same_bytes(g, e if seeds is None else e[:, k])
        if not certify:
            assert rec.potential_sums is None and rec.certificates is None
    assert whole.t == loop.t == losses.shape[0]
    for a, b in zip(state(whole), state(loop), strict=True):
        assert same_bytes(a, b)
    later = rng_for(7, 9).random(losses.shape[1:])
    assert same_bytes(whole.update(later), loop.update(later))
    for a, b in zip(state(whole), state(loop), strict=True):
        assert same_bytes(a, b)


def ada(n, d=1.0):
    return lambda seeds: FixedLearner(np.full(n, 1.0 / n), PotentialParams(d), seeds=seeds)


def hedge(n):
    return lambda seeds: HedgeLearner(n, seeds=seeds)


def stacked_losses(n, t, seeds):
    """(T, N) losses for seeds=None, else (T, S, N): adversarial draws and a
    gap trace on which most weights die, so big banks gather."""
    traces = [gen_adversarial(n, t, 0).losses, gen_stochastic_gap(n, t, 0.5, 0.0, 1).losses,
              gen_adversarial(n, t, 2).losses]
    return traces[1] if seeds is None else np.stack(traces[:seeds], axis=1)


# 130 rounds: two record blocks of 64 and a tail of 2
T = 2 * RECORD_BLOCK + 2


class TestHedge:
    @pytest.mark.parametrize("n", [1, 2, 10, 33])
    @pytest.mark.parametrize("seeds", [None, 3])
    def test_whole_trace_is_the_round_loop(self, n, seeds):
        assert_same_play(hedge(n), stacked_losses(n, T, seeds), False, seeds)

    def test_past_one_dot_chunk(self):
        assert_same_play(hedge(10_001), rng_for(3, 9).random((5, 10_001)), False)

    def test_a_played_learner_carries_its_totals(self):
        # the second play's totals start from the first play's, not from zero
        losses = stacked_losses(4, T, None)
        whole, loop = hedge(4)(None), hedge(4)(None)
        play(whole, losses[:70])
        per_round(loop, losses[:70], False)
        assert same_bytes(play(whole, losses[70:]).player_losses, per_round(loop, losses[70:], False))

    def test_a_bad_learning_rate_names_the_first_bad_round(self):
        def schedule(t):
            return 0.5 if t < 100 else (0.0 if t < 110 else -1.0)

        whole, loop = HedgeLearner(3, schedule), HedgeLearner(3, schedule)
        losses = stacked_losses(3, T, None)
        with pytest.raises(ValueError, match=r"learning rate must be positive, got 0\.0 at round 100$"):
            play(whole, losses)
        with pytest.raises(ValueError, match=r"at round 100$"):
            per_round(loop, losses, False)
        assert whole.t == loop.t == 99 and same_bytes(whole.L, loop.L)


class TestFixed:
    @pytest.mark.parametrize("n", [1, 10, 100, 2048, 3000])
    def test_certified_ada_is_the_round_loop(self, n):
        assert_same_play(ada(n), stacked_losses(n, T if n < 2048 else 70, None), True)

    @pytest.mark.parametrize("n", [1, 10, 100, 2048])
    def test_certified_seeded_ada_is_the_round_loop(self, n):
        assert_same_play(ada(n), stacked_losses(n, T if n < 2048 else 70, 3), True, 3)

    @pytest.mark.parametrize("seeds", [None, 3])
    def test_dt_is_the_round_loop(self, seeds):
        assert_same_play(ada(10, 0.0), stacked_losses(10, T, seeds), False, seeds)

    def test_uncertified_ada_is_the_round_loop(self):
        assert_same_play(ada(10), stacked_losses(10, T, 2), False, 2)

    def test_a_seed_whose_weights_all_vanish(self):
        n = 2048  # a big bank, so the one seed's certificate gathers its rows
        start_R = np.stack([np.full(n, -3.0), np.linspace(-2.0, 0.5, n)])
        start_C = np.stack([np.full(n, 3.0), np.full(n, 2.0)])

        def make(seeds):
            learner = ada(n)(seeds)
            learner.R, learner.C = (start_R, start_C) if seeds else (start_R[0], start_C[0])
            return learner

        losses = rng_for(4, 9).random((40, 2, n))
        assert same_bytes(make(2).predict()[0], np.full(n, 1.0 / n))  # the prior fallback
        assert_same_play(make, losses, True, 2)
        assert_same_play(make, losses[:, 0], True)

    def test_certified_dt_raises_before_any_round(self):
        learner = ada(4, 0.0)(None)
        with pytest.raises(ValueError, match="only supported for d = 1"):
            play(learner, np.full((3, 4), 0.5), certificates=True)
        assert learner.t == 0 and not learner.R.any()


@pytest.mark.parametrize("make", [ada(5), hedge(5)], ids=["ada", "hedge"])
@pytest.mark.parametrize("seeds", [None, 2])
def test_a_late_nan_loss_raises_at_its_round(make, seeds):
    losses = stacked_losses(5, T, seeds).copy()
    losses[100, ..., 3] = np.nan
    whole, loop = make(seeds), make(seeds)
    with pytest.raises(ValueError, match=r"losses must lie in \[0, 1\]"):
        play(whole, losses, certificates=True)
    with pytest.raises(ValueError, match=r"losses must lie in \[0, 1\]"):
        per_round(loop, losses, isinstance(loop, FixedLearner))
    assert whole.t == loop.t == 100
    for a, b in zip(state(whole), state(loop), strict=True):
        assert same_bytes(a, b)


def test_losses_of_the_wrong_shape_are_refused():
    with pytest.raises(ValueError, match=r"losses must have shape \(3,\)"):
        play(HedgeLearner(3), np.full((5, 4), 0.5))
    with pytest.raises(ValueError, match=r"losses must have shape \(2, 3\)"):
        play(HedgeLearner(3, seeds=2), np.full((5, 3), 0.5))


@pytest.mark.parametrize("seeds", [None, 2])
def test_the_fixed_learner_checks_a_whole_trace_once(monkeypatch, seeds):
    calls = []
    real = fixed.check_losses
    monkeypatch.setattr(fixed, "check_losses", lambda *args: calls.append(args[1]) or real(*args))
    for certify in (False, True):
        calls.clear()
        play(ada(4)(seeds), stacked_losses(4, T, seeds), certificates=certify)
        assert calls == [(T, 4) if seeds is None else (T, seeds, 4)]  # no round checks its own


# ---------------------------------------------------------------------------
# The interval learner: play_trace against one update() a round.  The cases
# reach 3,000 copies with N = 10, past the 2,048 from which the bank gathers,
# on shifting traces whose copies mostly die and on i.i.d. ones.
# ---------------------------------------------------------------------------

BAD_CELLS = [np.nan, np.inf, -np.inf, np.nextafter(1.0, 2.0), -np.nextafter(0.0, 1.0)]


@st.composite
def tv_cases(draw):
    n = draw(st.sampled_from([1, 3, 10]))
    played, t_len = draw(st.sampled_from([0, 0, 17, 150])), draw(st.integers(0, 300))
    seed = draw(st.integers(0, 2**16))
    rows = played + t_len + 1  # gen_shifting makes no empty trace; the last row is dropped
    if draw(st.booleans()):
        losses = gen_shifting(n, rows, min(3, rows), 0.25, 0.3, seed).losses[:-1].copy()
    else:
        losses = rng_for(seed, 5).random((rows - 1, n))
    bad = None
    if t_len and draw(st.booleans()):
        bad = draw(st.integers(0, t_len - 1)), draw(st.integers(0, n - 1)), draw(st.sampled_from(BAD_CELLS))
        losses[played + bad[0], bad[1]] = bad[2]
    return n, losses[:played], losses[played:], draw(st.booleans()), bad, draw(st.booleans())


def tv_rounds(learner, losses, certify):
    """One update() a round: a row of player losses, then with certify rows of potential sums and caps."""
    records = [learner.update(lvec, certify=certify) for lvec in losses]
    return np.array(records, dtype=float).reshape(losses.shape[0], 3 if certify else 1).T


def tv_state(learner):
    return learner.t, learner._bank.q.tobytes(), learner._bank.R.tobytes(), learner._bank.C.tobytes()


def outcome(call):
    """call()'s result, or the type and message of what it raised."""
    try:
        return call(), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(case=tv_cases())
def test_tv_play_trace_is_the_round_loop(case):
    n, before, losses, certify, bad, predicted = case
    whole, loop = TvLearner(n), TvLearner(n)
    for learner in (whole, loop):
        tv_rounds(learner, before, certify)  # a learner that has already played some rounds
        if predicted:  # and may have spawned the next round's copies
            learner.predict()
    got, got_error = outcome(lambda: whole.play_trace(losses, certify=certify))
    expected, expected_error = outcome(lambda: tv_rounds(loop, losses, certify))
    assert got_error == expected_error
    assert (got_error is not None) == (bad is not None)
    if bad is None:
        assert isinstance(got, tuple) == certify
        assert same_bytes(np.array(got).reshape(expected.shape), expected)
    else:
        assert whole.t == before.shape[0] + bad[0]
    assert tv_state(whole) == tv_state(loop)


@pytest.mark.parametrize("certify", [False, True])
def test_tv_play_checks_a_whole_trace_once(monkeypatch, certify):
    calls = []
    real = interval.check_losses
    monkeypatch.setattr(interval, "check_losses", lambda *args: calls.append(args[1]) or real(*args))
    losses = gen_shifting(4, 50, 3, 0.25, 0.3, 0).losses
    record = play(TvLearner(4), losses, certificates=certify)
    assert calls == [(50, 4)]  # no round checks its own
    assert (record.potential_sums is not None) == certify


@pytest.mark.parametrize("certify", [False, True])
def test_tv_update_takes_a_whole_trace(monkeypatch, certify):
    # play_trace goes through update(), so that a timer wrapped around update() sees whole traces
    losses = gen_shifting(4, 60, 3, 0.25, 0.3, 0).losses
    whole, by_update, loop = TvLearner(4), TvLearner(4), TvLearner(4)
    seen = []
    real = TvLearner.update
    monkeypatch.setattr(TvLearner, "update", lambda self, *args, **kw: seen.append(np.shape(args[0])) or real(self, *args, **kw))
    got = whole.play_trace(losses, certify=certify)
    assert seen == [(60, 4)]
    assert same_bytes(np.array(by_update.update(losses.tolist(), certify)), np.array(got))
    monkeypatch.undo()
    assert same_bytes(np.array(got).reshape(-1, 60), tv_rounds(loop, losses, certify))
    assert tv_state(whole) == tv_state(by_update) == tv_state(loop)
    with pytest.raises(ValueError, match=r"losses must have shape \(4,\)"):
        whole.update(np.full((5, 3), 0.5))
    assert whole.t == 60


def test_tv_play_trace_across_the_gather_share():
    # past 2,048 copies the live share of these traces falls through 2/5: rounds on both sides of the gather rule;
    # past 10,000 copies (round 1,001) the certificate's dots take chunks
    for t_len, predicted in [(300, False), (1050, True)]:
        assert_tv_play_across_the_gather_share(t_len, predicted)


def assert_tv_play_across_the_gather_share(t_len, predicted):
    losses = gen_shifting(10, t_len, 3, 0.25, 0.3, 0).losses
    whole, loop, shares = TvLearner(10), TvLearner(10), []
    if predicted:  # the first round's copies are spawned before play_trace
        assert same_bytes(whole.predict(), loop.predict())
    expected = []
    for lvec in losses:
        expected.append(loop.update(lvec, certify=True))
        R = loop._bank.R
        if R.size >= potential._GATHER_MIN_SIZE:
            shares.append(5 * np.count_nonzero(R > -1.0) <= 2 * R.size)
    assert {True, False} <= set(shares)
    assert (loop._bank.q.size > potential._DOT_CHUNK) == (t_len > 1000)
    assert same_bytes(np.array(whole.play_trace(losses, certify=True)), np.array(expected).T)
    assert tv_state(whole) == tv_state(loop)
