import numpy as np
import pytest

from hedgelab import potential
from hedgelab.interval import (
    TvLearner,
    _prefixes,
    adaptive_regret,
    check_all_interval_bounds,
    interval_bound,
    segments_bound,
)
from hedgelab.lab import (
    gen_adversarial,
    gen_shifting,
    kshift_oracle,
    play,
    rng_for,
    timevarying_regret,
    truncated_loss_totals,
    tv_bound,
)
from hedgelab.potential import weight
from hedgelab.sleeping import SleepingRegistry

REL = 1e-9


class TestTvPredict:
    def test_round_one_uniform(self):
        for n in (1, 2, 5):
            np.testing.assert_allclose(TvLearner(n).predict(), np.full(n, 1.0 / n))

    def test_round_two_derived(self):
        tv = TvLearner(2)
        tv.update([0.0, 1.0])
        p = tv.predict()
        n1 = weight(0.5, 0.5) + 0.25 * weight(0.0, 0.0)
        n2 = weight(-0.5, 0.5) + 0.25 * weight(0.0, 0.0)
        np.testing.assert_allclose(p, [n1 / (n1 + n2), n2 / (n1 + n2)], rtol=REL)
        np.testing.assert_allclose(p, [0.8273336487229727, 0.1726663512770273], rtol=1e-9)

    def test_identical_losses_stay_uniform(self):
        tv = TvLearner(3)
        for _ in range(10):
            np.testing.assert_allclose(tv.predict(), np.full(3, 1.0 / 3.0), rtol=REL)
            tv.update([0.4, 0.4, 0.4])

    def test_prediction_sums_to_one(self):
        tv = TvLearner(4)
        losses = rng_for(3).random((50, 4))
        for row in losses:
            p = tv.predict()
            assert p.sum() == pytest.approx(1.0, rel=1e-12)
            assert np.all(p >= 0.0)
            tv.update(row)


class TestTvUpdate:
    def test_first_round_states(self):
        tv = TvLearner(2)
        lhat = tv.update([0.0, 1.0])
        assert lhat == pytest.approx(0.5)
        assert tv.copy_state(1, 0) == (pytest.approx(0.5), pytest.approx(0.5))
        assert tv.copy_state(1, 1) == (pytest.approx(-0.5), pytest.approx(0.5))

    def test_identical_losses_zero_regret_states(self):
        tv = TvLearner(3)
        for _ in range(8):
            tv.update([0.2, 0.2, 0.2])
        for tau in range(1, 9):
            for i in range(3):
                assert abs(tv.copy_state(tau, i)[0]) < 1e-14

    def test_second_round_derived(self):
        tv = TvLearner(2)
        tv.update([0.0, 1.0])
        lhat2 = tv.update([1.0, 0.0])
        assert lhat2 == pytest.approx(0.8273336487229727, rel=1e-9)
        assert tv.copy_state(2, 0)[0] == pytest.approx(lhat2 - 1.0, rel=REL)
        assert tv.copy_state(2, 1)[0] == pytest.approx(lhat2, rel=REL)

    def test_state_count_and_growth(self):
        tv = TvLearner(3, horizon=4)  # deliberately small preallocation
        for t in range(1, 10):
            tv.update([0.1, 0.5, 0.9])
            assert tv.n_sleeping == 3 * t

    def test_copy_states_match_fixed_learner_replay(self):
        # the copy born at tau replays a fresh fixed learner fed this player's
        # losses from tau onward (definitional spot check)
        n, t_len = 3, 30
        trace = gen_adversarial(n, t_len, 9)
        tv = TvLearner(n)
        rec = play(tv, trace.losses)
        for tau in (1, 7, 16, 30):
            r_expect = np.sum(rec.player_losses[tau - 1 :, None] - trace.losses[tau - 1 :], axis=0)
            c_expect = np.sum(np.abs(rec.player_losses[tau - 1 :, None] - trace.losses[tau - 1 :]), axis=0)
            for i in range(n):
                r, c = tv.copy_state(tau, i)
                assert r == pytest.approx(r_expect[i], rel=1e-9, abs=1e-12)
                assert c == pytest.approx(c_expect[i], rel=1e-9, abs=1e-12)

    def test_bad_losses_rejected(self):
        tv = TvLearner(2)
        with pytest.raises(ValueError):
            tv.update([0.5, 1.5])
        with pytest.raises(ValueError):
            tv.update([0.5])


    @pytest.mark.parametrize("tau,i", [(2, 3), (2, -1), (0, 0), (4, 0)])
    def test_copy_outside_the_run_rejected(self, tau, i):
        tv = TvLearner(3)
        for _ in range(3):
            tv.update([0.1, 0.5, 0.9])
        with pytest.raises(ValueError):
            tv.copy_state(tau, i)


class TestSleepingEquivalence:
    def test_bit_for_bit_against_birth_scheduled_registry(self):
        n, t_len = 3, 40
        losses = rng_for(5).random((t_len, n))
        tv = TvLearner(n)
        reg = SleepingRegistry(prior_policy=lambda key: 1.0 / key[0] ** 2)
        for t in range(1, t_len + 1):
            p_tv = tv.predict()
            conf = {(tau, i): 1.0 for tau in range(1, t + 1) for i in range(n)}
            p_sl = reg.predict(conf)
            mat = np.array([[p_sl[(tau, i)] for i in range(n)] for tau in range(1, t + 1)])
            np.testing.assert_array_equal(p_tv, mat.sum(axis=0))
            lh_tv = tv.update(losses[t - 1])
            lh_sl = reg.update(
                {(tau, i): (1.0, float(losses[t - 1, i])) for tau in range(1, t + 1) for i in range(n)}
            )
            assert lh_tv == lh_sl
        for tau in range(1, t_len + 1):
            for i in range(n):
                state = reg.state((tau, i))
                assert tv.copy_state(tau, i) == (state.R, state.C)


class TestAdaptiveRegret:
    def test_single_round(self):
        trace = gen_adversarial(3, 20, 1)
        tv = TvLearner(3)
        rec = play(tv, trace.losses)
        for t in (1, 10, 20):
            expected = rec.player_losses[t - 1] - trace.losses[t - 1, 2]
            assert adaptive_regret(rec.player_losses, trace.losses, t, t, 2) == pytest.approx(expected)

    def test_full_interval_is_total_regret(self):
        trace = gen_adversarial(4, 30, 2)
        tv = TvLearner(4)
        rec = play(tv, trace.losses)
        total = float(np.sum(rec.player_losses - trace.losses[:, 1]))
        assert adaptive_regret(rec.player_losses, trace.losses, 1, 30, 1) == pytest.approx(total)

    def test_copying_expert_gives_zero(self):
        losses = np.tile(np.array([[0.3, 0.8]]), (12, 1))
        player = np.full(12, 0.3)  # player glued to expert 0
        assert adaptive_regret(player, losses, 4, 9, 0) == 0.0

    @pytest.mark.parametrize("t1,t2", [(0, 5), (3, 2), (1, 99)])
    def test_bad_interval_rejected(self, t1, t2):
        trace = gen_adversarial(2, 10, 3)
        with pytest.raises(ValueError):
            adaptive_regret(np.zeros(10), trace.losses, t1, t2, 0)


class TestIntervalCertificates:
    def test_all_intervals_hold_on_adversarial_traces(self):
        for seed in range(3):
            trace = gen_adversarial(4, 120, seed)
            tv = TvLearner(4)
            rec = play(tv, trace.losses)
            checked, failures, worst = check_all_interval_bounds(rec.player_losses, trace.losses)
            assert checked == 120 * 121 // 2 * 4
            assert failures == 0, worst

    def test_single_bound_matches_batch_check(self):
        trace = gen_adversarial(3, 50, 7)
        tv = TvLearner(3)
        rec = play(tv, trace.losses)
        for t1, t2, i in [(1, 50, 0), (10, 31, 2), (25, 25, 1)]:
            b = interval_bound(rec.player_losses, trace.losses, t1, t2, i)
            realized = adaptive_regret(rec.player_losses, trace.losses, t1, t2, i)
            assert realized <= b * (1 + REL) + 1e-12

    def test_zero_scale_interval_bound_is_zero(self):
        losses = np.tile(np.array([[0.5, 0.5]]), (10, 1))
        tv = TvLearner(2)
        rec = play(tv, losses)
        # identical losses leave only float dust in the accumulators
        assert interval_bound(rec.player_losses, losses, 3, 7, 0) < 1e-6
        assert interval_bound(np.full(10, 0.5), losses, 3, 7, 0) == 0.0

    def test_running_potential_certificate(self):
        trace = gen_adversarial(3, 80, 11)
        tv = TvLearner(3)
        rec = play(tv, trace.losses, certificates=True)
        assert rec.certificate_violations() == 0

    def test_trace_reconstruction_matches_live_learner(self):
        # the prefix-sum certificate used for interval bounds equals the
        # learner's own potential-sum cap computed from live copy states
        from hedgelab.interval import _certificate_at, _prefixes

        trace = gen_adversarial(4, 60, 13)
        tv = TvLearner(4)
        rec = play(tv, trace.losses)
        _, pref_a = _prefixes(rec.player_losses, trace.losses)
        qtau = 1.0 / np.arange(1.0, 61.0) ** 2
        reconstructed = _certificate_at(pref_a, qtau, 60, 4)
        assert reconstructed == pytest.approx(tv.certificate(), rel=1e-12)


class TestShiftingRegret:
    def test_kshift_below_segment_certificates(self):
        trace = gen_shifting(5, 600, 3, 0.3, 0.2, seed=1)
        tv = TvLearner(5)
        rec = play(tv, trace.losses)
        oracle = kshift_oracle(trace.losses, 3, rec.player_losses)
        realized = float(rec.cum_player[-1] - oracle.loss)
        cert_sum = sum(
            interval_bound(
                rec.player_losses,
                trace.losses,
                oracle.boundaries[j] + 1,
                oracle.boundaries[j + 1],
                oracle.experts[j],
            )
            for j in range(3)
        )
        assert realized <= cert_sum * (1 + REL) + 1e-12

    def test_tracks_designed_shifts(self):
        trace = gen_shifting(4, 900, 3, 0.4, 0.1, seed=2)
        tv = TvLearner(4)
        rec = play(tv, trace.losses)
        oracle = kshift_oracle(trace.losses, 3, rec.player_losses)
        realized = float(rec.cum_player[-1] - oracle.loss)
        # the designed gap is large: per-round excess must shrink well below it
        assert realized / trace.T < 0.4 / 2


def _tv_trace(n=3, t_len=40, seed=4):
    trace = gen_shifting(n, t_len, 2, 0.3, 0.2, seed=seed)
    return play(TvLearner(n), trace.losses).player_losses, trace.losses


class TestOneCertificateFormula:
    def test_batch_worst_margin_is_the_scalar_bound(self):
        pl, losses = _tv_trace()
        pref_r, _ = _prefixes(pl, losses)
        worst = min(
            interval_bound(pl, losses, t1, t2, i) - (pref_r[t2, i] - pref_r[t1 - 1, i])
            for t2 in range(1, 41)
            for t1 in range(1, t2 + 1)
            for i in range(3)
        )
        checked, failures, batch_worst = check_all_interval_bounds(pl, losses, rel_tol=0.0)
        assert (checked, failures) == (40 * 41 // 2 * 3, 0)
        assert batch_worst.hex() == worst.hex()

    @pytest.mark.parametrize("i", [-1, 3])
    def test_interval_bound_expert_out_of_range(self, i):
        pl, losses = _tv_trace()
        with pytest.raises(ValueError):
            interval_bound(pl, losses, 5, 20, i)

    @pytest.mark.parametrize("experts", [[0], [0, 1, 2]])
    def test_segments_bound_needs_one_expert_per_segment(self, experts):
        pl, losses = _tv_trace()
        with pytest.raises(ValueError):
            segments_bound(pl, losses, [0, 20, 40], experts)


TRACE_FUNCTIONS = {
    "adaptive_regret": lambda pl, losses: adaptive_regret(pl, losses, 1, 1, 0),
    "interval_bound": lambda pl, losses: interval_bound(pl, losses, 1, 1, 0),
    "segments_bound": lambda pl, losses: segments_bound(pl, losses, [0, 1], [0]),
    "check_all_interval_bounds": check_all_interval_bounds,
    "timevarying_regret": lambda pl, losses: timevarying_regret(pl, losses, np.ones_like(losses)),
    "tv_bound": lambda pl, losses: tv_bound(pl, losses, np.ones_like(losses), 3.0),
    "truncated_loss_totals": truncated_loss_totals,
    "kshift_oracle": lambda pl, losses: kshift_oracle(losses, 1, pl),
}


@pytest.mark.parametrize("name", sorted(TRACE_FUNCTIONS))
@pytest.mark.parametrize("length", [1, 39])
def test_player_losses_of_another_length_rejected(name, length):
    pl, losses = _tv_trace()
    TRACE_FUNCTIONS[name](pl, losses)  # the matching trace is accepted
    with pytest.raises(ValueError):
        TRACE_FUNCTIONS[name](pl[:length], losses)


class TestLivenessIndex:
    """tv rounds that gather the weights and potentials on the bank's liveness
    index give the same bits as rounds that evaluate every copy."""

    @staticmethod
    def _losses(n=10, t_len=700):
        # i.i.d. rounds keep many copies live; then expert 0 wins 30 rounds and the
        # other copies die; then i.i.d. rounds again, where newborn copies stay live
        rng = np.random.default_rng(11)
        losses = rng.uniform(0.0, 1.0, (t_len, n))
        losses[250:280] = rng.uniform(0.5, 1.0, (30, n))
        losses[250:280, 0] = 0.0
        return losses

    @staticmethod
    def _play(losses):
        learner = TvLearner(losses.shape[1])
        records, gathers = [], []
        for lvec in losses:
            player_loss = learner.update(lvec)
            records.append((player_loss, *learner.certify()))
            gathers.append(potential._gather_rows(learner._bank.R, -1.0) is not None)
        return np.array(records), gathers

    def test_gathered_rounds_match_dense_rounds(self, monkeypatch):
        losses = self._losses()
        gathered, gathers = self._play(losses)
        assert gathers[potential._GATHER_MIN_SIZE // losses.shape[1]] is False  # many live copies at 2,048 rows
        flips = [b for a, b in zip(gathers, gathers[1:]) if a != b]
        assert flips[:2] == [True, False], "the live share must cross 2/5 downward, then upward"
        monkeypatch.setattr(potential, "_GATHER_MIN_SIZE", 10**9)  # no index: every round is dense
        dense, _ = self._play(losses)
        assert gathered.tobytes() == dense.tobytes()
