import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgelab.fixed import FixedLearner, relative_entropy
from hedgelab.lab import gen_adversarial, play, rng_for
from hedgelab.potential import PotentialParams, phi_arr, potential_cap, weight, weight_arr

REL = 1e-9


def uniform_learner(n, d=1.0):
    return FixedLearner(np.full(n, 1.0 / n), PotentialParams(d))


class TestConstruction:
    def test_prior_normalized(self):
        learner = FixedLearner([2.0, 2.0, 4.0])
        np.testing.assert_allclose(learner.q, [0.25, 0.25, 0.5])

    def test_prior_scale_invariance(self):
        losses = rng_for(3).random((40, 4))
        base = FixedLearner([1.0, 2.0, 3.0, 4.0])
        scaled = FixedLearner([10.0, 20.0, 30.0, 40.0])
        for row in losses:
            p1 = base.predict()
            p2 = scaled.predict()
            np.testing.assert_array_equal(p1, p2)
            base.update(row)
            scaled.update(row)

    @pytest.mark.parametrize("bad", [[], [-1.0, 2.0], [0.0, 0.0], [np.nan, 1.0]])
    def test_bad_priors_rejected(self, bad):
        with pytest.raises(ValueError):
            FixedLearner(bad)


class TestPredict:
    def test_fresh_uniform(self):
        np.testing.assert_allclose(uniform_learner(2).predict(), [0.5, 0.5])

    def test_single_expert(self):
        learner = uniform_learner(1)
        np.testing.assert_array_equal(learner.predict(), [1.0])
        assert learner.update([0.7]) == pytest.approx(0.7)
        assert learner.R[0] == pytest.approx(0.0)

    def test_derived_state_prediction(self):
        # states R=(0.5,-0.5), C=(0.5,0.5): normalize (w(.5,.5), w(-.5,.5))
        learner = uniform_learner(2)
        learner.R = np.array([0.5, -0.5])
        learner.C = np.array([0.5, 0.5])
        p = learner.predict()
        w1, w2 = weight(0.5, 0.5), weight(-0.5, 0.5)
        np.testing.assert_allclose(p, [w1 / (w1 + w2), w2 / (w1 + w2)], rtol=REL)
        np.testing.assert_allclose(p, [0.9190652058599572, 0.08093479414004282], rtol=1e-6)

    def test_all_weights_zero_falls_back_to_prior(self):
        learner = FixedLearner([0.3, 0.7])
        learner.R = np.array([-2.0, -3.0])
        learner.C = np.array([4.0, 5.0])
        np.testing.assert_array_equal(learner.predict(), [0.3, 0.7])


class TestUpdate:
    def test_single_round(self):
        learner = uniform_learner(2)
        assert learner.update([0.0, 1.0]) == pytest.approx(0.5)
        np.testing.assert_allclose(learner.R, [0.5, -0.5])
        np.testing.assert_allclose(learner.C, [0.5, 0.5])
        assert learner.t == 1

    def test_identical_losses_keep_states(self):
        learner = uniform_learner(3)
        assert learner.update([0.3, 0.3, 0.3]) == pytest.approx(0.3)
        np.testing.assert_array_equal(learner.R, np.zeros(3))
        np.testing.assert_array_equal(learner.C, np.zeros(3))

    def test_two_round_chain(self):
        # frozen by replaying the closed-form weights round by round
        learner = uniform_learner(2)
        learner.update([0.0, 1.0])
        lhat2 = learner.update([1.0, 0.0])
        w1, w2 = weight(0.5, 0.5), weight(-0.5, 0.5)
        expected_lhat2 = w1 / (w1 + w2)
        assert lhat2 == pytest.approx(expected_lhat2, rel=REL)
        np.testing.assert_allclose(
            learner.R, [0.5 + expected_lhat2 - 1.0, -0.5 + expected_lhat2], rtol=REL
        )
        np.testing.assert_allclose(learner.R, [0.4190652058599572] * 2, rtol=1e-6)

    @pytest.mark.parametrize("bad", [[-0.1, 0.5], [0.5, 1.1], [np.nan, 0.5]])
    def test_bad_losses_rejected(self, bad):
        with pytest.raises(ValueError):
            uniform_learner(2).update(bad)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            uniform_learner(3).update([0.1, 0.2])

    def test_d0_accumulator_counts_rounds(self):
        learner = uniform_learner(4, d=0.0)
        losses = rng_for(7).random((25, 4))
        for row in losses:
            learner.update(row)
        np.testing.assert_array_equal(learner.C, np.full(4, 25.0))

    def test_zero_sum_constraint(self):
        # weighted instantaneous regrets cancel exactly on non-fallback rounds
        learner = FixedLearner([0.2, 0.3, 0.5])
        losses = rng_for(11).random((200, 3))
        for row in losses:
            w = learner.q * np.array([weight(r, c) for r, c in zip(learner.R, learner.C)])
            lhat = learner.update(row)
            r = lhat - row
            assert abs(np.dot(w, r)) <= REL * max(w.sum(), 1e-300)

    def test_d1_magnitude_invariant(self):
        learner = uniform_learner(5)
        losses = rng_for(13).random((100, 5))
        for row in losses:
            learner.update(row)
            assert np.all(np.abs(learner.R) <= learner.C + 1e-12)
            assert np.all(learner.C >= 0.0)


class TestCertificate:
    def test_fresh_value(self):
        assert uniform_learner(2).certificate() == pytest.approx(2.5, rel=REL)

    def test_halfway_value(self):
        learner = uniform_learner(2)
        learner.update([0.0, 1.0])  # C = (0.5, 0.5)
        assert learner.certificate() == pytest.approx(1.0 + 1.5 * (1.0 + math.log(1.5)), rel=REL)
        assert learner.certificate() == pytest.approx(3.1081976621622465, rel=1e-9)

    def test_horizon_cap(self):
        learner = uniform_learner(6)
        losses = rng_for(17).random((300, 6))
        for i, row in enumerate(losses, start=1):
            learner.update(row)
            assert learner.certificate() <= 2.5 + 1.5 * math.log(1.0 + i) + 1e-12

    def test_d0_unsupported(self):
        with pytest.raises(ValueError):
            uniform_learner(2, d=0.0).certificate()

    def test_running_certificate(self):
        learner = uniform_learner(8)
        rec = play(learner, gen_adversarial(8, 400, 2).losses, certificates=True)
        assert rec.certificate_violations() == 0


class TestRegretBound:
    def test_zero_scale_competitor(self):
        learner = uniform_learner(3)
        learner.update([0.4, 0.4, 0.4])  # no regret accumulated anywhere
        assert learner.regret_bound([1.0, 0.0, 0.0]) == 0.0

    def test_derived_point_mass(self):
        learner = uniform_learner(2)
        learner.C = np.array([0.5, 0.5])
        b = 1.0 + 1.5 * (1.0 + math.log(1.5))
        expected = math.sqrt(
            3.0 * 0.5 * (math.log(2) + math.log(b) + math.log(1.0 + math.log(2)))
        )
        assert learner.regret_bound([1.0, 0.0]) == pytest.approx(expected, rel=REL)
        assert learner.regret_bound([1.0, 0.0]) == pytest.approx(1.8790074147191782, rel=1e-9)

    def test_uniform_competitor_drops_entropy(self):
        learner = uniform_learner(4)
        losses = rng_for(19).random((50, 4))
        for row in losses:
            learner.update(row)
        b = learner.certificate()
        expected = math.sqrt(
            3.0 * float(np.dot(np.full(4, 0.25), learner.C))
            * (math.log(b) + math.log(1.0 + math.log(4)))
        )
        assert learner.regret_bound(np.full(4, 0.25)) == pytest.approx(expected, rel=REL)

    def test_unsupported_mass_gives_infinity(self):
        learner = FixedLearner([0.5, 0.5, 0.0])
        learner.update([0.1, 0.9, 0.0])
        assert learner.regret_bound([0.0, 0.0, 1.0]) == math.inf

    def test_realized_regret_below_bound(self):
        rng = rng_for(23, 1)
        for seed in range(5):
            trace = gen_adversarial(6, 300, seed)
            learner = uniform_learner(6)
            rec = play(learner, trace.losses)
            regrets = np.sum(rec.player_losses[:, None] - trace.losses, axis=0)
            for _ in range(20):
                u = rng.dirichlet(np.ones(6))
                assert float(np.dot(u, regrets)) <= learner.regret_bound(u) * (1 + REL) + 1e-12

    def test_uniform_subset_bound_tighter_and_valid(self):
        rng = rng_for(29, 1)
        trace = gen_adversarial(8, 400, 3)
        learner = uniform_learner(8)
        rec = play(learner, trace.losses)
        regrets = np.sum(rec.player_losses[:, None] - trace.losses, axis=0)
        for _ in range(30):
            size = int(rng.integers(1, 9))
            subset = rng.choice(8, size=size, replace=False)
            u = np.zeros(8)
            u[subset] = 1.0 / size
            realized = float(np.dot(u, regrets))
            bound = learner.regret_bound_uniform_subset(subset)
            assert realized <= bound * (1 + REL) + 1e-12
            assert bound <= learner.regret_bound(u) * (1 + REL) + 1e-12

    def test_uniform_subset_counts_repeats_once(self):
        learner = uniform_learner(4)
        for _ in range(50):
            learner.update([0.1, 0.9, 0.5, 0.5])
        one = learner.regret_bound_uniform_subset([0])
        assert learner.regret_bound_uniform_subset([0, 0]).hex() == one.hex()
        assert learner.regret_bound_uniform_subset([0, 0, 0, 0]).hex() == one.hex()
        assert learner.regret_bound_uniform_subset([2, 0, 2]).hex() == learner.regret_bound_uniform_subset([0, 2]).hex()

    @pytest.mark.parametrize("subset", [[-1], [4], [0, 4]])
    def test_uniform_subset_index_out_of_range(self, subset):
        learner = uniform_learner(4)
        learner.update([0.1, 0.9, 0.5, 0.5])
        with pytest.raises(ValueError):
            learner.regret_bound_uniform_subset(subset)


class TestRelativeEntropy:
    def test_identical_is_zero(self):
        q = np.array([0.2, 0.3, 0.5])
        assert relative_entropy(q, q) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_vs_uniform(self):
        assert relative_entropy([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), rel=REL)

    def test_unsupported_is_infinite(self):
        assert relative_entropy([0.5, 0.5], [1.0, 0.0]) == math.inf

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, n, seed):
        rng = np.random.default_rng(seed)
        u = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        assert relative_entropy(u, q) >= -1e-12


class TestLivenessIndex:
    def test_row_revived_by_the_setter_counts(self):
        # 64 of 2048 experts stay live, so predict and certify gather on the bank's
        # liveness index; the R setter must drop it, or the revived row is missed,
        # and a gathered predict must clear its scratch row, or the killed row counts
        n = 2048
        rng = np.random.default_rng(5)
        learner = FixedLearner(np.ones(n))
        for _ in range(12):
            losses = rng.uniform(0.5, 1.0, n)
            losses[:64] = 0.0
            learner.update(losses)
        assert 4 * np.count_nonzero(learner.R > -1.0) <= n
        learner.predict()
        R = learner.R.copy()
        R[int(np.flatnonzero(R <= -1.0)[0])] = 5.0
        R[0] = -3.0
        learner.R = R
        q, C = learner.q, learner.C
        s = q * weight_arr(R, C)
        np.testing.assert_array_equal(learner.predict(), s / s.sum())
        assert learner.certify() == (float(np.dot(q, phi_arr(R, C)) / q.sum()), potential_cap(q, C))


class TestBoundInputs:
    @pytest.mark.parametrize("subset", [[0.5], [1.5, 2.0], [[0, 1]], [True], np.array([np.nan])])
    def test_uniform_subset_of_non_indices_rejected(self, subset):
        # a fraction must not be truncated to an index, nor a nested list flattened
        learner = uniform_learner(4)
        learner.update([0.1, 0.9, 0.5, 0.5])
        with pytest.raises(ValueError):
            learner.regret_bound_uniform_subset(subset)

    def test_uniform_subset_of_whole_floats_is_the_index_subset(self):
        learner = uniform_learner(4)
        learner.update([0.1, 0.9, 0.5, 0.5])
        assert learner.regret_bound_uniform_subset([2.0, 0.0]) == learner.regret_bound_uniform_subset(np.array([0, 2]))

    def test_zero_prior_competitor_before_any_round_is_infinite(self):
        # u . C = 0 and A = +inf: the bound is +inf, not 0 * inf = NaN
        learner = FixedLearner([1.0, 0.0])
        assert learner.regret_bound([0.0, 1.0]) == math.inf
        assert learner.regret_bound([1.0, 0.0]) == 0.0
