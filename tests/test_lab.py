import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgelab.fixed import FixedLearner
from hedgelab.interval import TvLearner, interval_bound
from hedgelab.lab import (
    HedgeLearner,
    decomposition_bruteforce,
    decomposition_value,
    default_eta_schedule,
    first_order_bound,
    gen_adversarial,
    gen_shifting,
    gen_stochastic_gap,
    kshift_bruteforce,
    kshift_oracle,
    play,
    quantile_competitor,
    rng_for,
    timevarying_regret,
    truncated_loss_totals,
    tv_bound,
    variation,
)

REL = 1e-9


class TestGenerators:
    def test_adversarial_deterministic(self):
        a = gen_adversarial(4, 50, 42)
        b = gen_adversarial(4, 50, 42)
        np.testing.assert_array_equal(a.losses, b.losses)
        c = gen_adversarial(4, 50, 43)
        assert not np.array_equal(a.losses, c.losses)

    def test_adversarial_single_expert_zero_regret(self):
        trace = gen_adversarial(1, 5, 0)
        learner = FixedLearner([1.0])
        rec = play(learner, trace.losses)
        np.testing.assert_allclose(rec.player_losses, trace.losses[:, 0])

    def test_adversarial_mean_within_ci(self):
        trace = gen_adversarial(100, 1000, 7)
        mean = trace.losses.mean()
        sigma = math.sqrt(1.0 / 12.0 / trace.losses.size)
        assert abs(mean - 0.5) <= 3.0 * sigma

    @pytest.mark.parametrize("n,t", [(0, 5), (5, 0), (-1, 5)])
    def test_bad_dims_rejected(self, n, t):
        with pytest.raises(ValueError):
            gen_adversarial(n, t, 0)

    def test_stochastic_deterministic_extreme(self):
        trace = gen_stochastic_gap(3, 30, 1.0, 0.0, 5)
        np.testing.assert_array_equal(trace.losses[:, 0], np.zeros(30))
        np.testing.assert_array_equal(trace.losses[:, 1:], np.ones((30, 2)))

    def test_stochastic_means_within_ci(self):
        n, t, alpha, mu = 6, 4000, 0.2, 0.3
        trace = gen_stochastic_gap(n, t, alpha, mu, 11)
        means = trace.losses.mean(axis=0)
        assert abs(means[0] - mu) <= 3.0 * math.sqrt(mu * (1 - mu) / t)
        for i in range(1, n):
            p = mu + alpha
            assert abs(means[i] - p) <= 3.0 * math.sqrt(p * (1 - p) / t)

    def test_stochastic_best_expert_realizes(self):
        for seed in range(5):
            trace = gen_stochastic_gap(8, 4000, 0.2, 0.3, seed)
            assert np.argmin(trace.losses.sum(axis=0)) == 0

    @pytest.mark.parametrize("alpha,mu", [(0.0, 0.3), (1.1, 0.0), (0.5, 0.6), (0.2, -0.1)])
    def test_stochastic_bad_params(self, alpha, mu):
        with pytest.raises(ValueError):
            gen_stochastic_gap(3, 10, alpha, mu, 0)

    def test_shifting_k1_equals_stochastic(self):
        a = gen_shifting(5, 40, 1, 0.25, 0.2, 3)
        b = gen_stochastic_gap(5, 40, 0.25, 0.2, 3)
        np.testing.assert_array_equal(a.losses, b.losses)

    def test_shifting_boundaries_partition(self):
        trace = gen_shifting(4, 103, 5, 0.3, 0.1, 9)
        bounds = trace.meta["boundaries"]
        assert bounds[0] == 0 and bounds[-1] == 103 and len(bounds) == 6
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert len(trace.meta["experts"]) == 5

    def test_shifting_segment_gaps(self):
        trace = gen_shifting(5, 6000, 3, 0.3, 0.2, 13)
        bounds, experts = trace.meta["boundaries"], trace.meta["experts"]
        for j in range(3):
            seg = trace.losses[bounds[j] : bounds[j + 1]]
            means = seg.mean(axis=0)
            others = np.delete(means, experts[j])
            assert means[experts[j]] < others.min()
            assert others.mean() - means[experts[j]] == pytest.approx(0.3, abs=0.06)

    def test_adaptive_adversary_hook(self):
        # the hook sees the prediction and punishes the heaviest expert
        def adversary(t, p):
            losses = np.zeros(p.size)
            losses[np.argmax(p)] = 1.0
            return losses

        learner = FixedLearner(np.full(3, 1.0 / 3.0))
        rec = play(learner, 50, adversary=adversary)
        assert rec.losses.shape == (50, 3)
        assert np.all(rec.losses.sum(axis=1) == 1.0)


class TestQuantileCompetitor:
    def test_spec_examples(self):
        assert quantile_competitor([1.0, 2.0, 3.0, 4.0], 0.5) == 1  # 2nd best
        assert quantile_competitor([1.0, 2.0, 3.0, 4.0], 0.25) == 0  # eps -> best
        assert quantile_competitor([3.0, 1.0, 2.0], 2.0 / 3.0) == 2  # loss 2

    def test_ties_break_to_lower_index(self):
        assert quantile_competitor([2.0, 1.0, 1.0], 1.0 / 3.0) == 1
        assert quantile_competitor([1.0, 1.0, 1.0], 2.0 / 3.0) == 1

    @pytest.mark.parametrize("eps", [0.0, -0.5, 1.5])
    def test_bad_eps(self, eps):
        with pytest.raises(ValueError):
            quantile_competitor([1.0, 2.0], eps)

    def test_rows_match_vectors(self):
        totals = rng_for(37, 9).integers(0, 4, size=(60, 7)).astype(float)  # many ties per row
        for eps in (0.1, 0.3, 0.5, 0.9, 1.0):
            picked = quantile_competitor(totals, eps)
            assert picked.tolist() == [quantile_competitor(row, eps) for row in totals]

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=20),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_rank_definition(self, losses, eps):
        idx = quantile_competitor(losses, eps)
        rank = math.ceil(len(losses) * eps)
        better = sum(1 for x in losses if x < losses[idx])
        assert better <= rank - 1  # at most rank-1 experts strictly better


def _kshift_loop(losses, k):
    """Per-round segment program: the reference the vectorised oracle must equal
    in value, boundaries and experts, including every tie-break."""
    t_len, n = losses.shape
    pref = np.vstack([np.zeros(n), np.cumsum(losses, axis=0)])
    dp = np.full((k + 1, t_len + 1), math.inf)
    dp[0, 0] = 0.0
    pick_i = np.zeros((k + 1, t_len + 1), dtype=int)
    pick_s = np.zeros((k + 1, t_len + 1), dtype=int)
    for j in range(1, k + 1):
        best_val = np.full(n, math.inf)
        best_s = np.zeros(n, dtype=int)
        for t in range(j, t_len + 1):
            if math.isfinite(dp[j - 1, t - 1]):
                cand = dp[j - 1, t - 1] - pref[t - 1]
                better = cand < best_val
                best_val[better] = cand[better]
                best_s[better] = t - 1
            totals = pref[t] + best_val
            pick_i[j, t] = int(np.argmin(totals))
            dp[j, t] = totals[pick_i[j, t]]
            pick_s[j, t] = best_s[pick_i[j, t]]
    boundaries, experts, t = [t_len], [], t_len
    for j in range(k, 0, -1):
        experts.append(int(pick_i[j, t]))
        t = int(pick_s[j, t])
        boundaries.append(t)
    return float(dp[k, t_len]), boundaries[::-1], experts[::-1]


class TestKShiftOracle:
    def test_alternating_example(self):
        losses = np.array([[0.0, 1.0], [1.0, 0.0]])
        res = kshift_oracle(losses, 2)
        assert res.loss == 0.0
        assert res.boundaries == [0, 1, 2]
        assert res.experts == [0, 1]
        assert kshift_oracle(losses, 1).loss == 1.0

    def test_matches_bruteforce(self):
        rng = rng_for(17, 9)
        for _ in range(200):
            t_len = int(rng.integers(1, 7))
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, min(3, t_len) + 1))
            losses = rng.random((t_len, n))
            assert kshift_oracle(losses, k).loss == pytest.approx(
                kshift_bruteforce(losses, k), abs=1e-9
            )

    def test_integer_losses_exact(self):
        rng = rng_for(19, 9)
        losses = rng.integers(0, 2, size=(6, 3)).astype(float)
        assert kshift_oracle(losses, 2).loss == kshift_bruteforce(losses, 2)

    def test_monotone_in_k(self):
        losses = rng_for(23, 9).random((40, 4))
        vals = [kshift_oracle(losses, k).loss for k in range(1, 11)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_k_equals_t_is_per_round_min(self):
        losses = rng_for(29, 9).random((15, 3))
        assert kshift_oracle(losses, 15).loss == pytest.approx(
            float(losses.min(axis=1).sum()), rel=REL
        )

    def test_witness_truncated_loss(self):
        losses = rng_for(31, 9).random((20, 3))
        player = np.full(20, 0.5)
        res = kshift_oracle(losses, 2, player)
        assert res.truncated_loss is not None
        total = sum(
            float(np.maximum(losses[res.boundaries[j] : res.boundaries[j + 1], res.experts[j]] - 0.5, 0).sum())
            for j in range(2)
        )
        assert res.truncated_loss == pytest.approx(total, rel=REL)
        assert res.truncated_loss <= res.loss + 1e-12

    def test_tied_costs_pick_recorded_witness(self):
        # 104 (partition, expert) choices reach the optimum 2; the witness and
        # its truncated loss are the ones the per-round program returned.
        losses = np.array(
            [[1, 1, 1], [1, 1, 1], [1, 0, 0], [0, 0, 1], [1, 0, 0],
             [1, 0, 1], [0, 0, 1], [0, 0, 0], [1, 0, 1], [0, 0, 1]],
            dtype=float,
        )
        player = np.array([0.5, 0.25, 0.75, 0.5, 1.0, 0.0, 0.5, 0.25, 0.5, 0.75])
        res = kshift_oracle(losses, 3, player)
        assert (res.loss, res.boundaries, res.experts, res.truncated_loss) == (2.0, [0, 1, 9, 10], [0, 1, 0], 1.25)

    def test_matches_per_round_program(self):
        rng = rng_for(41, 9)
        for case in range(300):
            t_len, n = int(rng.integers(1, 40)), int(rng.integers(1, 5))
            k = int(rng.integers(1, min(6, t_len) + 1))
            # even cases: coarse losses, so that many partitions tie
            losses = rng.integers(0, 3, size=(t_len, n)) / 2.0 if case % 2 == 0 else rng.random((t_len, n))
            res = kshift_oracle(losses, k)
            assert (res.loss, res.boundaries, res.experts) == _kshift_loop(losses, k)

    @pytest.mark.parametrize("k", [0, 21])
    def test_bad_k(self, k):
        with pytest.raises(ValueError):
            kshift_oracle(np.zeros((20, 2)), k)


class TestVariationAndDecomposition:
    def test_constant_distribution(self):
        useq = np.tile([0.3, 0.7], (6, 1))
        assert variation(useq) == pytest.approx(1.0, rel=REL)

    def test_single_switch(self):
        assert variation(np.array([[1.0, 0.0], [0.0, 1.0]])) == pytest.approx(2.0)

    def test_switch_every_round(self):
        useq = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        assert variation(useq) == pytest.approx(4.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            variation(np.array([[0.5, -0.1]]))

    def test_decomposition_examples(self):
        assert decomposition_value([1.0, 2.0, 1.0]) == pytest.approx(2.0)
        assert decomposition_value([5.0, 4.0, 1.0]) == pytest.approx(5.0)  # nonincreasing
        assert decomposition_value([1.0, 0.0, 2.0]) == pytest.approx(3.0)

    def test_decomposition_negative_rejected(self):
        with pytest.raises(ValueError):
            decomposition_value([1.0, -0.5])

    def test_grid_enumeration_example(self):
        # brute force the spec-sized example over interval weight assignments
        v = (1.0, 0.0, 2.0)
        intervals = [(s, e) for s in range(3) for e in range(s, 3)]
        grid = [k * 0.25 for k in range(9)]
        best = math.inf
        for weights in itertools.product(grid, repeat=len(intervals)):
            cover = [0.0, 0.0, 0.0]
            for (s, e), w in zip(intervals, weights):
                for t in range(s, e + 1):
                    cover[t] += w
            if all(abs(c - x) < 1e-12 for c, x in zip(cover, v)):
                best = min(best, sum(weights))
        assert best == pytest.approx(3.0)
        assert decomposition_value(v) == pytest.approx(best)

    def test_matches_lp_on_grid(self):
        for t_len in range(1, 5):
            for vals in itertools.product([0.0, 0.5, 2.0], repeat=t_len):
                v = np.array(vals)
                assert decomposition_value(v) == pytest.approx(
                    decomposition_bruteforce(v), abs=1e-9
                )

    @given(st.lists(st.floats(min_value=0, max_value=5), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_lp_agrees_on_random_vectors(self, vals):
        v = np.array(vals)
        assert decomposition_value(v) == pytest.approx(decomposition_bruteforce(v), abs=1e-7)


class TestTimeVarying:
    def test_constant_competitor_reduces_to_fixed(self):
        trace = gen_adversarial(3, 40, 1)
        learner = FixedLearner(np.full(3, 1.0 / 3.0))
        rec = play(learner, trace.losses)
        u = np.array([0.2, 0.5, 0.3])
        useq = np.tile(u, (40, 1))
        fixed_regret = float(np.dot(u, np.sum(rec.player_losses[:, None] - trace.losses, axis=0)))
        assert timevarying_regret(rec.player_losses, trace.losses, useq) == pytest.approx(
            fixed_regret, rel=1e-12
        )

    def test_player_weighted_competitor_zero_regret(self):
        # u_t proportional to the played distribution: per-round regret cancels
        trace = gen_adversarial(4, 60, 2)
        learner = FixedLearner(np.full(4, 0.25))
        useq = []
        player = []
        for row in trace.losses:
            p = learner.predict()
            useq.append(p)
            player.append(learner.update(row))
        total = timevarying_regret(np.array(player), trace.losses, np.array(useq))
        assert total == pytest.approx(0.0, abs=1e-9)

    def test_bound_holds_on_random_instances(self):
        # interval constant from the worst-case copy prior at the horizon
        n, t_len = 4, 50
        failures = 0
        for seed in range(100):
            trace = gen_adversarial(n, t_len, seed)
            tv = TvLearner(n)
            rec = play(tv, trace.losses)
            zeta = float(np.sum(1.0 / np.arange(1.0, t_len + 1.0) ** 2))
            b_cap = interval_bound(rec.player_losses, trace.losses, 1, t_len, 0)  # probes B'
            # coefficient valid for every interval: worst ln(1/q) at t1 = T
            a_coeff = 3.0 * (
                math.log(n * zeta * t_len**2)
                + math.log(_final_certificate(rec, trace))
                + math.log(1.0 + math.log(n * t_len))
            )
            rng = rng_for(seed, 1)
            useq = rng.uniform(0.0, 2.0, size=(t_len, n)) * (rng.random((t_len, n)) < 0.3)
            realized = timevarying_regret(rec.player_losses, trace.losses, useq)
            bound = tv_bound(rec.player_losses, trace.losses, useq, a_coeff)
            if realized > bound * (1 + REL) + 1e-9:
                failures += 1
        assert failures == 0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            timevarying_regret(np.zeros(5), np.zeros((5, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            tv_bound(np.zeros(5), np.zeros((5, 2)), np.zeros((5, 3)), 1.0)


def _final_certificate(rec, trace):
    """Potential-sum cap over all copies at the horizon, from the trace."""
    t_len, n = trace.losses.shape
    r = rec.player_losses[:, None] - trace.losses
    pref_a = np.vstack([np.zeros(n), np.cumsum(np.abs(r), axis=0)])
    qtau = 1.0 / np.arange(1.0, t_len + 1.0) ** 2
    c_mat = pref_a[t_len][None, :] - pref_a[0:t_len]
    zq = n * qtau.sum()
    return 1.0 + 1.5 * float((qtau[:, None] * (1.0 + np.log1p(c_mat))).sum() / zq)


class TestTruncatedLosses:
    def test_never_exceeds_raw_totals(self):
        trace = gen_adversarial(5, 200, 3)
        learner = FixedLearner(np.full(5, 0.2))
        rec = play(learner, trace.losses)
        lt = truncated_loss_totals(rec.player_losses, trace.losses)
        raw = trace.losses.sum(axis=0)
        assert np.all(lt <= raw + 1e-12)
        assert np.all(lt >= 0.0)

    def test_first_order_bound_holds(self):
        for seed in range(10):
            trace = gen_adversarial(6, 300, seed)
            learner = FixedLearner(np.full(6, 1.0 / 6.0))
            rec = play(learner, trace.losses)
            lt = truncated_loss_totals(rec.player_losses, trace.losses)
            regrets = np.sum(rec.player_losses[:, None] - trace.losses, axis=0)
            rng = rng_for(seed, 1)
            for _ in range(10):
                u = rng.dirichlet(np.ones(6))
                a = learner.bound_coefficient(u)
                assert float(np.dot(u, regrets)) <= first_order_bound(u, lt, a) * (1 + REL) + 1e-12


class TestHedge:
    def test_uniform_first_round(self):
        np.testing.assert_allclose(HedgeLearner(4).predict(), np.full(4, 0.25))

    def test_single_expert_degenerate(self):
        learner = HedgeLearner(1)
        np.testing.assert_array_equal(learner.predict(), [1.0])
        assert learner.update([0.3]) == pytest.approx(0.3)

    def test_two_round_hand_trace(self):
        learner = HedgeLearner(2)
        assert learner.update([0.0, 1.0]) == pytest.approx(0.5)
        eta2 = math.sqrt(8.0 * math.log(2.0) / 2.0)
        z = math.exp(-eta2)
        expected_p = 1.0 / (1.0 + z)
        p = learner.predict()
        assert p[0] == pytest.approx(expected_p, rel=REL)
        assert expected_p == pytest.approx(0.8409226636886704, rel=1e-12)
        assert learner.update([1.0, 0.0]) == pytest.approx(expected_p, rel=REL)

    def test_default_schedule(self):
        sched = default_eta_schedule(10)
        assert sched(1) == pytest.approx(math.sqrt(8 * math.log(10)))
        assert sched(100) == pytest.approx(math.sqrt(8 * math.log(10) / 100))

    def test_invalid_schedule_rejected(self):
        learner = HedgeLearner(3, eta_schedule=lambda t: -1.0)
        with pytest.raises(ValueError):
            learner.predict()

    def test_converges_to_best_expert(self):
        trace = gen_stochastic_gap(5, 3000, 0.4, 0.1, 21)
        learner = HedgeLearner(5)
        rec = play(learner, trace.losses)
        assert rec.player_losses[-100:].mean() < 0.2  # locked onto the mu=0.1 arm
