import math

import numpy as np
import pytest

from hedgelab.fixed import FixedLearner, relative_entropy
from hedgelab.lab import rng_for
from hedgelab.potential import bound_coefficient, weight
from hedgelab.sleeping import ConfidenceRound, SleepingRegistry

REL = 1e-9


def drive_random(registry, ids, t_len, seed, conf_choices=(0.0, 0.5, 1.0)):
    """Random confidence/loss rounds; returns per-round (confidences, losses, player_loss)."""
    rng = rng_for(seed, 5)
    history = []
    for _ in range(t_len):
        while True:
            conf = {i: float(rng.choice(conf_choices)) for i in ids}
            if any(c > 0 for c in conf.values()):
                break
        losses = {i: float(rng.random()) for i in ids if conf[i] > 0}
        round_data = {i: (conf[i], losses[i]) for i in losses}
        lhat = registry.update(round_data)
        history.append((conf, losses, lhat))
    return history


class TestBestId:
    def test_ties_go_to_first_registered(self):
        reg = SleepingRegistry()
        reg.update({"b": (1.0, 0.5), "a": (1.0, 0.5), "c": (1.0, 0.5)})  # rows b, a, c; every R is 0
        assert reg.best_id() == "b"
        reg._bank.R[:3] = [0.25, 0.5, 0.5]
        assert reg.best_id() == "a" == max(reg.ids(), key=lambda e: reg.state(e).R)

    def test_empty_registry_rejected(self):
        with pytest.raises(ValueError):
            SleepingRegistry().best_id()


class TestPredict:
    def test_two_fresh_unit_priors(self):
        reg = SleepingRegistry()
        assert reg.predict({"a": 1.0, "b": 1.0}) == {"a": 0.5, "b": 0.5}

    def test_asleep_id_excluded(self):
        reg = SleepingRegistry()
        p = reg.predict({"a": 1.0, "b": 0.0, "c": 1.0})
        assert p == {"a": 0.5, "b": 0.0, "c": 0.5}

    def test_confidence_scales_weights(self):
        reg = SleepingRegistry()
        reg.predict({"a": 1.0, "b": 1.0})  # registers a, b at rows 0, 1 with prior 1
        reg._bank.R[:2] = [0.5, -0.5]
        reg._bank.C[:2] = [0.5, 0.5]
        p = reg.predict({"a": 1.0, "b": 0.5})
        sa, sb = weight(0.5, 0.5), 0.5 * weight(-0.5, 0.5)
        assert p["a"] == pytest.approx(sa / (sa + sb), rel=REL)
        assert p["a"] == pytest.approx(0.9578259280128134, rel=1e-12)
        assert p["b"] == pytest.approx(0.0421740719871866, rel=1e-12)

    def test_empty_awake_set_rejected(self):
        reg = SleepingRegistry()
        with pytest.raises(ValueError):
            reg.predict({})
        with pytest.raises(ValueError):
            reg.predict({"a": 0.0})

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            SleepingRegistry().predict({"a": 1.5})

    def test_fallback_proportional_to_confidence_scaled_prior(self):
        reg = SleepingRegistry()
        reg.predict({"a": 1.0, "b": 1.0})  # registers a, b at rows 0, 1 with prior 1
        reg._bank.R[:2] = [-2.0, -3.0]
        reg._bank.C[:2] = [4.0, 5.0]
        p = reg.predict({"a": 1.0, "b": 0.5})
        assert p["a"] == pytest.approx(2.0 / 3.0, rel=REL)
        assert p["b"] == pytest.approx(1.0 / 3.0, rel=REL)

    def test_registration_counts(self):
        reg = SleepingRegistry()
        reg.predict({"a": 1.0})
        reg.predict({"a": 1.0, "b": 1.0, "zzz": 0.0})  # zero confidence: not registered
        assert reg.seen_count == 2
        assert reg.ids() == ["a", "b"]


class TestUpdate:
    def test_fresh_pair(self):
        reg = SleepingRegistry()
        lhat = reg.update({"a": (1.0, 0.0), "b": (1.0, 1.0)})
        assert lhat == pytest.approx(0.5)
        assert reg.state("a").R == pytest.approx(0.5)
        assert reg.state("b").R == pytest.approx(-0.5)

    def test_confidence_round_wrapper(self):
        reg = SleepingRegistry()
        lhat = reg.update(ConfidenceRound({"a": (1.0, 0.0), "b": (1.0, 1.0)}))
        assert lhat == pytest.approx(0.5)

    def test_asleep_state_bitwise_unchanged(self):
        reg = SleepingRegistry()
        reg.update({"a": (1.0, 0.3), "b": (1.0, 0.9)})
        before = (reg.state("b").R, reg.state("b").C)
        reg.update({"a": (1.0, 0.7), "b": (0.0, 0.1)})
        assert (reg.state("b").R, reg.state("b").C) == before

    def test_partial_confidence_derived(self):
        # fresh states, I=(1, .5), losses (0, 1): p=(2/3, 1/3), lhat=1/3
        reg = SleepingRegistry()
        lhat = reg.update({"a": (1.0, 0.0), "b": (0.5, 1.0)})
        assert lhat == pytest.approx(1.0 / 3.0, rel=REL)
        assert reg.state("a").R == pytest.approx(1.0 / 3.0, rel=REL)
        assert reg.state("b").R == pytest.approx(-1.0 / 3.0, rel=REL)
        assert reg.state("b").C == pytest.approx(1.0 / 3.0, rel=REL)

    def test_bad_loss_rejected(self):
        reg = SleepingRegistry()
        with pytest.raises(ValueError):
            reg.update({"a": (1.0, 1.2)})

    def test_rejected_round_registers_nothing(self):
        reg = SleepingRegistry(prior_policy=lambda i: 0.0 if i == "bad" else 1.0)
        with pytest.raises(ValueError):
            reg.update({"a": (1.0, 1.2)})
        with pytest.raises(ValueError):
            reg.update({"a": (1.0, 0.5), "b": (1.0, float("nan"))})
        with pytest.raises(ValueError):
            reg.predict({"a": 1.0, "bad": 1.0})
        assert reg.seen_count == 0
        assert reg.ids() == []

    def test_mixed_id_types(self):
        reg = SleepingRegistry()
        assert reg.update({"a": (1.0, 0.0), 1: (1.0, 1.0)}) == pytest.approx(0.5)
        assert reg.predict({1: 1.0, "a": 1.0})["a"] > 0.5
        assert reg.ids() == ["a", 1]
        assert reg.state(1).R == pytest.approx(-0.5)

    def test_zero_sum_with_confidence(self):
        # sum_i q_i w_i r_i = 0 with r_i the confidence-scaled gap: the
        # prediction normalizes q*I*w, so the confidence inside r cancels it
        reg = SleepingRegistry()
        ids = list("abcde")
        rng = rng_for(31, 5)
        for _ in range(100):
            conf = {i: float(rng.choice([0.0, 0.3, 1.0])) for i in ids}
            if not any(c > 0 for c in conf.values()):
                conf[ids[0]] = 1.0
            w = {
                i: reg._bank.q[reg._rows[i]] * weight(reg.state(i).R, reg.state(i).C) if i in reg._rows else weight(0.0, 0.0)
                for i in ids
                if conf[i] > 0
            }
            losses = {i: float(rng.random()) for i in conf if conf[i] > 0}
            lhat = reg.update({i: (conf[i], losses[i]) for i in losses})
            scaled = {i: w[i] * conf[i] for i in w}
            if sum(scaled.values()) > 0:
                zero_sum = sum(w[i] * conf[i] * (lhat - losses[i]) for i in w)
                assert abs(zero_sum) <= REL * sum(scaled.values())


class TestInvariance:
    def test_prior_scaling_leaves_predictions_unchanged(self):
        reg1 = SleepingRegistry(prior_policy=lambda i: 1.0)
        reg2 = SleepingRegistry(prior_policy=lambda i: 17.5)
        h1 = drive_random(reg1, list("abcd"), 60, seed=41)
        h2 = drive_random(reg2, list("abcd"), 60, seed=41)
        for (_, _, l1), (_, _, l2) in zip(h1, h2):
            assert l1 == pytest.approx(l2, rel=1e-12)

    def test_late_registration_equals_always_asleep(self):
        # an id first awake at round 31 produces the same trace as one that was
        # present (with zero confidence) from the start
        rounds = []
        rng = rng_for(43, 5)
        for t in range(60):
            data = {"a": (1.0, float(rng.random())), "b": (1.0, float(rng.random()))}
            if t >= 30:
                data["late"] = (1.0, float(rng.random()))
            rounds.append(data)

        reg1 = SleepingRegistry()
        out1 = [reg1.update(r) for r in rounds]
        reg2 = SleepingRegistry()
        out2 = []
        for t, r in enumerate(rounds):
            r2 = dict(r)
            if t < 30:
                r2["late"] = (0.0, 0.0)  # explicitly asleep: ignored entirely
            out2.append(reg2.update(r2))
        assert out1 == out2
        assert reg1.state("late").R == reg2.state("late").R

    def test_nonuniform_prior_policy(self):
        reg = SleepingRegistry(prior_policy=lambda i: {"a": 3.0, "b": 1.0}[i])
        p = reg.predict({"a": 1.0, "b": 1.0})
        assert p["a"] == pytest.approx(0.75, rel=REL)

    def test_bad_prior_policy_rejected(self):
        reg = SleepingRegistry(prior_policy=lambda i: 0.0)
        with pytest.raises(ValueError):
            reg.predict({"a": 1.0})


class TestCertificates:
    def test_running_certificate_holds(self):
        reg = SleepingRegistry()
        ids = list("abcdef")
        rng = rng_for(47, 5)
        for _ in range(150):
            conf = {i: float(rng.choice([0.0, 1.0])) for i in ids}
            if not any(conf.values()):
                conf[ids[0]] = 1.0
            losses = {i: (conf[i], float(rng.random())) for i in conf if conf[i] > 0}
            reg.update(losses)
            assert reg.potential_sum() <= reg.certificate() * (1 + REL)

    def test_regret_bound_holds_for_registered_competitors(self):
        reg = SleepingRegistry()
        ids = list("abcd")
        history = drive_random(reg, ids, 200, seed=53)
        realized = {i: 0.0 for i in ids}
        for conf, losses, lhat in history:
            for i, loss in losses.items():
                realized[i] += conf[i] * (lhat - loss)
        rng = rng_for(59, 5)
        for _ in range(25):
            u = rng.dirichlet(np.ones(len(ids)))
            comp = dict(zip(ids, u))
            total = sum(u_i * realized[i] for i, u_i in comp.items())
            assert total <= reg.regret_bound(comp) * (1 + REL) + 1e-12

    def test_regret_bound_matches_full_length_formula(self):
        # the relative entropy over the support rows equals the one over all
        # rows, bit for bit, for competitors listed in any order
        reg = SleepingRegistry(prior_policy=lambda i: 1.0 + ord(i) % 3)
        ids = list("abcdefg")
        drive_random(reg, ids, 120, seed=67)
        q, C = reg._bank.q, reg._bank.C
        rng = rng_for(71, 5)
        for size in [1, 7] + [3, 4, 5, 6] * 25:
            chosen = list(rng.permutation(ids)[:size])
            comp = dict(zip(chosen, rng.dirichlet(np.ones(size))))
            uvec = np.array([comp.get(i, 0.0) for i in reg.ids()])
            re = relative_entropy(uvec, q / q.sum())
            expected = math.sqrt(float(np.dot(uvec, C)) * bound_coefficient(re, reg.certificate(), reg.seen_count))
            assert reg.regret_bound(comp) == expected

    def test_unregistered_competitor_mass_is_infinite(self):
        reg = SleepingRegistry()
        reg.update({"a": (1.0, 0.2), "b": (1.0, 0.8)})
        assert reg.regret_bound({"ghost": 1.0}) == math.inf

    def test_matches_fixed_learner_when_always_awake(self):
        # with all confidences 1 the registry is the fixed-N learner
        n = 4
        losses = rng_for(61).random((80, n))
        reg = SleepingRegistry()
        fixed = FixedLearner(np.full(n, 1.0 / n))
        for row in losses:
            lhat_reg = reg.update({i: (1.0, float(row[i])) for i in range(n)})
            lhat_fix = fixed.update(row)
            assert lhat_reg == pytest.approx(lhat_fix, rel=1e-12)
        for i in range(n):
            assert reg.state(i).R == pytest.approx(fixed.R[i], rel=1e-12)
