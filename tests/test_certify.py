"""One-pass certificates: certify() and SleepingRegistry.round_record() equal
the one-value calls they replace, bit for bit."""

import numpy as np
import pytest

from hedgelab.fixed import FixedLearner
from hedgelab.interval import TvLearner
from hedgelab.lab import HedgeLearner, gen_adversarial, gen_shifting, play, rng_for
from hedgelab.potential import ExpertBank, PotentialParams, certify_stack, phi_arr, potential_cap
from hedgelab.sleeping import SleepingRegistry


def assert_certify_matches(learner):
    assert learner.certify() == (learner.potential_sum(), learner.certificate())


class TestCertify:
    def test_fixed_learner_along_a_run(self):
        trace = gen_adversarial(6, 120, 3)
        learner = FixedLearner(np.arange(1.0, 7.0))
        assert_certify_matches(learner)
        for losses in trace.losses:
            learner.update(losses)
            assert_certify_matches(learner)

    def test_fixed_learner_d0_has_no_certificate(self):
        learner = FixedLearner(np.full(3, 1.0 / 3), PotentialParams(0.0))
        with pytest.raises(ValueError, match="d = 1"):
            learner.certify()

    def test_tv_learner_empty_and_along_a_run(self):
        tv = TvLearner(3)
        assert tv.certify() == (1.0, 2.5)
        assert_certify_matches(tv)
        for losses in gen_adversarial(3, 60, 8).losses:
            tv.update(losses)
            assert_certify_matches(tv)

    def test_tv_learner_past_the_gather_size(self):
        # 10 * 300 copies: the potential sum evaluates only the copies with R > 0
        tv = TvLearner(10)
        play(tv, gen_adversarial(10, 300, 4).losses)
        assert tv.n_sleeping >= 2048
        assert_certify_matches(tv)

    def test_sleeping_registry_empty_and_along_rounds(self):
        reg = SleepingRegistry(prior_policy=lambda i: 1.0 + (i % 3))
        assert reg.certify() == (1.0, 2.5)
        assert_certify_matches(reg)
        rng = rng_for(5, 7)
        for _ in range(150):
            awake = rng.choice(12, size=int(rng.integers(1, 6)), replace=False)
            reg.update({int(i): (float(rng.uniform(0.1, 1.0)), float(rng.uniform())) for i in awake})
            assert_certify_matches(reg)

    def test_play_records_certify(self):
        trace = gen_adversarial(4, 80, 9)
        rec = play(FixedLearner(np.full(4, 0.25)), trace.losses, certificates=True)
        replay = FixedLearner(np.full(4, 0.25))
        for t, losses in enumerate(trace.losses):
            replay.update(losses)
            assert (rec.potential_sums[t], rec.certificates[t]) == (replay.potential_sum(), replay.certificate())

    def test_play_without_certify_uses_the_one_value_calls(self):
        class TwoCalls:  # potential_sum() and certificate(), but no certify()
            def __init__(self):
                inner = FixedLearner(np.full(4, 0.25))
                self.update, self.potential_sum, self.certificate = inner.update, inner.potential_sum, inner.certificate

        trace = gen_adversarial(4, 80, 9)
        rec = play(TwoCalls(), trace.losses, certificates=True)
        ref = play(FixedLearner(np.full(4, 0.25)), trace.losses, certificates=True)
        assert rec.potential_sums.tolist() == ref.potential_sums.tolist()
        assert rec.certificates.tolist() == ref.certificates.tolist()
        hedge = play(HedgeLearner(4), trace.losses, certificates=True)  # neither: no columns
        assert hedge.potential_sums is None and hedge.certificates is None


def expected_record(reg):
    best = reg.best_id()
    return reg.state(best).R, reg.potential_sum(), reg.certificate(), reg.regret_bound({best: 1.0})


class TestRoundRecord:
    def test_matches_one_value_calls_along_rounds(self):
        reg = SleepingRegistry(prior_policy=lambda i: 1.0 / (1 + i))
        rng = rng_for(6, 7)
        for _ in range(200):
            awake = rng.choice(20, size=int(rng.integers(1, 7)), replace=False)
            reg.update({int(i): (1.0, float(rng.uniform())) for i in awake})
            assert reg.round_record() == expected_record(reg)

    def test_tie_on_r_goes_to_first_registered(self):
        reg = SleepingRegistry(prior_policy={"a": 1.0, "b": 3.0, "c": 2.0}.get)
        reg.update({"a": (1.0, 0.5), "b": (1.0, 0.5), "c": (1.0, 0.5)})
        reg._bank.R[:] = [0.25, 0.5, 0.5]
        reg._bank.C[:] = [1.0, 0.75, 2.0]
        assert reg.best_id() == "b"
        record = reg.round_record()
        assert record == expected_record(reg)
        assert record[0] == 0.5
        # the tie-break decides the bound: "c" would give a different one
        assert record[3] == reg.regret_bound({"b": 1.0}) != reg.regret_bound({"c": 1.0})

    def test_empty_registry_raises(self):
        with pytest.raises(ValueError):
            SleepingRegistry().round_record()


class TestRoundRecords:
    @staticmethod
    def states_and_records(rounds=150):
        """Per-round bank states and round_record() of a registry that keeps
        registering ids.  Ids 2j and 2j + 1 wake together with one loss, so
        they tie on R; they have different priors and register in either order."""
        reg = SleepingRegistry(prior_policy=lambda i: 1.0 + (i % 5))
        rng = rng_for(11, 7)
        states, records = [], []
        for t in range(rounds):
            pairs = rng.choice(min(20, 3 + t // 6), size=int(rng.integers(1, 4)), replace=False)
            awake = {}
            for j in pairs.tolist():
                loss = float(rng.uniform())
                awake.update((i, (1.0, loss)) for i in rng.permutation([2 * j, 2 * j + 1]).tolist())
            reg.update(awake)
            states.append((reg._bank.R.copy(), reg._bank.C.copy()))
            records.append(reg.round_record())
            assert records[-1] == expected_record(reg)
        return reg, states, np.array(records)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocks_equal_round_record(self, block):
        reg, states, expected = self.states_and_records()
        sizes = np.array([r.size for r, _ in states])
        assert len(set(sizes[:64].tolist())) > 5  # ids register within blocks
        ties = sum(int(np.sum(r == r.max())) > 1 for r, _ in states)
        assert ties > 20  # the best id is often a tie-break
        width = sizes.max() + 3  # entries past a round's size are ignored
        got = []
        for start in range(0, len(states), block):
            chunk = states[start : start + block]
            R, C = np.zeros((2, len(chunk), width))
            for k, (r, c) in enumerate(chunk):
                R[k, : r.size], C[k, : c.size] = r, c
            got.append(np.column_stack(reg.round_records(R, C, sizes[start : start + block])))
        assert np.vstack(got).tobytes() == expected.tobytes()

    def test_stack_rows_equal_the_dense_formulas(self):
        reg, states, _ = self.states_and_records(40)
        q = reg._bank.q
        sizes = np.array([r.size for r, _ in states])
        R, C = np.zeros((2, len(states), sizes.max()))
        for k, (r, c) in enumerate(states):
            R[k, : r.size], C[k, : c.size] = r, c
        pots, caps, q_sums = certify_stack(q, R, C, sizes)
        for k, (r, c) in enumerate(states):
            qk = q[: r.size]
            assert pots[k] == float(np.dot(qk, phi_arr(r, c)) / qk.sum())
            assert caps[k] == potential_cap(qk, c)
            assert q_sums[k] == qk.sum()


def test_certify_stack_equals_certify_past_ten_thousand_rows():
    """certify_stack and certify() take the same dots, also where they are
    chunked: TvLearner(10) states of 9,990 to 10,030 copies."""
    tv = TvLearner(10)
    losses = gen_adversarial(10, 1003, 5).losses
    states, expected = [], []
    for t, row in enumerate(losses):
        tv.update(row)
        if t >= 998:
            states.append((tv._bank.R.copy(), tv._bank.C.copy()))
            expected.append(tv.certify())
    sizes = np.array([r.size for r, _ in states])
    assert sizes[0] < 10_000 < sizes[-1]
    R, C = np.zeros((2, len(states), sizes.max()))
    for k, (r, c) in enumerate(states):
        R[k, : r.size], C[k, : c.size] = r, c
    pots, caps, _ = certify_stack(tv._bank.q, R, C, sizes)
    assert list(zip(pots.tolist(), caps.tolist())) == expected


def hit_the_favourite(t, p):
    """Adaptive adversary: loss 1 on the expert with the largest weight (the
    first among ties), 0 on the rest."""
    losses = np.zeros(p.size)
    losses[np.argmax(p)] = 1.0
    return losses


class TestAdaptiveAdversary:
    """The certificates are theorems about every loss sequence, so they hold
    against an adversary that reads each prediction before choosing losses."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_fixed_learner(self, n):
        learner = FixedLearner(np.full(n, 1.0 / n))
        rec = play(learner, 2000, adversary=hit_the_favourite, certificates=True)
        assert rec.certificate_violations() == 0
        totals = rec.losses.sum(axis=0)
        best = int(np.argmin(totals))
        regret = float(rec.player_losses.sum() - totals[best])
        assert regret > 0.0  # the adversary makes the learner pay
        assert regret <= learner.regret_bound(np.eye(n)[best])

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_tv_learner(self, n):
        rec = play(TvLearner(n), 300, adversary=hit_the_favourite, certificates=True)
        assert rec.potential_sums.size == 300
        assert rec.certificate_violations() == 0


def certified_round_pair(certified, reference, losses):
    """One round of certified.update(losses, certify=True) against reference.update(losses)
    then reference.certify(): the same bits in the record and in R and C afterwards."""
    got = certified.update(losses, certify=True)
    expected = (reference.update(losses), *reference.certify())
    assert np.array(got).tobytes() == np.array(expected).tobytes()
    assert certified._bank.R.tobytes() == reference._bank.R.tobytes()
    assert certified._bank.C.tobytes() == reference._bank.C.tobytes()


class TestCertifiedUpdate:
    """update(losses, certify=True) is update(losses) then certify(), bit for bit,
    whether the round gathers its live rows or evaluates every row."""

    def test_fixed_learner(self):
        prior = np.arange(1.0, 11.0)
        certified, reference = FixedLearner(prior), FixedLearner(prior)
        for losses in gen_adversarial(10, 200, 6).losses:
            certified_round_pair(certified, reference, losses)

    def test_fixed_learner_with_64_of_2048_rows_live(self):
        # 64 experts stay live, so from some round on predict gathers them and
        # the certificate finds its rows with R > 0 among them
        n = 2048
        rng = np.random.default_rng(5)
        certified, reference = FixedLearner(np.ones(n)), FixedLearner(np.ones(n))
        gathered = 0
        for _ in range(24):
            losses = rng.uniform(0.5, 1.0, n)
            losses[:64] = rng.uniform(0.0, 0.2, 64)
            gathered += 4 * np.count_nonzero(reference.R > -1.0) <= n
            certified_round_pair(certified, reference, losses)
        assert 0 < gathered < 24
        assert np.count_nonzero(reference.R > 0.0) > 0

    def test_tv_learner_on_a_shifting_trace(self):
        # each round is classified by what a certified round gathers: the live
        # copies (R > -1 before the update, newborns included) for the prediction,
        # the copies with R > 0 after it for the certificate
        n = 10
        certified, reference = TvLearner(n), TvLearner(n)
        kinds = {}
        for losses in gen_shifting(n, 1500, 3, 0.25, 0.3, 0).losses:
            size = n * (reference.t + 1)
            live = np.count_nonzero(reference._bank.R[: size - n] > -1.0) + n
            certified_round_pair(certified, reference, losses)
            positive = np.count_nonzero(reference._bank.R > 0.0)
            kind = tuple("gathered" if size >= 2048 and 4 * k <= size else "dense" for k in (live, positive))
            kinds[kind] = kinds.get(kind, 0) + 1
        assert ("gathered", "dense") not in kinds  # the rows with R > 0 are among the live rows
        assert kinds[("dense", "dense")] and kinds[("dense", "gathered")] and kinds[("gathered", "gathered")]

    @pytest.mark.parametrize("n", [10, 2048])
    def test_every_row_dead_falls_back_to_the_prior(self, n):
        rng = np.random.default_rng(n)
        R = -rng.uniform(1.0, 4.0, n)
        C = -R + rng.uniform(0.0, 2.0, n)
        certified, reference = FixedLearner(np.ones(n)), FixedLearner(np.ones(n))
        for learner in (certified, reference):
            learner.R, learner.C = R, C
        np.testing.assert_array_equal(reference.predict(), np.full(n, 1.0 / n))
        for _ in range(3):
            certified_round_pair(certified, reference, rng.uniform(0.0, 1.0, n))

    @pytest.mark.parametrize("adversary", [None, hit_the_favourite])
    def test_play_tv_learner(self, adversary):
        n, t_len = 10, 300
        losses = gen_adversarial(n, t_len, 12).losses
        rec = play(TvLearner(n), t_len if adversary else losses, adversary=adversary, certificates=True)
        reference, records = TvLearner(n), []
        for t in range(t_len):
            lvec = losses[t] if adversary is None else hit_the_favourite(t, reference.predict())
            records.append((reference.update(lvec), *reference.certify()))
        assert reference.n_sleeping >= 2048
        expected = np.array(records).T
        assert rec.player_losses.tobytes() == expected[0].tobytes()
        assert rec.potential_sums.tobytes() == expected[1].tobytes()
        assert rec.certificates.tobytes() == expected[2].tobytes()

    def test_bank_rows_with_confidences(self):
        # a call on some rows, with confidences, certifies those rows as certify(rows) does
        rng = np.random.default_rng(3)
        banks = ExpertBank(), ExpertBank()
        for bank in banks:
            bank.add(np.linspace(0.5, 1.5, 12))
        for _ in range(40):
            rows = np.flatnonzero(rng.random(12) < 0.6)
            conf, losses = rng.uniform(0.1, 1.0, (2, rows.size))
            got = banks[0].update(losses, rows, conf, certify=True)
            expected = (banks[1].update(losses, rows, conf), *banks[1].certify(rows))
            assert np.array(got).tobytes() == np.array(expected).tobytes()
            assert banks[0].R.tobytes() == banks[1].R.tobytes() and banks[0].C.tobytes() == banks[1].C.tobytes()

    def test_d0_rejects_certify_and_keeps_the_state(self):
        learner = FixedLearner(np.full(3, 1.0 / 3), PotentialParams(0.0))
        learner.update([0.2, 0.7, 0.4])
        R, C, t = learner.R.tobytes(), learner.C.tobytes(), learner.t
        with pytest.raises(ValueError, match="d = 1"):
            learner.update([0.9, 0.1, 0.5], certify=True)
        assert (learner.R.tobytes(), learner.C.tobytes(), learner.t) == (R, C, t)
