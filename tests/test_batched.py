"""Seed-batched learners against separate ones, byte for byte, and the numpy facts those bytes rest on."""

import numpy as np
import pytest

from hedgelab.fixed import FixedLearner
from hedgelab.lab import HedgeLearner, gen_adversarial, gen_shifting, play, rng_for
from hedgelab.potential import ExpertBank, PotentialParams, _gather_rows, dot


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def stacked(traces) -> np.ndarray:
    return np.stack(traces, axis=1)  # (T, S, N)


class TestNumpyFacts:
    """What the batched learners' bits rest on, pinned so that a numpy or
    OpenBLAS upgrade that breaks one fails here instead of changing outputs."""

    SIZES = sorted({2, 3, 4, 7, 8, 9, 10, 15, 16, 17, 31, 32, 33, 64, 127, 128, 129, 1023, 1024, 2047}
                   | set(rng_for(0, 5).integers(2, 2048, size=24).tolist()))

    @staticmethod
    def _rows(n, rng, seeds=12):
        """Contiguous rows, and rows that are views into a wider buffer."""
        wide = rng.random((seeds, n + 9))
        return [rng.random((seeds, n)), wide[:, 5 : 5 + n]]

    @pytest.mark.parametrize("n", SIZES)
    def test_stacked_matmul_is_a_dot_per_row(self, n):
        rng = rng_for(n, 6)
        q = rng.random(n)
        for a in self._rows(n, rng):
            b = rng.random(a.shape)
            pairs = np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
            shared = np.matmul(a[:, None, :], q[:, None])[:, 0, 0]
            for k in range(a.shape[0]):
                assert same_bytes(pairs[k], np.dot(a[k], b[k]))
                assert same_bytes(shared[k], np.dot(q, a[k]))
            assert same_bytes(dot(a, b), pairs) and same_bytes(dot(q, a), shared) and same_bytes(dot(a, q), shared)

    @pytest.mark.parametrize("n", sorted({2048, 4000, 8191, 9999, 10_000}
                                         | set(rng_for(1, 5).integers(2048, 10_001, size=3).tolist())))
    def test_stacked_matmul_is_a_dot_per_row_up_to_one_chunk(self, n):
        """The same fact from 2,048 entries up to dot()'s chunk, on which
        certify_stack's one matmul per run of equal sizes rests."""
        self.test_stacked_matmul_is_a_dot_per_row(n)

    @pytest.mark.parametrize("n", SIZES)
    def test_row_sums_are_the_one_dimensional_sums(self, n):
        rng = rng_for(n, 7)
        for a in self._rows(n, rng):
            sums = a.sum(axis=1)
            for k in range(a.shape[0]):
                assert same_bytes(sums[k], a[k].sum())

    @pytest.mark.parametrize("n", [10_000, 10_001, 25_000])
    def test_stacked_dot_is_the_dot_of_each_row(self, n):
        """dot() of a stack of rows, as long as one chunk or longer, has the bits of dot() of each row."""
        rng = rng_for(n, 8)
        q = rng.random(n)
        for a in [*self._rows(n, rng, seeds=3), rng.random((2, 3, n))]:
            b = rng.random(a.shape)
            pairs, shared = dot(a, b), dot(q, a)
            assert pairs.shape == shared.shape == a.shape[:-1]
            for k in np.ndindex(a.shape[:-1]):
                assert same_bytes(pairs[k], dot(a[k], b[k])) and same_bytes(shared[k], dot(q, a[k]))
            assert same_bytes(dot(a, q), shared)


def play_both(make, traces, certificates):
    """Records and learners of each trace played alone, and of all played in lockstep."""
    alone = [make(None) for _ in traces]
    records = [play(learner, trace, certificates=certificates) for learner, trace in zip(alone, traces)]
    batched = make(len(traces))
    batched_records = play(batched, stacked(traces), certificates=certificates)
    return alone, records, batched, batched_records


def assert_records_equal(records, batched_records):
    assert len(records) == len(batched_records)
    for rec, brec in zip(records, batched_records):
        assert same_bytes(rec.player_losses, brec.player_losses)
        assert same_bytes(rec.losses, brec.losses)
        if rec.potential_sums is None:
            assert brec.potential_sums is None and brec.certificates is None
        else:
            assert same_bytes(rec.potential_sums, brec.potential_sums)
            assert same_bytes(rec.certificates, brec.certificates)


def ada(n, d=1.0):
    return lambda seeds: FixedLearner(np.full(n, 1.0 / n), PotentialParams(d), seeds=seeds)


def mixed_traces(n, t):
    return [gen_adversarial(n, t, 0).losses, gen_shifting(n, t, 3, 0.25, 0.3, 1).losses,
            gen_shifting(n, t, 2, 0.5, 0.0, 2).losses]


class TestBatchedFixed:
    @pytest.mark.parametrize("n", [1, 2, 10, 33])
    def test_certified_ada_matches_separate_learners(self, n):
        alone, records, batched, batched_records = play_both(ada(n), mixed_traces(n, 300), True)
        assert_records_equal(records, batched_records)
        for k, learner in enumerate(alone):
            assert same_bytes(learner.R, batched.R[k]) and same_bytes(learner.C, batched.C[k])
        assert batched.t == 300 and batched.seeds == 3

    def test_dt_matches_separate_learners(self):
        alone, records, batched, batched_records = play_both(ada(10, 0.0), mixed_traces(10, 300), False)
        assert_records_equal(records, batched_records)
        for k, learner in enumerate(alone):
            assert same_bytes(learner.R, batched.R[k]) and same_bytes(learner.C, batched.C[k])

    def test_certified_dt_round_raises_before_any_state_changes(self):
        learner = ada(4, 0.0)(2)
        learner.update(np.full((2, 4), 0.5))
        R, C = learner.R.copy(), learner.C.copy()
        with pytest.raises(ValueError, match="only supported for d = 1"):
            learner.update(np.array([[0.0, 1.0, 0.5, 0.5], [1.0, 0.0, 0.5, 0.5]]), certify=True)
        assert same_bytes(learner.R, R) and same_bytes(learner.C, C) and learner.t == 1

    def test_a_seed_whose_weights_all_vanish_predicts_the_prior_alone(self):
        n, t = 5, 40
        start_R = np.array([[-3.0] * n, [0.5, -0.2, 1.5, -2.0, 0.0]])
        start_C = np.array([[3.0] * n, [1.0, 1.0, 2.0, 2.0, 0.5]])
        prior = [1.0, 2.0, 3.0, 4.0, 5.0]
        batched = FixedLearner(prior, seeds=2)
        batched.R, batched.C = start_R, start_C
        alone = []
        for k in range(2):
            learner = FixedLearner(prior)
            learner.R, learner.C = start_R[k], start_C[k]
            alone.append(learner)
        p = batched.predict()
        assert same_bytes(p[0], batched.q / batched.q.sum())  # the fallback row
        assert not same_bytes(p[1], batched.q / batched.q.sum())
        for k, learner in enumerate(alone):
            assert same_bytes(learner.predict(), p[k])
        traces = [rng_for(k, 8).random((t, n)) for k in range(2)]
        records = [play(learner, trace, certificates=True) for learner, trace in zip(alone, traces)]
        assert_records_equal(records, play(batched, stacked(traces), certificates=True))
        for k, learner in enumerate(alone):
            assert same_bytes(learner.R, batched.R[k]) and same_bytes(learner.C, batched.C[k])

    def test_losses_of_the_wrong_shape_are_refused(self):
        learner = ada(3)(2)
        with pytest.raises(ValueError, match=r"losses must have shape \(2, 3\)"):
            learner.update(np.full(3, 0.5))

    def test_regret_bounds_are_for_a_learner_of_one_seed(self):
        learner = ada(3)(2)
        learner.update(np.full((2, 3), 0.5))
        for bound in (lambda: learner.regret_bound([1.0, 0.0, 0.0]), lambda: learner.bound_coefficient([1.0, 0.0, 0.0]),
                      lambda: learner.regret_bound_uniform_subset([0, 2])):
            with pytest.raises(ValueError, match="regret bounds are for a learner of one seed"):
                bound()

    @pytest.mark.parametrize("seeds", [0, -1, 1.5])
    def test_seed_count_must_be_a_positive_whole_number(self, seeds):
        with pytest.raises(ValueError, match="seeds must be a whole number"):
            ada(3)(seeds)
        with pytest.raises(ValueError, match="seeds must be a whole number"):
            HedgeLearner(3, seeds=seeds)

    def test_more_experts_than_one_dot_chunk_match_separate_learners(self):
        # past dot()'s chunk of 10,000, each seed's dots are chunked as a learner of one seed's are
        traces = [rng_for(k, 10).random((12, 10_001)) for k in range(2)]
        alone, records, batched, batched_records = play_both(ada(10_001), traces, True)
        assert_records_equal(records, batched_records)
        for k, learner in enumerate(alone):
            assert same_bytes(learner.R, batched.R[k]) and same_bytes(learner.C, batched.C[k])


class TestBatchedHedge:
    @pytest.mark.parametrize("n", [1, 2, 10, 33])
    def test_matches_separate_learners(self, n):
        alone, records, batched, batched_records = play_both(
            lambda seeds: HedgeLearner(n, seeds=seeds), mixed_traces(n, 300), False
        )
        assert_records_equal(records, batched_records)
        for k, learner in enumerate(alone):
            assert same_bytes(learner.L, batched.L[k])

    def test_adversary_needs_a_learner_of_one_seed(self):
        with pytest.raises(ValueError, match="seed-batched learner plays a loss matrix"):
            play(HedgeLearner(3, seeds=2), 10, adversary=lambda t, p: np.zeros(3))

    def test_more_experts_than_one_dot_chunk_match_separate_learners(self):
        traces = [rng_for(k, 11).random((70, 10_001)) for k in range(2)]  # a block of 64 rounds and a tail
        alone, records, batched, batched_records = play_both(
            lambda seeds: HedgeLearner(10_001, seeds=seeds), traces, False
        )
        assert_records_equal(records, batched_records)
        for k, learner in enumerate(alone):
            assert same_bytes(learner.L, batched.L[k])


class TestBatchedBank:
    def test_certify_on_some_rows_is_each_seed_on_those_rows(self):
        rng = rng_for(3, 9)
        prior = rng.random(6)
        batched, alone = ExpertBank(seeds=2), [ExpertBank(), ExpertBank()]
        for bank in (batched, *alone):
            bank.add(prior)
        for losses in rng.random((30, 2, 6)):
            batched.update(losses)
            for k, bank in enumerate(alone):
                bank.update(losses[k])
        for rows in (slice(None), slice(1, 4), np.array([0, 2, 5])):
            pots, caps = batched.certify(rows)
            for k, bank in enumerate(alone):
                assert same_bytes([pots[k], caps[k]], bank.certify(rows))

    def test_certify_gathers_each_seed_as_a_bank_of_its_own(self):
        rng = rng_for(4, 9)
        prior, losses = rng.random(1500), rng.random((40, 2, 1500))
        losses[:, :, :150] *= 0.3  # a tenth of the rows end with R > 0
        batched, alone = ExpertBank(seeds=2), [ExpertBank(), ExpertBank()]
        for bank in (batched, *alone):
            bank.add(prior)
        for lvec in losses:
            records = batched.update(lvec, certify=True)
            for k, bank in enumerate(alone):
                assert same_bytes([r[k] for r in records], bank.update(lvec[k], certify=True))
        assert _gather_rows(batched.R, 0.0) is not None  # 3,000 entries, a tenth above 0: gathered
        for rows in (slice(None), slice(3, 1493), np.arange(0, 1500, 3)):
            pots, caps = batched.certify(rows)
            for k, bank in enumerate(alone):
                assert same_bytes([pots[k], caps[k]], bank.certify(rows))

    def test_predict_and_update_act_on_every_row(self):
        bank = ExpertBank(seeds=2)
        bank.add([0.5, 0.5])
        with pytest.raises(ValueError, match="acts on every row"):
            bank.predict(np.array([0]))
        with pytest.raises(ValueError, match="acts on every row"):
            bank.update(np.full((2, 2), 0.5), conf=np.ones(2))
