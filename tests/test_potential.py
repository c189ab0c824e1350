import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgelab import potential
from hedgelab.potential import (
    GRID_C,
    GRID_R,
    REL_TOL,
    ExpertBank,
    ExpertState,
    PotentialParams,
    check_increment_bound,
    check_losses,
    check_piecewise_convexity,
    check_weight_consistency,
    check_weight_zero_set,
    dot,
    phi,
    phi_arr,
    run_grid_checks,
    weight,
    weight_arr,
)

REL = 1e-9


class TestPhi:
    def test_zero_corner(self):
        assert phi(0.0, 0.0) == 1.0

    def test_negative_regret_is_one(self):
        assert phi(-2.0, 5.0) == 1.0
        assert phi(-1e-12, 0.0) == 1.0

    def test_closed_form(self):
        assert phi(3.0, 3.0) == pytest.approx(math.e, rel=REL)

    def test_negative_c_rejected(self):
        with pytest.raises(ValueError):
            phi(0.0, -0.1)

    def test_positive_regret_zero_c_rejected(self):
        with pytest.raises(ValueError):
            phi(0.5, 0.0)

    def test_huge_exponent_saturates(self):
        assert phi(100.0, 0.1) == math.inf

    @given(
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=1e-6, max_value=1e3),
    )
    def test_at_least_one(self, r, c):
        assert phi(r, c) >= 1.0

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        R = rng.uniform(-5, 5, 100)
        C = rng.uniform(0.01, 20, 100)
        expected = np.array([phi(r, c) for r, c in zip(R, C)])
        np.testing.assert_allclose(phi_arr(R, C), expected, rtol=REL)

    def test_masked_divide_matches_where_formula(self):
        # exp(where(R > 0, R^2 / (3C), 0)) bit for bit, with R <= 0 beside C = 0
        rng = np.random.default_rng(1)
        R = np.concatenate([rng.uniform(-5, 5, 200), [0.0, -0.0, -1.0, 0.0]])
        C = np.concatenate([rng.uniform(0.01, 20, 200), [0.0, 0.0, 0.0, 3.0]])
        Rp = np.maximum(R, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = np.exp(np.where(Rp > 0.0, Rp * Rp / (3.0 * C), 0.0))
        np.testing.assert_array_equal(phi_arr(R, C), expected)

    def test_unreachable_states_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = phi_arr(np.array([1.0, 1e3, 0.0]), np.array([0.0, 1.0, 0.0]))
        np.testing.assert_array_equal(got, [np.inf, np.inf, 1.0])


class TestWeight:
    def test_fresh_state(self):
        assert weight(0.0, 0.0) == pytest.approx(0.5 * (math.exp(1.0 / 3.0) - 1.0), rel=REL)

    def test_zero_below_minus_one(self):
        assert weight(-1.5, 4.0) == 0.0
        assert weight(-1.0, 0.0) == 0.0

    def test_derived_value(self):
        # 0.5 * (e^0.5 - 1), evaluated directly
        assert weight(0.5, 0.5) == pytest.approx(0.3243606353500641, rel=REL)

    def test_negative_c_rejected(self):
        with pytest.raises(ValueError):
            weight(0.0, -1.0)

    @given(
        st.floats(min_value=-0.999, max_value=20),
        st.floats(min_value=0, max_value=100),
    )
    def test_positive_above_minus_one(self, r, c):
        assert weight(r, c) > 0.0

    @given(st.floats(min_value=0, max_value=100))
    def test_strictly_increasing_in_regret(self, c):
        rs = np.linspace(-0.99, 6.0, 40)
        vals = [weight(r, c) for r in rs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        R = rng.uniform(-3, 8, 200)
        C = rng.uniform(0, 30, 200)
        expected = np.array([weight(r, c) for r, c in zip(R, C)])
        np.testing.assert_allclose(weight_arr(R, C), expected, rtol=REL)


# R exactly at and just beside the edges of the zero-weight set (R <= -1) and
# of the flat-potential set (R <= 0).
EDGE_R = [-1.0, np.nextafter(-1.0, -2.0), np.nextafter(-1.0, 0.0), 0.0, np.nextafter(0.0, -1.0), np.nextafter(0.0, 1.0)]


@st.composite
def bank_rows(draw):
    """Priors, (R, C) with |R| <= C, optional confidences and a row selection."""
    n = draw(st.integers(min_value=1, max_value=12))
    q = np.array(draw(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=n, max_size=n)))
    regret = st.one_of(st.sampled_from(EDGE_R), st.floats(-20.0, 20.0), st.floats(-20.0, -1.0))  # dead rows are common
    R = np.array(draw(st.lists(regret, min_size=n, max_size=n)))
    C = np.abs(R) + np.array(draw(st.lists(st.floats(0.0, 30.0), min_size=n, max_size=n)))
    subsets = st.sets(st.integers(0, n - 1), min_size=1).map(lambda r: np.array(sorted(r)))
    rows = draw(st.one_of(st.just(slice(None)), subsets))
    size = n if isinstance(rows, slice) else rows.size
    conf = draw(st.one_of(st.none(), st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size).map(np.array)))
    return q, R, C, rows, conf


def _bank(q, R, C) -> ExpertBank:
    bank = ExpertBank()
    bank.add(q)
    bank.R[:], bank.C[:] = R, C
    return bank


class TestExpertBank:
    """Predictions and potential sums equal the formulas evaluated on every row,
    bit for bit, whether or not exp is skipped on the rows where the formula is
    constant (gather_min 0 skips it on every bank, None keeps the default)."""

    @pytest.mark.parametrize("gather_min", [0, None])
    @given(case=bank_rows())
    def test_predict_matches_dense_formula(self, gather_min, case):
        q, R, C, rows, conf = case
        qc = q[rows] if conf is None else q[rows] * conf
        s = qc * weight_arr(R[rows], C[rows])
        total = s.sum()
        if total <= 0.0:
            s, total = qc, qc.sum()
        with pytest.MonkeyPatch.context() as mp:
            if gather_min is not None:
                mp.setattr(potential, "_GATHER_MIN_SIZE", gather_min)
            np.testing.assert_array_equal(_bank(q, R, C).predict(rows, conf), s / total)

    @pytest.mark.parametrize("gather_min", [0, None])
    @given(case=bank_rows())
    def test_potential_sum_matches_dense_formula(self, gather_min, case):
        q, R, C, rows, _ = case
        expected = float(np.dot(q[rows], phi_arr(R[rows], C[rows])) / q[rows].sum())
        with pytest.MonkeyPatch.context() as mp:
            if gather_min is not None:
                mp.setattr(potential, "_GATHER_MIN_SIZE", gather_min)
            assert _bank(q, R, C).potential_sum(rows) == expected

    @pytest.mark.parametrize("gather_min", [0, None])
    def test_all_dead_falls_back_to_prior(self, gather_min, monkeypatch):
        if gather_min is not None:
            monkeypatch.setattr(potential, "_GATHER_MIN_SIZE", gather_min)
        q = np.array([0.2, 0.3, 0.5])
        bank = _bank(q, np.array([-1.0, -2.0, -7.5]), np.array([1.0, 2.0, 7.5]))
        np.testing.assert_array_equal(bank.predict(), q / q.sum())
        conf = np.array([1.0, 0.5, 0.25])
        np.testing.assert_array_equal(bank.predict(conf=conf), q * conf / (q * conf).sum())
        assert bank.potential_sum() == 1.0


class TestDot:
    """dot() is numpy's dot up to OpenBLAS's threading threshold and a
    chunked sum above it; math.fsum of the products is the exact reference."""

    @pytest.mark.parametrize("n", [9_999, 10_000, 10_001, 20_000])
    def test_within_a_few_ulps_of_fsum(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            a, b = rng.random(n), rng.random(n)
            exact = math.fsum((a * b).tolist())
            assert abs(dot(a, b) - exact) <= 4 * math.ulp(exact)

    @pytest.mark.parametrize("n", [0, 1, 10, 9_999, 10_000])
    def test_numpy_bits_at_and_below_the_threshold(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.random(n), rng.random(n)
        assert dot(a, b) == float(np.dot(a, b))

    @pytest.mark.parametrize("n", [10_001, 20_000])
    def test_chunks_above_the_threshold(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.random(n), rng.random(n)
        total = 0.0
        for i in range(0, n, 10_000):
            total += float(np.dot(a[i : i + 10_000], b[i : i + 10_000]))
        assert dot(a, b) == total


class TestCheckLosses:
    @pytest.mark.parametrize("bad", [math.nan, -1e-300, 1.0 + 2.0**-52])
    @pytest.mark.parametrize("n", [None, 3])
    def test_rejects_outside_the_unit_interval(self, bad, n):
        for pos in range(3):
            losses = [0.5, 0.0, 1.0]
            losses[pos] = bad
            with pytest.raises(ValueError, match=r"^losses must lie in \[0, 1\]$"):
                check_losses(losses, n)

    def test_accepts_the_unit_interval(self):
        out = check_losses([0, 1.0, 0.25], 3)
        assert out.dtype == float and out.tolist() == [0.0, 1.0, 0.25]

    def test_checks_every_entry_of_any_shape(self):
        assert check_losses(0.5).shape == ()
        assert check_losses([[0.5, 0.25]]).shape == (1, 2)
        for bad in (1.5, [[0.5, 1.5]], [[0.5], [math.nan]]):
            with pytest.raises(ValueError, match=r"^losses must lie in \[0, 1\]$"):
                check_losses(bad)

    @pytest.mark.parametrize("n", [None, 0])
    def test_empty_accepted(self, n):
        out = check_losses([], n)
        assert out.dtype == float and out.shape == (0,)

    def test_empty_of_the_wrong_length_rejected(self):
        with pytest.raises(ValueError, match=r"^losses must have shape \(3,\)$"):
            check_losses([], 3)


class TestParams:
    def test_valid_range(self):
        assert PotentialParams(0.0).d == 0.0
        assert PotentialParams(1.0).d == 1.0

    @pytest.mark.parametrize("d", [-0.1, 0.5, 1.5, 2.0])
    def test_out_of_range_rejected(self, d):
        with pytest.raises(ValueError):
            PotentialParams(d)

    def test_increment_d1(self):
        inc = PotentialParams(1.0).increment(np.array([-0.5, 0.0, 0.25]))
        np.testing.assert_array_equal(inc, [0.5, 0.0, 0.25])

    def test_increment_d0_counts_rounds(self):
        # 0^0 := 1, so every round contributes exactly 1
        inc = PotentialParams(0.0).increment(np.array([-0.5, 0.0, 0.25]))
        np.testing.assert_array_equal(inc, [1.0, 1.0, 1.0])

    def test_expert_state_defaults(self):
        s = ExpertState()
        assert s.R == 0.0 and s.C == 0.0


@st.composite
def lemma_points(draw):
    """(R, C, r) with C in [0, 200], |R| <= C (interior or the edges -1, 0, +-C) and r in [-1, 1]."""
    C = draw(st.floats(min_value=0.0, max_value=200.0))
    R = draw(st.one_of(st.floats(min_value=-C, max_value=C), st.sampled_from([-1.0, 0.0, C, -C])))
    r = draw(st.floats(min_value=-1.0, max_value=1.0))
    return min(max(R, -C), C), C, r


class TestContinuousLemma:
    """The one-step lemma and the weight identity off the grid of the grid checks."""

    @given(lemma_points())
    @settings(max_examples=2000, deadline=None)
    def test_increment_bound(self, point):
        R, C, r = point
        base = phi(R, C)
        rhs = base + weight(R, C) * r + 3.0 * abs(r) / (2.0 * (C + 1.0)) + REL_TOL * base
        assert phi(R + r, C + abs(r)) <= rhs

    @given(lemma_points())
    @settings(max_examples=500, deadline=None)
    def test_weight_arr_matches_weight(self, point):
        R, C, _ = point
        expected = weight(R, C)
        assert abs(weight_arr(np.array([R]), np.array([C]))[0] - expected) <= REL_TOL * expected


class TestGridChecks:
    def test_increment_bound_passes(self):
        res = check_increment_bound()
        assert res.passed, res.examples

    def test_piecewise_convexity_passes(self):
        res = check_piecewise_convexity()
        assert res.passed, res.examples

    def test_weight_zero_set_passes(self):
        res = check_weight_zero_set()
        assert res.passed, res.examples

    def test_weight_consistency_passes(self):
        res = check_weight_consistency()
        assert res.passed, res.examples

    def test_mutated_weight_fails_suite(self):
        mutated = lambda R, C: 1.01 * weight(R, C)  # noqa: E731
        results = run_grid_checks(mutated)
        assert any(not r.passed for r in results)

    def test_grid_shape(self):
        assert GRID_R[0] == -10.0 and GRID_R[-1] == 10.0 and len(GRID_R) == 81
        assert list(GRID_C) == [0.0, 0.5, 1.0, 5.0, 50.0]


class TestCompetitorBound:
    def test_equals_scalar_sqrt_and_broadcasts(self):
        rng = np.random.default_rng(3)
        c_u, a = rng.uniform(0.0, 50.0, (4, 1)), rng.uniform(1.0, 30.0, 5)
        bound = potential.competitor_bound(c_u, a)
        assert bound.shape == (4, 5)
        assert [[math.sqrt(c * x) for x in a] for c in c_u[:, 0]] == bound.tolist()

    def test_infinite_coefficient_gives_infinity_even_at_zero_accumulator(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = potential.competitor_bound(np.array([0.0, 0.0, 2.0]), np.array([math.inf, 4.0, math.inf]))
        assert bound.tolist() == [math.inf, 0.0, math.inf]
        assert float(potential.competitor_bound(0.0, math.inf)) == math.inf


class TestGatheredSubsets:
    def test_gathered_awake_rows_match_dense_formula(self):
        # 3,000 awake rows of 6,000 with about 6% live: predict, update and certify
        # gather on the awake rows
        rng = np.random.default_rng(1)
        n = 6000
        q = rng.uniform(0.1, 1.0, n)
        R = np.where(rng.random(n) < 0.9, -3.0, rng.uniform(-5.0, 2.0, n))
        C = np.abs(R) + rng.uniform(0.0, 3.0, n)
        rows = np.arange(0, n, 2)
        losses = rng.uniform(0.0, 1.0, rows.size)
        for conf in (None, rng.uniform(0.1, 1.0, rows.size)):
            bank = _bank(q, R, C)
            qc = q[rows] if conf is None else q[rows] * conf
            s = qc * weight_arr(R[rows], C[rows])
            p = bank.predict(rows, conf)
            np.testing.assert_array_equal(p, s / s.sum())
            player_loss = bank.update(losses, rows, conf)
            assert player_loss == float(np.dot(p, losses))
            r = player_loss - losses if conf is None else conf * (player_loss - losses)
            np.testing.assert_array_equal(bank.R[rows], R[rows] + r)
            np.testing.assert_array_equal(bank.C[rows], C[rows] + np.abs(r))
            Rn, Cn = bank.R[rows], bank.C[rows]
            assert bank.potential_sum(rows) == float(np.dot(q[rows], phi_arr(Rn, Cn)) / q[rows].sum())


def _weight_by_outer(R, C, work=None):
    """_weight as it was written with np.add.outer, the reference for its broadcast form."""
    ab = np.add.outer(np.array([1.0, -1.0]), R, out=None if work is None else work[1:])
    denom = np.add(C, 1.0, out=None if work is None else work[0])
    denom *= 3.0
    np.maximum(ab, 0.0, out=ab)
    np.multiply(ab, ab, out=ab)
    np.divide(ab, denom, out=ab)
    np.exp(ab, out=ab)
    a = np.subtract(ab[0], ab[1], out=ab[0])
    a *= 0.5
    return a


class TestWeightBroadcast:
    """_weight's one broadcast add of +-1 gives the bits of np.add.outer, with
    and without a work block, on 1-d rows, (S, m) seed stacks and arrays of
    higher rank, which weight_arr passes through."""

    @staticmethod
    def _states(rng, shape):
        m = int(np.prod(shape))
        near = np.concatenate([EDGE_R, [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]])
        R = np.concatenate([
            near, -rng.uniform(1.0, 50.0, m // 4),  # R <= -1: weight exactly 0
            near + rng.uniform(-1e-12, 1e-12, near.size), rng.uniform(-1.0, 60.0, m),
        ])[:m]
        C = np.abs(R) + np.concatenate([np.zeros(m // 3), rng.uniform(0.0, 2.0, m // 3), rng.uniform(100.0, 1500.0, m)])[:m]
        C[np.abs(R) == 0.0] = 0.0  # C = 0 beside R = 0
        return R.reshape(shape), C.reshape(shape)

    @pytest.mark.parametrize("shape", [(1,), (7,), (300,), (2, 150), (3, 40), (2, 3, 5), (2, 1, 2, 4)])
    @pytest.mark.parametrize("with_work", [False, True])
    def test_matches_outer_form(self, shape, with_work):
        rng = np.random.default_rng(sum(shape))
        for _ in range(20):
            R, C = self._states(rng, shape)
            work, ref_work = (np.empty((3, *shape)), np.empty((3, *shape))) if with_work else (None, None)
            got = potential._weight(R, C, work)
            expected = _weight_by_outer(R, C, ref_work)
            assert got.shape == shape and got.tobytes() == expected.tobytes()
            if with_work:
                assert np.shares_memory(got, work[1]) and work.tobytes() == ref_work.tobytes()

    def test_weight_arr_keeps_any_rank(self):
        R, C = self._states(np.random.default_rng(3), (2, 3, 4))
        assert potential.weight_arr(R, C).tobytes() == _weight_by_outer(R, C).tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(0.0, 1e4)), min_size=1, max_size=20))
    def test_matches_outer_form_on_drawn_states(self, pairs):
        R, C = map(np.array, zip(*pairs))
        assert potential._weight(R, C).tobytes() == _weight_by_outer(R, C).tobytes()
