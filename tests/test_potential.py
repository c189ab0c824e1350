import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hedgelab import potential
from hedgelab.potential import (
    GRID_C,
    GRID_R,
    ExpertBank,
    ExpertState,
    PotentialParams,
    check_increment_bound,
    check_piecewise_convexity,
    check_weight_consistency,
    check_weight_zero_set,
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
