"""The expert bank as a state machine: random call sequences against dense formulas.

Between calls an ExpertBank's state is its prior q, its regrets R and its
accumulators C, and nothing else.  After every call the bytes of q, R and C,
and every value the call returned, equal those of plain formulas on dense
arrays, with no gathered rows and no work block, and |R| <= C holds.  Dead
rows (R <= -1) are seeded through FixedLearner's R and C setters, so that
the sizes cross the 2,048 rows from which the bank gathers, the 2/5 of live
rows up to which it does (potential._gather_rows decides both), and a
doubling of the bank's buffer.
"""

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule, run_state_machine_as_test,
)

from hedgelab.fixed import FixedLearner
from hedgelab.potential import _gather_rows, dot, phi_arr, weight_arr

MAX_ROWS = 6000
ROW_KINDS = ["every", "slice", "ints", "ints with confidences"]


def dense_predict(q, R, C, rows, conf):
    qc = q[rows] if conf is None else q[rows] * conf
    s = qc * weight_arr(R[rows], C[rows])
    total = s.sum()
    if total <= 0.0:
        s, total = qc, qc.sum()
    return s / total


def dense_certify(q, R, C, rows):
    q, R, C = q[rows], R[rows], C[rows]
    if q.size == 0:
        return 1.0, 2.5
    q_sum = q.sum()
    return dot(q, phi_arr(R, C)) / q_sum, 1.0 + 1.5 * (dot(q, 1.0 + np.log1p(C)) / q_sum)


def gathers(R, edge) -> bool:
    """Whether the bank's gather rule picks rows of R: at least 2,048 of them, at most 2/5 above the edge."""
    return _gather_rows(R, edge) is not None


class BankMachine(RuleBasedStateMachine):
    visited: set = set()  # (call, whether it gathered) pairs, reset by the test

    @initialize(n=st.sampled_from([1, 7, 2047, 2048, 3000, 4000]), seed=st.integers(0, 2**32 - 1))
    def start(self, n, seed):
        prior = np.random.default_rng(seed).uniform(0.1, 1.0, n)
        self.learner = FixedLearner(prior)
        self.bank = self.learner._bank
        self.q, self.R, self.C = prior / prior.sum(), np.zeros(n), np.zeros(n)
        self.capacity = n

    def _rows(self, kind, rng, allow_empty=False):
        m = self.q.size
        lo = 0 if allow_empty else 1
        if kind == "every":
            return slice(None), None
        if kind == "slice":
            start = int(rng.integers(0, m - lo + 1))
            return slice(start, int(rng.integers(start + lo, m + 1))), None
        rows = np.flatnonzero(rng.random(m) < rng.choice([0.01, 0.3, 0.9]))
        if rows.size < lo:
            rows = np.array([int(rng.integers(0, m))])
        return rows, (rng.uniform(0.1, 1.0, rows.size) if kind == "ints with confidences" else None)

    @precondition(lambda self: self.q.size < MAX_ROWS)
    @rule(k=st.sampled_from([1, 10, 700, 2100]), seed=st.integers(0, 2**32 - 1))
    def add(self, k, seed):
        priors = np.random.default_rng(seed).uniform(0.1, 1.0, k)
        end = self.q.size + k
        self.visited.add(("grow", end > self.capacity))
        self.capacity = max(end, 2 * self.capacity) if end > self.capacity else self.capacity
        self.bank.add(priors)
        self.q, self.R, self.C = np.append(self.q, priors), np.append(self.R, np.zeros(k)), np.append(self.C, np.zeros(k))

    @rule(share=st.sampled_from([0.1, 0.9, 0.99, 1.0]), dead=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def set_states(self, share, dead, seed):
        """Rows turned dead (R <= -1) or live (R > -1) through the learner's setters, with |R| <= C."""
        rng = np.random.default_rng(seed)
        rows = rng.random(self.q.size) < share
        R, C = self.R.copy(), self.C.copy()
        R[rows] = -rng.uniform(1.0, 4.0, rows.sum()) if dead else rng.uniform(-0.99, 1.0, rows.sum())
        C[rows] = np.abs(R[rows]) + rng.uniform(0.0, 2.0, rows.sum())
        self.learner.R, self.learner.C = R, C
        self.R, self.C = R, C

    @rule(kind=st.sampled_from(ROW_KINDS), seed=st.integers(0, 2**32 - 1))
    def predict(self, kind, seed):
        rows, conf = self._rows(kind, np.random.default_rng(seed))
        self.visited.add(("predict", kind == "every" and gathers(self.R, -1.0)))
        p = self.bank.predict(rows, conf)
        assert p.tobytes() == dense_predict(self.q, self.R, self.C, rows, conf).tobytes()

    @rule(kind=st.sampled_from(ROW_KINDS), certify=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def update(self, kind, certify, seed):
        rng = np.random.default_rng(seed)
        rows, conf = self._rows(kind, rng)
        losses = rng.uniform(0.0, 1.0, self.q[rows].size)
        player_loss = dot(dense_predict(self.q, self.R, self.C, rows, conf), losses)
        r = player_loss - losses if conf is None else conf * (player_loss - losses)
        gathered = kind == "every" and gathers(self.R, -1.0)
        self.visited.add(("update", gathered))
        was_above = self.R > 0.0
        out = self.bank.update(losses, rows, conf, certify=certify)
        self.R[rows] += r
        self.C[rows] += np.abs(r)
        if certify:
            # True for a round that gathers for its prediction and its certificate while rows
            # cross 0: the certificate must find them among the rows the prediction gathered
            crossed = np.any((self.R > 0.0) & ~was_above)
            self.visited.add(("certified update", gathered and gathers(self.R, 0.0) and crossed))
            assert out == (player_loss, *dense_certify(self.q, self.R, self.C, rows))
        else:
            assert out == player_loss

    @rule(kind=st.sampled_from(ROW_KINDS[:3]), seed=st.integers(0, 2**32 - 1))
    def certify(self, kind, seed):
        rows, _ = self._rows(kind, np.random.default_rng(seed), allow_empty=True)
        self.visited.add(("certify", gathers(self.R[rows], 0.0)))
        assert self.bank.certify(rows) == dense_certify(self.q, self.R, self.C, rows)

    @invariant()
    def state_is_q_r_and_c(self):
        assert self.bank.q.tobytes() == self.q.tobytes()
        assert self.bank.R.tobytes() == self.R.tobytes()
        assert self.bank.C.tobytes() == self.C.tobytes()
        assert np.all(np.abs(self.R) <= self.C)


def test_bank_matches_dense_model():
    BankMachine.visited = set()
    run_state_machine_as_test(BankMachine, settings=settings(
        max_examples=100, stateful_step_count=30, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow]))
    # the sequences reached both sides of the gather rule and of a doubling
    for call in ("grow", "predict", "update", "certified update", "certify"):
        assert {(call, False), (call, True)} <= BankMachine.visited, call
