"""Interval-adaptive learner built from birth-scheduled sleeping experts.

Every round t spawns one fresh copy of each base expert; the copy born at
round tau accumulates regret only over rounds tau..t, and its prior weight is
1/tau^2 (left unnormalized: predictions are scale-invariant in the prior).
Predicting with the sum of copy weights per base expert yields a learner whose
regret is controlled on every time interval simultaneously, which in turn
bounds shifting regret against the best segmented competitor.

The copies are rows of the expert bank that SleepingRegistry also uses, in
birth order (row (tau-1)*N + i holds the copy of expert i born at tau), and
every copy's (R, C) is updated every round: O(N*t) time per round and O(N*T)
memory, so harness runs cap T around 20k.  Only the live copies (R > -1)
cost an exp per round, because every other copy's weight is exactly zero:
94% of the copies are dead at the end of a 1500-round shifting run with
N=10, 57% after 1500 i.i.d. uniform rounds.  Because the learner shares the
bank, driving a registry with birth-scheduled ids reproduces its outputs bit
for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .potential import BankCertificates, ExpertBank, bound_coefficient, check_losses, check_trace, potential_cap

__all__ = [
    "TvLearner",
    "tv_prior",
    "tv_point_mass_terms",
    "adaptive_regret",
    "interval_bound",
    "segments_bound",
    "check_all_interval_bounds",
]


class TvLearner(BankCertificates):
    """Base-expert predictions from per-birth-round sleeping copies (d = 1)."""

    def __init__(self, n_base: int, horizon: int | None = None):
        if n_base < 1:
            raise ValueError("need at least one base expert")
        self.n = int(n_base)
        self.t = 0  # completed rounds
        self._bank = ExpertBank(capacity=(int(horizon) if horizon else 16) * self.n)

    @property
    def n_sleeping(self) -> int:
        """Number of live copies: one per (birth round, base expert) pair."""
        return self.n * self.t

    @property
    def _live(self) -> slice:  # the rows certified: the live copies
        return slice(0, self.n_sleeping)

    def copy_state(self, tau: int, i: int) -> tuple[float, float]:
        """Accumulators of the copy born at round tau (1-based) for expert i."""
        if not (1 <= tau <= self.t and 0 <= i < self.n):
            raise ValueError(f"no copy of expert {i} born at round {tau}: need 1 <= tau <= {self.t}, 0 <= i < {self.n}")
        row = (tau - 1) * self.n + i
        return float(self._bank.R[row]), float(self._bank.C[row])

    def _spawn(self) -> slice:
        """Rows of every copy that plays the upcoming round, registering the
        n copies born at that round (prior 1/t^2) on first use."""
        t = self.t + 1
        if self._bank.q.size < t * self.n:
            self._bank.add(np.full(self.n, 1.0 / t**2))
        return slice(0, t * self.n)

    def predict(self) -> np.ndarray:
        """Distribution over base experts for the upcoming round."""
        return self._bank.predict(self._spawn()).reshape(-1, self.n).sum(axis=0)

    def update(self, losses) -> float:
        """Consume one round of base-expert losses, return the player loss."""
        losses = check_losses(losses, self.n)
        rows = self._spawn()
        player_loss = self._bank.update(np.tile(losses, self.t + 1), rows)
        self.t += 1
        return player_loss


# ---------------------------------------------------------------------------
# Interval regret and its certificates, computed from a recorded trace.
# Rounds are 1-based; losses is the (T, N) loss matrix and player_losses the
# length-T player loss sequence.
# ---------------------------------------------------------------------------


def _interval_trace(player_losses, losses, t1: int, t2: int, i: int):
    """The checked trace arrays, rejecting rounds outside 1 <= t1 <= t2 <= T and an expert outside [0, N)."""
    player_losses, losses = check_trace(player_losses, losses)
    T, N = losses.shape
    if not (1 <= t1 <= t2 <= T and 0 <= i < N):
        raise ValueError(f"need 1 <= t1 <= t2 <= {T} and 0 <= i < {N}, got t1={t1}, t2={t2}, i={i}")
    return player_losses, losses


def adaptive_regret(player_losses, losses, t1: int, t2: int, i: int) -> float:
    """Regret to expert i over rounds t1..t2 inclusive (1-based)."""
    player_losses, losses = _interval_trace(player_losses, losses, t1, t2, i)
    return float(np.sum(player_losses[t1 - 1 : t2] - losses[t1 - 1 : t2, i]))


def _prefix(x):
    return np.vstack([np.zeros(x.shape[1]), np.cumsum(x, axis=0)])


def _prefixes(player_losses, losses):
    r = player_losses[:, None] - losses
    return _prefix(r), _prefix(np.abs(r))


def tv_prior(T: int) -> tuple[np.ndarray, np.ndarray]:
    """Birth priors q_tau = 1/tau^2 and their sums zeta_t over tau <= t, for t = 1..T:
    a copy born at tau has normalized prior q_tau / (N zeta_t) among N*t copies."""
    qtau = 1.0 / np.arange(1.0, T + 1.0) ** 2
    return qtau, np.cumsum(qtau)


def tv_point_mass_terms(N: int, T: int) -> tuple[np.ndarray, np.ndarray]:
    """For t = 1..T: ln(1/q) = ln(N zeta_t) of one expert's copy born at round 1, and the N*t live copies."""
    _, zeta = tv_prior(T)
    return np.log(N * zeta), N * np.arange(1.0, T + 1.0)


def _certificate_at(pref_a, qtau, zeta, t2: int, n: int) -> float:
    # potential-sum cap over the n*t2 copies alive at the end of round t2
    return potential_cap(np.repeat(qtau[:t2], n), (pref_a[t2][None, :] - pref_a[0:t2]).ravel())


def _interval_bounds(pref_a, qtau, zeta, t2: int, n: int, births: slice, log_t1) -> np.ndarray:
    """Certificates at round t2 of the copies born at rounds t1 = births.start + 1 .. births.stop,
    one row per birth round (log_t1 holds their ln t1) and one column per expert."""
    ln_inv_q = math.log(n * zeta[t2 - 1]) + 2.0 * log_t1
    cap = _certificate_at(pref_a, qtau, zeta, t2, n)
    return np.sqrt((pref_a[t2][None, :] - pref_a[births]) * bound_coefficient(ln_inv_q[:, None], cap, n * t2))


def interval_bound(player_losses, losses, t1: int, t2: int, i: int) -> float:
    """Certificate for the interval regret of the copy born at t1 for expert i.

    sqrt(3 * C_[t1,t2],i * (ln(1/q_(t1)) + ln B' + ln(1 + ln(N*t2)))) where
    q_(t1) is the normalized 1/t1^2 prior over the N*t2 copies alive at t2 and
    B' is their potential-sum cap.
    """
    player_losses, losses = _interval_trace(player_losses, losses, t1, t2, i)
    pref_a = _prefix(np.abs(player_losses[:, None] - losses))
    qtau, zeta = tv_prior(losses.shape[0])
    # math.log, not np.log: the two differ in the last bit at some t1 (9170, for one)
    bounds = _interval_bounds(pref_a, qtau, zeta, t2, losses.shape[1], slice(t1 - 1, t1), np.array([math.log(t1)]))
    return float(bounds[0, i])


def segments_bound(player_losses, losses, boundaries, experts) -> float:
    """Sum of the interval certificates of a segmented competitor that plays
    experts[j] over rounds boundaries[j] + 1 .. boundaries[j + 1]."""
    segments = zip(zip(boundaries[:-1], boundaries[1:]), experts, strict=True)
    return float(sum(interval_bound(player_losses, losses, a + 1, b, i) for (a, b), i in segments))


def check_all_interval_bounds(player_losses, losses, rel_tol: float = 1e-9):
    """Verify realized interval regret against its certificate on every
    (t1, t2, expert) triple; returns (checked, failures, worst_margin)."""
    player_losses, losses = check_trace(player_losses, losses)
    T, N = losses.shape
    pref_r, pref_a = _prefixes(player_losses, losses)
    qtau, zeta = tv_prior(T)
    log_t1 = np.log(np.arange(1.0, T + 1.0))
    failures = 0
    worst = math.inf
    for t2 in range(1, T + 1):
        bound = _interval_bounds(pref_a, qtau, zeta, t2, N, slice(0, t2), log_t1[:t2])
        margin = bound - (pref_r[t2][None, :] - pref_r[0:t2]) + rel_tol * np.abs(bound)
        failures += int(np.sum(margin < 0.0))
        worst = min(worst, float(margin.min()))
    return T * (T + 1) // 2 * N, failures, worst
