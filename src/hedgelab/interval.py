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
memory, so harness runs cap T around 20k.  Every round is a round of
ExpertBank.play, which makes the passes over the N*t copies that the
ExpertBank docstring lists: update() spawns the round's copies and plays one,
and play_trace checks a whole loss matrix once, registers every copy the
trace needs by one add() and plays all its rounds in one call.  While at
most 2/5 of the copies are live (R > -1), only those cost an exp, because
every other copy's weight is exactly zero: 94% of the copies are dead at the
end of a 1500-round shifting run with N=10, 57% after 1500 i.i.d. uniform
rounds.  The loop has no fallback to the prior for a round whose weights all
vanish, since none can here: a round's fresh copies have R = C = 0 and
weight 0.5 (e^(1/3) - 1) > 0.  Its reference is the sleeping registry's
round on the same rows, the bank's update(np.tile(l, t), np.arange(N*t),
certify=True), which tests/test_whole_trace.py::test_tv_is_the_bank_rows_path
requires both paths to equal bit for bit.  update() given a (T, N) array
plays it as play_trace does, and play_trace goes through update(), so that
a timer around update() also times whole traces.  Because the learner
shares the bank, driving a registry with birth-scheduled ids reproduces its
outputs bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .potential import (
    BankCertificates, ExpertBank, bound_coefficient, check_count, check_losses, check_trace, competitor_bound,
    potential_cap,
)

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
        self.n = check_count(n_base, "n_base")
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

    def _spawn(self) -> None:
        """Register the n copies born at the upcoming round t, each with prior 1/t^2, unless predict() has."""
        t = self.t + 1
        if self._bank.q.size < t * self.n:
            self._bank.add(np.full(self.n, 1.0 / t**2))

    def predict(self) -> np.ndarray:
        """Distribution over base experts for the upcoming round."""
        self._spawn()
        return self._bank.predict().reshape(-1, self.n).sum(axis=0)

    def update(self, losses, certify: bool = False):
        """Consume one round of base-expert losses, return the player loss:
        one round of ExpertBank.play on the copies, this round's spawned.
        With certify=True return (player loss, *certify()) of the new state,
        the bits of update() then certify() from one pass over the copies.
        A (T, N) array of losses is a whole trace, which update() plays and
        returns as play_trace() describes."""
        losses = np.asarray(losses, dtype=float)
        return self._play(losses, certify) if losses.ndim == 2 else self._round(losses, certify)

    def _round(self, losses, certify: bool):
        losses = check_losses(losses, self.n)
        self._spawn()
        records = self._bank.play(losses[None], [self._bank.q.size], certify)  # every copy plays its expert's loss
        self.t += 1
        return tuple(float(a[0]) for a in records) if certify else float(records[0])

    def play_trace(self, losses: np.ndarray, certify: bool = False):
        """update() on each round of (T, N) losses, and return the T player
        losses; with certify=True, (player losses, potential sums, caps), those
        of update(losses, certify=True), bit for bit.  The losses are checked
        once, as a whole; one add() registers every copy the trace needs (but
        those predict() has spawned), and ExpertBank.play plays the rounds.
        When that check fails, each round plays as update() plays one and
        checks its own, so it raises at the round and with the message of the
        loop, and the learner holds the state the loop leaves.  A (T, N) trace
        goes through update(), whose trace form this is, so that a timer
        wrapped around update() (bench/tracer.py) also times whole traces."""
        return self.update(losses, certify) if np.ndim(losses) == 2 else self._play(losses, certify)

    def _play(self, losses: np.ndarray, certify: bool):
        T = losses.shape[0]
        self._bank.reserve((self.t + T) * self.n)
        try:
            losses = check_losses(losses, (T, self.n))
        except ValueError:
            records = [self._round(lvec, certify) for lvec in losses]
            records = np.array(records, dtype=float).reshape(T, 3 if certify else 1).T
            return tuple(records) if certify else records[0]
        births = np.arange(self._bank.q.size // self.n + 1, self.t + T + 1)
        self._bank.add(np.repeat(1.0 / births**2, self.n))
        records = self._bank.play(losses, range((self.t + 1) * self.n, (self.t + T + 1) * self.n, self.n), certify)
        self.t += T
        return records


# ---------------------------------------------------------------------------
# Interval regret and its certificates, computed from a recorded trace.
# Rounds are 1-based; losses is the (T, N) loss matrix and player_losses the
# length-T player loss sequence.
# ---------------------------------------------------------------------------


def _check_interval(shape, t1: int, t2: int, i: int) -> None:
    """Reject rounds outside 1 <= t1 <= t2 <= T and an expert outside [0, N) of a (T, N) trace."""
    T, N = shape
    if not (1 <= t1 <= t2 <= T and 0 <= i < N):
        raise ValueError(f"need 1 <= t1 <= t2 <= {T} and 0 <= i < {N}, got t1={t1}, t2={t2}, i={i}")


def adaptive_regret(player_losses, losses, t1: int, t2: int, i: int) -> float:
    """Regret to expert i over rounds t1..t2 inclusive (1-based)."""
    player_losses, losses = check_trace(player_losses, losses)
    _check_interval(losses.shape, t1, t2, i)
    return float(np.sum(player_losses[t1 - 1 : t2] - losses[t1 - 1 : t2, i]))


def _abs_prefix(player_losses, losses) -> np.ndarray:
    """Sums of |player loss - loss| over each expert's first t rounds, t = 0..T: row t of a (T + 1, N) array."""
    pref = np.zeros((losses.shape[0] + 1, losses.shape[1]))
    r = player_losses[:, None] - losses
    np.cumsum(np.abs(r, out=r), axis=0, out=pref[1:])
    return pref


def _prefixes(player_losses, losses) -> tuple[np.ndarray, np.ndarray]:
    """The sums of player loss - loss laid out as _abs_prefix's, and _abs_prefix."""
    pref_r = np.zeros((losses.shape[0] + 1, losses.shape[1]))
    np.cumsum(player_losses[:, None] - losses, axis=0, out=pref_r[1:])
    return pref_r, _abs_prefix(player_losses, losses)


def tv_prior(T: int) -> tuple[np.ndarray, np.ndarray]:
    """Birth priors q_tau = 1/tau^2 and their sums zeta_t over tau <= t, for t = 1..T:
    a copy born at tau has normalized prior q_tau / (N zeta_t) among N*t copies."""
    qtau = 1.0 / np.arange(1.0, T + 1.0) ** 2
    return qtau, np.cumsum(qtau)


def tv_point_mass_terms(N: int, T: int) -> tuple[np.ndarray, np.ndarray]:
    """For t = 1..T: ln(1/q) = ln(N zeta_t) of one expert's copy born at round 1, and the N*t live copies."""
    _, zeta = tv_prior(T)
    return np.log(N * zeta), N * np.arange(1.0, T + 1.0)


def _certificate_at(pref_a, qtau, t2: int, n: int) -> float:
    # potential-sum cap over the n*t2 copies alive at the end of round t2
    return potential_cap(np.repeat(qtau[:t2], n), (pref_a[t2][None, :] - pref_a[0:t2]).ravel())


def _interval_bounds(pref_a, qtau, zeta, t2: int, n: int, births: slice, log_t1) -> np.ndarray:
    """Certificates at round t2 of the copies born at rounds t1 = births.start + 1 .. births.stop,
    one row per birth round (log_t1 holds their ln t1) and one column per expert."""
    ln_inv_q = math.log(n * zeta[t2 - 1]) + 2.0 * log_t1
    cap = _certificate_at(pref_a, qtau, t2, n)
    return competitor_bound(pref_a[t2][None, :] - pref_a[births], bound_coefficient(ln_inv_q[:, None], cap, n * t2))


def interval_bound(player_losses, losses, t1: int, t2: int, i: int) -> float:
    """Certificate for the interval regret of the copy born at t1 for expert i.

    The competitor bound of C_[t1,t2],i and 3 * (ln(1/q_(t1)) + ln B' +
    ln(1 + ln(N*t2))), where q_(t1) is the normalized 1/t1^2 prior over the
    N*t2 copies alive at t2 and B' is their potential-sum cap.
    """
    return segments_bound(player_losses, losses, [t1 - 1, t2], [i])


def segments_bound(player_losses, losses, boundaries, experts) -> float:
    """Sum of the interval certificates of a segmented competitor that plays
    experts[j] over rounds boundaries[j] + 1 .. boundaries[j + 1]."""
    player_losses, losses = check_trace(player_losses, losses)
    pref_a, (qtau, zeta) = _abs_prefix(player_losses, losses), tv_prior(losses.shape[0])
    bounds = []
    for (a, b), i in zip(zip(boundaries[:-1], boundaries[1:]), experts, strict=True):
        _check_interval(losses.shape, a + 1, b, i)
        # math.log, not np.log: the two differ in the last bit at some t1 (9170, for one)
        segment = _interval_bounds(pref_a, qtau, zeta, b, losses.shape[1], slice(a, a + 1), np.array([math.log(a + 1)]))
        bounds.append(float(segment[0, i]))
    return float(sum(bounds))


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
