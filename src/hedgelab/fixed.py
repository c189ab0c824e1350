"""Parameter-free hedging over a fixed, known set of N experts.

The learner is an expert bank whose N rows are registered at construction
and awake every round: it predicts proportionally to prior * weight(R, C)
from the bank's per-expert accumulators (R, C).  With the default exponent
d=1 the weighted potential sum admits a runtime certificate that every trace
must satisfy, and explicit regret bounds against arbitrary competitor
distributions can be evaluated at any time from the live state.
"""

from __future__ import annotations

import math

import numpy as np

from .potential import (
    RECORD_BLOCK, BankCertificates, ExpertBank, PotentialParams, bound_coefficient, certify_stack, check_losses,
    competitor_bound, dot,
)

__all__ = ["FixedLearner", "relative_entropy"]


def relative_entropy(u: np.ndarray, q: np.ndarray) -> float:
    """KL divergence sum_i u_i ln(u_i / q_i); +inf if u puts mass where q has none."""
    u = np.asarray(u, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = u > 0.0
    u, q = u[mask], q[mask]
    if (q == 0.0).any():
        return math.inf
    return float((u * np.log(u / q)).sum())


def _as_prob_vector(v, n: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d array")
    if n is not None and v.size != n:
        raise ValueError(f"{name} has length {v.size}, expected {n}")
    if np.any(v < 0.0) or not np.all(np.isfinite(v)):
        raise ValueError(f"{name} entries must be finite and nonnegative")
    total = v.sum()
    if total <= 0.0:
        raise ValueError(f"{name} must have positive total mass")
    return v / total


class FixedLearner(BankCertificates):
    """Hedging learner over N experts with prior q and accumulator exponent d.

    The prior may be given as any nonnegative weight vector; it is normalized
    once at construction and never changes (predictions are invariant to the
    overall scale of the prior).  d=0 gives the round-counting variant whose
    accumulator is simply the round index.

    seeds=S plays S seeds in lockstep under the one prior, each with the bits
    of a learner of its own: R, C, predict() and the losses are (S, N), and
    update() and the certify surface give one value per seed.
    The regret bounds are for a learner of one seed.
    """

    def __init__(self, prior, params: PotentialParams | None = None, seeds: int | None = None):
        self._bank = ExpertBank(params, seeds=seeds)
        self._bank.add(_as_prob_vector(prior, name="prior"))
        self.t = 0

    @property
    def seeds(self) -> int | None:
        return self._bank.seeds

    @property
    def n_experts(self) -> int:
        return self._bank.q.size

    @property
    def q(self) -> np.ndarray:
        return self._bank.q

    @property
    def R(self) -> np.ndarray:
        return self._bank.R

    @R.setter
    def R(self, value) -> None:
        self._bank.R[:] = value

    @property
    def C(self) -> np.ndarray:
        return self._bank.C

    @C.setter
    def C(self, value) -> None:
        self._bank.C[:] = value

    def predict(self) -> np.ndarray:
        """Distribution over experts: p_i proportional to q_i * weight(R_i, C_i).

        Falls back to the prior when every unnormalized weight is zero.
        """
        return self._bank.predict()

    def update(self, losses, certify: bool = False, *, checked: bool = False):
        """Consume one round of losses in [0, 1]^N, return the player loss.

        The prediction is recomputed internally so the weighted sum of
        instantaneous regrets is zero by construction.  With certify=True
        (d = 1 only) return (player loss, *certify()) of the new state, the
        bits of update() then certify() from one pass over the experts.
        checked=True skips the loss check, for a row of a loss array that
        check_losses has passed whole (play_trace does).
        """
        out = self._bank.update(losses if checked else check_losses(losses, self.R.shape), certify=certify)
        self.t += 1
        return out

    def play_trace(self, losses: np.ndarray, certify: bool = False):
        """update() on each round of (T, N) losses, (T, S, N) for S seeds, and
        return the T player losses, (T, S) for S seeds.  With certify=True
        (d = 1 only) return (player losses, potential sums, caps): those of
        update(losses, certify=True), bit for bit, from the states after each
        round, saved RECORD_BLOCK rounds at a time and certified by one
        certify_stack call per block (no certificate feeds back into the
        learner).  The losses are checked once, as a whole, and each round
        plays through update(checked=True); when that check fails, each round
        checks its own, so update() raises at the round and with the message
        of the loop."""
        if certify:
            self._bank._certifiable()
        n, shape = self.n_experts, (losses.shape[0], *self.R.shape[:-1])
        try:
            losses, checked = check_losses(losses, (shape[0], *self.R.shape)), True
        except ValueError:
            checked = False
        player = np.empty(shape)
        if certify:
            records = np.empty((2, *shape))  # potential sums and caps
            R, C = np.empty((2, min(RECORD_BLOCK, shape[0]), *self.R.shape))  # row k: the state after round k
        for t, lvec in enumerate(losses):
            player[t] = self.update(lvec, checked=checked)
            if certify:
                k = t % RECORD_BLOCK
                R[k], C[k] = self.R, self.C
                if k == RECORD_BLOCK - 1 or t == shape[0] - 1:
                    states = R[: k + 1].reshape(-1, n), C[: k + 1].reshape(-1, n)  # a row per round and seed
                    stack = certify_stack(self.q, *states, np.full(states[0].shape[0], n))
                    records[:, t - k : t + 1] = stack[:2].reshape(2, k + 1, *shape[1:])
        return (player, *records) if certify else player

    def bound_coefficient(self, u) -> float:
        """A(u) = 3 * (RE(u||q) + ln B + ln(1 + ln N)) for competitor u."""
        u = _as_prob_vector(u, self.n_experts, name="competitor")
        return float(bound_coefficient(relative_entropy(u, self.q), self._seed_cap(), self.n_experts))

    def regret_bound(self, u) -> float:
        """Anytime regret bound competitor_bound(u . C, A(u)) for any competitor distribution u.

        Returns +inf when u puts mass on experts with zero prior.
        """
        u = _as_prob_vector(u, self.n_experts, name="competitor")
        return self._regret_bound(u, self.n_experts)

    def regret_bound_uniform_subset(self, subset) -> float:
        """Sharper bound for u uniform over a subset S (a repeated index counts once): the log-log term drops to 1."""
        subset = np.asarray(subset)
        if subset.ndim != 1 or subset.dtype.kind not in "iuf" or not np.all(subset == np.floor(subset)):
            raise ValueError(f"subset must be a 1-d array of whole numbers, got {subset.tolist()}")
        idx = np.unique(subset.astype(int))
        if idx.size == 0 or idx[0] < 0 or idx[-1] >= self.n_experts:
            raise ValueError(f"subset must be a nonempty set of indices in [0, {self.n_experts})")
        u = np.zeros(self.n_experts)
        u[idx] = 1.0 / idx.size
        return self._regret_bound(u, None)

    def _regret_bound(self, u: np.ndarray, n: int | None) -> float:
        a = bound_coefficient(relative_entropy(u, self.q), self._seed_cap(), n)
        return float(competitor_bound(dot(u, self.C), a))

    def _seed_cap(self) -> float:
        """certificate() of a learner of one seed, which the regret bounds are for."""
        if self.seeds is not None:
            raise ValueError("regret bounds are for a learner of one seed, not a seed-batched one")
        return self.certificate()
