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

from .potential import BankCertificates, ExpertBank, PotentialParams, bound_coefficient, check_losses

__all__ = ["FixedLearner", "relative_entropy", "competitor_bound"]


def relative_entropy(u: np.ndarray, q: np.ndarray) -> float:
    """KL divergence sum_i u_i ln(u_i / q_i); +inf if u puts mass where q has none."""
    u = np.asarray(u, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = u > 0.0
    u, q = u[mask], q[mask]
    if (q == 0.0).any():
        return math.inf
    return float((u * np.log(u / q)).sum())


def competitor_bound(u, q, c_u: float, cap: float, n: int | None) -> float:
    """Regret bound sqrt(c_u * A) for a competitor u with accumulator c_u = u . C,
    A = bound_coefficient(RE(u||q), cap, n); +inf when u leaves q's support."""
    a = float(bound_coefficient(relative_entropy(u, q), cap, n))
    return math.inf if math.isinf(a) else math.sqrt(c_u * a)


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
    """

    def __init__(self, prior, params: PotentialParams | None = None):
        self._bank = ExpertBank(params)
        self._bank.add(_as_prob_vector(prior, name="prior"))
        self.t = 0

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

    def update(self, losses) -> float:
        """Consume one round of losses in [0, 1]^N, return the player loss.

        The prediction is recomputed internally so the weighted sum of
        instantaneous regrets is zero by construction.
        """
        player_loss = self._bank.update(check_losses(losses, self.n_experts))
        self.t += 1
        return player_loss

    def bound_coefficient(self, u) -> float:
        """A(u) = 3 * (RE(u||q) + ln B + ln(1 + ln N)) for competitor u."""
        u = _as_prob_vector(u, self.n_experts, name="competitor")
        return float(bound_coefficient(relative_entropy(u, self.q), self.certificate(), self.n_experts))

    def regret_bound(self, u) -> float:
        """Anytime regret bound sqrt((u . C) * A(u)) for any competitor distribution u.

        Returns +inf when u puts mass on experts with zero prior.
        """
        u = _as_prob_vector(u, self.n_experts, name="competitor")
        return self._regret_bound(u, self.n_experts)

    def regret_bound_uniform_subset(self, subset) -> float:
        """Sharper bound for u uniform over a subset S (a repeated index counts once): the log-log term drops to 1."""
        idx = np.unique(np.asarray(subset, dtype=int))
        if idx.size == 0 or idx[0] < 0 or idx[-1] >= self.n_experts:
            raise ValueError(f"subset must be a nonempty set of indices in [0, {self.n_experts})")
        u = np.zeros(self.n_experts)
        u[idx] = 1.0 / idx.size
        return self._regret_bound(u, None)

    def _regret_bound(self, u: np.ndarray, n: int | None) -> float:
        return competitor_bound(u, self.q, float(np.dot(u, self.C)), self.certificate(), n)
