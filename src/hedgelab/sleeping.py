"""Confidence-rated prediction over a dynamically growing expert registry.

Experts report a confidence in [0, 1] each round; zero confidence means the
expert abstains and must receive zero prediction weight.  The registry never
needs to know the total number of experts: ids are registered on their first
awake round with a prior weight from a pluggable policy (constant 1 by
default), and predictions only ever involve the currently awake ids.

Each id owns one row of an expert bank, assigned in registration order (a
round's new ids in the order the round lists them), and every per-round sum
runs over the awake rows in ascending row order, so emitted traces are
reproducible and ids need only be hashable.  An id passed with confidence 0
is treated exactly like an absent id (not registered, state untouched,
prediction weight 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from .fixed import relative_entropy
from .potential import ExpertBank, ExpertState, PotentialParams, bound_coefficient, check_losses

__all__ = ["ExpertId", "ConfidenceRound", "SleepingRegistry"]

ExpertId = Any  # opaque hashable


@dataclass
class ConfidenceRound:
    """Awake map id -> (confidence in (0, 1], loss in [0, 1]).

    Ids absent from the map are asleep for the round (confidence 0); their
    losses are never revealed.
    """

    awake: dict


class SleepingRegistry:
    """Expert ids mapped to rows of an expert bank, with wake/sleep updates."""

    def __init__(
        self,
        prior_policy: Callable[[ExpertId], float] | None = None,
        params: PotentialParams | None = None,
    ):
        self._prior_policy = prior_policy if prior_policy is not None else (lambda _i: 1.0)
        self._bank = ExpertBank(params)
        self._rows: dict = {}  # id -> bank row, in registration order

    # -- registry bookkeeping ------------------------------------------------

    @property
    def seen_count(self) -> int:
        """Number of distinct ids ever registered; never decreases."""
        return len(self._rows)

    def ids(self) -> list:
        """Registered ids in registration order."""
        return list(self._rows)

    def best_id(self):
        """Registered id with the largest cumulative regret R; the first
        registered among ties.  Raises ValueError when nothing is registered."""
        return self.ids()[int(np.argmax(self._bank.R))]

    def state(self, expert_id) -> ExpertState:
        row = self._rows[expert_id]
        return ExpertState(float(self._bank.R[row]), float(self._bank.C[row]))

    # -- prediction and update ----------------------------------------------

    def _awake(self, confidences: Mapping, losses: Mapping | None = None):
        """Validate a round, register its new awake ids in the order listed,
        and return the awake (ids, rows, confidences, losses) by ascending row.

        Nothing is registered unless the whole round is valid.
        """
        ids, conf = [], []
        for expert_id, c in confidences.items():
            c = float(c)
            if not (0.0 <= c <= 1.0):
                raise ValueError(f"confidence for {expert_id!r} must be in [0, 1], got {c}")
            if c > 0.0:
                ids.append(expert_id)
                conf.append(c)
        if not ids:
            raise ValueError("at least one id must be awake (confidence > 0)")
        if losses is not None:
            losses = check_losses([losses[i] for i in ids])
        new = [i for i in ids if i not in self._rows]
        priors = [float(self._prior_policy(i)) for i in new]
        for expert_id, w in zip(new, priors):
            if not (w > 0.0 and math.isfinite(w)):
                raise ValueError(f"prior weight for {expert_id!r} must be positive, got {w}")
        self._rows.update((expert_id, self._bank.q.size + k) for k, expert_id in enumerate(new))
        self._bank.add(priors)
        rows = np.array([self._rows[i] for i in ids])
        order = np.argsort(rows)
        ids = [ids[k] for k in order]
        return ids, rows[order], np.array(conf)[order], None if losses is None else losses[order]

    def predict(self, confidences: Mapping) -> dict:
        """Prediction weights p_i proportional to q_i * I_i * weight(R_i, C_i).

        Supported only on awake ids; ids passed with confidence 0 get an
        explicit 0.  Weights sum to 1.
        """
        ids, rows, conf, _ = self._awake(confidences)
        out = {expert_id: 0.0 for expert_id in confidences}
        out.update(zip(ids, self._bank.predict(rows, conf).tolist()))
        return out

    def update(self, round_data) -> float:
        """Consume one round, return the player loss.

        Accepts a ConfidenceRound or a plain mapping id -> (confidence, loss).
        Awake ids are charged the confidence-scaled gap to the player loss;
        asleep ids are untouched bit for bit.
        """
        awake_map = round_data.awake if isinstance(round_data, ConfidenceRound) else round_data
        _, rows, conf, losses = self._awake(
            {i: cl[0] for i, cl in awake_map.items()}, {i: cl[1] for i, cl in awake_map.items()}
        )
        return self._bank.update(losses, rows, conf)

    # -- certificates ---------------------------------------------------------

    def potential_sum(self) -> float:
        """Prior-weighted potential sum over registered ids (prior normalized)."""
        return self._bank.potential_sum()

    def certificate(self) -> float:
        """Round-by-round upper bound for the potential sum (d = 1 only)."""
        return self._bank.certificate()

    def regret_bound(self, u: Mapping) -> float:
        """Anytime bound on the confidence-weighted regret to competitor u.

        u maps ids to nonnegative masses summing to 1.  The prior is
        normalized over the ids registered so far, so the entropy term grows
        only with the number of experts actually seen.  Mass on an
        unregistered id yields +inf.
        """
        mass = np.array([float(v) for v in u.values()])
        if np.any(mass < 0.0) or not math.isclose(mass.sum(), 1.0, rel_tol=1e-9):
            raise ValueError("competitor must be a probability distribution")
        uvec = np.zeros(self.seen_count)
        for expert_id, v in u.items():
            if float(v) > 0.0:
                if expert_id not in self._rows:
                    return math.inf
                uvec[self._rows[expert_id]] = float(v)
        re = relative_entropy(uvec, self._bank.q / self._bank.q.sum())  # finite: every prior is positive
        c_u = float(np.dot(uvec, self._bank.C))
        return math.sqrt(c_u * bound_coefficient(re, self.certificate(), self.seen_count))
