"""Loss generators, exact oracles, baselines, and trace metrics.

Randomness runs through PCG64 with explicit stream splitting: every generator
derives its bit stream from SeedSequence(seed, stream_tag), so the loss matrix
for a given (seed, scenario) is one fixed object that every algorithm replays
identically (oblivious adversary), while competitor draws and tree inputs live
on separate streams.  Reserved tags: 0 losses, 1 competitor draws, 2 tree
inputs; verification suites use tags of 5 and above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .potential import RECORD_BLOCK, check_count, check_losses, check_trace, dot

__all__ = [
    "STREAM_LOSSES",
    "STREAM_COMPETITORS",
    "STREAM_TREE",
    "rng_for",
    "LossTrace",
    "gen_adversarial",
    "gen_stochastic_gap",
    "gen_shifting",
    "quantile_competitor",
    "KShiftResult",
    "kshift_oracle",
    "kshift_bruteforce",
    "variation",
    "decomposition_value",
    "decomposition_bruteforce",
    "timevarying_regret",
    "tv_bound",
    "HedgeLearner",
    "RunRecord",
    "count_violations",
    "play",
    "truncated_loss_totals",
    "first_order_bound",
    "TRACE_COLUMNS",
]

STREAM_LOSSES = 0
STREAM_COMPETITORS = 1
STREAM_TREE = 2


def rng_for(seed: int, stream: int = STREAM_LOSSES) -> np.random.Generator:
    """PCG64 generator on the (seed, stream) pair; portable and replayable."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), int(stream)])))


@dataclass
class LossTrace:
    """A (T, N) loss matrix in [0, 1] plus the recipe that produced it."""

    losses: np.ndarray
    seed: int
    kind: str
    meta: dict = field(default_factory=dict)

    @property
    def T(self) -> int:
        return self.losses.shape[0]

    @property
    def N(self) -> int:
        return self.losses.shape[1]


def _check_dims(n: int, t: int) -> None:
    if n <= 0 or t <= 0:
        raise ValueError(f"need positive N and T, got N={n}, T={t}")


def gen_adversarial(n: int, t: int, seed: int) -> LossTrace:
    """I.i.d. uniform-[0,1] losses; same seed reproduces the matrix exactly."""
    _check_dims(n, t)
    rng = rng_for(seed, STREAM_LOSSES)
    return LossTrace(rng.random((t, n)), seed, "adversarial")


def gen_shifting(n: int, t: int, k: int, alpha: float, mu: float, seed: int) -> LossTrace:
    """K equal segments, each with its own gap-alpha Bernoulli best expert.

    Within segment j the designated expert draws Bernoulli(mu) losses and all
    others Bernoulli(mu + alpha).  meta carries the segment cut points
    [0, ..., T] and the designated expert per segment.  With k=1 no segment
    experts are drawn, so the output matches gen_stochastic_gap draw for draw.
    """
    _check_dims(n, t)
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if not (0.0 <= mu <= 1.0 - alpha):
        raise ValueError(f"mu must be in [0, 1 - alpha], got {mu}")
    if not (1 <= k <= t):
        raise ValueError(f"k must be in [1, T], got {k}")
    rng = rng_for(seed, STREAM_LOSSES)
    if k == 1:
        experts = [0]
    else:
        experts = []
        for _ in range(k):
            i = int(rng.integers(0, n))
            while experts and n > 1 and i == experts[-1]:
                i = int(rng.integers(0, n))
            experts.append(i)
    base, extra = divmod(t, k)
    bounds = [0]
    for j in range(k):
        bounds.append(bounds[-1] + base + (1 if j < extra else 0))
    probs = np.full((t, n), mu + alpha)
    for j in range(k):
        probs[bounds[j] : bounds[j + 1], experts[j]] = mu
    losses = (rng.random((t, n)) < probs).astype(float)
    return LossTrace(losses, seed, "shifting", {"boundaries": bounds, "experts": experts})


def gen_stochastic_gap(n: int, t: int, alpha: float, mu: float, seed: int) -> LossTrace:
    """Expert 0 draws Bernoulli(mu); every other expert Bernoulli(mu + alpha)."""
    trace = gen_shifting(n, t, 1, alpha, mu, seed)
    return LossTrace(trace.losses, seed, "stochastic", trace.meta)


def quantile_competitor(total_losses, eps: float):
    """Index of the ceil(N*eps)-th best expert by total loss; ties to lower index.

    total_losses is a length-N vector, giving an int, or a (T, N) matrix of
    running totals, giving one index per row as an int array.
    """
    total_losses = np.asarray(total_losses, dtype=float)
    n = total_losses.shape[-1]
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    rank = math.ceil(n * eps)
    order = np.argsort(total_losses, axis=-1, kind="stable")
    picked = order[..., rank - 1]
    return int(picked) if picked.ndim == 0 else picked


@dataclass
class KShiftResult:
    loss: float
    boundaries: list[int]  # cut points 0 = b_0 < b_1 < ... < b_K = T
    experts: list[int]  # best expert per segment (b_j, b_{j+1}]
    truncated_loss: float | None = None  # witness total of [loss - player_loss]_+


def kshift_oracle(losses, k: int, player_losses=None) -> KShiftResult:
    """Exact minimum total loss over K-segment partitions with one expert each.

    The loss-minimizing partition is also the regret-maximizing segmented
    competitor, which is the object the shifting bounds refer to.  Segment
    programming with per-expert running minima: O(K*T*N) time, one vectorised
    pass over T per segment count.  Ties go to the lowest expert and, within
    an expert, to the earliest cut point.  When player_losses is supplied,
    the witness partition's truncated loss (the sum of positive parts of loss
    minus player loss) is reported as well.
    """
    losses = np.asarray(losses, dtype=float)
    t_len, n = losses.shape
    if not (1 <= k <= t_len):
        raise ValueError(f"k must be in [1, T], got {k}")
    pref = np.vstack([np.zeros(n), np.cumsum(losses, axis=0)])
    inf = math.inf
    dp = np.full((k + 1, t_len + 1), inf)
    dp[0, 0] = 0.0
    pick_i = np.zeros((k + 1, t_len + 1), dtype=int)
    pick_s = np.zeros((k + 1, t_len + 1), dtype=int)
    for j in range(1, k + 1):
        # Segment j covers (s, t] for a cut s in [j-1, t-1]; cand[s] is the
        # cost of the first j-1 segments minus the prefix loss at the cut.
        s = np.arange(j - 1, t_len)
        cand = dp[j - 1, j - 1 : t_len, None] - pref[j - 1 : t_len]
        best_val = np.minimum.accumulate(cand, axis=0)  # min over cuts <= s
        before = np.vstack([np.full((1, n), inf), best_val[:-1]])
        # The earliest minimising cut: the last cut that strictly improved the running minimum.
        best_s = np.maximum.accumulate(np.where(cand < before, s[:, None], 0), axis=0)
        totals = pref[j:] + best_val  # row t - j: segment j ends at round t
        i_star = np.argmin(totals, axis=1)
        rows = np.arange(t_len - j + 1)
        dp[j, j:] = totals[rows, i_star]
        pick_i[j, j:] = i_star
        pick_s[j, j:] = best_s[rows, i_star]
    boundaries = [t_len]
    experts: list[int] = []
    t = t_len
    for j in range(k, 0, -1):
        experts.append(int(pick_i[j, t]))
        t = int(pick_s[j, t])
        boundaries.append(t)
    boundaries.reverse()
    experts.reverse()
    truncated = None
    if player_losses is not None:
        player_losses, _ = check_trace(player_losses, losses)
        witness = losses[np.arange(t_len), np.repeat(experts, np.diff(boundaries))]  # its expert's loss per round
        truncated = float(np.sum(np.maximum(witness - player_losses, 0.0)))
    return KShiftResult(float(dp[k, t_len]), boundaries, experts, truncated)


def kshift_bruteforce(losses, k: int) -> float:
    """Reference optimum by enumerating all partitions and expert choices."""
    from itertools import combinations

    losses = np.asarray(losses, dtype=float)
    t_len, n = losses.shape
    if not (1 <= k <= t_len):
        raise ValueError(f"k must be in [1, T], got {k}")
    pref = np.vstack([np.zeros(n), np.cumsum(losses, axis=0)])
    best = math.inf
    for cuts in combinations(range(1, t_len), k - 1):
        bounds = [0, *cuts, t_len]
        seg_min = sum(float(np.min(pref[bounds[j + 1]] - pref[bounds[j]])) for j in range(k))
        best = min(best, seg_min)
    return best


def variation(useq) -> float:
    """Total upward movement of a competitor sequence, with u_0 = 0."""
    useq = np.asarray(useq, dtype=float)
    if np.any(useq < 0.0):
        raise ValueError("competitor sequence entries must be nonnegative")
    diffs = np.diff(useq, axis=0, prepend=np.zeros((1, useq.shape[1])))
    return float(np.sum(np.maximum(diffs, 0.0)))


def decomposition_value(v) -> float:
    """Minimum total weight of an interval cover reproducing v: the sum of its
    positive jumps, which is the variation of v as a one-column sequence."""
    return variation(np.reshape(v, (-1, 1)))


def decomposition_bruteforce(v) -> float:
    """Reference minimum via a linear program over all contiguous intervals.

    Variables are one nonnegative weight per interval [s, e]; constraints force
    the weighted interval indicators to reproduce v exactly.  scipy is
    imported here, not at module scope, so that runs never load it.
    """
    from scipy.optimize import linprog

    v = np.asarray(v, dtype=float)
    t_len = v.size
    intervals = [(s, e) for s in range(t_len) for e in range(s, t_len)]
    a_eq = np.zeros((t_len, len(intervals)))
    for j, (s, e) in enumerate(intervals):
        a_eq[s : e + 1, j] = 1.0
    # HiGHS's default feasibility tolerances (1e-7) read entries of v below them as 0:
    # they priced [6e-8, 0, 6e-8] at 0, not 1.2e-7; at 1e-10 the optimum is exact to about 1e-10
    res = linprog(
        c=np.ones(len(intervals)),
        A_eq=a_eq,
        b_eq=v,
        bounds=[(0.0, None)] * len(intervals),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if not res.success:
        raise RuntimeError(f"interval cover program failed: {res.message}")
    return float(res.fun)


def _competitor_regrets(player_losses, losses, useq) -> tuple[np.ndarray, np.ndarray]:
    """The competitor sequence and the per-round regrets player_loss - loss."""
    player_losses, losses = check_trace(player_losses, losses)
    useq = np.asarray(useq, dtype=float)
    if useq.shape != losses.shape:
        raise ValueError(f"competitor sequence shape {useq.shape} != losses shape {losses.shape}")
    return useq, player_losses[:, None] - losses


def timevarying_regret(player_losses, losses, useq) -> float:
    """Regret against a sequence of nonnegative competitor vectors."""
    useq, r = _competitor_regrets(player_losses, losses, useq)
    return float(np.sum(useq * r))


def tv_bound(player_losses, losses, useq, a_coeff: float) -> float:
    """sqrt(A * V(u) * sum_t u_t . |player_loss_t - loss_t|); a_coeff is the
    caller's interval-regret constant A."""
    useq, r = _competitor_regrets(player_losses, losses, useq)
    return math.sqrt(a_coeff * variation(useq) * float(np.sum(useq * np.abs(r))))


def truncated_loss_totals(player_losses, losses) -> np.ndarray:
    """Per-expert totals of [loss - player_loss]_+; never exceeds the raw totals."""
    player_losses, losses = check_trace(player_losses, losses)
    return np.sum(np.maximum(losses - player_losses[:, None], 0.0), axis=0)


def first_order_bound(u, ltilde_totals, a_coeff: float) -> float:
    """sqrt(2 (u . Ltilde) A) + A: horizon-free form of the regret guarantee."""
    u = np.asarray(u, dtype=float)
    lt = np.asarray(ltilde_totals, dtype=float)
    if math.isinf(a_coeff):
        return math.inf
    return math.sqrt(2.0 * float(np.dot(u, lt)) * a_coeff) + a_coeff


# ---------------------------------------------------------------------------
# Exponential-weights baseline with an anytime learning-rate schedule.
# ---------------------------------------------------------------------------


def default_eta_schedule(n: int) -> Callable[[int], float]:
    """eta_t = sqrt(8 ln(N) / t); the standard horizon-free choice."""
    ln_n = math.log(n)
    return lambda t: math.sqrt(8.0 * ln_n / t)


class HedgeLearner:
    """Exponential weights: p_{t,i} proportional to q_i exp(-eta_t L_{t-1,i}).

    seeds=S plays S seeds in lockstep, each with the bits of a learner of its
    own: L, predict() and the losses are (S, N), and update() returns the S
    player losses.  The learning rate depends only on t, which they share.
    """

    def __init__(self, n: int, eta_schedule: Callable[[int], float] | None = None, seeds: int | None = None):
        self.n = check_count(n, "n")
        self.seeds = None if seeds is None else check_count(seeds, "seeds")
        self.q = np.full(self.n, 1.0 / self.n)
        self.eta_schedule = eta_schedule if eta_schedule is not None else default_eta_schedule(self.n)
        self.L = np.zeros(self.n if seeds is None else (self.seeds, self.n))
        self.t = 0

    def predict(self) -> np.ndarray:
        return self._weights(self.L, self._eta(self.t + 1))

    def _eta(self, t: int) -> float:
        if self.n == 1:  # the one expert's weight is 1 at any rate, and ln N = 0 gives the default schedule none
            return 1.0
        eta = float(self.eta_schedule(t))
        if not (eta > 0.0 and math.isfinite(eta)):
            raise ValueError(f"learning rate must be positive, got {eta} at round {t}")
        return eta

    def _weights(self, L: np.ndarray, eta) -> np.ndarray:
        """predict() from totals L, one row per seed or round along the leading axes, and
        learning rates that broadcast against them."""
        w = self.q * np.exp(-eta * (L - L.min(axis=-1, keepdims=True)))
        return w / w.sum(axis=-1, keepdims=True)

    def update(self, losses):
        losses = check_losses(losses, self.L.shape)
        p = self.predict()
        player_loss = dot(p, losses)
        self.L += losses
        self.t += 1
        return player_loss

    def play_trace(self, losses: np.ndarray) -> np.ndarray:
        """update() on each round of (T, N) losses, (T, S, N) for S seeds, and
        return the T player losses, (T, S) for S seeds, bit for bit, with one
        set of numpy calls per RECORD_BLOCK rounds: the totals before each round by
        np.cumsum from the carried L, the sequential adds of L += losses; each
        round's learning rate from the schedule and its weights summed along
        the last axis; the player losses by one stacked dot() of the rows."""
        player = np.empty((losses.shape[0], *self.L.shape[:-1]))
        for start in range(0, losses.shape[0], RECORD_BLOCK):
            player[start : start + RECORD_BLOCK] = self._play_block(losses[start : start + RECORD_BLOCK])
        return player

    def _play_block(self, losses: np.ndarray):
        try:
            check_losses(losses, (losses.shape[0], *self.L.shape))
            eta = np.array([self._eta(self.t + 1 + j) for j in range(losses.shape[0])])
        except ValueError:  # round by round, update() raises at the round and with the message of play()'s loop
            return [self.update(lvec) for lvec in losses]
        totals = np.cumsum(np.concatenate((self.L[None], losses)), axis=0)  # L before each round, then after
        p = self._weights(totals[:-1], eta.reshape(-1, *(1,) * self.L.ndim))
        player = dot(p, losses)
        self.L[...] = totals[-1]
        self.t += losses.shape[0]
        return player


# ---------------------------------------------------------------------------
# Trace driver.
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    """Per-round record of one learner on one loss trace."""

    player_losses: np.ndarray
    losses: np.ndarray
    potential_sums: np.ndarray | None = None
    certificates: np.ndarray | None = None

    @property
    def cum_player(self) -> np.ndarray:
        return np.cumsum(self.player_losses)

    def certificate_violations(self, rel_tol: float = 1e-9) -> int:
        if self.potential_sums is None or self.certificates is None:
            return 0
        return count_violations(self.potential_sums, self.certificates, rel_tol)


def count_violations(values, caps, rel_tol: float = 1e-9) -> int:
    """How many values exceed their cap by more than rel_tol relative; NaN never counts."""
    return int(np.count_nonzero(np.asarray(values) > np.asarray(caps) * (1.0 + rel_tol)))


def play(learner, losses, adversary: Callable | None = None, certificates: bool = False):
    """Drive a learner through a loss matrix, or an adaptive adversary callback.

    losses is a (T, N) matrix; when adversary is given it must be a callable
    (t, p) -> loss vector and losses is interpreted as the horizon via its
    first dimension (the produced losses are recorded and returned).  With
    certificates=True the potential sum after each round and its cap are
    recorded for a learner with certify(), such as the fixed and interval
    learners, or else with potential_sum() and certificate() (learners with
    neither yield None entries).

    A learner with play_trace(), the fixed, interval and hedge learners, is
    handed a loss matrix whole and plays it with the bits of the round loop:
    the fixed learner certifies its recorded states in blocks of rounds, the
    interval learner checks the matrix once and sizes its bank up front, and
    hedge plays a block of rounds per set of numpy calls.  Every other play,
    an adversary's or the sleeping registry's, is a round loop: one
    update(losses, certify=True) a round on a learner with certify(), else
    update() then potential_sum() and certificate().

    A seed-batched learner (seeds=S) plays (T, S, N) losses, with no
    adversary, and gives back a list of S records, one per seed.
    """
    seeds = getattr(learner, "seeds", None)
    if seeds is not None and adversary is not None:
        raise ValueError("a seed-batched learner plays a loss matrix, not an adversary")
    certify = certificates and hasattr(learner, "certify")
    if adversary is None and hasattr(learner, "play_trace"):
        realized = np.asarray(losses, dtype=float)
        if certify:
            player, pots, certs = learner.play_trace(realized, certify=True)
        else:
            player, pots, certs = learner.play_trace(realized), None, None
    else:
        player, pots, certs, realized = _play_rounds(learner, losses, adversary, certificates)
    if seeds is None:
        return RunRecord(player, realized, pots, certs)
    player, pots, certs = (None if a is None else a.T.copy() for a in (player, pots, certs))  # a row per seed
    return [RunRecord(player[k], realized[:, k], *(None if a is None else a[k] for a in (pots, certs)))
            for k in range(seeds)]


def _play_rounds(learner, losses, adversary: Callable | None, certificates: bool):
    """play() round by round: the player losses, potential sums and caps (None unless recorded), and the losses."""
    if adversary is None:
        losses = np.asarray(losses, dtype=float)
        t_len = losses.shape[0]
        realized = losses
    else:
        t_len = int(losses)
        realized = None
    step = None
    if certificates and hasattr(learner, "certify"):
        step = lambda lvec: learner.update(lvec, certify=True)  # noqa: E731
    elif certificates and hasattr(learner, "potential_sum") and hasattr(learner, "certificate"):
        step = lambda lvec: (learner.update(lvec), learner.potential_sum(), learner.certificate())  # noqa: E731
    record = step is not None
    player = np.empty(t_len)
    pots = np.empty(t_len) if record else None
    certs = np.empty(t_len) if record else None
    rows = []
    for t in range(t_len):
        if adversary is None:
            lvec = realized[t]
        else:
            p = learner.predict()
            lvec = np.asarray(adversary(t, p), dtype=float)
            rows.append(lvec)
        if record:
            player[t], pots[t], certs[t] = step(lvec)
        else:
            player[t] = learner.update(lvec)
    if adversary is not None:
        realized = np.vstack(rows)
    return player, pots, certs, realized


TRACE_COLUMNS = [
    "t",
    "algo",
    "player_loss",
    "cum_player_loss",
    "regret_best",
    "regret_quantile_eps",
    "potential_sum",
    "certificate_B",
    "bound_eq1",
]
