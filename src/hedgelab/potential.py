"""Scalar potential and weight functions shared by all learners.

The potential of an expert with cumulative regret R and accumulator C is
exp([R]+^2 / (3C)), with the (0, 0) corner defined as 1.  Prediction weights
are the symmetric discrete derivative of the potential, taken one unit out in
both arguments.  The functions here are pure and safe to call from any thread.

With the default accumulator exponent d=1 the invariant |R| <= C holds along
any valid update sequence, so the potential exponent is at most C/3: linear
space only overflows past C ~ 2000, far beyond harness scales.

ExpertBank holds the (prior, R, C) rows that the fixed, sleeping and interval
learners predict, update and certify through; potential_cap, bound_coefficient,
check_losses and check_trace are the cap, the bound and the loss and trace checks
they share; certify_stack certifies saved states and BankCertificates the learners' live rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BankCertificates",
    "PotentialParams",
    "ExpertState",
    "phi",
    "weight",
    "phi_arr",
    "weight_arr",
    "GRID_R",
    "GRID_C",
    "GRID_r",
    "CheckResult",
    "check_increment_bound",
    "check_piecewise_convexity",
    "check_weight_zero_set",
    "check_weight_consistency",
    "run_grid_checks",
]


@dataclass(frozen=True)
class PotentialParams:
    """Accumulator exponent d: increments are |r|^d with 0^0 := 1.

    d=1 tracks the cumulative magnitude of instantaneous regrets; d=0 counts
    rounds, which recovers the denominator-3t variant.  Every other value is
    rejected: only d=1 has a potential certificate.
    """

    d: float = 1.0

    def __post_init__(self) -> None:
        if self.d not in (0.0, 1.0):
            raise ValueError(f"accumulator exponent d must be 0 or 1, got {self.d}")

    def increment(self, r: np.ndarray) -> np.ndarray:
        """|r|^d elementwise, with the 0^0 := 1 convention for d = 0."""
        return np.abs(r) if self.d == 1.0 else np.ones_like(r)


@dataclass
class ExpertState:
    """Per-expert accumulators: cumulative regret R, accumulator C >= 0."""

    R: float = 0.0
    C: float = 0.0


def phi(R: float, C: float) -> float:
    """Potential exp([R]+^2 / (3C)); equals 1 whenever [R]+ = 0.

    Raises ValueError for C < 0 and for the unreachable corner R > 0, C = 0
    (valid update sequences keep |R| <= C).
    """
    if C < 0.0:
        raise ValueError(f"accumulator C must be nonnegative, got {C}")
    if R <= 0.0:
        return 1.0
    if C == 0.0:
        raise ValueError("potential undefined for R > 0 with C = 0")
    try:
        return math.exp(R * R / (3.0 * C))
    except OverflowError:
        return math.inf


def weight(R: float, C: float) -> float:
    """Prediction weight 0.5 * (phi(R+1, C+1) - phi(R-1, C+1)).

    Nonnegative; zero exactly when R <= -1; strictly increasing in R beyond
    that point.
    """
    if C < 0.0:
        raise ValueError(f"accumulator C must be nonnegative, got {C}")
    return 0.5 * (phi(R + 1.0, C + 1.0) - phi(R - 1.0, C + 1.0))


def phi_arr(R: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Vectorized potential.  C must be strictly positive wherever R > 0."""
    R = np.asarray(R, dtype=float)
    C = np.asarray(C, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _phi(R, C)


def weight_arr(R: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Vectorized prediction weight; C >= 0 elementwise assumed.

    The shifted denominator 3(C+1) is always positive, which keeps the corner
    handling of phi_arr unnecessary here.
    """
    return _weight(np.atleast_1d(np.asarray(R, dtype=float)), np.atleast_1d(np.asarray(C, dtype=float)))


# The two kernels below take float arrays as they are and set no floating-point
# error state: ExpertBank calls them every round of every learner, on states
# that valid updates reach (|R| <= C, a certified potential sum), where neither
# divides by zero nor overflows.


def _phi(R: np.ndarray, C: np.ndarray) -> np.ndarray:
    """phi_arr without conversions: exp([R]+^2 / (3C)), exactly 1 where R <= 0."""
    Rp = np.maximum(R, 0.0)
    expo = np.zeros(Rp.shape)
    np.divide(Rp * Rp, 3.0 * C, out=expo, where=Rp > 0.0)
    return np.exp(expo, out=expo)


def _weight(R: np.ndarray, C: np.ndarray) -> np.ndarray:
    """weight_arr without conversions, by in-place buffer arithmetic; the
    interval learner calls it on its live copies (R > -1) every round."""
    denom = 3.0 * (C + 1.0)
    a = np.maximum(R + 1.0, 0.0)
    np.multiply(a, a, out=a)
    np.divide(a, denom, out=a)
    np.exp(a, out=a)
    b = np.maximum(R - 1.0, 0.0)
    np.multiply(b, b, out=b)
    np.divide(b, denom, out=b)
    np.exp(b, out=b)
    np.subtract(a, b, out=a)
    a *= 0.5
    return a


def check_losses(losses, n: int | None = None) -> np.ndarray:
    """Losses as a float array, rejecting entries outside [0, 1] (NaN included)
    and, when n is given, any shape other than (n,)."""
    losses = np.asarray(losses, dtype=float)
    if n is not None and losses.shape != (n,):
        raise ValueError(f"losses must have shape ({n},)")
    if not ((losses >= 0.0) & (losses <= 1.0)).all():
        raise ValueError("losses must lie in [0, 1]")
    return losses


def check_trace(player_losses, losses) -> tuple[np.ndarray, np.ndarray]:
    """A recorded trace as float arrays, rejecting any shapes but (T,) player losses and (T, N) losses."""
    player_losses = np.asarray(player_losses, dtype=float)
    losses = np.asarray(losses, dtype=float)
    if losses.ndim != 2 or player_losses.shape != losses.shape[:1]:
        raise ValueError(f"trace shapes do not match: {player_losses.shape} player losses, {losses.shape} losses")
    return player_losses, losses


def potential_cap(q: np.ndarray, C: np.ndarray) -> float:
    """Cap B = 1 + (3/2) sum_i q_i (1 + ln(1 + C_i)) / sum_i q_i on the
    q-weighted potential sum of experts with priors q and accumulators C."""
    return _cap(q, 1.0 + np.log1p(C), q.sum())


def _cap(q: np.ndarray, log_c: np.ndarray, q_sum) -> float:
    """potential_cap from log_c = 1 + ln(1 + C) and q_sum = q.sum()."""
    return 1.0 + 1.5 * float(np.dot(q, log_c) / q_sum)


def bound_coefficient(ln_inv_q, cap, n=None):
    """A = 3 (ln(1/q) + ln B + ln(1 + ln N)), so that regret <= sqrt(C_u * A)
    for a competitor at relative entropy ln_inv_q to the prior (ln(1/q) for a
    point mass), potential-sum cap B and N registered experts; arrays broadcast.
    With n=None the log-log term is 1, the sharper form for a competitor
    uniform over a subset of experts.
    """
    loglog = 1.0 if n is None else np.log(1.0 + np.log(n))
    return 3.0 * (ln_inv_q + np.log(cap) + loglog)


# Evaluating fn on a gathered subset costs a few microseconds plus about
# 20 ns a gathered entry, against about 10 ns an entry for evaluating them all
# (weight_arr, 2-vCPU Xeon): gathering pays on large arrays whose entries
# mostly need no evaluation, such as the interval learner's copies.
_GATHER_MIN_SIZE = 2048


def _evaluate_where(fn, R, C, edge: float, constant: float) -> np.ndarray:
    """fn(R, C) for a function that is exactly `constant` wherever R <= edge.

    On a large array with at most a quarter of its entries above the edge,
    fn runs on those entries only and the constant fills the rest; either
    way the result is the same bit for bit, so sums over it keep their order
    and value.
    """
    if R.size >= _GATHER_MIN_SIZE:
        idx = np.flatnonzero(R > edge)
        if 4 * idx.size <= R.size:
            out = np.full(R.size, constant)
            out[idx] = fn(R.ravel()[idx], C.ravel()[idx])
            return out.reshape(R.shape)
    return fn(R, C)


def certify_stack(q: np.ndarray, R: np.ndarray, C: np.ndarray, sizes) -> np.ndarray:
    """The potential sums, caps and prior sums q[:n].sum() of a stack of states,
    as the rows of a (3, len(sizes)) array: row k of R and C is a state of the
    first n = sizes[k] bank rows (later entries must be reachable, as zeros are).
    Each equals certify() in its state bit for bit by its own np.dot; one gemv
    over the stack rounds differently."""
    phi = _evaluate_where(_phi, R, C, 0.0, 1.0)  # phi is exactly 1 for R <= 0
    log_c = 1.0 + np.log1p(C)
    out = np.empty((3, len(sizes)))
    q_sum, last = 0.0, 0
    for k, n in enumerate(sizes):
        if n != last:  # a bank only grows, so along a run q is summed once per size
            q_sum, last = q[:n].sum(), n
        pot, cap = (np.dot(q[:n], phi[k, :n]) / q_sum, _cap(q[:n], log_c[k, :n], q_sum)) if n else (1.0, 2.5)
        out[:, k] = pot, cap, q_sum
    return out


class ExpertBank:
    """Prior q, regret R and accumulator C, one entry per expert in
    registration order: views of one buffer that grows by doubling.

    `rows` selects the experts a call acts on: a slice for a contiguous
    block (all by default), an ascending int array for an awake set.
    """

    def __init__(self, params: PotentialParams | None = None, capacity: int = 0):
        self.params = params if params is not None else PotentialParams()
        self._buf = np.zeros((3, capacity))
        self.q, self.R, self.C = self._buf[:, :0]

    def add(self, priors) -> None:
        """Register one fresh row (R = C = 0) per prior weight, in order."""
        priors = np.asarray(priors, dtype=float)
        start, end = self.q.size, self.q.size + priors.size
        if end > self._buf.shape[1]:
            buf = np.zeros((3, max(end, 2 * self._buf.shape[1])))
            buf[:, :start] = self._buf[:, :start]
            self._buf = buf
        self._buf[0, start:end] = priors
        self.q, self.R, self.C = self._buf[:, :end]

    def predict(self, rows=slice(None), conf=None) -> np.ndarray:
        """p proportional to q * conf * weight(R, C) over the rows; when every
        such weight is zero, proportional to q * conf."""
        q = self.q[rows] if conf is None else self.q[rows] * conf
        # weight is exactly 0 for R <= -1
        s = q * _evaluate_where(_weight, self.R[rows], self.C[rows], -1.0, 0.0)
        total = s.sum()
        if total <= 0.0:
            s, total = q, q.sum()
        return s / total

    def update(self, losses: np.ndarray, rows=slice(None), conf=None, p=None) -> float:
        """Charge the rows their (confidence-scaled) regret to the player loss
        p . losses, and return that player loss; losses must be checked.
        p, when given, is predict(rows, conf) already computed on this state."""
        if p is None:
            p = self.predict(rows, conf)
        player_loss = float(np.dot(p, losses))
        r = player_loss - losses if conf is None else conf * (player_loss - losses)
        self.R[rows] += r
        self.C[rows] += self.params.increment(r)
        return player_loss

    def certify(self, rows=slice(None)) -> tuple[float, float]:
        """potential_sum(rows) and the cap it stays under (d = 1 only)."""
        if self.params.d != 1.0:
            raise ValueError("potential certificate is only supported for d = 1")
        return self._certify(rows)

    def _certify(self, rows) -> tuple[float, float]:
        q = self.q[rows]
        pots, caps, _ = certify_stack(q, self.R[rows][None], self.C[rows][None], (q.size,))
        return float(pots[0]), float(caps[0])

    def potential_sum(self, rows=slice(None)) -> float:
        """Potential sum over the rows, with the prior normalized over them."""
        return self._certify(rows)[0]


class BankCertificates:
    """The certify surface of a learner over the rows `_live` (all by default) of its ExpertBank `_bank`."""

    _live = slice(None)

    def potential_sum(self) -> float:
        """Prior-weighted potential sum over the live rows, the prior normalized over them."""
        return self._bank.potential_sum(self._live)

    def certificate(self) -> float:
        """The cap the potential sum stays under at every round (d = 1 only), potential_cap of the live rows."""
        return self._bank.certify(self._live)[1]

    def certify(self) -> tuple[float, float]:
        """(potential_sum(), certificate()) from one pass over the live rows."""
        return self._bank.certify(self._live)


# ---------------------------------------------------------------------------
# Grid checks
#
# These back the selfcheck command and the property tests.  The grid is fixed;
# checks are parameterized by the weight function so that a deliberately
# perturbed weight can be shown to trip them (mutation sensitivity).
# ---------------------------------------------------------------------------

GRID_R = np.arange(-10.0, 10.0 + 1e-12, 0.25)
GRID_C = np.array([0.0, 0.5, 1.0, 5.0, 50.0])
GRID_r = np.arange(-1.0, 1.0 + 1e-12, 0.05)

REL_TOL = 1e-9


@dataclass
class CheckResult:
    name: str
    checked: int = 0
    failures: int = 0
    worst_margin: float = math.inf  # most negative slack seen
    examples: list = field(default_factory=list)  # a few failing points

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record(self, margin: float, point) -> None:
        self.checked += 1
        if margin < self.worst_margin:
            self.worst_margin = margin
        if margin < 0.0:
            self.failures += 1
            if len(self.examples) < 5:
                self.examples.append(point)


def _phi_extended(R: float, C: float) -> float:
    # Grid points with R > 0, C = 0 sit outside the reachable state space;
    # the limiting potential there is +inf, which makes any upper bound vacuous.
    if R > 0.0 and C == 0.0:
        return math.inf
    return phi(R, C)


def check_increment_bound(weight_fn=weight, rel_tol: float = REL_TOL) -> CheckResult:
    """One-step potential growth bound over the full grid.

    For every grid triple (R, C, r) with r in [-1, 1]:
        phi(R+r, C+|r|) <= phi(R, C) + weight(R, C)*r + 3|r| / (2(C+1)),
    allowing rel_tol * phi(R, C) of slack.
    """
    res = CheckResult("increment-bound")
    for C in GRID_C:
        for R in GRID_R:
            base = _phi_extended(R, C)
            if math.isinf(base):
                continue  # vacuous corner
            w = weight_fn(R, C)
            for r in GRID_r:
                lhs = _phi_extended(R + r, C + abs(r))
                rhs = base + w * r + 3.0 * abs(r) / (2.0 * (C + 1.0)) + rel_tol * base
                res.record(rhs - lhs, (float(R), float(C), float(r)))
    return res


def check_piecewise_convexity(rel_tol: float = REL_TOL) -> CheckResult:
    """Midpoint convexity of r -> phi(R+r, C+|r|), separately on [-1,0] and [0,1]."""
    res = CheckResult("piecewise-convexity")
    steps = GRID_r[GRID_r >= 0.0]
    for C in GRID_C:
        for R in GRID_R:
            for sign in (1.0, -1.0):
                vals = [_phi_extended(R + sign * a, C + a) for a in steps]
                for i, a in enumerate(steps):
                    for j in range(i, len(steps)):
                        b = steps[j]
                        fa, fb = vals[i], vals[j]
                        if math.isinf(fa) or math.isinf(fb):
                            continue
                        fm = _phi_extended(R + sign * (a + b) / 2.0, C + (a + b) / 2.0)
                        bound = 0.5 * (fa + fb) + rel_tol * max(fa, fb)
                        res.record(bound - fm, (float(R), float(C), float(sign * a), float(sign * b)))
    return res


def check_weight_zero_set(weight_fn=weight) -> CheckResult:
    """weight(R, C) == 0 exactly when R <= -1, on all grid (R, C) pairs."""
    res = CheckResult("weight-zero-set")
    for C in GRID_C:
        for R in GRID_R:
            w = weight_fn(R, C)
            if R <= -1.0:
                res.record(-abs(w), (float(R), float(C)))  # must be exactly 0
            else:
                res.record(w if w > 0.0 else -1.0, (float(R), float(C)))
    return res


def check_weight_consistency(weight_fn=weight, rel_tol: float = REL_TOL) -> CheckResult:
    """weight agrees with the discrete derivative of the potential on the grid.

    This is the check with the bite for mutation sensitivity: the growth bound
    alone has enough slack on this grid to absorb a uniform ~10% rescaling of
    the weights, but any rescaling breaks this identity immediately.
    """
    res = CheckResult("weight-consistency")
    for C in GRID_C:
        for R in GRID_R:
            expected = 0.5 * (phi(R + 1.0, C + 1.0) - phi(R - 1.0, C + 1.0))
            got = weight_fn(R, C)
            tol = rel_tol * max(abs(expected), 1.0)
            res.record(tol - abs(got - expected), (float(R), float(C)))
    return res


def run_grid_checks(weight_fn=weight) -> list[CheckResult]:
    """All potential/weight grid checks; used by selfcheck and the test suite."""
    return [
        check_increment_bound(weight_fn),
        check_piecewise_convexity(),
        check_weight_zero_set(weight_fn),
        check_weight_consistency(weight_fn),
    ]
