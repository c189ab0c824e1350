"""Scalar potential and weight functions shared by all learners.

The potential of an expert with cumulative regret R and accumulator C is
exp([R]+^2 / (3C)), with the (0, 0) corner defined as 1.  Prediction weights
are the symmetric discrete derivative of the potential, taken one unit out in
both arguments.  The functions here are pure and safe to call from any thread.

With the default accumulator exponent d=1 the invariant |R| <= C holds along
any valid update sequence, so the potential exponent is at most C/3: linear
space only overflows past C ~ 2000, far beyond harness scales.

ExpertBank holds the (prior, R, C) rows that the fixed, sleeping and interval
learners predict, update and certify through.  The potential cap, the regret
bound, the input checks and the dot product of bank length that they share
live here too, each once.
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


def _phi_above(R: np.ndarray, C: np.ndarray) -> np.ndarray:
    """_phi on entries with R > 0, bit for bit: exp(R^2 / (3C)), with no clamp and no mask."""
    expo = R * R
    expo /= 3.0 * C
    return np.exp(expo, out=expo)


def _weight(R: np.ndarray, C: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """weight_arr without conversions, by in-place buffer arithmetic on R + 1
    and R - 1 stacked; the interval learner calls it on its live copies
    (R > -1) every round.  work, when given, is a (3, *R.shape) buffer to
    compute in, whose row 1 receives the weights."""
    # one broadcast add, with the bits of np.add.outer([1.0, -1.0], R); R + (-1) is R - 1 bit for bit
    ab = np.add(_SHIFTS[R.ndim], R, out=None if work is None else work[1:])
    denom = np.add(C, 1.0, out=None if work is None else work[0])
    denom *= 3.0
    np.maximum(ab, 0.0, out=ab)
    np.multiply(ab, ab, out=ab)
    np.divide(ab, denom, out=ab)
    np.exp(ab, out=ab)
    a = np.subtract(ab[0], ab[1], out=ab[0])
    a *= 0.5
    return a


class _Shifts(dict):
    """+1 and -1 as a column that broadcasts against an R of k dimensions, keyed by k and built on first use."""

    def __missing__(self, k: int) -> np.ndarray:
        self[k] = column = np.array([1.0, -1.0]).reshape(2, *(1,) * k)
        return column


_SHIFTS = _Shifts()


def check_losses(losses, n: int | tuple | None = None) -> np.ndarray:
    """Losses as a float array in C order, rejecting entries outside [0, 1]
    (NaN included) and, when n is given, any shape other than (n,), or than n
    for a tuple.  C order gives every row unit stride, on which the dots of
    the learners round the same whatever layout the caller's array has."""
    losses = np.asarray(losses, dtype=float, order="C")
    if n is not None and losses.shape != (shape := n if isinstance(n, tuple) else (n,)):
        raise ValueError(f"losses must have shape {shape}")
    # the min and max over every entry are NaN when an entry is, and NaN compares false
    if losses.size and not (np.minimum.reduce(losses, axis=None) >= 0.0 and np.maximum.reduce(losses, axis=None) <= 1.0):
        raise ValueError("losses must lie in [0, 1]")
    return losses


def check_trace(player_losses, losses) -> tuple[np.ndarray, np.ndarray]:
    """A recorded trace as float arrays, rejecting any shapes but (T,) player losses and (T, N) losses."""
    player_losses = np.asarray(player_losses, dtype=float)
    losses = np.asarray(losses, dtype=float)
    if losses.ndim != 2 or player_losses.shape != losses.shape[:1]:
        raise ValueError(f"trace shapes do not match: {player_losses.shape} player losses, {losses.shape} losses")
    return player_losses, losses


def check_count(value, name: str) -> int:
    """A count, such as of experts or of seeds, as an int, rejecting any but a
    whole number >= 1 (NaN and inf included) with a message that names it."""
    if not (value >= 1 and value % 1 == 0):
        raise ValueError(f"{name} must be a whole number, at least one, got {value}")
    return int(value)


def potential_cap(q: np.ndarray, C: np.ndarray) -> float:
    """Cap B = 1 + (3/2) sum_i q_i (1 + ln(1 + C_i)) / sum_i q_i on the
    q-weighted potential sum of experts with priors q and accumulators C."""
    return _cap(q, 1.0 + np.log1p(C), q.sum())


def _cap(q: np.ndarray, log_c: np.ndarray, q_sum):
    """potential_cap from log_c = 1 + ln(1 + C) and q_sum = q.sum(); one per row of a 2-d log_c."""
    mean = dot(q, log_c) / q_sum
    return 1.0 + 1.5 * (float(mean) if log_c.ndim == 1 else mean)


# OpenBLAS splits a ddot longer than this over its threads, and each thread
# count rounds it differently.
_DOT_CHUNK = 10_000


def dot(a: np.ndarray, b: np.ndarray):
    """a . b of two float vectors, with the same bits at every BLAS thread count.

    The sum in order of numpy's dots of consecutive chunks of 10,000 elements,
    OpenBLAS's threading threshold, so no chunk threads; up to 10,000 elements
    it is one call to numpy's dot.  Every dot that can be as long as an
    ExpertBank goes through it; it allocates nothing of that length.

    Given a stack of rows (..., n) for a or b, it returns the dots of the
    rows with the other argument's rows, or with the one vector it is: by
    matmul's stacked vector products, which have the bits of numpy's dot of
    each row, summed over the same chunks as above, so that each equals
    dot() of its row.  That holds only for rows of unit stride: a strided
    row, such as a row of a Fortran-ordered array, may round differently,
    and so does a gemv (rows @ vector)."""
    if a.ndim > 1 or b.ndim > 1:
        rows, other = (a, b) if a.ndim > 1 else (b, a)
        if rows.shape[-1] <= _DOT_CHUNK:
            return np.matmul(rows[..., None, :], other[..., None])[..., 0, 0]
        total = 0.0
        for i in range(0, rows.shape[-1], _DOT_CHUNK):
            total += dot(rows[..., i : i + _DOT_CHUNK], other[..., i : i + _DOT_CHUNK])
        return total
    if a.size <= _DOT_CHUNK:
        return float(np.dot(a, b))
    total = 0.0
    for i in range(0, a.size, _DOT_CHUNK):
        total += float(np.dot(a[i : i + _DOT_CHUNK], b[i : i + _DOT_CHUNK]))
    return total


def bound_coefficient(ln_inv_q, cap, n=None):
    """A = 3 (ln(1/q) + ln B + ln(1 + ln N)), so that regret <= competitor_bound(C_u, A)
    for a competitor at relative entropy ln_inv_q to the prior (ln(1/q) for a
    point mass), potential-sum cap B and N registered experts; arrays broadcast.
    With n=None the log-log term is 1, the sharper form for a competitor
    uniform over a subset of experts.
    """
    loglog = 1.0 if n is None else np.log(1.0 + np.log(n))
    return 3.0 * (ln_inv_q + np.log(cap) + loglog)


def competitor_bound(c_u, a):
    """The regret bound, the square root of c_u * A, of a competitor with accumulator c_u and bound
    coefficient A = bound_coefficient(...); arrays broadcast.  +inf wherever A is, c_u = 0 included."""
    with np.errstate(invalid="ignore"):  # 0 * inf
        bound = np.sqrt(np.multiply(c_u, a))
    return np.where(np.isposinf(a), np.inf, bound)


# Evaluating fn on a gathered subset costs a few microseconds plus about
# 20 ns a gathered entry, against about 10 ns an entry for evaluating them all
# (weight_arr, 2-vCPU Xeon), plus one scan for the entries: gathering pays on
# large arrays whose entries mostly need no evaluation, such as the interval
# learner's copies.  Up to what share: on 2,048 to 15,000 rows of a
# whole-bank round, gathering the weights broke even with evaluating every row
# at 43-50% of the rows live, and gathering the potentials from the live rows
# already known was cheaper at every share up to 70%; so an array gathers when
# at most 2/5 of its entries are above the edge, under both break-evens.
_GATHER_MIN_SIZE = 2048


def _gather_rows(R: np.ndarray, edge: float) -> np.ndarray | None:
    """The ascending flat indices of the entries R > edge when R has at least _GATHER_MIN_SIZE
    entries and at most 2/5 of them are above the edge; else None, for evaluating all."""
    if R.size < _GATHER_MIN_SIZE:
        return None
    idx = (R > edge).ravel().nonzero()[0]
    return idx if 5 * idx.size <= 2 * R.size else None


def _evaluate_where(fn, R, C, edge: float, constant: float, above=None) -> np.ndarray:
    """fn(R, C) for a function that is exactly `constant` wherever R <= edge.

    Where _gather_rows picks entries, `above` (fn by default; a form of fn
    valid only above the edge) runs on those only and the constant fills the
    rest; either way the result is the same bit for bit, so sums over it keep
    their order and value.
    """
    idx = _gather_rows(R, edge)
    if idx is None:
        return fn(R, C)
    out = np.full(R.size, constant)
    out[idx] = (fn if above is None else above)(R.ravel()[idx], C.ravel()[idx])
    return out.reshape(R.shape)


def _certificate(q: np.ndarray, phi: np.ndarray, log_c: np.ndarray, q_sum):
    """The potential sum q . phi / q_sum and its cap of one state with potentials
    phi and log_c = 1 + ln(1 + C), each by one full-length dot(); for no rows,
    (1, 2.5), those of the empty state."""
    if not q.size:
        return 1.0, 2.5
    return dot(q, phi) / q_sum, _cap(q, log_c, q_sum)


# Rounds whose saved states one certify_stack call certifies, and that a
# learner playing a whole trace handles per set of numpy calls; no record
# feeds back into a learner.
RECORD_BLOCK = 64


def certify_stack(q: np.ndarray, R: np.ndarray, C: np.ndarray, sizes) -> np.ndarray:
    """The potential sums, caps and prior sums q[:n].sum() of a stack of states,
    as the rows of a (3, len(sizes)) array: row k of R and C is a state of the
    first n = sizes[k] >= 0 bank rows (later entries must be reachable, as
    zeros are).  ExpertBank.certify() is the one-state case.  A run of equal
    sizes takes its dots in one stacked dot(), which has the bits of dot() of
    each row: the rows of phi and log_c are C-ordered, of unit stride, also
    when R and C are not (a seed-batched bank's C[..., rows] is
    Fortran-ordered)."""
    phi = _evaluate_where(_phi, R, C, 0.0, 1.0, above=_phi_above)  # phi is exactly 1 for R <= 0
    log_c = 1.0 + np.log1p(C, order="C")
    sizes = np.asarray(sizes)
    out = np.empty((3, sizes.size))
    cuts = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), sizes.size]
    for a, b in zip(cuts[:-1], cuts[1:]):  # a bank only grows, so q is summed once per size
        n = int(sizes[a])
        q_n = q[:n]
        out[2, a:b] = q_sum = q_n.sum()
        out[0, a:b], out[1, a:b] = _certificate(q_n, phi[a:b, :n], log_c[a:b, :n], q_sum)
    return out


# The default `rows` of every ExpertBank call: every row.
_EVERY = slice(None)


class ExpertBank:
    """Prior q, regret R and accumulator C, one entry per expert in
    registration order: views of one buffer that grows by doubling, or to
    the size reserve() names.

    `rows` selects the experts a call acts on: a slice for a contiguous
    block (all by default), an ascending int array for an awake set.

    With seeds=S the bank plays S seeds in lockstep under its one prior: R
    and C are (S, m), a row per seed; predict and update act on every row,
    certify on any rows, of every seed, and each gives each seed the bits of
    a bank of its own.  Its reductions run along the last axis, dot() gives
    one dot per seed, a seed whose weights are all zero falls back to the
    prior by itself, and no entry is gathered.

    predict() and update() on every row without confidences, as the fixed
    learner calls them, compute the weights and the regrets in a contiguous
    (3, m) work block of the same buffer, (3, S, m) for S seeds, and
    allocate nothing bank-sized.  No call reads the block before writing it,
    so between calls the bank's state is q, R and C alone.  On a bank of one
    seed with at least 2,048 rows, of which at most 2/5 are live (R > -1),
    the prediction gathers the live rows (_gather_rows) and evaluates the
    weights, an exp each, only there.  weight is exactly 0 where R <= -1 and
    every other pass runs over every row in order, so gathering changes no
    bit.

    certify() is certify_stack of the bank's one state (S states for S
    seeds), the one certificate routine; it allocates the potentials and
    1 + ln(1 + C) of the rows it certifies.

    play() plays the interval learner's rounds, one from its update() and a
    whole trace from its play_trace(): rounds on every row, in which each
    copy plays its expert's loss (a block of losses repeated over the rows).
    A round scans once and makes about a dozen passes over the m rows:
      - the one scan, _gather_rows, and the gathered weights as above;
      - the sum of the unnormalized weights, and the player loss by dot();
      - the (R, C) update;
      - the potentials, only on the gathered rows with R > 0: no round moves
        R by more than 1, so no other row crosses 0 but by rounding, to
        within ulps of 0, where the potential is exactly 1 anyway
        (C >= |R| >= 1 there); else on every row;
      - 1 + ln(1 + C), the prior sum, and _certificate's dots for the
        potential sum and its cap.
    For the call it keeps the weights in a row of the bank's width, zero but
    in the rows written last round, and the potentials in a row of the work
    block, one but in those rows, so that a gathered round resets those rows
    instead of filling a whole row (the whole row after a round that was not
    gathered, whose weights were computed in every row of the work block).
    It drops the fallback to the prior when every weight is zero: in the
    interval learner each round's fresh copies have R = C = 0, weight
    0.5 (e^(1/3) - 1) > 0 and a positive prior, so the fallback never runs
    there.  Its reference is the sleeping registry's round on the same
    rows: update(np.tile(l, m // B), np.arange(m), certify=True) on a bank
    that add()s each round's copies, bit for bit
    (tests/test_whole_trace.py::test_tv_is_the_bank_rows_path).
    """

    def __init__(self, params: PotentialParams | None = None, capacity: int = 0, seeds: int | None = None):
        self.params = params if params is not None else PotentialParams()
        self.seeds = None if seeds is None else check_count(seeds, "seeds")
        self._S = 1 if seeds is None else self.seeds
        self._grow(capacity)
        self._view(0)

    def _grow(self, capacity: int) -> None:
        # rows: q, then R and C (S rows each), then 3S rows of room for the work block
        self._buf = np.empty((1 + 5 * self._S, capacity))  # written before read: unused capacity stays untouched
        self._work = self._buf[1 + 2 * self._S :].reshape(-1)  # room for the (3, S, m) work block

    def _view(self, end: int) -> None:
        """The row views of the first `end` entries, and the work block of every row;
        a bank of one seed takes its (m,) rows of the buffer."""
        S, buf = self._S, self._buf
        if self.seeds is None:
            self.q, self.R, self.C = buf[0, :end], buf[1, :end], buf[2, :end]
            self._block = self._work[: 3 * end].reshape(3, end)
        else:
            self.q, self.R, self.C = buf[0, :end], buf[1 : 1 + S, :end], buf[1 + S : 1 + 2 * S, :end]
            self._block = self._work[: 3 * S * end].reshape(3, S, end)

    def reserve(self, capacity: int) -> None:
        """Room for `capacity` rows in all, so that adds up to that many copy no state."""
        if capacity > self._buf.shape[1]:
            old, kept, m = self._buf, 1 + 2 * self._S, self.q.size  # q, R and C
            self._grow(capacity)
            self._buf[:kept, :m] = old[:kept, :m]
            self._view(m)

    def add(self, priors) -> None:
        """Register one fresh row (R = C = 0) per prior weight, in order."""
        priors = np.asarray(priors, dtype=float)
        start, end = self.q.size, self.q.size + priors.size
        if end > self._buf.shape[1]:
            self.reserve(max(end, 2 * self._buf.shape[1]))
        self._buf[0, start:end] = priors
        self._buf[1 : 1 + 2 * self._S, start:end] = 0.0
        self._view(end)

    def _whole(self, rows, conf) -> bool:
        """Whether a call acts on every row, without confidences; a seed-batched bank makes no other call."""
        whole = conf is None and (
            rows is _EVERY or isinstance(rows, slice) and rows.indices(self.q.size) == (0, self.q.size, 1))
        if not whole and self.seeds is not None:
            raise ValueError("a seed-batched bank acts on every row, without confidences")
        return whole

    def _distribution(self) -> np.ndarray:
        """predict() on every row, in row 1 of the work block."""
        q, R, C = self.q, self.R, self.C
        live = None if self.seeds is not None else _gather_rows(R, -1.0)  # weight is exactly 0 for R <= -1
        if live is None:
            p = _weight(R, C, self._block)
            np.multiply(q, p, out=p)
        else:
            p = self._block[1]
            p.fill(0.0)
            s_live = q[live] * _weight(R[live], C[live])
            p[live] = s_live
        if self.seeds is not None:
            total = p.sum(axis=1)
            zero = total <= 0.0
            if zero.any():  # those seeds predict the prior, whose division by 1 changes no bit
                p[zero], total[zero] = q / q.sum(), 1.0
            p /= total[:, None]
            return p
        total = p.sum()
        if total <= 0.0:
            return np.divide(q, q.sum(), out=self._block[1])
        if live is None:
            p /= total
        else:
            p[live] = s_live / total
        return p

    def predict(self, rows=_EVERY, conf=None) -> np.ndarray:
        """p proportional to q * conf * weight(R, C) over the rows; when every
        such weight is zero, proportional to q * conf."""
        if self._whole(rows, conf):
            return self._distribution().copy()
        q = self.q[rows] if conf is None else self.q[rows] * conf
        # weight is exactly 0 for R <= -1
        s = q * _evaluate_where(_weight, self.R[rows], self.C[rows], -1.0, 0.0)
        total = s.sum()
        if total <= 0.0:
            s, total = q, q.sum()
        return s / total

    def update(self, losses: np.ndarray, rows=_EVERY, conf=None, p=None, certify: bool = False):
        """Charge the rows their (confidence-scaled) regret to the player loss
        p . losses, and return that player loss; losses must be checked, one
        per row.  p, when given, is predict(rows, conf) already computed on
        this state.

        With certify=True (d = 1 only, checked before any state changes) it
        returns (player loss, *certify(rows)) of the updated state.  A
        seed-batched bank takes (S, m) losses and returns one value of each
        per seed."""
        if certify:
            self._certifiable()
        if not self._whole(rows, conf):
            if p is None:
                p = self.predict(rows, conf)
            player_loss = dot(p, losses)
            r = player_loss - losses if conf is None else conf * (player_loss - losses)
            self.R[rows] += r
            self.C[rows] += self.params.increment(r)
        else:
            if p is None:
                p = self._distribution()
            r = self._block[0]  # clear of the weights
            player_loss = dot(p, losses)
            np.subtract(player_loss if self.seeds is None else player_loss[:, None], losses, out=r)
            self.R += r
            self.C += np.abs(r, out=r) if self.params.d == 1.0 else self.params.increment(r)
        return (player_loss, *self._certify(rows)) if certify else player_loss

    def play(self, losses: np.ndarray, sizes, certify: bool = False):
        """The T rounds of checked (T, B) losses on every row of a bank of one
        seed, and their T player losses; with certify=True, (player losses,
        potential sums, caps).  Round k acts on the first m = sizes[k]
        registered rows (nondecreasing multiples of B), each playing its
        block's loss, with the bits of update(np.tile(losses[k], m // B),
        np.arange(m), certify=True) on a bank of m rows: the same gather rule,
        kernels and certificate.  Each round must hold a row with R > -1 and a
        positive prior, since the loop has no fallback to the prior (see the
        class docstring)."""
        if certify:
            self._certifiable()
        T, width = len(sizes), sizes[-1] if len(sizes) else 0
        out = np.empty((3 if certify else 1, T))  # player losses, potential sums, caps
        weights = np.zeros(width)
        work = self._buf[3:6]  # the work block at a fixed stride: potentials, regrets then 1 + ln(1 + C), scratch
        if certify:
            work[0, :width] = 1.0
        w_dirty = phi_dirty = slice(0, 0)  # the rows last written, whose reset values must be restored
        for k, m in enumerate(sizes):
            q, R, C, p, r, phi = self.q[:m], self.R[:m], self.C[:m], weights[:m], work[1, :m], work[0, :m]
            live = _gather_rows(R, -1.0)  # weight is exactly 0 for R <= -1
            if live is None:
                np.multiply(q, _weight(R, C, work[:, :m]), out=p)
                p /= p.sum()
                w_dirty = phi_dirty = slice(0, m)  # _weight computed in every row of the work block
            else:
                p[w_dirty] = 0.0
                p[live] = s_live = q[live] * _weight(R[live], C[live])
                p[live] = s_live / p.sum()
                w_dirty = live
            r.reshape(-1, losses.shape[1])[:] = losses[k]
            out[0, k] = player_loss = dot(p, r)
            np.subtract(player_loss, r, out=r)
            R += r
            C += np.abs(r, out=r) if self.params.d == 1.0 else self.params.increment(r)
            if not certify:
                continue
            # |r| <= 1, so the rows above 0 are among the live ones (see the class docstring)
            above = _gather_rows(R, 0.0) if live is None else live[R[live] > 0.0]
            if above is None:
                phi = _phi(R, C)  # a new array: the potential row keeps its rows to reset
            else:
                phi[phi_dirty] = 1.0
                phi[above] = _phi_above(R[above], C[above])
                phi_dirty = above
            log_c = np.log1p(C, out=r)
            log_c += 1.0
            out[1, k], out[2, k] = _certificate(q, phi, log_c, float(q.sum()))
        return tuple(out) if certify else out[0]

    def _certifiable(self) -> None:
        if self.params.d != 1.0:
            raise ValueError("potential certificate is only supported for d = 1")

    def certify(self, rows=_EVERY) -> tuple[float, float]:
        """potential_sum(rows) and the cap it stays under (d = 1 only)."""
        self._certifiable()
        return self._certify(rows)

    def _certify(self, rows) -> tuple[float, float]:
        """certify(rows): certify_stack of the bank's one state of the rows, one state per seed."""
        q, R, C = (self.q, self.R, self.C) if rows is _EVERY else (self.q[rows], self.R[..., rows], self.C[..., rows])
        shape = self._S, q.size
        pots, caps, _ = certify_stack(q, R.reshape(shape), C.reshape(shape), np.full(self._S, q.size))
        return (float(pots[0]), float(caps[0])) if self.seeds is None else (pots, caps)

    def potential_sum(self, rows=_EVERY) -> float:
        """Potential sum over the rows, with the prior normalized over them."""
        return self._certify(rows)[0]


class BankCertificates:
    """The certify surface of a learner over the rows `_live` (all by default) of its ExpertBank `_bank`."""

    _live = _EVERY

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
