"""Spacing statistics for fraction sets on the torus.

The central quantity is, for a point set S on R/Z and a threshold t,

    M = max over x in S of #{ x' in S, x' != x : ||x - x'|| < t },

with t = 1/(2N) in the standard parameterization.  Two engines compute it:

* a brute-force oracle that decides every pair in one blocked O(n^2) sweep
  for any number of thresholds, with no sortedness assumptions, and
* a fast path that sorts the set once, finds each point's forward arc with
  a monotone window over the circle (wrapping the seam at 0/1), and reads
  the backward neighbors off those same arcs.

Both decide ``||x - x'|| < t`` by exact integer comparison.  The fast path
uses float64 positions only as a search hint; every window boundary is then
settled exactly, so the two engines agree bit for bit, which the test suite
exercises as its primary oracle.

Threshold conventions.  The scan statistic published for quadratic
denominators counts ``2 * ||x - x'|| < Q**-3``, which equals the
``1/(2N)`` form at N = Q**3; the conjectured generalization counts against
``Q**-(k+1)``.  One engine parameterized by an exact rational threshold
serves every convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .rationals import (
    FractionSet,
    PowerFraction,
    enumerate_set,
    exact_columns,
    strictly_increasing,
)

# Hard guard for the quadratic oracle.
BRUTEFORCE_MAX_POINTS = 50_000

_BLOCK_ROWS = 16


@dataclass(frozen=True)
class SpacingQuery:
    """Parameters for a spacing count over S(Q, k) at threshold 1/(2N)."""

    Q: int
    k: int
    N: int

    def __post_init__(self) -> None:
        if self.Q < 1 or self.k < 2 or self.N < 1:
            raise ValueError(f"invalid query Q={self.Q}, k={self.k}, N={self.N}")


@dataclass(eq=False)
class SpacingResult:
    """Outcome of a spacing count.

    ``count`` is the maximum neighbor count, ``witness`` a point attaining
    it.  Per-point counts are kept as an array aligned with the sorted set;
    ``neighbor_histogram`` materializes (point, count) pairs for audits and
    should only be expanded for small sets.
    """

    count: int
    witness: Optional[PowerFraction]
    fraction_set: FractionSet = field(repr=False)
    counts: np.ndarray = field(repr=False)

    @property
    def neighbor_histogram(self) -> list[tuple[PowerFraction, int]]:
        return [(self.fraction_set[i], int(c)) for i, c in enumerate(self.counts)]


def _engine_columns(nums, dens, t_num: int, t_den: int):
    """Both engines' columns; their largest product is 2 dmax**2 max(t_num, t_den)."""
    dmax = int(np.max(dens))
    return exact_columns(nums, dens, bound=2 * dmax * dmax * max(t_num, t_den))


def neighbor_counts_bruteforce(nums, dens, t_num, t_den) -> np.ndarray:
    """Per-point neighbor counts by exhaustive pairwise comparison.

    For the pair (i, j) let a = |a_i d_j - a_j d_i| < p = d_i d_j.  The torus
    distance is min(a, p - a)/p, so ||x_i - x_j|| < t = t_num/t_den exactly
    when min(a, p - a) * t_den < t_num * p, in integers.  a and p are
    symmetric in (i, j), so a block of rows meets only the columns from its
    first row on, and a hit counts for its row and, past the block, for its
    column.  The self pair is a hit and is subtracted.  The block buffers
    are allocated once and every product is formed in place.

    Scalar ``t_num, t_den`` give an ``(n,)`` array; equal-length sequences
    give ``(T, n)``, every threshold compared against the same a and p, so
    one sweep answers them all.  Above t = 1/2 every other point counts.
    """
    if np.ndim(t_num) != np.ndim(t_den) or np.size(t_num) != np.size(t_den):
        raise ValueError("t_num and t_den must be scalars or sequences of one length")
    n = len(nums)
    pairs = [(int(u), int(v)) for u, v in zip(np.ravel(t_num), np.ravel(t_den))]
    counts = np.full((len(pairs), n), n - 1, dtype=np.int64)
    rows = [(r, u, v) for r, (u, v) in enumerate(pairs) if 2 * u <= v]
    counts[[r for r, _, _ in rows]] = -1  # the self pair is a hit below
    if n and rows:
        _, t_nums, t_dens = zip(*rows)
        nums, dens = _engine_columns(nums, dens, max(t_nums), max(t_dens))
        bufs = [np.empty((_BLOCK_ROWS, n), dtype=t) for t in [nums.dtype] * 4 + [bool]]
        for lo in range(0, n, _BLOCK_ROWS):
            b = min(_BLOCK_ROWS, n - lo)
            prod, a, lhs, rhs, hit = (x[:b, : n - lo] for x in bufs)
            di = dens[lo : lo + b, None]
            np.multiply(di, dens[lo:], out=prod)
            np.multiply(nums[lo : lo + b, None], dens[lo:], out=a)
            np.multiply(di, nums[lo:], out=lhs)
            np.subtract(a, lhs, out=a)
            np.abs(a, out=a)
            np.subtract(prod, a, out=lhs)
            np.minimum(a, lhs, out=a)
            for r, u, v in rows:
                np.multiply(a, v, out=lhs)
                np.less(lhs, prod if u == 1 else np.multiply(prod, u, out=rhs), out=hit)
                counts[r, lo : lo + b] += np.count_nonzero(hit, axis=1)
                counts[r, lo + b :] += np.count_nonzero(hit[:, b:], axis=0)
    return counts if np.ndim(t_num) else counts[0]


def _forward_counts(nums, dens, t_num: int, t_den: int) -> np.ndarray:
    """For sorted points, count j != i with (v_j - v_i) mod 1 < t.

    The circular extension w_p equals v_p for p < n and v_{p-n} + 1 past the
    seam.  For each i the answer is p_i - i where p_i is the largest p in
    [i, i + n - 1] with w_p - v_i < t; float searchsorted proposes p_i and
    exact integer comparisons settle it, walking in vectorized rounds.
    """
    n = len(nums)
    idx = np.arange(n)

    def lt(i_arr: np.ndarray, p_arr: np.ndarray) -> np.ndarray:
        j = p_arr % n
        wrap = (p_arr >= n).astype(nums.dtype)
        lhs = ((nums[j] + wrap * dens[j]) * dens[i_arr] - nums[i_arr] * dens[j]) * t_den
        rhs = t_num * (dens[i_arr] * dens[j])
        return lhs < rhs

    vf = nums.astype(np.float64) / dens.astype(np.float64)
    wf = np.concatenate([vf, vf + 1.0])
    tf = float(Fraction(int(t_num), int(t_den)))  # big thresholds stay finite
    guess = np.searchsorted(wf, vf + tf, side="left") - 1
    p = np.clip(guess, idx, idx + n - 1)

    while True:  # extend while the next position is still inside the arc
        can = p < idx + n - 1
        if not can.any():
            break
        step = np.zeros(n, dtype=bool)
        step[can] = lt(idx[can], p[can] + 1)
        if not step.any():
            break
        p[step] += 1
    while True:  # retract positions the float hint overshot
        over = p > idx
        if not over.any():
            break
        bad = np.zeros(n, dtype=bool)
        bad[over] = ~lt(idx[over], p[over])
        if not bad.any():
            break
        p[bad] -= 1
    return (p - idx).astype(np.int64)


def neighbor_counts_sorted(nums, dens, t_num: int, t_den: int) -> np.ndarray:
    """Per-point neighbor counts for a strictly increasing point sequence.

    One forward pass gives each point i its forward arc, the positions
    (i, i + fwd[i]] of the doubled index range [0, 2n) whose points lie
    within (v' - v) mod 1 < t.  The backward neighbors of j are exactly the
    points whose forward arc covers j or j + n, counted with a difference
    array over the doubled range.  For t <= 1/2 the forward and backward
    relations are disjoint for distinct points ((v' - v) mod 1 and
    (v - v') mod 1 sum to 1, so at most one is below 1/2), and an arc is
    shorter than n, so no point covers j twice: the cover count is exact.
    """
    n = len(nums)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if 2 * t_num > t_den:
        return np.full(n, n - 1, dtype=np.int64)
    nums, dens = _engine_columns(nums, dens, t_num, t_den)
    if not strictly_increasing(nums, dens):
        raise ValueError("sorted engine requires strictly increasing values")
    fwd = _forward_counts(nums, dens, t_num, t_den)
    idx = np.arange(n)
    starts = np.bincount(idx + 1, minlength=2 * n)
    ends = np.bincount(idx + fwd + 1, minlength=2 * n)
    cover = np.cumsum(starts - ends)
    return fwd + cover[:n] + cover[n:]


def _result_from_counts(fs: FractionSet, counts: np.ndarray) -> SpacingResult:
    if len(counts) == 0:
        return SpacingResult(0, None, fs, counts)
    w = int(np.argmax(counts))
    return SpacingResult(int(counts[w]), fs[w], fs, counts)


def spacing_count_bruteforce(
    query: SpacingQuery, fraction_set: FractionSet | None = None
) -> SpacingResult:
    """Quadratic-oracle spacing count; guarded to small sets.

    Counts, for each x in S(Q, k), the x' != x with ||x - x'|| < 1/(2N)
    exactly, and returns the maximum with a witness.
    """
    fs = fraction_set if fraction_set is not None else enumerate_set(query.Q, query.k)
    if len(fs) > BRUTEFORCE_MAX_POINTS:
        raise ValueError(
            f"|S| = {len(fs)} exceeds the brute-force guard "
            f"({BRUTEFORCE_MAX_POINTS}); use spacing_count_fast"
        )
    counts = neighbor_counts_bruteforce(
        fs.numerators, fs.denominators(), 1, 2 * query.N
    )
    return _result_from_counts(fs, counts)


def spacing_count_fast(
    query: SpacingQuery, fraction_set: FractionSet | None = None
) -> SpacingResult:
    """Sorted sliding-window spacing count; same contract as the oracle."""
    fs = fraction_set if fraction_set is not None else enumerate_set(query.Q, query.k)
    counts = neighbor_counts_sorted(fs.numerators, fs.denominators(), 1, 2 * query.N)
    return _result_from_counts(fs, counts)


def table1_statistic(Q: int, fraction_set: FractionSet | None = None) -> int:
    """The quadratic-denominator scan statistic at threshold Q**-3 on twice
    the distance, i.e. the spacing count at N = Q**3 over S(Q, 2)."""
    return spacing_count_fast(SpacingQuery(Q, 2, Q ** 3), fraction_set).count


def spacing_bound_ratio(Q: int, N: int, epsilon: float = 0.0) -> float:
    """Diagnostic ratio of the measured count against its proved majorant.

    Returns M(Q, N) / (Q**3/N + (sqrt(Q) + Q**2/sqrt(N)) * N**epsilon).
    The majorant carries an unspecified constant, so this is report-only;
    regression tests freeze observed values rather than asserting a bound.
    """
    if Q < 1 or N < 1:
        raise ValueError("Q and N must be positive")
    m = spacing_count_fast(SpacingQuery(Q, 2, N)).count
    denom = Q ** 3 / N + (math.sqrt(Q) + Q ** 2 / math.sqrt(N)) * N ** epsilon
    return m / denom


@dataclass(frozen=True)
class ScanRow:
    Q: int
    count: int            # threshold 1/(2 Q**(k+1)): the published convention
    count_open: int       # threshold 1/Q**(k+1): the conjectured convention
    witness_a: int
    witness_q: int
    ratio: float


@dataclass(frozen=True)
class ScanReport:
    k: int
    rows: list[ScanRow]
    running_max: int
    fit_intercept: float  # least-squares fit count ~ intercept + slope*log(Q)
    fit_slope: float


def conjecture_scan(
    q_min: int,
    q_max: int,
    k: int = 2,
    cache=None,
) -> ScanReport:
    """Scan Q in [q_min, q_max], counting at both threshold conventions.

    For each Q the set S(Q, k) is enumerated (or fetched from ``cache``, a
    callable Q -> FractionSet) and the spacing count is taken at
    t = 1/(2 Q**(k+1)) (the convention behind the published quadratic table)
    and at the open-question variant t = 1/Q**(k+1).  The report carries the
    running maximum of the primary count and a least-squares fit of count
    against log Q, for eyeballing the conjectured Q**epsilon growth.
    """
    if q_min < 1 or q_max < q_min:
        raise ValueError(f"bad scan range [{q_min}, {q_max}]")
    rows: list[ScanRow] = []
    running = 0
    for Q in range(q_min, q_max + 1):
        fs = cache(Q) if cache is not None else enumerate_set(Q, k)
        N = Q ** (k + 1)
        dens = fs.denominators()
        counts = neighbor_counts_sorted(fs.numerators, dens, 1, 2 * N)
        res = _result_from_counts(fs, counts)
        open_counts = neighbor_counts_sorted(fs.numerators, dens, 1, N)
        running = max(running, res.count)
        kappa = 2 ** (k - 1)  # epsilon = 0 form of the degree-k majorant
        denom = Q ** (k + 1) / N + Q ** ((kappa - 1) / kappa) + Q ** (
            (kappa + k) / kappa
        ) / N ** (1 / kappa)
        rows.append(
            ScanRow(
                Q=Q,
                count=res.count,
                count_open=int(open_counts.max()),
                witness_a=res.witness.a,
                witness_q=res.witness.q,
                ratio=res.count / denom,
            )
        )
    qs = np.array([r.Q for r in rows], dtype=np.float64)
    ms = np.array([r.count for r in rows], dtype=np.float64)
    if len(rows) >= 2 and np.ptp(np.log(qs)) > 0:
        slope, intercept = np.polyfit(np.log(qs), ms, 1)
    else:
        slope, intercept = 0.0, float(ms[0]) if len(rows) else 0.0
    return ScanReport(
        k=k,
        rows=rows,
        running_max=running,
        fit_intercept=float(intercept),
        fit_slope=float(slope),
    )
