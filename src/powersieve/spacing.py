"""Spacing statistics for fraction sets on the torus.

The central quantity is, for a point set S on R/Z and a threshold t,

    M = max over x in S of #{ x' in S, x' != x : ||x - x'|| < t },

with t = 1/(2N) in the standard parameterization.  Two engines compute it:

* a brute-force oracle that decides every pair directly in one blocked
  O(n^2) sweep, rows of one denominator at a time, with no sortedness
  assumptions, and the pairs across the 0/1 seam in a second sweep of the
  points below t against the images x - 1 of those above 1 - t, summing
  the hits of a block row or column at the narrowest width that holds n, and
* a fast path over a sorted set: one sweep of rounds d = 1, 2, ..., shared
  by every threshold, tests whether point i + d (past the seam at 0/1 too)
  lies within t ahead of i and counts each hit twice, as i lies within t
  behind i + d exactly then; round 1 also certifies the order, as a key
  floor(v 2**s) that rises proves the value rises.

Each answers any number of thresholds in one call and decides
``||x - x'|| < t = u/v`` by its own integer test against the floor
(u p - 1) // v, at int64 or narrower on every S(Q, k), so they agree bit for
bit; both clamp v to max(u) dmax**2 + 1, past which every floor is 0, so no
t_den widens a column.  The fast path runs the test only on the pairs that
one subtraction of int64 keys floor(v 2**s) leaves undecided.

Thresholds are positive fractions ``t_num/t_den``; both engines refuse any
other.  The counts over a whole set, ``spacing_count_fast`` and
``spacing_count_bruteforce``, take the ``FractionSet`` and N, and the range
scan ``conjecture_scan`` takes the sets themselves: each reads Q and k off
its set, so no second copy of them can disagree with the points.  They
return the JSON-ready records the CLI prints: the counts the ``spacing`` row
{Q, k, N, M, witness_a, witness_q, set_size} and the scan the ``conjecture``
record, each witness a/q**k the first point in value order attaining M.
``spacing_count_fast`` and the scan run the engine on a set's lower half L
and its margins only (``_half_counts``): S(Q, k) = 1 - S(Q, k), so x and
1 - x count alike, the first maximum lies in L, the n/2 points below 1/2,
and L's neighbors within t lie in (-t, 1/2 + t) mod 1.  The oracle counts
the whole set, so its agreement checks this mirror argument too.

Threshold conventions.  The scan statistic published for quadratic
denominators counts ``2 * ||x - x'|| < Q**-3``, which equals the
``1/(2N)`` form at N = Q**3 over S(Q, 2) (the CLI's ``table1``); the
conjectured generalization counts against ``Q**-(k+1)``.  One engine
parameterized by an exact rational threshold serves every convention.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Iterable

import numpy as np

from .rationals import FractionSet, exact_columns

# Hard guard for the quadratic oracle.
BRUTEFORCE_MAX_POINTS = 50_000

# cells in one block of the oracle's sweep
_BLOCK_CELLS = 2 ** 17


def _engine_columns(nums, dens, t_num: int):
    """The sorted engine's columns; its largest operand is 2 dmax**2 t_num, whatever t_den."""
    return exact_columns(nums, dens, bound=2 * int(np.max(dens)) ** 2 * t_num)


def _thresholds(t_num, t_den, n: int):
    """Both engines' thresholds: the (T, n) counts, n - 1 (the answer) in the
    rows above t = 1/2 and left for the engine to fill in the others, and the
    (row, t_num, t_den) with t <= 1/2."""
    if np.ndim(t_num) != np.ndim(t_den) or np.size(t_num) != np.size(t_den):
        raise ValueError("t_num and t_den must be scalars or sequences of one length")
    pairs = [(int(u), int(v)) for u, v in zip(np.ravel(t_num), np.ravel(t_den))]
    for u, v in pairs:
        if u <= 0 or v <= 0:
            raise ValueError(f"thresholds must be positive fractions, got t = {u}/{v}")
    counts = np.empty((len(pairs), n), dtype=np.int64)
    counts[[r for r, (u, v) in enumerate(pairs) if 2 * u > v]] = n - 1
    return counts, [(r, u, v) for r, (u, v) in enumerate(pairs) if 2 * u <= v]


def _oracle_columns(nums, dens, u_max: int):
    """The oracle's columns and cap = u_max dmax**2 + 1, which bounds its cells,
    u p and every threshold denominator clamped to it: int32 while cap < 2**31."""
    cap = u_max * int(np.max(dens)) ** 2 + 1
    if cap < 2 ** 31:
        return np.asarray(nums, dtype=np.int32), np.asarray(dens, dtype=np.int32), cap
    return (*exact_columns(nums, dens, bound=cap), cap)


def neighbor_counts_bruteforce(nums, dens, t_num, t_den) -> np.ndarray:
    """Per-point neighbor counts by exhaustive pairwise comparison.

    For a row a/d and a column b/d' in [0, 1) let x = a d' - d b and p = d d':
    |a/d - b/d'| < t = u/v exactly when |x| <= h = (u p - 1) // v.  No pair is
    within t <= 1/2 both ways round, so one sweep tests every pair directly and
    an image sweep the points below the largest t (rows, a <= (u d - 1) // v)
    against the images b/d' - 1 of those above 1 - t (columns, numerators
    b - d').  Rows go a class of one denominator d at a time (a stable integer
    argsort), so p, d b and h are made once per class at the cells' width, v
    clamped to cap = max(u) dmax**2 + 1 (h is 0 past it), in blocks of up to
    ``_BLOCK_CELLS`` cells in one buffer.  The direct test is symmetric, so a
    block meets the columns from its first row on and a hit counts for its row
    and, past the block, its column; the self pair is a hit and is subtracted.
    Hits land in a uint8 mask, a row's summed at ``np.min_scalar_type(n)`` and
    a column's over a block of b rows at ``np.min_scalar_type(b)``.

    Scalar ``t_num, t_den`` give an ``(n,)`` array; equal-length sequences
    give ``(T, n)`` from one sweep.  Above t = 1/2 every other point counts.
    """
    n = len(nums)
    counts, rows = _thresholds(t_num, t_den, n)
    counts[[r for r, _, _ in rows]] = -1  # the self pair is a hit below
    if n and rows:
        nums, dens, cap = _oracle_columns(nums, dens, max(u for _, u, _ in rows))
        t = max(Fraction(u, min(v, cap)) for _, u, v in rows)
        edge = (t.numerator * dens - 1) // t.denominator  # a/d < t exactly when a <= edge
        below, above = np.flatnonzero(nums <= edge), np.flatnonzero(dens - nums <= edge)
        below = below[np.argsort(dens[below], kind="stable")]
        cells = np.empty(max(_BLOCK_CELLS, n), dtype=nums.dtype)
        hits, acc = np.empty(len(cells), dtype=np.uint8), np.min_scalar_type(n)
        for z, m, start in ((np.argsort(dens, kind="stable"), n, 0),
                            (np.concatenate([below, above]), len(below), len(below))):
            if not m or start == len(z):  # rows z[:m], columns z[start:] or from the row on
                continue
            zn, zd = nums[z], dens[z]
            zn[m:] -= zd[m:]  # the image sweep's columns, at value - 1
            found = np.zeros((len(rows), len(z)), dtype=np.int64)
            ends = [*np.flatnonzero(zd[1:m] != zd[: m - 1]) + 1, m]
            for c, end in zip([0, *ends], ends):  # the class of rows [c, end)
                f = max(c, start)  # its first column
                p, db = zd[c] * zd[f:], zd[c] * zn[f:]
                hs = [(u * p - 1) // min(v, cap) for _, u, v in rows]  # 0 for v >= cap
                step = max(1, _BLOCK_CELLS // (len(z) - f))
                for lo in range(c, end, step):  # a block of rows against the columns from j on
                    b, j = min(step, end - lo), max(lo, start)
                    e = max(lo + b, start)  # the columns past the block's rows
                    x, hit = (buf[: b * (len(z) - j)].reshape(b, -1) for buf in (cells, hits))
                    np.multiply.outer(zn[lo : lo + b], zd[j:], out=x)
                    np.subtract(x, db[j - f :], out=x)
                    np.abs(x, out=x)
                    for row, h in zip(found, hs):
                        np.less_equal(x, h[j - f :], out=hit.view(bool))
                        row[lo : lo + b] += hit.sum(axis=1, dtype=acc)
                        row[e:] += hit[:, e - j :].sum(axis=0, dtype=np.min_scalar_type(b))
            counts[np.ix_([r for r, _, _ in rows], z)] += found
    return counts if np.ndim(t_num) else counts[0]


def _count_below(nums, bases, k: int, u: int, v: int, closed: bool = False) -> int:
    """#{i : nums[i]/bases[i]**k < u/v} (<= u/v if ``closed``) over an increasing
    sequence, v > 0, by bisection on exact Python-integer cross products a v, u q**k."""
    return bisect_left(range(len(nums)), True,
                       key=lambda i: int(nums[i]) * v - u * int(bases[i]) ** k >= closed)


def _within(nums, dens, delta, pairs, u: int, v: int, s: int) -> np.ndarray:
    """w_p - v_i < t = u/v for keys ``delta`` apart, ``pairs(j)`` giving the (i, p)
    of the pairs j in the band.  Each key floor(w 2**s) is off by under one, so
    delta < floor(t 2**s) proves w_p - v_i < t, delta > ceil(t 2**s) refutes it,
    and only the band between takes wn_p d_i - n_i wd_p <= (u d_i wd_p - 1) // v
    (a v clamped to u dmax**2 + 1 leaves every floor as it is)."""
    lo, hi = (u << s) // v, -(-(u << s) // v)
    inside = delta < lo
    i, p = pairs(band := np.flatnonzero(inside != (delta <= hi)))  # lo <= delta <= hi
    n, di, wd = len(nums), dens[i], dens.take(p, mode="wrap")
    x = (nums.take(p, mode="wrap") + (p >= n) * wd) * di - nums[i] * wd
    inside[band] = x <= (u * (di * wd) - 1) // v
    return inside


def _long_arcs(nums, dens, wk, row, held, d: int, u: int, v: int, s: int) -> None:
    """Adds to ``row`` what the rounds left of the arcs i still ``held`` after round
    d.  A key search puts each at its last point proven in, exact tests at p and
    p + 1 settle its end p_i, and its p_i - i - d points past i + d count at i
    and hold i behind them: one hit at a time while these tails total at most n
    points, else through one difference array (t near 1/2 makes arcs of n/2)."""
    n = len(nums)
    arcs = np.flatnonzero(held)
    p = np.clip(np.searchsorted(wk, wk[arcs] + (u << s) // v) - 1, arcs + d,
                np.minimum(arcs + n - 1, len(wk) - 2))  # per arc, then its end p_i in place
    todo = slice(None)  # the arcs still open: all of them, then those the tests moved
    while True:
        i, pt = arcs[todo], p[todo]
        ahead = wk[i]
        inside = _within(nums, dens, wk[pt] - ahead, lambda j: (i[j], pt[j]), u, v, s)
        beyond = _within(nums, dens, wk[pt + 1] - ahead, lambda j: (i[j], pt[j] + 1), u, v, s)
        moved = np.flatnonzero(beyond | ~inside)
        pt += beyond
        pt -= ~inside
        p[todo] = pt
        if not moved.size:
            break
        todo = moved if isinstance(todo, slice) else todo[moved]
    stops = np.add(p, 1, out=p)  # each tail is (i + d, p_i] of the doubled range [0, 2n)
    tails = stops - arcs - (d + 1)
    row[arcs] += tails
    if (total := int(tails.sum())) <= n:  # one hit at a time
        at = np.repeat(stops - np.cumsum(tails), tails)
        at += np.arange(total)
        np.add.at(row, np.remainder(at, n, out=at), 1)
    else:  # one difference array, folded at the seam: a tail past n also covers [0, stop - n)
        starts = np.add(arcs, d + 1, out=arcs)
        row += np.count_nonzero(starts < n) - np.count_nonzero(stops < n)
        c = np.bincount(np.remainder(starts, n, out=starts), minlength=n)
        c -= np.bincount(np.remainder(stops, n, out=tails), minlength=n)
        row += np.cumsum(c, out=c)


def neighbor_counts_sorted(nums, dens, t_num, t_den) -> np.ndarray:
    """Per-point neighbor counts for a strictly increasing point sequence.

    One sweep of rounds d = 1, 2, ... serves every threshold: round d forms the
    key gaps wk[i + d] - wk[i] of the doubled index range [0, 2n) once, and each
    threshold still open decides from them (``_within``) whether arc i holds
    i + d, (v_{i+d} - v_i) mod 1 < t.  A hit counts for i and for (i + d) mod n:
    i is a backward neighbor of i + d exactly when i + d is a forward neighbor
    of i.  For t <= 1/2 the two relations are disjoint for distinct points (the
    two distances mod 1 sum to 1) and an arc is shorter than n, so no pair
    counts twice.  Values increase, so an arc holding i + d holds every point
    before it.  A round costs O(n) and a search O(log n) an arc, so a
    threshold's rounds stop once fewer than n / log2 n of its arcs are open or
    its last round closed fewer; ``_long_arcs`` settles the rest.  Round 1
    certifies the order: a key floor(v 2**s) that rises proves the value
    rises, so only adjacent pairs whose keys do not rise take cross products.

    Thresholds follow the oracle, ``(n,)`` for a scalar and ``(T, n)`` for
    sequences, and share one column of int64 keys and one pair of columns,
    int64 while 2 dmax**2 max(t_num) < 2**62, whatever each t_den.
    """
    n = len(nums)
    counts, rows = _thresholds(t_num, t_den, n)
    if n and rows:
        _, t_nums, _ = zip(*rows)
        nums, dens = _engine_columns(nums, dens, max(t_nums))
        s = 62 - min(int(np.max(dens)).bit_length(), 31)  # nums << s < 2**62
        cap = max(t_nums) * int(np.max(dens)) ** 2 + 1  # (u p - 1) // v is 0 for v >= cap
        t = max(Fraction(u, v) for _, u, v in rows)
        e = min(n, 1 + _count_below(nums, dens, 1, t.numerator, t.denominator))
        wk = np.empty(n + e, dtype=np.int64)  # floor(v 2**s), then #{v < t} + 1 past the seam
        # object-width columns give Python-integer keys below 2**s, cast into the int64 column
        np.floor_divide(nums << s, dens, out=wk[:n], casting="unsafe")
        np.add(wk[:e], 1 << s, out=wk[n:])
        # a round adds at most 2 to a point and a threshold runs at most lg + 1 <= 64
        # rounds (each but its last closes n / lg arcs or more), so uint8 holds its hits
        live = [(r, u, min(v, cap), n, np.zeros(n, dtype=np.uint8)) for r, u, v in rows]
        lg, gaps, d = n.bit_length(), np.empty(n, dtype=np.int64), 0
        while live:  # round d: does arc i hold i + d?
            d += 1
            m = min(n, len(wk) - d)  # i + d past the extension lies beyond every arc
            delta = np.subtract(wk[d : m + d], wk[:m], out=gaps[:m])
            if d == 1:  # the order: rising keys prove rising values, the rest take cross products
                j = np.flatnonzero(delta[:-1] <= 0)
                if np.any(nums[j] * dens[j + 1] >= nums[j + 1] * dens[j]):
                    raise ValueError("sorted engine requires strictly increasing values")
            rounds, live = live, []
            for r, u, v, left, hits in rounds:
                held = _within(nums, dens, delta, lambda j: (j, j + d), u, v, s)
                hits[:m] += held  # forward at i, backward at (i + d) mod n
                hits[d:] += held[: n - d]
                hits[: m + d - n] += held[n - d :]
                closed, left = left, np.count_nonzero(held)
                if left * lg >= n and (closed - left) * lg >= n:
                    live.append((r, u, v, left, hits))
                else:
                    counts[r] = hits
                    _long_arcs(nums, dens, wk, counts[r], held, d, u, v, s)
    return counts if np.ndim(t_num) else counts[0]


def _witness(fs: FractionSet, counts: np.ndarray) -> tuple[int, int, int]:
    """(M, a, q): the maximum count and the point a/q**k of ``fs`` first attaining
    it, a point of its lower half L (x and 1 - x count alike)."""
    (a, q), w = fs.lower, int(np.argmax(counts))  # S(Q, k) is never empty
    return int(counts[w]), int(a[w]), int(q[w])


def check_spacing(N: int, size: int, brute: bool) -> None:
    """The refusals of a spacing count, which need only N and |S|, so the CLI
    makes them before it builds the set: the brute-force guard, then N >= 1."""
    if brute and size > BRUTEFORCE_MAX_POINTS:
        raise ValueError(f"|S| = {size} exceeds the brute-force guard "
                         f"({BRUTEFORCE_MAX_POINTS}); use spacing_count_fast")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")


def _half_counts(fs: FractionSet, t_num, t_den) -> np.ndarray:
    """What ``neighbor_counts_sorted`` counts at the points of ``fs``'s lower
    half L, from the points E of S in (-t, 1/2 + t) mod 1 alone, t the largest
    threshold: L, the mirrors of its points above 1/2 - t (in [1/2, 1/2 + t)),
    then the mirrors of its points below t (above 1 - t), each margin reversed
    and the upper one clipped to the complement of the lower, so no point comes
    twice.  Exact searches over L find both cuts, and E is filled into one pair
    of columns (numerators, q**k)."""
    (a, q), k = fs.lower, fs.k
    h = len(a)
    t = max(Fraction(int(u), int(v)) for u, v in zip(np.ravel(t_num), np.ravel(t_den)))
    u, v = t.numerator, t.denominator
    above = h - _count_below(a, q, k, v - 2 * u, 2 * v, closed=True)  # #{x > 1/2 - t}
    below = _count_below(a, q, k, u, v)  # #{x < t}
    above = min(above, h - below)
    nums, dens = np.empty((2, h + above + below), dtype=np.int64)
    nums[:h] = a
    np.power(q, k, out=dens[:h])
    for lo, hi, src in ((h, h + above, slice(h - above, h)), (h + above, None, slice(below))):
        dens[lo:hi] = dens[src][::-1]
        np.subtract(dens[lo:hi], a[src][::-1], out=nums[lo:hi])
    return neighbor_counts_sorted(nums, dens, t_num, t_den)[..., :h]


def _spacing_count(fs: FractionSet, N: int, brute: bool = False) -> dict:
    """The JSON-ready row {Q, k, N, M, witness_a, witness_q, set_size} that the
    CLI's ``spacing`` prints: the count at t = 1/(2N) over ``fs``, by the oracle
    over the whole set if ``brute``, else by ``_half_counts``."""
    check_spacing(N, len(fs), brute)
    counts = (neighbor_counts_bruteforce(fs.numerators, fs.denominators(), 1, 2 * N) if brute
              else _half_counts(fs, 1, 2 * N))
    M, a, q = _witness(fs, counts)
    return {"Q": fs.Q, "k": fs.k, "N": N, "M": M, "witness_a": a, "witness_q": q,
            "set_size": len(fs)}


def spacing_count_bruteforce(fs: FractionSet, N: int) -> dict:
    """Quadratic-oracle spacing count; guarded to small sets.

    Counts, for each x in ``fs``, the x' != x with ||x - x'|| < 1/(2N)
    exactly, and returns the row of the maximum M with its first witness.
    """
    return _spacing_count(fs, N, brute=True)


def spacing_count_fast(fs: FractionSet, N: int) -> dict:
    """Sorted sliding-window spacing count; same contract as the oracle."""
    return _spacing_count(fs, N)


def _scan_row(fs: FractionSet) -> dict:
    """The ``conjecture_scan`` row of one set."""
    Q, k = fs.Q, fs.k
    N = Q ** (k + 1)
    counts, open_counts = _half_counts(fs, [1, 1], [2 * N, N])
    M, a, q = _witness(fs, counts)
    kappa = 2 ** (k - 1)  # epsilon = 0 form of the degree-k majorant
    denom = Q ** (k + 1) / N + Q ** ((kappa - 1) / kappa) + Q ** (
        (kappa + k) / kappa
    ) / N ** (1 / kappa)
    return {"Q": Q, "M": M, "M_open": int(open_counts.max()),
            "witness_a": a, "witness_q": q, "ratio": M / denom}


def conjecture_scan(sets: Iterable[FractionSet]) -> dict:
    """One row per set S(Q, k), counting at both threshold conventions.

    Each row reads Q and k off its set and takes the spacing count M at
    t = 1/(2 Q**(k+1)) (the convention behind the published quadratic table)
    and M_open at the open-question variant t = 1/Q**(k+1), both from the
    set's lower half by the mirror S = 1 - S.  ``sets`` is consumed
    one set at a time, each set and its counts dropped before the next is
    built, so a generator holds one set of the range at a time.  The
    JSON-ready record holds the rows {Q, M, M_open, witness_a, witness_q, ratio},
    the running maximum of M and a least-squares fit of M against log Q, for
    eyeballing the conjectured Q**epsilon growth.
    """
    rows = [*map(_scan_row, sets)]  # map holds no set while it builds the next
    log_q = np.log(np.array([r["Q"] for r in rows], dtype=np.float64))
    ms = np.array([r["M"] for r in rows], dtype=np.float64)
    if len(rows) >= 2 and np.ptp(log_q) > 0:
        slope, intercept = np.polyfit(log_q, ms, 1)
    else:
        slope, intercept = 0.0, float(ms[0]) if len(rows) else 0.0
    return {"rows": rows, "running_max": max((r["M"] for r in rows), default=0),
            "fit": {"intercept": float(intercept), "slope": float(slope)}}
