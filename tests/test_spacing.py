"""Spacing counts: oracle equivalence, conventions, seam handling, scans."""

import csv
import functools
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersieve import cli, rationals, spacing
from powersieve.rationals import enumerate_set
from powersieve.spacing import (
    BRUTEFORCE_MAX_POINTS,
    conjecture_scan,
    neighbor_counts_bruteforce,
    neighbor_counts_sorted,
    spacing_count_bruteforce,
    spacing_count_fast,
)


def fraction_columns(points):
    pts = sorted(points)
    nums = np.array([p.numerator for p in pts], dtype=object)
    dens = np.array([p.denominator for p in pts], dtype=object)
    return nums, dens


def table1_count(Q):
    """The quadratic scan statistic of the ``table1`` report: N = Q**3 over S(Q, 2)."""
    return spacing_count_fast(enumerate_set(Q, 2), Q ** 3)["M"]


def scan_sets(q_min, q_max, k):
    return (enumerate_set(Q, k) for Q in range(q_min, q_max + 1))


def fraction_counts(points, t):
    """Plain Fraction count of the x' != x with ||x - x'|| < t, per point."""
    out = []
    for x in points:
        dists = [min((x - y) % 1, (y - x) % 1) for y in points if y != x]
        out.append(sum(d < t for d in dists))
    return out


class TestKnownCounts:
    def test_singleton_window_boundary(self):
        # S(1,2) = {1/4, 3/4}: the only gap is exactly 1/2, strict < fails
        assert spacing_count_bruteforce(enumerate_set(1, 2), 1)["M"] == 0

    def test_self_exclusion_forced_by_singleton(self):
        # with the self pair included this would be 1, never 0
        assert table1_count(1) == 0

    def test_q2_wide_threshold_still_empty(self):
        # the minimal gap of S(2, 2) is exactly 1/144 (7/16 and 4/9): below
        # 1/142 (N = 71) it counts, below 1/144 (N = 72) it does not, since the
        # comparison is strict, and 1/2000 (N = 1000) is emptier still
        # N = 0 has no threshold 1/(2N) and is refused by both
        fs = enumerate_set(2, 2)
        for N, M in [(71, 1), (72, 0), (1000, 0)]:
            assert spacing_count_bruteforce(fs, N)["M"] == M
            assert spacing_count_fast(fs, N)["M"] == M
        for count in (spacing_count_bruteforce, spacing_count_fast):
            with pytest.raises(ValueError, match="N must be >= 1, got 0"):
                count(fs, 0)

    def test_witness_attains_the_count(self):
        fs = enumerate_set(4, 2)
        row = spacing_count_fast(fs, 64)
        counts = neighbor_counts_sorted(fs.numerators, fs.denominators(), 1, 2 * 64)
        points = [(p.a, p.q) for p in fs]
        w = points.index((row["witness_a"], row["witness_q"]))
        assert counts[w] == row["M"] == counts.max()
        # the witness is a point of the set given, with its k
        cubic = enumerate_set(2, 3)
        row = spacing_count_fast(cubic, 64)
        assert row["k"] == 3 and 2 < row["witness_q"] <= 4
        assert (row["witness_a"], row["witness_q"]) in [(p.a, p.q) for p in cubic]

    def test_bruteforce_guard(self):
        fs = enumerate_set(13, 3)
        with pytest.raises(ValueError, match="spacing_count_fast"):
            spacing_count_bruteforce(fs, 10)
        assert len(fs) > BRUTEFORCE_MAX_POINTS


class TestSpacingRow:
    """Both counts return the row the CLI's ``spacing`` prints, its witness the
    first point in value order attaining M: the tie rule ``conjecture_scan`` shares."""

    @pytest.mark.parametrize("Q,k", [(4, 2), (2, 3), (12, 2)])
    def test_row_is_the_cli_row_with_the_first_maximum(self, Q, k, capsys):
        fs = enumerate_set(Q, k)
        for N in sorted({1, 10, Q ** 3, Q ** (k + 1), 2 * Q ** (k + 1)}):
            row = spacing_count_fast(fs, N)
            assert spacing_count_bruteforce(fs, N) == row
            counts = neighbor_counts_bruteforce(fs.numerators, fs.denominators(), 1, 2 * N)
            w = int(np.flatnonzero(counts == counts.max())[0])
            assert row == {"Q": Q, "k": k, "N": N, "M": int(counts[w]), "witness_a": fs[w].a,
                           "witness_q": fs[w].q, "set_size": len(fs)}
            for engine in ("fast", "brute"):
                argv = ["spacing", "--Q", str(Q), "--k", str(k), "--N", str(N), "--engine", engine]
                assert cli.main(argv) == cli.EXIT_OK
                assert json.loads(capsys.readouterr().out)["rows"] == [row]
        scan = conjecture_scan([fs])["rows"][0]
        row = spacing_count_fast(fs, Q ** (k + 1))
        assert (scan["witness_a"], scan["witness_q"]) == (row["witness_a"], row["witness_q"])


class TestMirror:
    """S(Q, k) = 1 - S(Q, k): counts of the lower half L, from the engine on
    the points within the largest t of [0, 1/2], equal the whole set's."""

    @pytest.mark.parametrize("Q,k", [(30, 2), (8, 3)])
    def test_scan_thresholds(self, Q, k):
        fs, N = enumerate_set(Q, k), Q ** (k + 1)
        full = neighbor_counts_sorted(fs.numerators, fs.denominators(), [1, 1], [2 * N, N])
        assert np.array_equal(full, full[:, ::-1])  # x and 1 - x count alike
        half = spacing._half_counts(fs, [1, 1], [2 * N, N])
        assert np.array_equal(half, full[:, : len(fs) // 2])
        assert [int(np.argmax(c)) for c in half] == [int(np.argmax(c)) for c in full]
        w = int(np.argmax(full[0]))  # the first maximum in value order
        row = conjecture_scan([fs])["rows"][0]
        assert (row["M"], row["M_open"], row["witness_a"], row["witness_q"]) == (
            full[0, w], full[1].max(), fs[w].a, fs[w].q)
        fast = spacing_count_fast(fs, N)
        assert (fast["M"], fast["witness_a"], fast["witness_q"]) == (full[0, w], fs[w].a, fs[w].q)

    @pytest.mark.parametrize("Q,k", [(3, 2), (5, 2), (2, 3), (4, 3)])
    def test_wide_thresholds(self, Q, k):
        # the cuts 1/2 + t and 1 - t meet near t = 1/4; past 1/2 E is the set
        fs = enumerate_set(Q, k)
        nums, dens, h = fs.numerators, fs.denominators(), len(fs) // 2
        ts = [Fraction(1, 1000), Fraction(1, 5), Fraction(1, 4), Fraction(1, 3),
              Fraction(3, 7), Fraction(1, 2), Fraction(2, 3)]
        for t in ts:
            u, v = t.numerator, t.denominator
            full = neighbor_counts_bruteforce(nums, dens, u, v)
            assert np.array_equal(full, neighbor_counts_sorted(nums, dens, u, v))
            assert np.array_equal(spacing._half_counts(fs, u, v), full[:h])
        u, v = [t.numerator for t in ts], [t.denominator for t in ts]
        assert np.array_equal(spacing._half_counts(fs, u, v),
                              neighbor_counts_bruteforce(nums, dens, u, v)[:, :h])
        for N in (1, 2, 3):  # t = 1/2, 1/4, 1/6: the witness is the first maximum
            counts = neighbor_counts_bruteforce(nums, dens, 1, 2 * N)
            w = int(np.argmax(counts))
            assert spacing_count_fast(fs, N) == {
                "Q": Q, "k": k, "N": N, "M": int(counts[w]), "witness_a": fs[w].a,
                "witness_q": fs[w].q, "set_size": len(fs)}


class TestMirrorCuts:
    """E, the engine's input in ``_half_counts``, is L, the mirrors of its points
    above 1/2 - t, then the mirrors of its points below t, the upper margin
    clipped to the complement of the lower; both cuts are exact, at points
    sitting on them too."""

    @pytest.mark.parametrize("Q,k", [(5, 2), (30, 2), (4, 3)])
    def test_every_kind_of_threshold(self, Q, k, monkeypatch):
        fs = enumerate_set(Q, k)
        nums, dens, n = fs.numerators, fs.denominators(), len(fs)
        h, half, quarter = n // 2, Fraction(1, 2), Fraction(1, 4)
        x = [Fraction(int(a), int(d)) for a, d in zip(nums[:h], dens[:h])]
        d0, d1 = sorted(abs(y - quarter) for y in x)[:2]  # the nearest point alone in both
        kinds = {  # name: (t, points of L above 1/2 - t, points of L below t), None unpinned
            "margins empty": (min(x[0], half - x[-1]), 0, 0),
            "a point at t": (x[0], None, 0),
            "a point at 1/2 - t": (half - x[-1], 0, None),
            "one point below t": ((x[0] + x[1]) / 2, None, 1),
            "one point above 1/2 - t": (half - (x[-2] + x[-1]) / 2, 1, None),
            "one point in both margins": (quarter + (d0 + d1) / 2, None, None),
            "margins meeting at 1/4": (Fraction(1, 4), None, None),
            "margins meeting past 1/4": (Fraction(2, 7), None, None),
            "t above 1/2": (Fraction(2, 3), h, h),
        }
        inputs, engine = [], spacing.neighbor_counts_sorted
        monkeypatch.setattr(spacing, "neighbor_counts_sorted",
                            lambda *args: inputs.append(args[:2]) or engine(*args))
        for name, (t, upper, lower) in kinds.items():
            above, below = sum(y > half - t for y in x), sum(y < t for y in x)
            assert upper in (None, above) and lower in (None, below), name
            assert (above + below >= h) == (t >= Fraction(1, 4)), name
            assert (above + below == h + 1) == (name == "one point in both margins"), name
            inputs.clear()
            counts = spacing._half_counts(fs, t.numerator, t.denominator)
            assert np.array_equal(counts, engine(nums, dens, t.numerator, t.denominator)[:h]), name
            [(e_nums, e_dens)] = inputs
            assert len(e_nums) == (n if above + below >= h else h + above + below), name
            if above + below >= h:  # the whole set, point by point in value order
                assert np.array_equal(e_nums, nums) and np.array_equal(e_dens, dens), name


class TestOracleEquivalence:
    @pytest.mark.parametrize("Q", range(1, 8))
    @pytest.mark.parametrize("k", [2, 3])
    def test_fast_equals_bruteforce_small(self, Q, k):
        fs = enumerate_set(Q, k)
        Ns = (10, Q ** 3, Q ** (k + 1), 2 * Q ** (k + 1))
        brute_rows = neighbor_counts_bruteforce(
            fs.numerators, fs.denominators(), [1] * 4, [2 * N for N in Ns]
        )
        fast_rows = neighbor_counts_sorted(
            fs.numerators, fs.denominators(), [1] * 4, [2 * N for N in Ns]
        )
        assert np.array_equal(fast_rows, brute_rows)  # one sweep each, point by point
        for N, brute_counts in zip(Ns, brute_rows):
            assert spacing_count_fast(fs, N)["M"] == brute_counts.max()
            fast_counts = neighbor_counts_sorted(fs.numerators, fs.denominators(), 1, 2 * N)
            assert np.array_equal(fast_counts, brute_counts)

    def test_per_point_counts_agree(self):
        fs = enumerate_set(5, 2)
        nums, dens = fs.numerators, fs.denominators()
        for t_num, t_den in [(1, 2 * 125), (1, 144), (1, 100), (1, 2)]:
            cb = neighbor_counts_bruteforce(nums, dens, t_num, t_den)
            cf = neighbor_counts_sorted(nums, dens, t_num, t_den)
            assert np.array_equal(cb, cf)

    @pytest.mark.parametrize("engine", [neighbor_counts_bruteforce, neighbor_counts_sorted])
    @pytest.mark.parametrize("t_num,t_den", [(0, 1), (-1, 2), (1, 0), (1, -2)])
    def test_non_positive_threshold_refused(self, engine, t_num, t_den):
        # t = 0/1 once gave -1 per point from the oracle and 0 from the sorted
        # engine, and t = 1/-2 counted every other point in both
        fs = enumerate_set(3, 2)
        nums, dens = fs.numerators, fs.denominators()
        message = f"thresholds must be positive fractions, got t = {t_num}/{t_den}"
        with pytest.raises(ValueError, match=message):
            engine(nums, dens, t_num, t_den)
        with pytest.raises(ValueError, match=message):
            engine(nums, dens, [1, t_num], [2, t_den])


class TestMonotonicity:
    @pytest.mark.parametrize("Q,k", [(3, 2), (5, 2), (2, 3)])
    def test_shrinking_threshold_never_gains(self, Q, k):
        fs = enumerate_set(Q, k)
        prev = None
        for N in sorted({1, 2, 5, 10, 50, Q ** 3, 2 * Q ** 3, 10 * Q ** 3}):
            m = spacing_count_fast(fs, N)["M"]
            if prev is not None:
                assert m <= prev
            prev = m


class TestSeam:
    def test_rotation_invariance_on_synthetic_points(self):
        # generic rationals pushed against the 0/1 seam, then rotated by 1/2
        rng = random.Random(99)
        pts = {Fraction(1, 500), Fraction(499, 500), Fraction(3, 500)}
        while len(pts) < 40:
            pts.add(Fraction(rng.randrange(1, 999), 999))
        for t_num, t_den in [(1, 100), (1, 40), (3, 1000)]:
            base = neighbor_counts_sorted(*fraction_columns(pts), t_num, t_den)
            rotated = [(p + Fraction(1, 2)) % 1 for p in pts]
            rot = neighbor_counts_sorted(*fraction_columns(rotated), t_num, t_den)
            assert sorted(base.tolist()) == sorted(rot.tolist())
            brute = neighbor_counts_bruteforce(*fraction_columns(pts), t_num, t_den)
            assert sorted(base.tolist()) == sorted(brute.tolist())

    def test_threshold_above_half_counts_everything(self):
        pts = [Fraction(i, 7) for i in range(7)]
        counts = neighbor_counts_sorted(*fraction_columns(pts), 2, 3)
        assert counts.tolist() == [6] * 7

    def test_sorted_engine_rejects_unsorted_input(self):
        nums = np.array([3, 1], dtype=object)
        dens = np.array([7, 7], dtype=object)
        with pytest.raises(ValueError, match="strictly increasing"):
            neighbor_counts_sorted(nums, dens, 1, 10)

    def test_point_at_zero_is_its_own_mirror(self):
        # 0 sits on the seam; its backward arc must wrap to the top points
        pts = [Fraction(0), Fraction(1, 50), Fraction(49, 50), Fraction(1, 2)]
        for t_num, t_den in [(1, 20), (1, 40), (1, 3)]:
            fast = neighbor_counts_sorted(*fraction_columns(pts), t_num, t_den)
            brute = neighbor_counts_bruteforce(*fraction_columns(pts), t_num, t_den)
            assert fast.tolist() == brute.tolist()


@st.composite
def seam_point_sets(draw):
    """Distinct fractions with denominators <= 12, always holding 0 and a
    point on each side of the 0/1 seam, plus the distance of one pair."""
    e = draw(st.integers(2, 12))
    pts = {Fraction(0), Fraction(1, e), Fraction(e - 1, e)}
    for a, d in draw(st.lists(st.tuples(st.integers(0, 11), st.integers(1, 12)))):
        pts.add(Fraction(a % d, d))
    pts = sorted(pts)
    x, y = draw(st.lists(st.sampled_from(pts), min_size=2, max_size=2, unique=True))
    d = (x - y) % 1
    return pts, min(d, 1 - d)


class TestEngineProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        case=seam_point_sets(),
        t_free=st.fractions(min_value=Fraction(1, 200), max_value=1, max_denominator=200),
        t_seq=st.lists(
            st.fractions(min_value=Fraction(1, 200), max_value=1, max_denominator=200),
            max_size=4,
        ),
    )
    def test_sorted_equals_bruteforce_per_point(self, case, t_free, t_seq):
        pts, tie = case
        nums, dens = fraction_columns(pts)
        # t = 1/2 is the largest threshold the sweep decides; at t = tie
        # the pair that set it sits exactly on the strict < boundary
        for t in (Fraction(1, 2), tie, t_free):
            fast = neighbor_counts_sorted(nums, dens, t.numerator, t.denominator)
            brute = neighbor_counts_bruteforce(nums, dens, t.numerator, t.denominator)
            assert fast.tolist() == brute.tolist()
        # a drawn threshold sequence: one sorted call against one oracle sweep
        seq = [tie, *t_seq]
        t_nums, t_dens = [t.numerator for t in seq], [t.denominator for t in seq]
        fast_rows = neighbor_counts_sorted(nums, dens, t_nums, t_dens)
        assert fast_rows.tolist() == neighbor_counts_bruteforce(nums, dens, t_nums, t_dens).tolist()


def wide_denominator_case():
    """Points with denominators past 2**31, near twins across the seam, and
    four thresholds, one of them a pair distance."""
    rng = random.Random(31)
    pts = set()
    while len(pts) < 60:
        d, e = rng.randrange(2 ** 31 + 1, 2 ** 34), rng.randrange(2 ** 31 + 1, 2 ** 34)
        a = rng.randrange(d)
        pts.add(Fraction(a, d))
        # a near twin a few units of 1/e away, across the seam when a/d is near 0
        pts.add(Fraction((a * e // d + rng.randrange(-3, 4)) % e, e))
    pts = sorted(pts)
    d = (pts[7] - pts[3]) % 1
    return pts, [Fraction(1, 40), Fraction(1, 2), min(d, 1 - d), Fraction(1, 2 ** 32)]


def wide_threshold_case():
    """Denominators <= 12 with thresholds near 1/30 and just above the minimal
    gap 1/132, whose numerators and denominators are near 10**18."""
    pts = sorted({Fraction(a, d) for d in range(1, 13) for a in range(d)})
    return pts, [Fraction(10 ** 17 + 3, 3 * 10 ** 18), Fraction(1, 132) + Fraction(1, 10 ** 17)]


class TestObjectWidth:
    """Columns whose engine products reach 2**62 run in Python integers."""

    @staticmethod
    def check_both_engines(pts, t):
        nums, dens = fraction_columns(pts)
        wide, _ = spacing._engine_columns(nums, dens, t.numerator)
        assert wide.dtype == object
        expected = fraction_counts(pts, t)
        fast = neighbor_counts_sorted(nums, dens, t.numerator, t.denominator)
        brute = neighbor_counts_bruteforce(nums, dens, t.numerator, t.denominator)
        assert fast.tolist() == expected
        assert brute.tolist() == expected

    def test_denominators_above_2_31(self):
        pts, thresholds = wide_denominator_case()
        for t in thresholds:
            self.check_both_engines(pts, t)

    def test_threshold_pushes_small_denominators_past_2_62(self):
        pts, thresholds = wide_threshold_case()
        for t in thresholds:  # 2 * 12**2 * t_den > 2**62
            assert 2 * 12 ** 2 * t.denominator >= 2 ** 62
            self.check_both_engines(pts, t)


class TestOracleBroadcast:
    """A threshold sequence gives one row per threshold from one sweep."""

    @staticmethod
    def check_rows(nums, dens, thresholds):
        t_nums = [t.numerator for t in thresholds]
        t_dens = [t.denominator for t in thresholds]
        rows = neighbor_counts_bruteforce(nums, dens, t_nums, t_dens)
        assert rows.shape == (len(thresholds), len(nums))
        for row, t_num, t_den in zip(rows, t_nums, t_dens):
            single = neighbor_counts_bruteforce(nums, dens, t_num, t_den)
            assert single.shape == (len(nums),)
            assert row.tolist() == single.tolist()
        return rows

    def test_rows_equal_scalar_calls_on_a_fraction_set(self):
        fs = enumerate_set(5, 2)
        thresholds = [Fraction(1, 2 * N) for N in (10, 125, 625, 1250)]
        thresholds += [Fraction(1, 2), Fraction(3, 1000)]
        self.check_rows(fs.numerators, fs.denominators(), thresholds)

    @settings(max_examples=50, deadline=None)
    @given(
        case=seam_point_sets(),
        t_free=st.fractions(min_value=Fraction(1, 200), max_value=1, max_denominator=200),
    )
    def test_rows_equal_scalar_calls_on_seam_sets(self, case, t_free):
        pts, tie = case
        self.check_rows(*fraction_columns(pts), [Fraction(1, 2), tie, t_free])

    @pytest.mark.parametrize("case", [wide_denominator_case, wide_threshold_case])
    def test_rows_equal_scalar_calls_at_object_width(self, case):
        pts, thresholds = case()
        nums, dens = fraction_columns(pts)
        t_num = max(t.numerator for t in thresholds)
        assert spacing._engine_columns(nums, dens, t_num)[0].dtype == object
        rows = self.check_rows(nums, dens, thresholds)
        assert rows.tolist() == [fraction_counts(pts, t) for t in thresholds]

    def test_threshold_above_half_counts_every_other_point(self):
        fs = enumerate_set(3, 2)
        n = len(fs)
        rows = self.check_rows(
            fs.numerators, fs.denominators(), [Fraction(2, 3), Fraction(1, 54), Fraction(3, 5)]
        )
        assert rows[0].tolist() == rows[2].tolist() == [n - 1] * n
        assert rows[1].max() < n - 1

    def test_empty_point_set(self):
        empty = np.zeros(0, dtype=np.int64)
        assert neighbor_counts_bruteforce(empty, empty, 1, 10).shape == (0,)
        assert neighbor_counts_bruteforce(empty, empty, [1, 2], [10, 3]).shape == (2, 0)

    def test_threshold_lengths_must_match(self):
        fs = enumerate_set(2, 2)
        nums, dens = fs.numerators, fs.denominators()
        for t_num, t_den in [([1, 1], [10]), ([1], [10, 20]), (1, [10]), ([1], 10)]:
            with pytest.raises(ValueError, match="one length"):
                neighbor_counts_bruteforce(nums, dens, t_num, t_den)


class TestSortedBroadcast:
    """The sorted engine's threshold sequence gives the rows of its scalar
    calls and of one oracle sweep."""

    @staticmethod
    def check_rows(nums, dens, thresholds):
        t_nums = [t.numerator for t in thresholds]
        t_dens = [t.denominator for t in thresholds]
        rows = neighbor_counts_sorted(nums, dens, t_nums, t_dens)
        assert rows.shape == (len(thresholds), len(nums))
        for row, t_num, t_den in zip(rows, t_nums, t_dens):
            single = neighbor_counts_sorted(nums, dens, t_num, t_den)
            assert single.shape == (len(nums),)
            assert row.tolist() == single.tolist()
        assert rows.tolist() == neighbor_counts_bruteforce(nums, dens, t_nums, t_dens).tolist()
        return rows

    def test_rows_equal_scalar_calls_at_int64_width(self):
        fs = enumerate_set(5, 2)
        nums, dens = fs.numerators, fs.denominators()
        thresholds = [Fraction(1, 2 * N) for N in (10, 125, 625, 1250)]
        thresholds += [Fraction(2, 3), Fraction(1, 2), Fraction(3, 5), Fraction(3, 1000)]
        assert spacing._engine_columns(nums, dens, 2)[0].dtype == np.int64
        rows = self.check_rows(nums, dens, thresholds)
        assert rows[4].tolist() == rows[6].tolist() == [len(fs) - 1] * len(fs)

    @pytest.mark.parametrize("case", [wide_denominator_case, wide_threshold_case])
    def test_rows_equal_scalar_calls_at_object_width(self, case):
        pts, thresholds = case()
        thresholds = [Fraction(5, 7), *thresholds, Fraction(1, 1)]  # two above 1/2
        nums, dens = fraction_columns(pts)
        t_num = max(t.numerator for t in thresholds)
        assert spacing._engine_columns(nums, dens, t_num)[0].dtype == object
        rows = self.check_rows(nums, dens, thresholds)
        assert rows.tolist() == [fraction_counts(pts, t) for t in thresholds]

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_empty_and_single_point(self, n, dtype):
        nums = np.array([1][:n], dtype=dtype)
        dens = np.array([3][:n], dtype=dtype)
        rows = self.check_rows(nums, dens, [Fraction(1, 2), Fraction(3, 4), Fraction(1, 10)])
        assert rows.tolist() == [[0] * n] * 3
        assert neighbor_counts_sorted(nums, dens, 1, 2).tolist() == [0] * n

    @pytest.mark.parametrize("pts", [
        # t near 1/2 holds about half the points below t, the longest
        # extension past the seam, and the arcs of the top half wrap it
        sorted({Fraction(a, 997) for a in random.Random(7).sample(range(997), 80)}
               | {Fraction(0), Fraction(1, 2), Fraction(996, 997)}),
        # every point below t = 1/2: the extension is all n points and the
        # arcs stop at the cap i + n - 1 or before
        [Fraction(i, 100) for i in range(45)],
    ])
    def test_seam_wrapping_arcs_near_half(self, pts):
        thresholds = [Fraction(1, 2), Fraction(498, 997), Fraction(499, 997),
                      Fraction(1, 2) - Fraction(1, 10 ** 6), Fraction(49, 100), Fraction(1, 3)]
        rows = self.check_rows(*fraction_columns(pts), thresholds)
        assert rows.tolist() == [fraction_counts(pts, t) for t in thresholds]

    def test_unsorted_input_refused_for_every_threshold_below_half(self):
        nums = np.array([3, 1], dtype=object)
        dens = np.array([7, 7], dtype=object)
        with pytest.raises(ValueError, match="strictly increasing"):
            neighbor_counts_sorted(nums, dens, [2, 1], [3, 10])
        assert neighbor_counts_sorted(nums, dens, [2], [3]).tolist() == [[1, 1]]

    def test_threshold_lengths_must_match(self):
        fs = enumerate_set(2, 2)
        nums, dens = fs.numerators, fs.denominators()
        for t_num, t_den in [([1, 1], [10]), ([1], [10, 20]), (1, [10]), ([1], 10)]:
            with pytest.raises(ValueError, match="one length"):
                neighbor_counts_sorted(nums, dens, t_num, t_den)


def random_points(rng, dens):
    """One point a/d per denominator in ``dens``, a drawn uniformly in [1, d);
    a tie between two points would fail the sorted engine's order check."""
    dens = np.asarray(dens, dtype=np.int64)
    return rng.integers(1, dens), dens


class TestOracleClasses:
    """The oracle sweeps rows a class of one denominator at a time, on int64 or
    object columns and int16, int32 or int64 cells, and answers for any input order."""

    @staticmethod
    def check_sorted(nums, dens, thresholds, cell):
        t_nums = [t.numerator for t in thresholds]
        t_dens = [t.denominator for t in thresholds]
        assert spacing._oracle_columns(nums, dens, max(t_nums))[3] is cell
        order = np.argsort(nums / dens)  # a float order the sorted engine certifies exactly
        brute = neighbor_counts_bruteforce(nums, dens, t_nums, t_dens)
        fast = neighbor_counts_sorted(nums[order], dens[order], t_nums, t_dens)
        assert np.array_equal(brute[:, order], fast)
        return brute

    def test_int16_cells_on_fraction_sets(self):
        for Q, k in [(6, 2), (4, 3)]:
            fs = enumerate_set(Q, k)
            N = Q ** (k + 1)
            thresholds = [Fraction(1, 2 * N), Fraction(1, N), Fraction(3, 1000), Fraction(5, 11)]
            rows = self.check_sorted(fs.numerators, fs.denominators(), thresholds, np.int16)
            assert rows[0].max() > 0

    def test_int32_cells_past_the_int16_range(self):
        # denominators near 10**5: 2 dmax passes int16, so the cells take int32
        rng = np.random.default_rng(5)
        nums, dens = random_points(rng, rng.choice(np.arange(99_000, 100_000), 400, replace=False))
        assert 2 * int(dens.max()) > np.iinfo(np.int16).max
        rows = self.check_sorted(nums, dens, [Fraction(1, 200), Fraction(1, 2000)], np.int32)
        assert rows[0].max() > 0

    def test_threshold_numerators_raise_the_width(self):
        # denominators near 31,000: t = 1/100 and 5/11 keep int64 columns, and
        # t_num past 2**62 / dmax**2 takes them to Python integers; the cells
        # hold +-2 dmax, so they stay int32 whatever t
        rng = np.random.default_rng(7)
        nums, dens = random_points(rng, rng.choice(np.arange(30_000, 31_000), 300, replace=False))
        u = 2 ** 62 // int(dens.max()) ** 2 + 1
        wide = Fraction(u, 100 * u + 1)  # near 1/100
        for thresholds, columns in (([Fraction(1, 100), Fraction(5, 11)], np.int64),
                                    ([wide], object)):
            u_max = max(t.numerator for t in thresholds)
            assert spacing._oracle_columns(nums, dens, u_max)[0].dtype == columns
            rows = self.check_sorted(nums, dens, thresholds, np.int32)
            assert 0 < rows[0].max() and rows[-1].min() < len(nums) - 1

    def test_object_width(self):
        pts, thresholds = wide_denominator_case()
        nums, dens = fraction_columns(pts)
        assert spacing._oracle_columns(nums, dens, 1)[0].dtype == object
        assert spacing._oracle_columns(nums, dens, 1)[3] is np.int64
        rows = neighbor_counts_bruteforce(
            nums, dens, [t.numerator for t in thresholds], [t.denominator for t in thresholds])
        assert rows.tolist() == [fraction_counts(pts, t) for t in thresholds]

    @pytest.mark.parametrize("t_den", [2 ** 70, 2 ** 200])
    def test_threshold_denominators_past_int64(self, t_den):
        # t = 1/t_den: the oracle clamps t_den to its cap and keeps int64
        # columns, every h is 0; t near 1/37 takes both engines' columns to
        # Python integers, and the oracle's cells stay int16
        fs = enumerate_set(4, 2)
        nums, dens = fs.numerators, fs.denominators()
        pts = [p.as_fraction() for p in fs]
        t_nums = [1, t_den // 37 | 1]
        assert spacing._oracle_columns(nums, dens, 1)[0].dtype == np.int64
        assert spacing._oracle_columns(nums, dens, t_nums[1])[0].dtype == object
        assert spacing._oracle_columns(nums, dens, t_nums[1])[3] is np.int16
        expected = [fraction_counts(pts, Fraction(u, t_den)) for u in t_nums]
        assert max(expected[0]) == 0 < min(expected[1])
        for engine in (neighbor_counts_bruteforce, neighbor_counts_sorted):
            assert engine(nums, dens, t_nums, [t_den, t_den]).tolist() == expected
            for u, row in zip(t_nums, expected):
                assert engine(nums, dens, u, t_den).tolist() == row

    def test_pair_at_distance_exactly_t_does_not_count(self):
        # 0, 3/1000 and 1/2: the first pair is exactly t = 3/1000 apart
        pts = [Fraction(0), Fraction(3, 1000), Fraction(1, 2)]
        nums, dens = fraction_columns(pts)
        for t, expected in [(Fraction(3, 1000), [0, 0, 0]), (Fraction(3001, 10 ** 6), [1, 1, 0])]:
            assert fraction_counts(pts, t) == expected
            assert neighbor_counts_bruteforce(nums, dens, t.numerator, t.denominator).tolist() == expected

    def test_one_class(self):
        pts = [Fraction(a, 97) for a in range(97)]
        random.Random(3).shuffle(pts)
        nums = np.array([p.numerator * 97 // p.denominator for p in pts])
        dens = np.full(97, 97)
        for t in (Fraction(1, 40), Fraction(3, 97), Fraction(1, 97)):
            counts = neighbor_counts_bruteforce(nums, dens, t.numerator, t.denominator)
            assert counts.tolist() == fraction_counts(pts, t)

    def test_every_point_its_own_class(self):
        # one reduced a/d per d, so the points are distinct
        rng = random.Random(11)
        dens = np.array(rng.sample(range(2, 180), 178))
        nums = np.array([rng.choice([a for a in range(1, d) if gcd(a, d) == 1]) for d in dens])
        pts = [Fraction(int(a), int(d)) for a, d in zip(nums, dens)]
        for t in (Fraction(1, 60), Fraction(2, 301)):
            counts = neighbor_counts_bruteforce(nums, dens, t.numerator, t.denominator)
            assert counts.tolist() == fraction_counts(pts, t)

    @pytest.mark.parametrize("Q, k", [(4, 2), (3, 3)])
    def test_shuffled_set_gives_permuted_counts(self, Q, k):
        fs = enumerate_set(Q, k)
        nums, dens = fs.numerators, fs.denominators()
        N = Q ** (k + 1)
        t_nums, t_dens = [1, 1, 3], [2 * N, N, 1000]
        rows = neighbor_counts_bruteforce(nums, dens, t_nums, t_dens)
        assert np.array_equal(rows, neighbor_counts_sorted(nums, dens, t_nums, t_dens))
        perm = np.random.default_rng(Q * k).permutation(len(fs))
        shuffled = neighbor_counts_bruteforce(nums[perm], dens[perm], t_nums, t_dens)
        assert np.array_equal(shuffled, rows[:, perm])

    @pytest.mark.parametrize("t_den", [2 * 10 ** 10, 2 ** 70])
    def test_threshold_denominator_past_the_cell_width(self, t_den):
        # h = (p - 1) // t_den and the windows are formed at a width that
        # holds t_den, then narrowed to the int16 cells
        fs = enumerate_set(2, 2)
        nums, dens = fs.numerators, fs.denominators()
        assert spacing._oracle_columns(nums, dens, 1)[0].dtype == np.int64
        assert spacing._oracle_columns(nums, dens, 1)[3] is np.int16
        counts = neighbor_counts_bruteforce(nums, dens, 1, t_den)
        assert counts.tolist() == neighbor_counts_sorted(nums, dens, 1, t_den).tolist()
        assert counts.tolist() == [0] * len(fs)


def class_points(classes, rng):
    """Distinct reduced points a/d, ``size`` of them for each (d, size), shuffled."""
    pts = [Fraction(int(a), d) for d, size in classes
           for a in rng.sample([a for a in range(1, d) if gcd(a, d) == 1], size)]
    rng.shuffle(pts)
    return (pts, np.array([p.numerator for p in pts]), np.array([p.denominator for p in pts]))


class TestOracleRuns:
    """The oracle's one sweep: each class's rows in blocks of up to
    ``_BLOCK_CELLS`` cells against every column from the block on, hits
    summed narrow."""

    # large classes 101, 103 and 107 around small ones, and a small stretch at each end
    MIXED = [(5, 4), (7, 6), (11, 1), (101, 80), (102, 3), (103, 70), (107, 64),
             (109, 5), (113, 2), (127, 9)]
    THRESHOLDS = [Fraction(1, 200), Fraction(1, 150), Fraction(1, 41), Fraction(3, 1000)]

    @classmethod
    @functools.cache
    def mixed_case(cls):
        pts, nums, dens = class_points(cls.MIXED, random.Random(1))
        return pts, nums, dens, [fraction_counts(pts, t) for t in cls.THRESHOLDS]

    @pytest.mark.parametrize("block_cells", [1, 7, 64, 150, 2 ** 17])
    def test_mixed_classes_at_any_block_size(self, monkeypatch, block_cells):
        # small blocks split each class's rows, and a block past a class's
        # first row meets the columns from inside the class on
        monkeypatch.setattr(spacing, "_BLOCK_CELLS", block_cells)
        pts, nums, dens, expected = self.mixed_case()
        t_nums, t_dens = zip(*((t.numerator, t.denominator) for t in self.THRESHOLDS))
        rows = neighbor_counts_bruteforce(nums, dens, [*t_nums, 1], [*t_dens, 2])
        assert rows.tolist() == [*expected, [len(pts) - 1] * len(pts)]
        assert 0 < rows[0].max() < rows[2].max() < len(pts) - 1

    @pytest.mark.parametrize("n, one_class", [(255, True), (256, True), (256, False)])
    def test_rows_of_more_than_255_hits(self, n, one_class):
        # every pair is closer than t, so the first row of the sweep holds n
        # hits in one block: 255 fit a uint8 sum, 256 need a uint16
        if one_class:
            pts = [Fraction(a, 1009) for a in range(1, n + 1)]
        else:
            pts = [Fraction(1, d) for d in range(1000, 1000 + n)]
        random.Random(n).shuffle(pts)
        nums, dens = (np.array([getattr(p, f) for p in pts]) for f in ("numerator", "denominator"))
        t = Fraction(1, 3) if one_class else Fraction(1, 1000)
        counts = neighbor_counts_bruteforce(nums, dens, t.numerator, t.denominator)
        assert counts.tolist() == fraction_counts(pts, t) == [n - 1] * n

    def test_block_columns_of_more_than_255_hits(self):
        # one block of the 256 rows of class 1009 meets the 44 columns of
        # class 2003 past it, each a hit in every row: 256 need a uint16 sum
        pts = [Fraction(a, 1009) for a in range(1, 257)] + [Fraction(a, 2003) for a in range(1, 45)]
        random.Random(7).shuffle(pts)
        nums, dens = (np.array([getattr(p, f) for p in pts]) for f in ("numerator", "denominator"))
        assert spacing._BLOCK_CELLS // len(pts) >= 256
        counts = neighbor_counts_bruteforce(nums, dens, 1, 3)
        assert counts.tolist() == fraction_counts(pts, Fraction(1, 3)) == [299] * 300

    def test_shuffled_mixed_classes_give_permuted_counts(self, monkeypatch):
        monkeypatch.setattr(spacing, "_BLOCK_CELLS", 300)
        pts, nums, dens, expected = self.mixed_case()
        t = self.THRESHOLDS[1]
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(len(pts))
            counts = neighbor_counts_bruteforce(nums[perm], dens[perm], t.numerator, t.denominator)
            assert counts.tolist() == [expected[1][i] for i in perm]


def seam_pairs(points, t):
    """The pairs of ``points`` less than t apart across the seam only."""
    return sum(1 - abs(x - y) < t for x, y in itertools.combinations(points, 2))


class TestOracleImages:
    """The oracle tests each pair's direct distance, and the pairs across the
    0/1 seam as the points below the largest t against the images x - 1 of
    the points above 1 - t.  Each case is checked against Fraction counts in
    its own order and shuffled."""

    @staticmethod
    def check(pts, thresholds):
        t_nums, t_dens = [t.numerator for t in thresholds], [t.denominator for t in thresholds]
        nums, dens = (np.array([getattr(p, f) for p in pts], dtype=object)
                      for f in ("numerator", "denominator"))
        expected = [fraction_counts(pts, t) for t in thresholds]
        perm = np.random.default_rng(len(pts)).permutation(len(pts))
        for order in (np.arange(len(pts)), perm):
            rows = neighbor_counts_bruteforce(nums[order], dens[order], t_nums, t_dens)
            assert rows.tolist() == [[row[i] for i in order] for row in expected]
        return expected

    def test_threshold_rows_with_different_seam_sets(self):
        # each larger threshold holds more points in both seam sets and more
        # pairs across the seam, which the smallest threshold's sets would miss
        rng = random.Random(35)
        pts = {Fraction(0), Fraction(199, 200), Fraction(1, 97), Fraction(95, 97), Fraction(1, 30),
               Fraction(29, 31), Fraction(2, 19), Fraction(8, 9), Fraction(1, 2)}
        while len(pts) < 60:
            d = rng.randrange(2, 60)
            pts.add(Fraction(rng.randrange(d), d))
        pts = sorted(pts, key=lambda p: (p.denominator, -p))  # not in value order
        thresholds = [Fraction(1, 100), Fraction(1, 20), Fraction(1, 8), Fraction(3, 10)]
        self.check(pts, thresholds)
        below = [sum(p < t for p in pts) for t in thresholds]
        above = [sum(p > 1 - t for p in pts) for t in thresholds]
        assert below == sorted(set(below)) and above == sorted(set(above))
        across = [seam_pairs(pts, t) for t in thresholds]
        assert 0 < across[0] < across[1] < across[2] < across[3]

    def test_threshold_one_half(self):
        # t = 1/2 meets every point below 1/2 with every point above it; 1/2
        # itself is in neither seam set, and 0 and 1/2, exactly t apart, do not count
        pts = sorted({Fraction(a, d) for d in (7, 8, 11) for a in range(d)})
        expected = self.check(pts, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 11)])
        assert expected[0][0] == len(pts) - 2 and seam_pairs(pts, Fraction(1, 2)) > 0
        assert self.check(pts, [Fraction(1, 2)]) == expected[:1]

    def test_pairs_exactly_t_apart_across_the_seam(self):
        # at t = 1/200, 0 and 199/200, 1/400 and 399/400 are exactly t apart
        # across the seam and do not count; 0 and 399/400 are 1/400 apart across it
        pts = [Fraction(1, 2), Fraction(399, 400), Fraction(0), Fraction(199, 200), Fraction(1, 400)]
        for t, expected in [(Fraction(1, 200), [0, 2, 2, 1, 1]),
                            (Fraction(201, 40000), [0, 3, 3, 2, 2])]:
            assert self.check(pts, [t]) == [expected]

    @pytest.mark.parametrize("t_den", [2 ** 70, 2 ** 200], ids=["2**70", "2**200"])
    def test_seam_sets_past_int64(self, t_den):
        # t near 1/37 and 1/60 over t_den: u and v pass int64, so the columns
        # and both seam tests a <= (u d - 1) // v run in Python integers
        pts = sorted({Fraction(a, d) for d in (37, 40, 61, 64) for a in (0, 1, 2, d - 2, d - 1)})
        thresholds = [Fraction(t_den // 37 | 1, t_den), Fraction(t_den // 60 | 1, t_den),
                      Fraction(1, t_den)]
        nums, dens = fraction_columns(pts)
        assert spacing._oracle_columns(nums, dens, t_den // 37 | 1)[0].dtype == object
        expected = self.check(pts, thresholds)
        assert seam_pairs(pts, thresholds[1]) > 0 and max(expected[2]) == 0


def window_points(dmax):
    """150 points with denominators up to dmax, dmax among them, crowded near
    0, 1/2 and 1 so that windows reach the ends of the rows' numerators."""
    rng = random.Random(dmax)
    pts = set()
    while len(pts) < 150:
        d = rng.choice([dmax, dmax - rng.randrange(1, 64), rng.randrange(2, 60)])
        a = rng.choice([rng.randrange(d), rng.randrange(9), d - rng.randrange(1, 9),
                        d // 2 + rng.randrange(-4, 5)])
        pts.add(Fraction(a % d, d))
    return sorted(pts)


class TestOracleWindows:
    """Each cell tests a row numerator a against its column's window
    lo <= a <= hi as a - lo < hi - lo + 1, unsigned, in the narrowest cells
    that hold +-2 dmax.  Each case is checked against Fraction counts."""

    @staticmethod
    @functools.cache
    def case(dmax):
        pts = window_points(dmax)
        thresholds = [Fraction(1, 2 * dmax ** 2 + 1), Fraction(1, 3 * dmax), Fraction(1, 1000),
                      Fraction(1, 40), Fraction(7, 15), Fraction(1, 2)]
        return pts, thresholds, [fraction_counts(pts, t) for t in thresholds]

    @staticmethod
    def rows(pts, thresholds):
        nums, dens = fraction_columns(pts)
        return neighbor_counts_bruteforce(nums, dens, [t.numerator for t in thresholds],
                                          [t.denominator for t in thresholds]).tolist()

    @pytest.mark.parametrize("dmax, cell", [(16383, np.int16), (16384, np.int32)])
    def test_cells_on_either_side_of_int16(self, dmax, cell):
        # 2 dmax = 32766 fits int16 and 32768 does not
        pts, thresholds, expected = self.case(dmax)
        nums, dens = fraction_columns(pts)
        assert max(dens) == dmax and spacing._oracle_columns(nums, dens, 7)[3] is cell
        assert self.rows(pts, thresholds) == expected
        assert 0 < max(expected[1]) < max(expected[3]) < len(pts) - 1

    @pytest.mark.parametrize("dmax", [16383, 16384])
    def test_threshold_below_every_gap_empties_every_window(self, dmax):
        # t < 1/(2 dmax**2) makes every h 0: a window off a point's own value
        # has hi = floor(d b/d') < lo = ceil(d b/d')
        pts, thresholds, expected = self.case(dmax)
        assert self.rows(pts, thresholds[:1]) == expected[:1] == [[0] * len(pts)]

    @pytest.mark.parametrize("dmax", [16383, 16384])
    def test_image_sweep_at_seven_fifteenths_and_one_half(self, dmax):
        # the image sweep's columns b - d' are negative, and at t near 1/2 the
        # windows reach from lo near -d to hi near d
        pts, thresholds, expected = self.case(dmax)
        assert self.rows(pts, thresholds[4:]) == expected[4:]
        assert seam_pairs(pts, thresholds[4]) > 0

    def test_denominators_of_2_62_refused(self):
        # cells of +-2 dmax pass int64 at dmax = 2**62; the sorted engine takes them
        pts = [Fraction(1, 2 ** 62 - 1), Fraction(3, 2 ** 62 - 1), Fraction(1, 3)]
        assert self.rows(pts, [Fraction(1, 4)]) == [fraction_counts(pts, Fraction(1, 4))]
        pts = sorted([*pts, Fraction(5, 2 ** 62)])
        nums, dens = fraction_columns(pts)
        with pytest.raises(ValueError, match=r"below 2\*\*62"):
            neighbor_counts_bruteforce(nums, dens, 1, 4)
        assert neighbor_counts_sorted(nums, dens, 1, 4).tolist() == fraction_counts(pts, Fraction(1, 4))


class TestFloorWidth:
    """The sorted engine tests x/p < u/v as x <= (u p - 1) // v with v clamped
    to u dmax**2 + 1, so its width rests on dmax and t_num alone."""

    def test_cubic_columns_at_a_threshold_denominator_near_2_40(self):
        # the smallest points of S(6, 3), down to 1/12**3, where a factor
        # 2**40 in the bound would have reached 2**62
        fs = enumerate_set(6, 3)
        nums, dens = fs.numerators[:240], fs.denominators()[:240]
        pts = [Fraction(int(a), int(d)) for a, d in zip(nums, dens)]
        assert int(dens.max()) == 12 ** 3 and 2 * 12 ** 6 * 2 ** 40 >= 2 ** 62
        gap = pts[101] - pts[100]  # points 100 and 101 sit exactly t apart
        m = 2 ** 40 // gap.denominator
        tie = (gap.numerator * m, gap.denominator * m)
        for u, v in (tie, (2 ** 40 // (2 * 6 ** 4), 2 ** 40 + 1)):
            assert 2 ** 39 < v <= 2 ** 40 + 1
            assert spacing._engine_columns(nums, dens, u)[0].dtype == np.int64
            counts = neighbor_counts_sorted(nums, dens, u, v)
            assert counts.tolist() == fraction_counts(pts, Fraction(u, v))
            assert counts.max() > 0
        at, above = neighbor_counts_sorted(nums, dens, [tie[0], tie[0] + 1], [tie[1]] * 2)
        assert (above[100:102] > at[100:102]).all()

    def test_threshold_denominators_at_and_past_the_clamp(self):
        # t_num dmax**2 is the last t_den left as it is, t_num dmax**2 + 1 the
        # clamp itself, and 2**70 cannot enter an int64 floor division
        rng = np.random.default_rng(13)
        nums, dens = random_points(rng, rng.choice(np.arange(900, 1000), 60, replace=False))
        order = np.argsort(nums / dens)
        nums, dens = nums[order], dens[order]
        u, dmax2 = 3, int(dens.max()) ** 2
        for v in (u * dmax2, u * dmax2 + 1, 2 ** 70):
            assert spacing._engine_columns(nums, dens, u)[0].dtype == np.int64
            fast = neighbor_counts_sorted(nums, dens, u, v)
            assert fast.tolist() == neighbor_counts_bruteforce(nums, dens, u, v).tolist()
            assert fast.tolist() == [0] * len(nums)
        # clamped rows beside a row that counts, in one call
        t_nums, t_dens = [u, 1, 1], [2 ** 70, u * dmax2, 40]
        rows = neighbor_counts_sorted(nums, dens, t_nums, t_dens)
        assert rows.tolist() == neighbor_counts_bruteforce(nums, dens, t_nums, t_dens).tolist()
        assert rows[2].max() > 0

    def test_seam_extension_holds_the_points_below_t_and_one_more(self, monkeypatch):
        # 1/9 is a point of S(2, 2): at t = 1/9 it is not below t, so the
        # columns extended past the seam stop one point after the last below t
        fs = enumerate_set(2, 2)
        nums, dens = fs.numerators, fs.denominators()
        below = sum(Fraction(int(a), int(d)) < Fraction(1, 9) for a, d in zip(nums, dens))
        assert Fraction(1, 9) in {p.as_fraction() for p in fs}
        extended, long_arcs = [], spacing._long_arcs

        def spy(nums, dens, wk, *rest):  # each threshold hands its open arcs and the keys on
            extended.append(len(wk) - len(nums))
            return long_arcs(nums, dens, wk, *rest)

        monkeypatch.setattr(spacing, "_long_arcs", spy)
        neighbor_counts_sorted(nums, dens, [1, 1], [9, 90])
        assert extended == [below + 1] * 2

    def test_keys_stay_int64_at_object_width(self, monkeypatch):
        # denominators past 2**31 make the columns Python integers; the key
        # column floor(v 2**s), s = 31, and its seam extension stay one int64 array
        pts, _ = wide_denominator_case()
        nums, dens = fraction_columns(pts)
        assert spacing._engine_columns(nums, dens, 1)[0].dtype == object
        seen, long_arcs = [], spacing._long_arcs

        def spy(nums, dens, wk, *rest):  # each threshold hands its open arcs and the keys on
            seen.append(wk.copy())
            return long_arcs(nums, dens, wk, *rest)

        monkeypatch.setattr(spacing, "_long_arcs", spy)
        neighbor_counts_sorted(nums, dens, 1, 40)
        s, n = 31, len(pts)
        e = 1 + sum(p < Fraction(1, 40) for p in pts)
        keys = [(int(a) << s) // int(d) for a, d in zip(nums, dens)]
        assert [wk.dtype for wk in seen] == [np.int64]
        assert seen[0].tolist() == keys + [w + (1 << s) for w in keys[:min(n, e)]]

    def test_every_admitted_set_takes_int64(self):
        # S(Q, k) at the largest Q the set rules admit for each k: a column
        # holding dmax = (2Q)**k stays int64 at the scan's two thresholds
        def admitted(Q, k):
            try:
                rationals._checked_size(Q, k)
            except (ValueError, OverflowError):
                return False
            return True

        for k in itertools.count(2):
            Qs = list(itertools.takewhile(lambda Q: admitted(Q, k), itertools.count(1)))
            if not Qs:
                break
            nums, dens = np.array([1]), np.array([(2 * Qs[-1]) ** k], dtype=np.int64)
            # the scan's thresholds 1/(2N) and 1/N both have t_num = 1
            assert spacing._engine_columns(nums, dens, 1)[0].dtype == np.int64
        assert k == 25  # S(1, 25), 2**24 points, is the first refused at Q = 1


@pytest.fixture
def search_keys(monkeypatch):
    """The number of keys of every ``np.searchsorted`` call while in use."""
    keys, searchsorted = [], np.searchsorted

    def spy(a, v, *args, **kwargs):
        keys.append(np.size(v))
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    return keys


def clusters(sizes, shift=Fraction(0), step=Fraction(1, 1000)):
    """Groups of points ``step`` apart, group j starting at j/len(sizes), all
    moved by ``shift`` mod 1; at t = 1/100 and the default step the r-th
    point of a group of s has a forward arc of s - 1 - r points."""
    g = len(sizes)
    return sorted((Fraction(j, g) + r * step + shift) % 1
                  for j, s in enumerate(sizes) for r in range(s))


def slice_rounds(pts, t):
    """A model of the sorted engine's stop rule over exact forward arcs: the
    rounds it runs, the arcs still open after them, and those of them that the
    steps leave to the search.  The steps run only if the rounds stopped on
    fewer than n / lg open arcs, and stop after one that closes fewer than half."""
    arcs = [sum(0 < (y - x) % 1 < t for y in pts) for x in pts]
    n = len(pts)
    lg, d, left, closed = n.bit_length(), 0, n, n
    while left * lg >= n and closed * lg >= n:
        d += 1
        closed, left = left, sum(a >= d for a in arcs)
        closed -= left
    rounds, searched, step = d, left, left * lg < n
    while step and searched:
        d += 1
        kept = sum(a >= d for a in arcs)
        step, searched = 2 * kept <= searched, kept
    return rounds, left, searched


def moved_apart(pts):
    """``pts`` with the i-th point moved up by i/2**40: denominators past 2**40
    make the sorted engine's columns Python integers, the arcs stay as they were."""
    return [p + Fraction(i, 2 ** 40) for i, p in enumerate(pts)]


class TestSliceRounds:
    """Exact rounds d = 1, 2, ... over whole-column slices settle the short
    arcs; only the arcs still open after them reach the key search."""

    @staticmethod
    def check(pts, thresholds, keys):
        nums, dens = fraction_columns(pts)
        for t in thresholds:
            keys.clear()
            counts = neighbor_counts_sorted(nums, dens, t.numerator, t.denominator)
            assert counts.tolist() == fraction_counts(pts, t)
            brute = neighbor_counts_bruteforce(nums, dens, t.numerator, t.denominator)
            assert counts.tolist() == brute.tolist()
            assert sum(keys) == slice_rounds(pts, t)[2]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_pairs_exactly_t_apart_at_offset_d(self, d, search_keys):
        # groups of d + 1 points t/d apart: each round closes a group's
        # shortest open arc, and round d tests the head's point at offset d,
        # exactly t away, which stays out; a hair above t it is in
        pts = clusters([d + 1] * 20, step=Fraction(1, 100 * d))
        t = Fraction(1, 100)
        assert slice_rounds(pts, t) == (d, 0, 0)
        assert slice_rounds(pts, t + Fraction(1, 10 ** 9)) == (d + 1, 0, 0)
        self.check(pts, [t, t + Fraction(1, 10 ** 9)], search_keys)

    @pytest.mark.parametrize("sizes,rounds,open_arcs,searched", [
        # 4 of 57 arcs open after round 1: steps 2 and 3 close 3 and the
        # triple's head, which ends one past round 1
        pytest.param([1] * 50 + [2, 2, 3], 1, 4, 0, id="sizes0-1-4"),
        # 3 of 67 open after round 2: step 3 closes the two arcs of 2 points
        # and step 4 the arc of 3
        pytest.param([2] * 30 + [3, 4], 2, 3, 0, id="sizes1-2-3"),
        # every round closes 12 of 60: the rounds settle every arc
        pytest.param([5] * 12, 5, 0, 0, id="sizes2-5-0"),
        # round 1 closes only 8 of 64: the rest go to the search at once
        pytest.param([8] * 8, 1, 56, 56, id="sizes3-1-56"),
    ])
    @pytest.mark.parametrize("shift", [Fraction(0), Fraction(-2, 1000)])
    def test_arcs_at_and_past_the_last_round(self, sizes, rounds, open_arcs, searched, shift,
                                             search_keys):
        # shifted, the first group straddles the seam and its top points'
        # arcs wrap onto the extension
        pts = clusters(sizes, shift)
        t = Fraction(1, 100)
        assert slice_rounds(pts, t) == (rounds, open_arcs, searched)
        self.check(pts, [t, Fraction(1, 1000), Fraction(3, 1000)], search_keys)

    def test_seam_arcs_past_the_extension_slice(self, search_keys):
        # three points below t, so the extension holds four and round 5
        # slices m = n - 1 rows; the point 998/1000 holds 999/1000, 0, 1/1000
        # and 2/1000 and is closed by that round
        pts = clusters([5] * 12, Fraction(-2, 1000))
        t = Fraction(1, 100)
        e = 1 + sum(p < t for p in pts)
        assert e == 4 and slice_rounds(pts, t)[0] == 5 > e
        self.check(pts, [t], search_keys)

    @pytest.mark.parametrize("pts", [
        [Fraction(0)], [Fraction(1, 3)],
        [Fraction(0), Fraction(1, 2)], [Fraction(1, 5), Fraction(3, 10)],
        [Fraction(0), Fraction(1, 3), Fraction(2, 3)],
        [Fraction(1, 7), Fraction(2, 7), Fraction(6, 7)],
    ])
    def test_one_two_and_three_points(self, pts, search_keys):
        gaps = {min((x - y) % 1, (y - x) % 1) for x in pts for y in pts if x != y}
        thresholds = {Fraction(1, 2), Fraction(1, 1000)}
        thresholds |= {g + e for g in gaps for e in (0, Fraction(1, 10 ** 6))}
        self.check(pts, sorted(t for t in thresholds if t <= Fraction(1, 2)), search_keys)

    def test_object_width_columns(self, search_keys):
        # at t = 1/100, 4 of 56 arcs are open after round 3 and step 4 closes them
        pts = moved_apart(clusters([1] * 20 + [2, 3, 4] * 4, Fraction(-1, 1000)))
        nums, dens = fraction_columns(pts)
        assert spacing._engine_columns(nums, dens, 1)[0].dtype == object
        self.check(pts, [Fraction(1, 100), Fraction(1, 1000) + Fraction(1, 2 ** 41)], search_keys)

    def test_short_arcs_skip_the_search(self, search_keys):
        # S(30, 2) at N = Q**3: the steps settle every arc the rounds leave
        # open, so no key reaches the search
        fs = enumerate_set(30, 2)
        spacing_count_fast(fs, 30 ** 3)
        assert sum(search_keys) == 0

    def test_long_arcs_go_straight_to_the_search(self, search_keys):
        # S(12, 2) at N = 10: each arc holds about n/20 points, round 1
        # closes almost none, and nearly every arc is searched (the engine on
        # the whole set: a spacing count runs it on about 0.55 n points)
        fs = enumerate_set(12, 2)
        neighbor_counts_sorted(fs.numerators, fs.denominators(), 1, 20)
        assert sum(search_keys) >= 0.9 * len(fs)


class TestSteps:
    """Rounds that stop on fewer than n / lg open arcs hand them to exact steps
    d + 1, d + 2, ... over the open arcs alone, each a hit forward at i and
    backward at (i + d) mod n, while a step closes at least half of its arcs;
    only the arcs left after the steps reach the key search."""

    @pytest.mark.parametrize("Q,k", [(5, 2), (3, 3)])
    @pytest.mark.parametrize("scale", [1, 2])
    def test_steps_close_every_arc(self, Q, k, scale, search_keys):
        # the engine on the whole of S(Q, k) at t = 1/(2N), N = Q**(k+1) and
        # 2 Q**(k+1): the rounds stop on a few open arcs and the steps close them
        pts = sorted(p.as_fraction() for p in enumerate_set(Q, k))
        t = Fraction(1, 2 * scale * Q ** (k + 1))
        rounds, open_arcs, searched = slice_rounds(pts, t)
        assert 0 < open_arcs * len(pts).bit_length() < len(pts) and searched == 0
        TestSliceRounds.check(pts, [t], search_keys)

    @pytest.mark.parametrize("wide", [False, True])
    def test_stepped_arc_across_the_seam(self, wide, search_keys):
        # 998/1000 holds 999/1000 in round 1 and 0, at i + 2 = n, in step 2:
        # the step counts it behind 0 at (i + 2) mod n
        pts = clusters([3, 2, 2] + [1] * 50, Fraction(-2, 1000))
        pts = moved_apart(pts) if wide else pts
        nums, dens = fraction_columns(pts)
        assert (spacing._engine_columns(nums, dens, 1)[0].dtype == object) == wide
        t = Fraction(1, 100)
        assert slice_rounds(pts, t) == (1, 4, 0)
        TestSliceRounds.check(pts, [t], search_keys)
        assert neighbor_counts_sorted(nums, dens, 1, 100)[0] == 2  # 998/1000 and 999/1000

    @pytest.mark.parametrize("sizes,open_arcs,searched,path", [
        # 27 arcs of 3 groups of 10 open after round 1; step 2 closes 3 and the
        # search takes 24, whose tails total 84 points: one hit at a time
        ([1] * 200 + [10] * 3, 27, 24, "scatter"),
        # 24 arcs of a group of 25; step 2 closes 1 and the search takes 23,
        # whose tails total 253 points, past n = 225: the difference array
        ([25] + [1] * 200, 24, 23, "cumsum"),
    ])
    def test_step_closing_fewer_than_half_hands_the_rest_to_the_search(
            self, sizes, open_arcs, searched, path, search_keys, tail_paths):
        pts, t = clusters(sizes, step=Fraction(1, 10 ** 5)), Fraction(1, 1000)
        assert slice_rounds(pts, t) == (1, open_arcs, searched)
        TestSliceRounds.check(pts, [t], search_keys)
        assert set(tail_paths) == {path}

    @pytest.mark.parametrize("shift", [Fraction(0), Fraction(-2, 1000)])
    def test_pair_exactly_t_apart_at_offset_d_plus_one(self, shift, search_keys, band_sizes):
        # groups t/2 apart: round 1 holds the triple's second point, and step 2
        # meets its third, exactly t from the head (across the seam if shifted);
        # the floor test decides that one band pair, out at t and, a key unit
        # being 2**-48, in a hair above, where the columns are Python integers
        pts = clusters([3, 2, 2] + [1] * 50, shift, step=Fraction(1, 200))
        t = Fraction(1, 100)
        assert (pts[-1] + t) % 1 == pts[1] if shift else pts[0] + t == pts[2]
        for t_step, within in ((t, [0, 1]), (t + Fraction(1, 2 ** 60), [0, 1, 0])):
            band_sizes.clear()
            TestSliceRounds.check(pts, [t_step], search_keys)
            assert band_sizes == within
            assert slice_rounds(pts, t_step) == (1, 5, 0)


def key_bracket(pts, t):
    """A plain model of the sorted engine's keys floor(v 2**s): s, the bracket
    lo = floor(t 2**s) and hi = ceil(t 2**s), and for every ordered pair at
    most half a turn apart forward its key gap delta, whether it is below t
    and whether it crosses the seam."""
    s = 62 - min(max(p.denominator for p in pts).bit_length(), 31)
    lo, hi = math.floor(t * 2 ** s), math.ceil(t * 2 ** s)
    pairs = []
    for x in pts:
        for y in pts:
            f = (y - x) % 1
            if 0 < f <= Fraction(1, 2):
                delta = math.floor((x + f) * 2 ** s) - math.floor(x * 2 ** s)
                pairs.append((delta, f < t, y < x))
    return s, lo, hi, pairs


def band_points(t, scale):
    """Bases a/D and a/(E - 1), each with partners over E and E - 1 a few
    units either side of it + t, and the a/D with their exact partner at + t
    (D = 3 * 2**28 and E = 2**30 times ``scale``; 64 and 96 divide D).  The
    first base of each kind sits just below 1, so its partners cross the seam."""
    D, E = 3 * 2 ** 28 * scale, 2 ** 30 * scale
    pts = set()
    for j in range(4):
        for B in (D, E - 1):
            x = Fraction((j * B) // 4 - B // 200 + 5 * j, B) % 1
            y = (x + t) % 1
            pts |= {x, y} if B == D else {x}
            for den in (E, E - 1):
                pts |= {Fraction(math.floor(y * den) + r, den) % 1 for r in (-1, 0, 1, 2)}
    return sorted(pts)


@pytest.fixture
def band_sizes(monkeypatch):
    """The number of pairs in the band of every call of the sorted engine's
    ``_within``, 0 for a call whose key gaps all lie outside it."""
    sizes, within = [], spacing._within

    def spy(nums, dens, delta, pairs, u, v, s):
        lo, hi = (u << s) // v, -(-(u << s) // v)
        sizes.append(int(np.count_nonzero((lo <= delta) & (delta <= hi))))
        return within(nums, dens, delta, pairs, u, v, s)

    monkeypatch.setattr(spacing, "_within", spy)
    return sizes


class TestKeyBand:
    """Integer keys floor(v 2**s) settle a pair by one subtraction unless its
    key gap lies in the band [floor(t 2**s), ceil(t 2**s)], where the floor
    test decides it."""

    # t 2**31 is 2**25 at t = 1/64 (lo == hi) and 2**26 / 3 at t = 1/96 (lo < hi);
    # at scale 8 the denominators pass 2**31 and the columns are Python integers
    @pytest.mark.parametrize("t", [Fraction(1, 64), Fraction(1, 96)])
    @pytest.mark.parametrize("scale,dtype", [(1, np.int64), (8, object)])
    def test_pairs_at_and_one_key_unit_around_t(self, t, scale, dtype, band_sizes):
        pts = band_points(t, scale)
        s, lo, hi, pairs = key_bracket(pts, t)
        assert s == 31 and (lo == hi) == (t == Fraction(1, 64))
        seen = {(delta - lo, inside) for delta, inside, _ in pairs}
        # pairs exactly t apart (outside at delta = lo), inside at delta = hi,
        # and one key unit below lo (inside) and above hi (outside)
        assert {(0, False), (hi - lo, True), (-1, True), (hi - lo + 1, False)} <= seen
        assert any(seam and lo <= delta <= hi for delta, _, seam in pairs)
        assert any((y - x) % 1 == t for x in pts for y in pts)
        nums, dens = fraction_columns(pts)
        assert spacing._engine_columns(nums, dens, t.numerator)[0].dtype == dtype
        counts = neighbor_counts_sorted(nums, dens, t.numerator, t.denominator)
        assert sum(band_sizes) > 0
        assert counts.tolist() == fraction_counts(pts, t)
        brute = neighbor_counts_bruteforce(nums, dens, t.numerator, t.denominator)
        assert counts.tolist() == brute.tolist()

    @pytest.mark.parametrize("t_den", [30 ** 3, 2 * 30 ** 3])
    def test_band_is_rare_on_a_fraction_set(self, t_den, band_sizes):
        # S(30, 2) at both scan thresholds: the one subtraction settles all but
        # a few of the pairs, so a shift that left every key gap in the band
        # (s = 0) would fail here
        fs = enumerate_set(30, 2)
        n = len(fs)
        counts = neighbor_counts_sorted(fs.numerators, fs.denominators(), 1, t_den)
        assert band_sizes and sum(band_sizes) < n / 1000
        assert counts.max() > 0


@pytest.fixture
def tail_paths(monkeypatch):
    """The path each long-arc tail takes: "scatter" (one hit at a time, through
    ``np.repeat``) or "cumsum" (one difference array, through ``np.bincount``)."""
    paths, repeat, bincount = [], np.repeat, np.bincount

    def scatter(*args, **kwargs):
        paths.append("scatter")
        return repeat(*args, **kwargs)

    def cumsum(*args, **kwargs):
        paths.append("cumsum")
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "repeat", scatter)
    monkeypatch.setattr(np, "bincount", cumsum)
    return paths


def cells(K, run=False):
    """Points p/(3K) at the cells p with p % 3 != 2.  At t = 7/(6K) an arc holds
    the points of the three cells after its own: two, one past round 1, so the
    tails total n.  With ``run`` the points of cells 0 and 1 move to cells 2
    and 5: the arcs of the run of four, cells 2-5, hold 3, 3, 3 and 2 points,
    the two arcs behind the gap 1 and 0, and the tails total n + 1."""
    return [Fraction(p, 3 * K) for p in range(3 * K)
            if (p % 3 != 2 if p >= 6 or not run else p >= 2)]


class TestSweep:
    """One sweep of rounds serves every threshold: each hit counts forward and
    backward, round 1 certifies the order, and the arcs left open take a tail."""

    def test_equal_keys_in_and_out_of_order(self):
        # 1/2**30 < 1/(2**30 - 1), and both keys floor(v 2**31) are 2: the key gap
        # 0 proves nothing, so the cross product decides the order
        s = 62 - (2 ** 30).bit_length()
        assert s == 31 and (1 << s) // 2 ** 30 == (1 << s) // (2 ** 30 - 1) == 2
        nums, dens = np.array([1, 1]), np.array([2 ** 30, 2 ** 30 - 1])
        assert spacing._engine_columns(nums, dens, 1)[0].dtype == np.int64
        assert neighbor_counts_sorted(nums, dens, [1, 1], [10, 2 ** 61]).tolist() == [[1, 1], [0, 0]]
        with pytest.raises(ValueError, match="strictly increasing"):
            neighbor_counts_sorted(nums[::-1], dens[::-1], [1, 1], [10, 2 ** 61])

    @pytest.mark.parametrize("run,path", [(False, "scatter"), (True, "cumsum")])
    def test_tails_at_the_boundary(self, run, path, tail_paths):
        # round 1 closes at most one arc, so the rest go to the search after it;
        # their tails total n points, one at a time, or n + 1, past the boundary
        pts, t = cells(50, run), Fraction(7, 300)
        n = len(pts)
        assert slice_rounds(pts, t) == (1, n - run, n - run)
        arcs = [sum(0 < (y - x) % 1 < t for y in pts) for x in pts]
        assert sum(a - 1 for a in arcs if a > 1) == n + run
        counts = neighbor_counts_sorted(*fraction_columns(pts), t.numerator, t.denominator)
        assert set(tail_paths) == {path}
        assert counts.tolist() == fraction_counts(pts, t)

    def test_arcs_longer_than_the_rounds_at_and_just_below_half(self, tail_paths):
        # about n/2 points an arc: round 1 closes none of them, and the tails
        # total about n**2 / 2, past n, so they take the difference array
        pts = sorted({Fraction(a, 997) for a in random.Random(3).sample(range(997), 60)})
        thresholds = [Fraction(1, 2), Fraction(1, 2) - Fraction(1, 10 ** 6)]
        nums, dens = fraction_columns(pts)
        rows = neighbor_counts_sorted(nums, dens, [t.numerator for t in thresholds],
                                      [t.denominator for t in thresholds])
        assert set(tail_paths) == {"cumsum"}
        assert rows.tolist() == [fraction_counts(pts, t) for t in thresholds]
        assert min(rows[0]) > len(pts) / 3

    def test_backward_hits_across_the_seam(self):
        # the points just below 1 hold 0 and 1/100 in their arcs, which then
        # count them behind: backward hits that wrap the seam in the rounds and,
        # at t = 7/200, in the tails of 97/100 and 98/100
        pts = [Fraction(0), Fraction(1, 100), Fraction(1, 2),
               Fraction(97, 100), Fraction(98, 100), Fraction(99, 100)]
        thresholds = [Fraction(1, 100) + Fraction(1, 10 ** 6), Fraction(3, 100), Fraction(7, 200)]
        nums, dens = fraction_columns(pts)
        rows = neighbor_counts_sorted(nums, dens, [t.numerator for t in thresholds],
                                      [t.denominator for t in thresholds])
        assert rows.tolist() == [fraction_counts(pts, t) for t in thresholds]
        assert rows[:, 0].tolist() == [2, 3, 4]  # 1/100 ahead of 0, and 1 to 3 points behind it


class TestOracleMemory:
    @staticmethod
    def traced_peak(Q, k):
        fs = enumerate_set(Q, k)
        tracemalloc.start()
        try:
            counts = neighbor_counts_bruteforce(fs.numerators, fs.denominators(), 1, 2 * Q ** 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, len(fs), counts.nbytes

    def test_block_buffers_bound_the_peak(self):
        # one int16 cell buffer and a uint8 mask are 3 bytes a cell, 4 with
        # room to spare (a second cell buffer, 2 bytes a cell, does not fit);
        # the int64 columns in class order, a class's windows and their
        # int64 temporaries, the seam sets and the counts take under 112 bytes a point
        def bound(n, counts_bytes):
            return spacing._BLOCK_CELLS * 4 + 112 * n + counts_bytes

        peak, n, counts_bytes = self.traced_peak(6, 3)
        # the bound of 16-row blocks of four int64 products and a mask
        assert peak < bound(n, counts_bytes) <= 16 * n * 40 + counts_bytes
        # three times the points: the 16 * n * 40 bound grows, the peak barely does
        peak, n, counts_bytes = self.traced_peak(8, 3)
        assert peak < bound(n, counts_bytes) < (16 * n * 40 + counts_bytes) / 2

    def test_a_small_call_allocates_no_whole_block(self):
        # S(1, 2) = {1/4, 3/4} forms at most 2 * 2 cells: its buffers take a few
        # bytes, not a block's 3 bytes a cell (384 KB)
        peak, n, _ = self.traced_peak(1, 2)
        assert n == 2 and peak < spacing._BLOCK_CELLS // 4


class TestScanStatistic:
    def test_matches_frozen_regression(self, data_dir):
        # frozen from this engine after the oracle-equivalence run; guards drift
        with open(data_dir / "table1_computed.csv") as fh:
            frozen = {int(r["Q"]): int(r["M"]) for r in csv.DictReader(fh)}
        for Q in [*range(1, 26), 100]:
            assert table1_count(Q) == frozen[Q]

    def test_published_reference_diverges_from_the_definition(self, data_dir):
        """The published reference pairs are not the computed statistic.

        The witness: 7/16 and 4/9 both lie in S(2, 2) and are exactly 1/144
        apart, so twice the distance is 1/72 < 1/8 and M(2) >= 1, yet the
        published value for Q = 2 is 0.  Kept as a pinned fact so the
        discrepancy is visible and intentional, not a silent regression.
        """
        with open(data_dir / "table1_expected.csv") as fh:
            published = {int(r["Q"]): int(r["M"]) for r in csv.DictReader(fh)}
        assert published[2] == 0
        assert table1_count(2) == 1

    def test_matches_frozen_conjecture_rows(self, data_dir):
        # rows frozen from the engine before its exact slice rounds; each
        # witness is the first point in value order attaining M
        with open(data_dir / "conjecture_rows.csv") as fh:
            frozen = [{key: int(v) for key, v in r.items()} for r in csv.DictReader(fh)]
        got = [{"k": k, "Q": r["Q"], "M": r["M"], "M_open": r["M_open"],
                "witness_a": r["witness_a"], "witness_q": r["witness_q"]}
               for k, q_max in ((2, 60), (3, 20))
               for r in conjecture_scan(scan_sets(1, q_max, k))["rows"]]
        assert got == frozen


class TestOneSetAlive:
    """table1 and conjecture drop each set and its counts before they build the
    next: the memory traced as a set is built holds no part of the set before."""

    @pytest.mark.parametrize("argv", [["table1", "--q-max", "36"],
                                      ["conjecture", "--q-min", "28", "--q-max", "36"],
                                      ["conjecture", "--q-min", "8", "--q-max", "12", "--k", "3"]])
    def test_no_earlier_set_alive_when_the_next_is_built(self, argv, monkeypatch, capsys):
        held, sizes, build = [], [], cli.enumerate_set

        def traced_build(Q, k):
            held.append(tracemalloc.get_traced_memory()[0])
            fs = build(Q, k)
            sizes.append(sum(c.nbytes for c in fs.lower))
            return fs

        monkeypatch.setattr(cli, "enumerate_set", traced_build)
        tracemalloc.start()
        try:
            assert cli.main(argv) == cli.EXIT_OK
        finally:
            tracemalloc.stop()
        # the memory over the first build's, at each later build, against the
        # set built before it: a set still alive would hold all of its L
        grown = [(now - held[0], size) for now, size in zip(held[1:], sizes) if size >= 2 ** 16]
        assert len(grown) >= 3
        assert all(g < size / 4 for g, size in grown), grown


class TestConjectureScan:
    def test_singleton_cubic_window(self):
        report = conjecture_scan([enumerate_set(1, 3)])
        # S(1,3) = {1/8, 3/8, 5/8, 7/8}; at threshold 1/2 each point sees the
        # two neighbors at distance 1/4 but not the antipode at exactly 1/2;
        # the open threshold is 1 > 1/2, so every other point counts
        assert report["rows"][0]["M"] == 2
        assert report["rows"][0]["M_open"] == 3

    def test_running_max_prefix(self):
        report = conjecture_scan(scan_sets(1, 10, 2))
        counts = [r["M"] for r in report["rows"]]
        assert counts == [table1_count(Q) for Q in range(1, 11)]
        assert report["running_max"] == max(counts)

    def test_open_threshold_counts_at_least_as_many(self):
        # the open convention threshold 1/Q**(k+1) is twice as wide
        for row in conjecture_scan(scan_sets(2, 8, 2))["rows"]:
            assert row["M_open"] >= row["M"]

    def test_fit_shape(self):
        report = conjecture_scan(scan_sets(1, 12, 2))
        assert set(report) == {"rows", "running_max", "fit"}
        assert report["fit"]["slope"] > 0  # counts grow with Q in this range

    def test_rows_report_the_q_and_k_of_their_sets(self):
        # each row's Q, threshold and ratio come from its own set: S(4, 2)
        # is counted at N = 4**3 whichever sets come before or after it
        sets = [enumerate_set(4, 2), enumerate_set(2, 3), enumerate_set(4, 2)]
        rows = conjecture_scan(sets)["rows"]
        assert [r["Q"] for r in rows] == [4, 2, 4]
        assert rows[0] == rows[2]
        assert rows[0]["M"] == table1_count(4)
        assert rows[1] == conjecture_scan([enumerate_set(2, 3)])["rows"][0]
        assert rows[1]["M"] == spacing_count_fast(enumerate_set(2, 3), 2 ** 4)["M"]
